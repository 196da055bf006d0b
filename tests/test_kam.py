"""Newton solver: step structure, convergence, normalization, failure modes."""

import math
import warnings

import numpy as np
import pytest

from kamforge import kam
from kamforge.errors import (DivergenceError, NearSingularError,
                             NoConvergenceError, OverflowRiskError,
                             ResonanceError)
from kamforge.fourier import (AMIN_FLOOR, HARD_CAP, FourierSeries,
                              compose_id_plus, derivative, invert_pointwise,
                              mean, product, sup_norm)
from kamforge.frequency import DiophantineClass, from_omega, from_q
from kamforge.kam import (InvariantCurve, SolverConfig, _fit_slope,
                          dynamical_residual, error_functional,
                          linearized_solve, mean_identity_residual,
                          newton_step, omega_tangent, solve_curve)
from kamforge.operators import (E_Q, GAMMA, GAMMA_MINUS, NABLA_MINUS,
                                SHIFT_PLUS, apply)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_first_newton_step_is_eps_Eq_f():
    # from u = 0 the quadrature solve collapses (A = 1, alpha = 1,
    # mu0 = 0), so one step must land exactly on eps * E_q f
    f = FourierSeries.cos()
    freq = from_omega(GOLDEN)
    eps = 0.05
    u0 = FourierSeries.zero(0)
    comp, _ = compose_id_plus(f, u0)
    u1 = newton_step(u0, comp, freq, eps)
    expected = eps * apply(E_Q, f, freq)
    diff = sup_norm(u1 - expected)
    assert diff < 1e-16
    r0 = sup_norm(error_functional(u0, f, freq, eps))
    r1 = sup_norm(error_functional(u1, f, freq, eps))
    assert r0 == pytest.approx(abs(eps), rel=1e-12)
    assert r1 < r0


def test_golden_solve_converges_and_is_invariant():
    f = FourierSeries.cos()
    curve = solve_curve(f, from_omega(GOLDEN), 0.05,
                        SolverConfig(cutoff=256, tol=1e-13))
    assert curve.report.converged
    assert curve.report.method == "newton"
    assert curve.report.iterations <= 8
    # the conjugacy must satisfy the dynamics itself, not just the solver's
    # internal residual
    assert dynamical_residual(curve, 1024) < 1e-10
    # error functional vanishes on the solution
    E = error_functional(curve.u, f, curve.freq, 0.05)
    assert sup_norm(E) < 1e-12


def test_residual_history_contracts_quadratically():
    f = FourierSeries.cos()
    curve = solve_curve(f, from_omega(GOLDEN), 0.05,
                        SolverConfig(cutoff=256, tol=1e-13))
    hist = curve.report.residual_history
    assert hist[0] > hist[-1]
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert 1.8 <= curve.report.quadratic_fit_slope <= 2.2


def test_normalization_zero_mean_and_conjugacy_shift():
    # the returned u is gauge-fixed to zero mean, and v = u - u(. - omega)
    f = FourierSeries.cos()
    freq = from_omega(GOLDEN)
    curve = solve_curve(f, freq, 0.05, SolverConfig(cutoff=128))
    assert abs(mean(curve.u)) < 1e-15
    from kamforge.operators import NABLA_MINUS
    v_expected = apply(NABLA_MINUS, curve.u, freq)
    assert sup_norm(curve.v - v_expected) < 1e-15


def test_inner_disc_solve_matches_dynamics():
    f = FourierSeries.cos()
    curve = solve_curve(f, from_q(0.3), 0.05, SolverConfig(cutoff=64))
    assert curve.report.converged
    assert dynamical_residual(curve, 512) < 1e-10


def test_rational_frequency_diverges_with_divisor_diagnostics():
    # q^2 - 1 vanishes to working precision at omega = 1/2
    f = FourierSeries.cos()
    with pytest.raises(ResonanceError) as exc_info:
        solve_curve(f, from_omega(0.5), 0.05, SolverConfig(cutoff=128))
    diag = exc_info.value.diagnostics
    assert abs(diag["k"]) == 2
    assert (diag["p"], diag["m"]) == (1, 2)


def test_budget_exhaustion_raises_with_history():
    f = FourierSeries.cos()
    with pytest.raises(NoConvergenceError) as exc_info:
        solve_curve(f, from_omega(GOLDEN), 0.05,
                    SolverConfig(cutoff=256, tol=1e-13, max_iters=1))
    assert len(exc_info.value.diagnostics["residual_history"]) >= 1


def test_a_cutoff_plateau_reports_the_truncation_tail():
    # a forcing without cos's symmetry: at cutoff 256 the defect sits at
    # 3.6e-9 while each step drops a coefficient of 1e-10 past the cutoff;
    # at 512 the same solve converges
    a = 0.15 * complex(math.cos(0.7), math.sin(0.7))
    f = FourierSeries([a, 0, 0.5, 0, 0.5, 0, a.conjugate()])
    with pytest.raises(NoConvergenceError) as exc_info:
        solve_curve(f, from_omega(GOLDEN), 0.05, SolverConfig(cutoff=256))
    diag = exc_info.value.diagnostics
    assert 1e-11 < diag["truncation_tail"] < 1e-9
    assert diag["residual_history"][-1] > 1e-9
    curve = solve_curve(f, from_omega(GOLDEN), 0.05, SolverConfig(cutoff=512))
    assert dynamical_residual(curve, 2048) < 1e-13


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12])
def test_solver_config_refuses_a_tol_that_is_not_finite_and_positive(tol):
    # at tol = inf every solve "converged" after one step
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        SolverConfig(tol=tol)


@pytest.mark.parametrize("field,kwargs", [
    ("max_iters", {"max_iters": -1}),
    ("cutoff", {"cutoff": 0}),
    ("cutoff", {"cutoff": -3}),
    ("cutoff", {"cutoff": HARD_CAP + 1}),
    ("max_iters", {"max_iters": 2.5}),
    ("max_iters", {"max_iters": True}),
    ("cutoff", {"cutoff": 100.5}),
    ("cutoff", {"cutoff": 64.0}),
    ("cutoff", {"cutoff": True}),
])
def test_solver_config_rejects_budget_and_cutoff(field, kwargs):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**kwargs)


def test_solver_config_accepts_boundary_values():
    SolverConfig(max_iters=0, cutoff=1)
    SolverConfig(cutoff=HARD_CAP)


def test_step_rejects_non_invertible_id_plus_u():
    # u' = 2 pi i 0.2 e_1 has sup 1.26 > 1, and A A+ = 1 + u' + u'(. + omega)
    # + u' u'(. + omega) averages to zero: the mean correction refuses it
    f = FourierSeries.cos()
    u = FourierSeries.basis(1, 0.2)
    comp, _ = compose_id_plus(f, u)
    with pytest.raises(NearSingularError, match="<alpha>"):
        newton_step(u, comp, from_omega(GOLDEN), 0.05)


# w = scale (1 + z + z^2 +- z^3) on modes 0..3: sum |w_k| is 4 scale, sup|w|
# 2.66 scale with the minus sign (Rudin-Shapiro) and 4 scale with the plus
@pytest.mark.parametrize("top,scale,sups_formed,diverges", [
    pytest.param(-1.0, 0.2, 0, False, id="sum-0.8"),
    pytest.param(-1.0, 0.3, 1, False, id="sum-1.2-sup-0.8"),
    pytest.param(1.0, 0.3, 1, True, id="sup-1.2"),
])
def test_newton_step_forms_the_sup_of_w_once_sum_w_reaches_one(
        monkeypatch, top, scale, sups_formed, diverges):
    freq, u = from_omega(GOLDEN), FourierSeries.basis(1, 0.01)
    comp, _ = compose_id_plus(FourierSeries.cos(), u)
    w = FourierSeries(scale * np.array([0, 0, 0, 1, 1, 1, top]))
    sups = []
    monkeypatch.setattr(kam, "linearized_solve", lambda A, E, fr: w)
    monkeypatch.setattr(kam, "sup_norm",
                        lambda phi: sups.append(sup_norm(phi)) or sups[-1])
    if diverges:
        with pytest.raises(DivergenceError, match=r"^Newton correction has "
                           r"sup 1\.2 >= 1; a small divisor has taken over$"):
            newton_step(u, comp, freq, 0.05)
    else:
        A = FourierSeries.constant(1.0) + derivative(u)
        out = newton_step(u, comp, freq, 0.05)
        assert np.array_equal(out.coeffs, (u + kam.product(A, w)).coeffs)
    assert len(sups) == sups_formed


def test_newton_solves_where_sup_of_u_prime_exceeds_one():
    # at q = 0.8 e^{0.5 i} Picard's solution has sup|u'| > 1, but min|1 + u'|
    # stays near 0.43: A is invertible and Newton must agree with Picard
    from kamforge.continuation import picard_solve
    f = FourierSeries.cos()
    freq = from_q(0.8 * np.exp(0.5j))
    curve = solve_curve(f, freq, 0.05)
    u_p, _ = picard_solve(f, freq, 0.05)
    assert sup_norm(derivative(u_p)) > 1.0
    assert sup_norm(curve.u - u_p) < 1e-11


def grid_route(A, E, freq):
    """linearized_solve's quadratures through the grid inverse, for any A."""
    alpha = invert_pointwise(product(A, apply(SHIFT_PLUS, A, freq)))
    psi = apply(GAMMA_MINUS, product(A, E), freq)
    alpha_mean = mean(alpha)
    if abs(alpha_mean) < 1e-8:
        raise NearSingularError(
            f"<alpha> = {abs(alpha_mean):.3e} too small for the mean correction",
            {"alpha_mean": alpha_mean})
    ap = product(alpha, psi)
    mu0 = -mean(ap) / alpha_mean
    return apply(GAMMA, ap + kam._scaled(mu0, alpha, "mu0 alpha"), freq)


def wide_forcing(seed=11, N=64, decay=0.3):
    """Real zero-mean forcing on 2N + 1 modes, |c_k| = exp(-decay |k|)."""
    ks = np.arange(1, N + 1)
    phases = np.random.default_rng(0).random(N) + ks * np.random.default_rng(
        seed).random()
    c = np.exp(-decay * ks + 2j * np.pi * phases)
    return FourierSeries(np.concatenate([np.conj(c[::-1]), [0.0], c]))


@pytest.fixture
def no_grid(monkeypatch):
    def refuse(A):
        raise AssertionError("a constant A went through the grid inverse")
    monkeypatch.setattr(kam, "invert_pointwise", refuse)


def test_a_constant_A_is_the_grid_route_bit_for_bit_at_one(no_grid):
    # every cold start's first step: A = 1 and E = eps f, here the 129-mode
    # forcing of the wide sweep; signed zeros included
    freq, E = from_omega(0.5 + 0.01j), 5e-4 * wide_forcing()
    w = linearized_solve(FourierSeries.constant(1.0), E, freq)
    ref = grid_route(FourierSeries.constant(1.0), E, freq)
    assert w.coeffs.tobytes() == ref.coeffs.tobytes()
    assert np.array_equal(np.signbit(w.coeffs.view(float)),
                          np.signbit(ref.coeffs.view(float)))


def test_a_constant_A_agrees_with_the_grid_route_at_round_off(no_grid):
    freq, E = from_omega(0.5 + 0.01j), 5e-4 * wide_forcing()
    A = FourierSeries.constant(2.0 - 0.5j)
    w, ref = linearized_solve(A, E, freq), grid_route(A, E, freq)
    assert w.N == ref.N
    assert np.max(np.abs(w.coeffs - ref.coeffs)) <= 1e-15 * np.max(
        np.abs(ref.coeffs))


@pytest.mark.parametrize("a,message,keys", [
    (1e-4, r"^min \|A\| on grid = 1\.000e-08 at/below floor 1\.0e-08$",
     {"grid_min", "floor"}),
    (3e-5j, r"^min \|A\| on grid = 9\.000e-10 at/below floor 1\.0e-08$",
     {"grid_min", "floor"}),
    (2e4, r"^<alpha> = 2\.500e-09 too small for the mean correction$",
     {"alpha_mean"}),
])
def test_a_constant_A_keeps_both_refusals(no_grid, a, message, keys):
    freq, E = from_omega(GOLDEN), 0.05 * FourierSeries.cos()
    for solve in (linearized_solve, grid_route):
        with pytest.raises(NearSingularError, match=message) as caught:
            solve(FourierSeries.constant(a), E, freq)
        assert set(caught.value.diagnostics) == keys
    if "floor" in keys:
        assert caught.value.diagnostics["floor"] == AMIN_FLOOR


@pytest.mark.parametrize("im", [math.inf, -math.inf])
def test_a_constant_A_at_a_chart_pole_is_refused(im):
    # no frequency exists at a chart pole, so neither solve route is reached
    with pytest.raises(ValueError, match=r"^omega must be finite with "):
        freq = from_omega(complex(0.3, im))
        for solve in (linearized_solve, grid_route):
            solve(FourierSeries.constant(1.0), 0.05 * FourierSeries.cos(), freq)


@pytest.mark.parametrize("Nu,Nt", [(0, 4), (3, 10), (10, 3), (5, 5)])
def test_the_defect_is_the_sup_of_the_gauge_fixed_difference(Nu, Nt):
    # formed in one widened pass, it equals the series arithmetic exactly
    rng = np.random.default_rng(Nu + 7 * Nt)
    u, target = (FourierSeries(rng.standard_normal(2 * n + 1)
                               + 1j * rng.standard_normal(2 * n + 1))
                 for n in (Nu, Nt))
    ref = sup_norm((u - FourierSeries.constant(mean(u))) - target)
    assert kam._fixed_point_defect(u, target) == ref


def test_fit_slope_is_nan_when_every_pair_shares_its_log_r_n():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_fit_slope([1e-3, 1e-3, 1e-9]))
        assert math.isnan(_fit_slope([1e-2, 1e-2, 1e-2, 1e-5]))


@pytest.mark.parametrize("history", [[], [1e-3], [1e-3, 1e-5], [0.0, 1e-4],
                                     [1e-3, 1e-16, 1e-17], [0.0, 0.0, 1e-6]])
def test_fit_slope_is_nan_under_two_pairs(history):
    assert math.isnan(_fit_slope(history))


def test_fit_slope_agrees_with_polyfit():
    rng = np.random.default_rng(5)
    histories = [[10.0 ** -(2 ** n) for n in range(4)],
                 solve_curve(FourierSeries.cos(), from_omega(GOLDEN), 0.05,
                             SolverConfig(tol=1e-13)).report.residual_history]
    for n in range(3, 31):  # every r_n above 1e-13: n - 1 pairs
        histories.append(list(10.0 ** -np.cumsum(rng.uniform(0.01, 0.4, n))))
    for h in histories:
        xs = [math.log10(a) for a, b in zip(h, h[1:]) if b >= 1e-13]
        ys = [math.log10(b) for b in h[1:] if b >= 1e-13]
        assert len(xs) >= 2
        assert _fit_slope(h) == pytest.approx(np.polyfit(xs, ys, 1)[0],
                                              rel=1e-12, abs=1e-12)


def test_fit_slope_falls_back_to_the_lower_floor():
    # at 1e-13 only the pair (1e-3, 1e-7) is left; at 1e-15 the line runs
    # through (-3, -7) and (-7, -14)
    assert _fit_slope([1e-3, 1e-7, 1e-14]) == pytest.approx(1.75, rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_solve_curve_rejects_a_non_finite_eps(bad):
    with pytest.raises(ValueError, match="eps must be finite"):
        solve_curve(FourierSeries.cos(), from_omega(GOLDEN), bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the typed error alone
def test_an_overflowing_defect_is_typed():
    # E_q f is finite (|e_q| < 1 at 0.3), but eps E_q f passes DBL_MAX
    f = FourierSeries([1e308, 0.0, 1e308])
    with pytest.raises(OverflowRiskError,
                       match=r"^eps E_q f\(id \+ u\) overflowed$") as e:
        solve_curve(f, from_omega(0.3), 10.0)
    assert e.value.diagnostics["step"] == "eps E_q f(id + u)"


@pytest.mark.parametrize("offset,warns", [(0.0, False), (1e-14, False),
                                          (1e-12, True)])
def test_forcing_mean_warning_and_its_scale(monkeypatch, offset, warns):
    # the mean is weighed against max(sup|f|, 1) >= 1, so sup|f| is only
    # formed once |<f>| exceeds 1e-13
    f = FourierSeries([0.5, offset, 0.5])
    formed = []
    real = kam.sup_norm
    monkeypatch.setattr(kam, "sup_norm",
                        lambda phi: formed.append(phi is f) or real(phi))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            solve_curve(f, from_omega(GOLDEN), 0.05, SolverConfig(max_iters=2))
        except NoConvergenceError:
            pass
    assert any("forcing has mean" in str(w.message) for w in caught) == warns
    assert any(formed) == (offset > 1e-13)


def test_correction_blowup_raises_with_divisor_diagnostics():
    # with this forcing (mean 2, so no invariant curve exists) the second
    # Newton correction reaches sup ~5e2; the loop's record names the worst
    # divisor, at k = -10 next to 3/10 (at 0.3 itself q^10 - 1 vanishes)
    f = FourierSeries([1.0, 2.0, 3.0])
    with pytest.warns(RuntimeWarning, match="forcing has mean"):
        with pytest.raises(DivergenceError,
                           match="Newton correction has sup") as exc_info:
            solve_curve(f, from_omega(0.3 + 1e-9), 0.05, SolverConfig())
    diag = exc_info.value.diagnostics
    assert list(diag) == ["residual_history", "max_divisor", "max_divisor_k",
                          "truncation_tail"]
    assert len(diag["residual_history"]) >= 1
    assert diag["max_divisor"] > 1.0


TRAILING_RECORD = ["residual_history", "max_divisor", "max_divisor_k",
                   "truncation_tail"]
NEAR_SINGULAR_KEYS = ["cutoff", "hard_cap", "grid_min"]
RESONANCE_KEYS = ["k", "omega", "p", "m"]


def _phase_probe(r):
    return from_q(r * complex(math.cos(0.5), math.sin(0.5)))


def _newton(freq, eps=0.05, **kwargs):
    return lambda monkeypatch: solve_curve(FourierSeries.cos(), freq, eps,
                                           **kwargs)


def _v_overflows(monkeypatch):
    # v = nabla_minus u is formed after the loop and its last defect; given
    # non-finite coefficients there, apply raises
    real = kam.apply

    def apply(kind, phi, freq):
        if kind is NABLA_MINUS:
            phi = FourierSeries._of(phi.coeffs * math.inf)
        return real(kind, phi, freq)

    monkeypatch.setattr(kam, "apply", apply)
    return solve_curve(FourierSeries.cos(), from_omega(GOLDEN), 0.05)


def _picard(freq, budget=None):
    def run(monkeypatch):
        from kamforge import continuation
        if budget is not None:
            monkeypatch.setattr(continuation, "PICARD_MAX_ITERS", budget)
        return continuation.picard_solve(FourierSeries.cos(), freq, 0.05,
                                         SolverConfig(tol=1e-13))
    return run


# (solve, error, keys ahead of the record, failed after the loop, the k at
# which max_divisor reads inf or None)
SOLVE_FAILURES = [
    pytest.param(_newton(_phase_probe(0.9)), NearSingularError,
                 NEAR_SINGULAR_KEYS, False, None, id="newton-r0.9"),
    pytest.param(_newton(_phase_probe(0.95)), DivergenceError, [], False,
                 None, id="newton-r0.95"),
    pytest.param(_newton(_phase_probe(1.05)), NearSingularError,
                 NEAR_SINGULAR_KEYS, False, None, id="newton-r1.05"),
    pytest.param(_newton(_phase_probe(1.1)), DivergenceError, [], False,
                 None, id="newton-r1.1"),
    pytest.param(_newton(from_omega(0.5)), ResonanceError, RESONANCE_KEYS,
                 False, 2, id="resonance-1/2"),
    # q^5 - 1 vanishes past the cutoff 4, where the divisor table still reads
    pytest.param(_newton(from_omega(0.2), config=SolverConfig(cutoff=4)),
                 ResonanceError, RESONANCE_KEYS, False, 5,
                 id="resonance-past-the-cutoff"),
    # the budget runs out first; the table at the cutoff meets q^2 - 1 = 0
    pytest.param(_newton(from_omega(0.5), config=SolverConfig(max_iters=0),
                         dioph=DiophantineClass(M=6.0, tau=0.5, m_max=200)),
                 NoConvergenceError, ["in_KM"], False, 2,
                 id="budget-0-at-1/2"),
    pytest.param(_v_overflows, OverflowRiskError, ["kind", "cutoff"], True,
                 None, id="v-after-the-loop"),
    pytest.param(_picard(from_q(0.95)), DivergenceError, ["q_modulus"],
                 False, None, id="picard-q0.95"),
    pytest.param(_picard(from_q(0.3), budget=2), NoConvergenceError,
                 ["q_modulus"], False, None, id="picard-budget-2"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solve,error,leading,after_loop,inf_at",
                         SOLVE_FAILURES)
def test_every_solve_failure_ends_with_the_one_record(
        monkeypatch, solve, error, leading, after_loop, inf_at):
    # whatever raises inside the loop, the normalization or v, the error
    # leaves with its own keys, then the entry diagnostics, then the record
    defects = []
    real = kam._fixed_point_defect
    monkeypatch.setattr(kam, "_fixed_point_defect",
                        lambda u, t: defects.append(real(u, t)) or defects[-1])
    with pytest.raises(error) as info:
        solve(monkeypatch)
    diag = info.value.diagnostics
    assert list(diag) == leading + TRAILING_RECORD
    # every defect the loop recorded; a failure after the loop has also
    # formed the post-normalization defect, which is no iteration's
    assert diag["residual_history"] == defects[:len(defects) - after_loop]
    assert len(diag["residual_history"]) >= 1
    if inf_at is None:
        assert 0.0 < diag["max_divisor"] < math.inf
    else:
        assert (diag["max_divisor"], diag["max_divisor_k"]) == (math.inf,
                                                                inf_at)


def test_membership_gate_warns_outside_class():
    f = FourierSeries.cos()
    cls = DiophantineClass(M=6.0, tau=0.5, m_max=200)
    # golden sits inside the class: no warning, flag recorded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = solve_curve(f, from_omega(GOLDEN), 0.05,
                            SolverConfig(cutoff=128), dioph=cls)
    assert curve.report.diagnostics["in_KM"] is True
    # a near-rational real frequency is excluded: solve still runs but warns
    with pytest.warns(RuntimeWarning):
        try:
            solve_curve(f, from_omega(0.5 + 1e-9), 0.05,
                        SolverConfig(cutoff=32, max_iters=3), dioph=cls)
        except (DivergenceError, NoConvergenceError):
            pass


def test_nonzero_mean_forcing_warns():
    # a nonzero forcing mean makes the equation inconsistent at mode 0
    # (the divisor operator kills constants), so the solver must warn up
    # front; whatever happens afterwards is allowed to fail
    f = FourierSeries.cos() + FourierSeries.constant(0.25)
    with pytest.warns(RuntimeWarning):
        try:
            solve_curve(f, from_omega(GOLDEN), 0.05,
                        SolverConfig(cutoff=64, max_iters=3))
        except (DivergenceError, NoConvergenceError):
            pass


@pytest.mark.parametrize("im", [4.0, -4.0, 60.0, -60.0])
def test_cold_start_far_off_the_circle_takes_a_newton_step(im):
    # at u = 0 the defect eps |E_q f| ~ eps |q| is below tol out there, but
    # v = (1 - q^{-k}) u is O(eps): accepting the zero seed left a dynamical
    # residual of eps = 1e-2
    freq = from_omega(complex(0.3, im))
    curve = solve_curve(FourierSeries.cos(), freq, 0.01)
    assert curve.report.iterations >= 1
    assert dynamical_residual(curve) < 1e-10
    # a warm seed that already solves the equation is accepted as it is
    warm = solve_curve(FourierSeries.cos(), freq, 0.01,
                       SolverConfig(seed=curve.u))
    assert warm.report.iterations == 0


def test_warm_seed_converges_faster():
    f = FourierSeries.cos()
    freq = from_omega(GOLDEN)
    base = solve_curve(f, freq, 0.05, SolverConfig(cutoff=128))
    warm = solve_curve(f, freq, 0.051,
                       SolverConfig(cutoff=128, seed=base.u))
    assert warm.report.converged
    assert warm.report.iterations <= base.report.iterations


def test_identity_residuals_vanish_off_solutions():
    # <(1+u') E(u)> = 0 holds for arbitrary u, not only solutions
    rng = np.random.default_rng(7)
    f = FourierSeries.cos()
    freq = from_omega(GOLDEN)
    eps = 0.01
    c = 0.001 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    c[3] = 0.0
    u = FourierSeries(c * np.exp(-1.0 * np.abs(np.arange(-3, 4))))
    assert mean_identity_residual(u, f, freq, eps) < 1e-14


def test_curve_json_roundtrip():
    f = FourierSeries.cos()
    curve = solve_curve(f, from_omega(GOLDEN), 0.05, SolverConfig(cutoff=64))
    d = curve.to_json_dict(dynamical=dynamical_residual(curve, 256))
    back = InvariantCurve.from_json_dict(d)
    assert sup_norm(curve.u - back.u) == 0.0
    assert sup_norm(curve.v - back.v) == 0.0
    assert back.freq.omega == curve.freq.omega
    assert back.eps == curve.eps
    assert d["dynamical_residual"] is not None


def test_csv_rows_shape_and_values():
    f = FourierSeries.cos()
    curve = solve_curve(f, from_omega(GOLDEN), 0.05, SolverConfig(cutoff=64))
    rows = list(curve.csv_rows(grid_n=16))
    assert len(rows) == 16
    theta0, xr, xi, yr, yi = rows[0]
    assert theta0 == 0.0
    # x = theta + u(theta), y = omega + v(theta) at theta = 0
    from kamforge.fourier import evaluate
    assert xr + 1j * xi == pytest.approx(complex(evaluate(curve.u, 0.0)),
                                         abs=1e-15)
    assert yr + 1j * yi == pytest.approx(
        GOLDEN + complex(evaluate(curve.v, 0.0)), abs=1e-15)


def dense_residual(curve, grid_n):
    """The dynamical residual with every series summed mode by mode."""
    def at(phi, z):
        ks = np.arange(-phi.N, phi.N + 1)
        return np.exp(2j * np.pi * np.outer(z, ks)) @ phi.coeffs

    om, eps = curve.freq.omega, complex(curve.eps)
    theta = np.arange(grid_n) / grid_n
    x = theta + at(curve.u, theta)
    y = om + at(curve.v, theta)
    fx = at(curve.f, x)
    tw = theta + om
    dx = tw + at(curve.u, tw) - (x + y + eps * fx)
    dx = dx - np.round(dx.real)
    dy = om + at(curve.v, tw) - (y + eps * fx)
    return float(max(np.max(np.abs(dx)), np.max(np.abs(dy))))


@pytest.mark.parametrize("grid_n", [0, -4, 2.5, 64.0, True])
def test_dynamical_residual_refuses_a_grid_that_is_no_count(grid_n):
    # grid_n = 0 ended in an IndexError
    curve = solve_curve(FourierSeries.cos(), from_q(0.3), 0.05,
                        SolverConfig(cutoff=32))
    with pytest.raises(ValueError, match="grid_n must be an int >= 1"):
        dynamical_residual(curve, grid_n)


def test_dynamical_residual_matches_dense_formula():
    solved = solve_curve(FourierSeries.cos(), from_omega(GOLDEN), 0.05,
                         SolverConfig(cutoff=256))
    # not a solution, complex, and u.N = 40 > grid_n / 2 = 32: the grid
    # samples of u fold modes onto each other
    rng = np.random.default_rng(8)

    def series(N, decay):
        ks = np.arange(-N, N + 1)
        return FourierSeries(np.exp(-decay * np.abs(ks)) * 0.01 * (
            rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)))

    freq = from_omega(0.3 + 0.02j)
    u = series(40, 0.3)
    rough = InvariantCurve(u=u, v=apply(NABLA_MINUS, u, freq), freq=freq,
                           eps=0.05 + 0.01j, report=solved.report,
                           f=series(3, 0.5))
    for curve, grid_n in ((solved, 1024), (rough, 64)):
        fast = dynamical_residual(curve, grid_n)
        assert fast == pytest.approx(dense_residual(curve, grid_n), abs=1e-15)
    assert dynamical_residual(rough, 64) > 1e-3


@pytest.mark.parametrize("omega", [GOLDEN, math.sqrt(2.0) - 1.0])
def test_omega_tangent_is_the_derivative_across_the_real_axis(omega):
    # the curves at omega + i delta (inner chart) and omega - i delta (outer
    # chart) are one function of omega: their central difference across the
    # real axis converges to the tangent at the real point as delta^2
    f, cfg = FourierSeries.cos(), SolverConfig(cutoff=256, tol=1e-13)
    h = omega_tangent(solve_curve(f, from_omega(omega), 0.1, cfg).u,
                      from_omega(omega))
    gaps = []
    for delta in (1e-4, 1e-5):
        up, um = (solve_curve(f, from_omega(omega + s * 1j * delta), 0.1,
                              cfg).u for s in (1, -1))
        assert from_omega(omega - 1j * delta).chart == "outer"
        gaps.append(sup_norm((up - um) * (1 / (2j * delta)) - h))
    assert 90.0 <= gaps[0] / gaps[1] <= 110.0, gaps
    assert gaps[1] < 1e-6
