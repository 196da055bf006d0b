"""Picard fixed point, Taylor orders at q = 0, and cross-method agreement."""

import math
import warnings

import numpy as np
import pytest

from kamforge import continuation, jsonio
from kamforge.continuation import (QTaylorData, conjugate_reflection_check,
                                   crosscheck, inverse_scattering,
                                   picard_solve, taylor0_eval,
                                   taylor0_recursion)
from kamforge.errors import (DivergenceError, NearSingularError,
                             OverflowRiskError)
from kamforge.fourier import FourierSeries, composition_jet, mean, sup_norm
from kamforge.frequency import DiophantineClass, from_omega, from_q
from kamforge.kam import (DIVERGENCE_FACTOR, SolverConfig, dynamical_residual,
                          solve_curve)
from kamforge.operators import NABLA_MINUS, apply, e_n

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_picard_matches_newton_inner_disc():
    f = FourierSeries.cos()
    freq = from_q(0.3)
    eps = 0.05
    u_p, rep = picard_solve(f, freq, eps, SolverConfig(cutoff=64, tol=1e-14))
    assert rep.converged
    assert rep.method == "picard"
    # the fixed point makes the mean defect an exact zero, so beta only
    # measures truncation
    assert abs(rep.beta) < 1e-15
    curve = solve_curve(f, freq, eps, SolverConfig(cutoff=64, tol=1e-14))
    d = sup_norm((u_p - FourierSeries.constant(mean(u_p)))
                 - (curve.u - FourierSeries.constant(mean(curve.u))))
    assert d < 1e-10


def test_picard_refuses_near_unit_circle():
    f = FourierSeries.cos()
    with pytest.raises(ValueError):
        picard_solve(f, from_q(0.97), 0.05)
    with pytest.raises(ValueError):
        picard_solve(f, from_omega(GOLDEN), 0.05)  # |q| = 1 exactly


@pytest.mark.parametrize("r", [0.95, 1.05])
def test_picard_runs_on_the_margin_at_every_phase(r):
    # |q| = r reads as r, or one ulp to either side, depending on the phase;
    # a gap that rounds to just below PICARD_MARGIN still counts as on it
    f = FourierSeries.cos()
    moduli = set()
    for phase in (1.0, 2.0, 2 * math.pi / 7, 3.0):
        freq = from_q(r * complex(math.cos(phase), math.sin(phase)))
        moduli.add(math.exp(-2 * math.pi * freq.omega.imag))
        _, rep = picard_solve(f, freq, 0.05, SolverConfig(cutoff=32))
        assert rep.converged
    if r < 1.0:
        assert max(moduli) > r     # the phase that used to be refused
    with pytest.raises(ValueError, match="within 0.05 of the unit circle"):
        picard_solve(f, from_q(r + (0.01 if r < 1.0 else -0.01)), 0.05)


@pytest.mark.parametrize("q, steps", [(0.95, 14), (-1.05, 2)])
def test_picard_stops_when_the_difference_grows(q, steps):
    # at q = 0.95 the iterate used to grow until evaluate's exponent guard
    # fired; at q = -1.05 it oscillated through the whole iteration budget
    with pytest.raises(DivergenceError) as info:
        picard_solve(FourierSeries.cos(), from_q(q), 0.05)
    d = info.value.diagnostics
    assert list(d) == ["q_modulus", "residual_history", "max_divisor",
                       "max_divisor_k", "truncation_tail"]
    assert d["q_modulus"] == pytest.approx(abs(q))
    h = d["residual_history"]
    assert len(h) == steps
    assert h[-1] > DIVERGENCE_FACTOR * h[-2]
    assert all(b <= DIVERGENCE_FACTOR * a for a, b in zip(h, h[1:-1]))


# Newton's two refusals on the probe grid: at r = 0.9 an iterate's 1/(A A+)
# needs more modes than the hard cap, at r = 1.1 the residual grows 10x
PROBE_NEWTON_FAILURES = {(0.9, 0.5): NearSingularError,
                         (1.1, 0.5): DivergenceError}


@pytest.mark.parametrize("r", [0.5, 0.7, 0.8, 0.9, 1.1, 1.25, 1.5, 2.0])
@pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
def test_newton_and_picard_agree_on_the_probe_grid(r, phi):
    # the two methods run one solve loop with different steps: Picard
    # contracts at every probe, and wherever Newton converges too, both
    # return the same zero-mean curve
    f = FourierSeries.cos()
    freq = from_q(r * complex(math.cos(phi), math.sin(phi)))
    u_p, rep = picard_solve(f, freq, 0.05)
    assert rep.converged and rep.method == "picard"
    failure = PROBE_NEWTON_FAILURES.get((r, phi))
    if failure is None:
        assert sup_norm(solve_curve(f, freq, 0.05).u - u_p) < 1e-11
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # hard-cap products
        with pytest.raises(failure):
            solve_curve(f, freq, 0.05)


def test_picard_warm_start_takes_fewer_steps():
    f = FourierSeries.cos()
    freq = from_q(0.3)
    u_prev, _ = picard_solve(f, freq, 0.05)
    u_cold, cold = picard_solve(f, freq, 0.051)
    u_warm, warm = picard_solve(f, freq, 0.051, SolverConfig(seed=u_prev))
    assert warm.iterations < cold.iterations
    assert sup_norm(u_warm - u_cold) < 1e-12


def test_taylor_orders_support_and_top_law():
    # u_n lives on modes |k| <= n and its extreme coefficients are exactly
    # eps * f_{+-n}
    rng = np.random.default_rng(3)
    mags = rng.uniform(0.2, 1.0, size=4)
    phases = np.exp(2j * np.pi * rng.random(4))
    half = mags * phases * np.exp(-0.5 * np.arange(1, 5))
    coeffs = np.concatenate([np.conj(half[::-1]), [0.0], half])
    f = FourierSeries(coeffs)  # degree 4, zero mean
    eps = 0.05
    data = taylor0_recursion(f, eps, N_q=12)
    for n in range(1, 13):
        un = data.order(n)
        assert un.N <= n
        assert abs(mean(un)) == 0.0
        ftop = f.coeff(n) if n <= 4 else 0.0
        fbot = f.coeff(-n) if n <= 4 else 0.0
        assert abs(un.coeff(n) - eps * ftop) < 1e-14
        assert abs(un.coeff(-n) - eps * fbot) < 1e-14


def taylor_test_forcing(K):
    """Zero-mean forcing on the modes 0 < |k| <= K."""
    k = np.arange(-K, K + 1)
    c = np.where(k != 0, 1 / (1 + np.abs(k)) + 0.3j * np.sign(k) / (1 + k * k), 0)
    return FourierSeries(c)


@pytest.mark.parametrize("K, N_q", [(1, 60), (3, 60), (5, 30)])
def test_taylor_orders_are_the_sum_of_their_e_n_pieces(K, N_q):
    # u_n = eps sum_{n0} E^(n0) [f(id+u)]_{n-n0}, assembled from e_n on the
    # jet's own compositions, on the cutoff the n pieces give: [f(id+u)]_s
    # has cutoff K + s, so u_n has min(n, (n + K) // 2), the cutoffs of the
    # assembly that summed the pieces one series at a time
    f = taylor_test_forcing(K)
    eps = 0.05
    data = taylor0_recursion(f, eps, N_q=N_q)
    jet = composition_jet(f.coeffs)
    comp = [FourierSeries._of(next(jet))]
    for n in range(1, N_q + 1):
        un = data.order(n)
        assert un.N == min(n, (n + K) // 2)
        ref = eps * sum((e_n(comp[n - n0], n0) for n0 in range(1, n + 1)),
                        FourierSeries.zero(0))
        assert ref.N == un.N
        err = np.max(np.abs(un.coeffs - ref.coeffs))
        assert err <= 4e-16 * np.max(np.abs(ref.coeffs))
        comp.append(FourierSeries._of(jet.send(un.coeffs)))


def test_taylor_eval_partial_sum_and_term_norms():
    # the partial sum is the series sum of the terms q^n u_n, bit for bit,
    # and each term norm is |q^n| sup|u_n|, the term's own sup to rounding
    data = taylor0_recursion(taylor_test_forcing(3), 0.05, N_q=30)
    q = 0.25 - 0.1j
    u, info = taylor0_eval(data, q)
    acc, qn = FourierSeries.zero(0), 1.0
    for n, un in enumerate(data.orders, start=1):
        qn = qn * q
        acc = acc + qn * un
        assert info["term_norms"][n - 1] == abs(qn) * info["order_norms"][n - 1]
        assert info["term_norms"][n - 1] == pytest.approx(sup_norm(qn * un),
                                                          rel=1e-13)
    assert np.array_equal(u.coeffs, acc.coeffs)


def test_taylor_eval_matches_picard_at_complex_q():
    f = FourierSeries.cos()
    eps = 0.05
    q = 0.2 + 0.15j
    data = taylor0_recursion(f, eps, N_q=40)
    u_t, _ = taylor0_eval(data, q)
    u_p, _ = picard_solve(f, from_q(q), eps, SolverConfig(cutoff=64, tol=1e-14))
    assert sup_norm(u_t - u_p) < 1e-12


def test_taylor_eval_rejects_outside_disc_and_warns_near_radius():
    f = FourierSeries.cos()
    data = taylor0_recursion(f, 0.05, N_q=10)
    with pytest.raises(ValueError):
        taylor0_eval(data, 1.0)
    with pytest.raises(ValueError):
        taylor0_eval(data, 1.2 + 0.1j)
    # non-decaying term norms must be flagged: orders growing like 2^n at
    # q = 0.9 give terms (1.8)^n
    basis = FourierSeries(np.array([0.0, 0.0, 1.0], dtype=complex))
    grow = QTaylorData(orders=[(2.0 ** n) * basis for n in range(1, 11)],
                       eps=0.05, f_ref=f)
    with pytest.warns(RuntimeWarning):
        taylor0_eval(grow, 0.9)
    # the info carries the raw decay data beside the verdict
    u, info = taylor0_eval(data, 0.3)
    assert len(info["term_norms"]) == 10
    assert len(info["root_test"]) == 10
    assert info["last_term"] == info["term_norms"][-1]


def test_inverse_scattering_recovers_forcing():
    # coeff(u_n, +-n) = eps f_{+-n} lets the forcing be read back from the
    # orders alone
    rng = np.random.default_rng(11)
    half = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.3
    coeffs = np.concatenate([np.conj(half[::-1]), [0.0], half])
    f = FourierSeries(coeffs)
    eps = 0.07
    data = taylor0_recursion(f, eps, N_q=8)
    rec = inverse_scattering(data)
    target = eps * f
    for k in range(-3, 4):
        assert abs(rec.coeff(k) - target.coeff(k)) < 1e-15
    for k in range(4, 9):
        assert rec.coeff(k) == 0.0 and rec.coeff(-k) == 0.0


def test_taylor_data_json_roundtrip():
    f = FourierSeries.cos()
    data = taylor0_recursion(f, 0.05 + 0.01j, N_q=5)
    back = QTaylorData.from_json_dict(jsonio.encode(data))
    assert back.eps == data.eps
    assert sup_norm(back.f_ref - data.f_ref) == 0.0
    assert len(back.orders) == 5
    for a, b in zip(data.orders, back.orders):
        assert sup_norm(a - b) == 0.0


def test_taylor_recursion_validation():
    f = FourierSeries.cos()
    with pytest.raises(ValueError):
        taylor0_recursion(f, 0.05, N_q=0)
    with pytest.raises(ValueError):
        taylor0_recursion(f, 0.05, N_q=100)  # beyond the order cap


def test_crosscheck_full_agreement_inner_disc():
    f = FourierSeries.cos()
    report = crosscheck(f, from_q(0.3), 0.05,
                        config=SolverConfig(cutoff=64, tol=1e-14))
    assert report["methods"]["newton"]["status"] == "ok"
    assert report["methods"]["picard"]["status"] == "ok"
    assert report["methods"]["taylor0"]["status"] == "ok"
    assert report["pairs"]["picard_vs_taylor0"] < 1e-8
    assert report["pairs"]["newton_vs_picard"] < 1e-10
    assert report["pairs"]["newton_vs_taylor0"] < 1e-8


def test_eps_zero_gives_the_zero_curve_to_every_method():
    # at eps = 0 the map is integrable and u = 0 exactly
    f, freq = FourierSeries.cos(), from_q(0.3)
    curve = continuation._picard_curve(f, freq, 0.0)
    rep = curve.report
    assert rep.method == "picard" and rep.converged and rep.iterations == 1
    assert rep.residual_history == [0.0, 0.0]
    assert curve.u.coeffs.tolist() == [0j] and curve.v.coeffs.tolist() == [0j]
    assert dynamical_residual(curve, 1024) == 0.0 and rep.beta == 0
    report = crosscheck(f, freq, 0.0)
    assert {m["status"] for m in report["methods"].values()} == {"ok"}
    assert len(report["methods"]) == 3
    assert report["pairs"] == {"newton_vs_picard": 0.0,
                               "newton_vs_taylor0": 0.0,
                               "picard_vs_taylor0": 0.0}


def test_crosscheck_reuses_supplied_taylor_data():
    f = FourierSeries.cos()
    data = taylor0_recursion(f, 0.05, N_q=25)
    report = crosscheck(f, from_q(0.3), 0.05, methods=("taylor0",),
                        n_taylor=25, taylor_data=data)
    assert report["methods"]["taylor0"]["orders"] == 25


def test_crosscheck_reuses_taylor_data_only_at_its_order_count():
    # 40 supplied orders were reported for n_taylor = 10 (last term 5.9e-17)
    f, freq = FourierSeries.cos(), from_q(0.3)
    fresh = crosscheck(f, freq, 0.05, methods=("taylor0",), n_taylor=10)
    report = crosscheck(f, freq, 0.05, methods=("taylor0",), n_taylor=10,
                        taylor_data=taylor0_recursion(f, 0.05, N_q=40))
    assert report == fresh
    assert report["methods"]["taylor0"]["orders"] == 10


@pytest.mark.parametrize("methods", [
    (m for m in ["newton", "picard"]),    # the name check consumed it
    {"newton": 1, "picard": 2}.keys(),    # not subscriptable
], ids=["generator", "dict-keys"])
def test_crosscheck_runs_any_iterable_of_methods(methods):
    report = crosscheck(FourierSeries.cos(), from_q(0.3), 0.05,
                        methods=methods)
    assert list(report["methods"]) == ["newton", "picard"]
    assert list(report["pairs"]) == ["newton_vs_picard"]


def test_crosscheck_skips_methods_off_their_domain():
    # on the unit circle Picard is not certified and the q = 0 expansion
    # does not apply; both must be skipped with a note, leaving no pairs
    f = FourierSeries.cos()
    report = crosscheck(f, from_omega(GOLDEN), 0.05,
                        config=SolverConfig(cutoff=128))
    assert report["methods"]["newton"]["status"] == "ok"
    assert report["methods"]["picard"]["status"] == "skipped"
    assert "note" in report["methods"]["picard"]
    assert report["methods"]["taylor0"]["status"] == "skipped"
    assert report["pairs"] == {}


def test_crosscheck_keeps_the_record_of_a_failed_method():
    # at q = 0.95 both solvers fail; each status keeps the error's
    # diagnostics beside its note, and taylor0 runs but its terms grow
    with pytest.warns(RuntimeWarning, match="Taylor partial sums not decaying"):
        report = crosscheck(FourierSeries.cos(), from_q(0.95), 0.05)
    for name, entry, note in (
            ("newton", [], "Newton correction has sup 19 "),
            ("picard", ["q_modulus"], "residual grew 23x at iteration 13")):
        status = report["methods"][name]
        assert list(status) == ["status", "note", "diagnostics"]
        assert status["status"] == "failed"
        assert note in status["note"]
        assert list(status["diagnostics"]) == entry + [
            "residual_history", "max_divisor", "max_divisor_k",
            "truncation_tail"]
    assert report["methods"]["taylor0"]["status"] == "skipped"
    assert report["pairs"] == {}


@pytest.mark.parametrize("methods,named", [
    (("newton", "picrd"), "'picrd'"),
    (("taylor", "newton", "Picard"), "['taylor', 'Picard']"),
    ((), "no methods given"),
])
def test_crosscheck_refuses_unknown_or_no_methods(monkeypatch, methods, named):
    # a misspelt method is a usage error, not a method off its domain, so
    # it is refused before anything is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the methods were checked")

    monkeypatch.setattr(continuation, "solve_curve", no_solve)
    with pytest.raises(ValueError, match="choose from newton, picard") as info:
        crosscheck(FourierSeries.cos(), from_q(0.3), 0.05, methods=methods)
    assert named in str(info.value)


@pytest.mark.parametrize("methods,named", [
    (("newton", "newton"), "['newton']"),
    (("picard", "newton", "taylor0", "picard", "taylor0"),
     "['picard', 'taylor0']"),
])
def test_crosscheck_refuses_a_repeated_method(monkeypatch, methods, named):
    # a method run twice would be compared with itself (a pair reading 0.0)
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the methods were checked")

    monkeypatch.setattr(continuation, "solve_curve", no_solve)
    monkeypatch.setattr(continuation, "_iterate", no_solve)
    with pytest.raises(ValueError, match="more than once") as info:
        crosscheck(FourierSeries.cos(), from_q(0.3), 0.05, methods=methods)
    assert named in str(info.value)


@pytest.mark.parametrize("n_taylor", [0, continuation.TAYLOR_ORDER_CAP + 1])
def test_crosscheck_refuses_n_taylor_outside_the_order_cap(monkeypatch,
                                                          n_taylor):
    # a bad order count is a usage error, not taylor0 off its domain: it is
    # refused before any solve, while a run without taylor0 never reads it
    f, freq = FourierSeries.cos(), from_q(0.3)
    ok = crosscheck(f, freq, 0.05, methods=("newton",), n_taylor=n_taylor)
    assert ok["methods"]["newton"]["status"] == "ok"

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before n_taylor was checked")

    for name in ("solve_curve", "_iterate", "taylor0_recursion"):
        monkeypatch.setattr(continuation, name, no_solve)
    with pytest.raises(ValueError) as e:
        crosscheck(f, freq, 0.05, methods=("newton", "taylor0"),
                   n_taylor=n_taylor)
    assert str(e.value) == f"n_taylor must be an int in [1, 60], got {n_taylor}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_solver_entry_points_reject_a_non_finite_eps(bad):
    f = FourierSeries.cos()
    for call in (lambda: picard_solve(f, from_q(0.3), bad),
                 lambda: taylor0_recursion(f, bad),
                 lambda: crosscheck(f, from_q(0.3), bad)):
        with pytest.raises(ValueError, match="eps must be finite"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, math.nan)])
def test_taylor_eval_rejects_a_non_finite_q(bad):
    data = taylor0_recursion(FourierSeries.cos(), 0.05, N_q=5)
    with pytest.raises(ValueError, match="got q = "):
        taylor0_eval(data, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the typed error alone
def test_taylor_order_overflow_is_typed():
    # with cos, u_2 is still linear in eps and u_3 ~ eps^2: eps 1e300
    # overflows at order 3
    with pytest.raises(OverflowRiskError, match="Taylor order 3 overflowed"):
        taylor0_recursion(FourierSeries.cos(), 1e300, N_q=5)


def test_conjugate_reflection_pairing():
    # u at conj(omega) is the coefficient-reflected conjugate of u at omega
    f = FourierSeries.cos()
    defect = conjugate_reflection_check(f, from_omega(0.5 + 0.5j), 0.05,
                                        SolverConfig(cutoff=64))
    assert defect < 1e-10


def test_conjugate_reflection_warns_on_asymmetric_data():
    f = FourierSeries(np.array([0.1 + 0.05j, 0.0, 0.3 + 0.2j]))  # not real-symmetric
    with pytest.warns(RuntimeWarning):
        conjugate_reflection_check(f, from_omega(0.5 + 0.5j), 0.02,
                                   SolverConfig(cutoff=32))
    g = FourierSeries.cos()
    with pytest.warns(RuntimeWarning):
        conjugate_reflection_check(g, from_omega(0.5 + 0.5j), 0.05 + 0.01j,
                                   SolverConfig(cutoff=32))


def test_picard_warns_on_a_forcing_with_a_mean():
    # Picard opens its solve as Newton does: a forcing with a mean is
    # obstructed at first order, whichever method runs
    f = FourierSeries([0.5, 0.1, 0.5])
    with pytest.warns(RuntimeWarning, match="forcing has mean"):
        picard_solve(f, from_q(0.3), 0.05)


def test_picard_opens_its_diagnostics_with_in_KM():
    cls = DiophantineClass(M=6.0, tau=0.5, m_max=200)
    curve = continuation._picard_curve(FourierSeries.cos(), from_q(0.3),
                                       0.05, dioph=cls)
    assert list(curve.report.diagnostics) == [
        "in_KM", "q_modulus", "post_normalization_residual"]


def test_taylor_eval_reports_whether_its_terms_decay():
    f = FourierSeries.cos()
    data = taylor0_recursion(f, 0.05, N_q=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, info = taylor0_eval(data, 0.3)
    assert info["decaying"] is True
    with pytest.warns(RuntimeWarning, match=r"last term 6\.238e\+03"):
        _, info = taylor0_eval(data, 0.95)
    assert info["decaying"] is False
    # under six terms the rule cannot tell, and the sum counts as decaying
    basis = FourierSeries(np.array([0.0, 0.0, 1.0], dtype=complex))
    grow = QTaylorData(orders=[(2.0 ** n) * basis for n in range(1, 6)],
                       eps=0.05, f_ref=f)
    assert taylor0_eval(grow, 0.9)[1]["decaying"] is True


def test_crosscheck_skips_a_taylor_sum_that_does_not_decay():
    # at q = -0.9 Newton and Picard agree while the 40-order Taylor sum has
    # stopped decaying: taylor0 is skipped and enters no pair
    with pytest.warns(RuntimeWarning, match="Taylor partial sums not decaying"):
        report = crosscheck(FourierSeries.cos(), from_q(-0.9), 0.05)
    assert report["methods"]["newton"]["status"] == "ok"
    assert report["methods"]["picard"]["status"] == "ok"
    taylor = report["methods"]["taylor0"]
    assert taylor == {"status": "skipped", "note": taylor["note"]}
    assert "last term 7.175e+02" in taylor["note"]
    assert list(report["pairs"]) == ["newton_vs_picard"]
    with pytest.warns(RuntimeWarning):
        report = crosscheck(FourierSeries.cos(), from_q(0.95), 0.05,
                            methods=("taylor0",))
    assert "last term 6.238e+03" in report["methods"]["taylor0"]["note"]


def test_crosscheck_gives_an_ok_taylor_record_its_last_term():
    report = crosscheck(FourierSeries.cos(), from_q(0.3), 0.05,
                        methods=("taylor0",))
    taylor = report["methods"]["taylor0"]
    assert list(taylor) == ["status", "orders", "last_term"]
    assert taylor["status"] == "ok"
    assert taylor["last_term"] == pytest.approx(5.9e-17, rel=0.01)


def test_crosscheck_refuses_a_bare_string(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the methods were checked")

    monkeypatch.setattr(continuation, "solve_curve", no_solve)
    with pytest.raises(ValueError, match="got the string 'newton'"):
        crosscheck(FourierSeries.cos(), from_q(0.3), 0.05, methods="newton")
