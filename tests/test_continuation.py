"""Picard fixed point, Taylor orders at q = 0, and cross-method agreement."""

import math
import warnings

import numpy as np
import pytest

from kamforge.continuation import (QTaylorData, conjugate_reflection_check,
                                   crosscheck, inverse_scattering,
                                   picard_solve, taylor0_eval,
                                   taylor0_recursion)
from kamforge.errors import DivergenceError, OverflowRiskError
from kamforge.fourier import FourierSeries, mean, sup_norm
from kamforge.frequency import from_omega, from_q
from kamforge.kam import DIVERGENCE_FACTOR, SolverConfig, solve_curve
from kamforge.operators import NABLA_MINUS, apply

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
        moduli.add(math.exp(-freq.log_scale))
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
    assert list(d) == ["q_modulus", "residual_history"]
    assert d["q_modulus"] == pytest.approx(abs(q))
    h = d["residual_history"]
    assert len(h) == steps
    assert h[-1] > DIVERGENCE_FACTOR * h[-2]
    assert all(b <= DIVERGENCE_FACTOR * a for a, b in zip(h, h[1:-1]))


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


def test_taylor_eval_matches_picard_at_complex_q():
    f = FourierSeries.cos()
    eps = 0.05
    q = 0.2 + 0.15j
    data = taylor0_recursion(f, eps, N_q=40)
    u_t = taylor0_eval(data, q)
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
    # with_info returns the raw decay data without thresholding
    u, info = taylor0_eval(data, 0.3, with_info=True)
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
    back = QTaylorData.from_json_dict(data.to_json_dict())
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


def test_crosscheck_reuses_supplied_taylor_data():
    f = FourierSeries.cos()
    data = taylor0_recursion(f, 0.05, N_q=25)
    report = crosscheck(f, from_q(0.3), 0.05, methods=("taylor0",),
                        taylor_data=data)
    assert report["methods"]["taylor0"]["orders"] == 25


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
