"""Formal construction at rational rotation numbers and its obstruction."""

import math

import numpy as np
import pytest

from kamforge.errors import OverflowRiskError
from kamforge.fourier import FourierSeries, sup_norm
from kamforge.obstruction import (ObstructionReport, RationalFreq,
                                  beta_gamma_oracle, delta_star, e_star,
                                  obstruction_order, projector,
                                  radial_approach_diagnostic)


def basis(k, amp=1.0):
    n = abs(k)
    c = np.zeros(2 * n + 1, dtype=complex)
    c[k + n] = amp
    return FourierSeries(c)


def test_rational_freq_validation():
    rf = RationalFreq(1, 3)
    assert rf.omega == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        RationalFreq(1, 0)
    with pytest.raises(ValueError):
        RationalFreq(2, 4)  # not in lowest terms
    RationalFreq(-1, 3)  # negative numerators are fine


def test_divisor_tables_closed_form():
    rf = RationalFreq(1, 3)
    D, lam = rf.tables()
    assert D[0] == 0.0 and lam[0] == 0.0
    for j in (1, 2):
        assert D[j] == pytest.approx(-4.0 * math.sin(j * math.pi / 3.0) ** 2,
                                     abs=1e-15)
        assert lam[j] == pytest.approx(1.0 / D[j], abs=1e-15)
    # the tables are even in p: p and -p give the same spectrum
    Dm, _ = RationalFreq(-1, 3).tables()
    assert np.array_equal(D, Dm)
    # extended precision carries more bits but the same values
    De, lame = rf.tables(extended=True)
    assert De.dtype == np.longdouble
    assert np.max(np.abs(De.astype(np.float64) - D)) < 1e-15


def test_divisor_operator_kernel_and_partial_inverse():
    rf = RationalFreq(1, 3)
    rng = np.random.default_rng(5)
    phi = FourierSeries(rng.standard_normal(15) + 1j * rng.standard_normal(15))
    # delta_star kills exactly the resonant class k = 0 (mod m)
    killed = delta_star(projector(phi, rf, 0), rf)
    assert sup_norm(killed) == 0.0
    # e_star inverts it off that class: e_star(delta_star(phi)) = phi - Pi0 phi
    recon = e_star(delta_star(phi, rf), rf)
    off = phi - projector(phi, rf, 0)
    assert sup_norm(recon - off) < 1e-15
    # projectors over all classes resum to the identity
    total = projector(phi, rf, 0)
    for j in range(1, 3):
        total = total + projector(phi, rf, j)
    assert sup_norm(total - phi) == 0.0


def test_beta_gamma_hand_values():
    # K = 1, m = 3, A = 1/2 (a cosine forcing):
    # betas 1, 1/3, 1/6; gamma_2 = -i pi/6, gamma_3 = -pi^2/12
    betas, gammas, A = beta_gamma_oracle(1, RationalFreq(1, 3), 3, A=0.5)
    assert betas == pytest.approx([1.0, 1.0 / 3.0, 1.0 / 6.0], abs=1e-15)
    assert gammas[0] == pytest.approx(0.5, abs=1e-15)
    assert gammas[1] == pytest.approx(-1j * math.pi / 6.0, abs=1e-14)
    assert gammas[2] == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-13)
    # K = 1, m = 2: beta_2 = 1/4, gamma_2 = -i pi/8
    betas2, gammas2, _ = beta_gamma_oracle(1, RationalFreq(1, 2), 2, A=0.5)
    assert betas2 == pytest.approx([1.0, 0.25], abs=1e-15)
    assert gammas2[1] == pytest.approx(-1j * math.pi / 8.0, abs=1e-14)


def test_cosine_obstructs_exactly_at_order_m():
    f = FourierSeries.cos()
    for p, m in ((1, 2), (1, 3), (2, 5), (1, 7)):
        report = obstruction_order(f, RationalFreq(p, m))
        assert report.n_star == m
        assert report.K == 1
        assert all(b > 0 for b in report.betas)
        assert report.relative_gap < 1e-12
        # the witness is the resonant projection of the order-m forcing:
        # it lives entirely on the class k = 0 (mod m)
        w = report.obstruction_witness
        assert report.witness_norm > 0
        assert sup_norm(w - projector(w, RationalFreq(p, m), 0)) == 0.0


def test_negative_extreme_mode_reduces_by_reflection():
    # a forcing with only mode -K is handled through theta -> -theta; the
    # divisor spectrum is even, so the obstruction order is unchanged
    f_minus = FourierSeries(np.array([0.5, 0.0, 0.0], dtype=complex))
    report = obstruction_order(f_minus, RationalFreq(1, 3))
    assert report.reflected is True
    assert report.n_star == 3
    f_plus = FourierSeries(np.array([0.0, 0.0, 0.5], dtype=complex))
    report_p = obstruction_order(f_plus, RationalFreq(1, 3))
    assert report_p.reflected is False
    assert report_p.n_star == 3
    assert abs(report.gamma_engine - report_p.gamma_engine) < 1e-15


def test_obstruction_law_higher_top_modes():
    # n* is the smallest n with n K = 0 (mod m), for pure cosines of any
    # degree and for mixed forcings alike
    def pure_cos(K):
        c = np.zeros(2 * K + 1, dtype=complex)
        c[0] = c[-1] = 0.5
        return FourierSeries(c)

    for K, m, expect in ((2, 5, 5), (2, 4, 2), (3, 6, 2), (3, 7, 7)):
        report = obstruction_order(pure_cos(K), RationalFreq(1, m),
                                   max_order=expect)
        assert report.K == K
        assert report.n_star == expect
        if expect > 1:
            early = obstruction_order(pure_cos(K), RationalFreq(1, m),
                                      max_order=expect - 1)
            assert early.n_star is None
    # mixed forcing cos(2 pi theta) + 0.3 cos(4 pi theta) at omega = 1/5:
    # the top-mode law alone would predict order 5 (2n in 5Z), but the
    # mode interaction 2+2+1 already puts an O(1) resonant component on
    # modes +-5 at order 3 — the engine reports the first true obstruction
    mixed = FourierSeries(np.array([0.15, 0.5, 0.0, 0.5, 0.15]))
    report = obstruction_order(mixed, RationalFreq(1, 5), max_order=7)
    assert report.K == 2
    assert report.n_star == 3
    w = report.obstruction_witness
    assert abs(w.coeff(5)) > 0.9 and abs(w.coeff(-5)) > 0.9
    assert report.witness_norm > 1e8 * report.threshold
    rext = obstruction_order(mixed, RationalFreq(1, 5), max_order=7,
                             exactness="extended")
    assert rext.n_star == 3
    assert abs(rext.witness_norm - report.witness_norm) < 1e-13


def test_resonant_top_mode_obstructs_at_order_one():
    # K = m: the very first forcing already has a resonant component
    f = FourierSeries(np.array([0.5, 0.0, 0.0, 0.0, 0.5], dtype=complex))
    report = obstruction_order(f, RationalFreq(1, 2))
    assert report.n_star == 1


def test_order_budget_can_stop_before_obstruction():
    f = FourierSeries.cos()
    report = obstruction_order(f, RationalFreq(1, 7), max_order=3)
    assert report.n_star is None
    assert report.orders_computed == 3


def test_extended_precision_agrees_with_float():
    f = FourierSeries.cos()
    r64 = obstruction_order(f, RationalFreq(1, 5))
    rext = obstruction_order(f, RationalFreq(1, 5), exactness="extended")
    assert rext.exactness == "extended"
    assert rext.n_star == r64.n_star == 5
    assert abs(rext.gamma_engine - r64.gamma_engine) < 1e-13
    assert rext.relative_gap < 1e-12


def test_obstruction_validation():
    f = FourierSeries.cos()
    rf = RationalFreq(1, 3)
    with pytest.raises(ValueError):
        obstruction_order(f, rf, exactness="double")
    with pytest.raises(ValueError):
        obstruction_order(f, rf, max_order=0)
    with pytest.raises(ValueError):
        obstruction_order(FourierSeries.zero(2), rf)
    with pytest.raises(ValueError):
        obstruction_order(f + FourierSeries.constant(0.1), rf)


def test_oracle_consistency_small_gap():
    rep = obstruction_order(FourierSeries.cos(), RationalFreq(1, 3), max_order=3)
    assert rep.relative_gap < 1e-12
    rng = np.random.default_rng(9)
    half = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.4
    coeffs = np.concatenate([np.conj(half[::-1]), [0.0], half])
    rep = obstruction_order(FourierSeries(coeffs), RationalFreq(1, 4), max_order=4)
    assert rep.relative_gap < 1e-12


def test_extended_oracle_matches_extended_engine():
    # the oracle runs in the engine's precision, so the gap measures the
    # engine and not the oracle's own float64 round-off
    rng = np.random.default_rng(3)
    half = (rng.uniform(0.2, 1.0, 3) * np.exp(2j * np.pi * rng.random(3))
            * np.exp(-0.4 * np.arange(1, 4)))
    cubic = FourierSeries(np.concatenate([np.conj(half[::-1]), [0.0], half]))
    for f in (FourierSeries.cos(), cubic):
        for p, m in ((13, 34), (34, 89)):
            rep = obstruction_order(f, RationalFreq(p, m), exactness="extended")
            assert rep.relative_gap <= 1e-15, (p, m, rep.relative_gap)


def test_extended_oracle_agrees_with_float_oracle():
    rf = RationalFreq(5, 21)
    b64, g64, _ = beta_gamma_oracle(2, rf, 12, A=0.3 - 0.2j)
    bext, gext, _ = beta_gamma_oracle(2, rf, 12, A=0.3 - 0.2j, extended=True)
    assert all(type(b) is float for b in bext)
    assert all(type(g) is complex for g in gext)
    assert all(abs(x - y) <= 1e-13 * abs(y) for x, y in zip(bext, b64))
    assert all(abs(x - y) <= 1e-13 * abs(y) for x, y in zip(gext, g64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_order_overflow_is_typed_without_warnings():
    # A = 1e200: g_2 carries A^2, past the largest double
    f = FourierSeries(np.array([1e200, 0.0, 1e200], dtype=complex))
    with pytest.raises(OverflowRiskError,
                       match="obstruction order 2 overflowed") as info:
        obstruction_order(f, RationalFreq(1, 7))
    assert info.value.diagnostics == {"order": 2}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_overflow_is_typed():
    # gamma_2 = -2 pi i A^2 beta_2 and A^2 overflows
    with pytest.raises(OverflowRiskError, match="oracle order 2 overflowed"):
        beta_gamma_oracle(1, RationalFreq(1, 7), 3, A=1e200)


def test_report_json_dict():
    report = obstruction_order(FourierSeries.cos(), RationalFreq(1, 3))
    d = report.to_json_dict()
    assert d["p"] == 1 and d["m"] == 3
    assert d["n_star"] == 3
    assert isinstance(d["gamma_engine"], list) and len(d["gamma_engine"]) == 2
    assert d["relative_gap"] < 1e-12
    assert len(d["betas"]) == d["orders_computed"]


def test_radial_iteration_counts_climb_toward_resonance():
    # approaching q = e^{2 pi i /3} radially, the Picard contraction slows
    # down; the counts are a natural-boundary indicator
    f = FourierSeries.cos()
    out = radial_approach_diagnostic(f, 1, 3, 0.05, radii=(0.80, 0.88, 0.94))
    assert [e["radius"] for e in out] == [0.80, 0.88, 0.94]
    assert all(e["converged"] for e in out)
    iters = [e["iterations"] for e in out]
    assert iters[0] < iters[-1]
    assert all(b >= a for a, b in zip(iters, iters[1:]))


def test_radial_diagnostic_records_overflow_as_not_converged():
    # at eps = 2e4 every radius overflows the evaluation exponent cap in the
    # first composition off the grid; at eps = 50 Picard's divergence
    # safeguard stops every radius before that.  Either way the diagnostic
    # records each radius instead of raising
    for eps, reason in ((2e4, "exceeds cap"),
                        (50.0, "Picard sup-difference grew")):
        out = radial_approach_diagnostic(FourierSeries.cos(), 1, 3, eps)
        assert [e["radius"] for e in out] == [0.85, 0.90, 0.95]
        for e in out:
            assert e["converged"] is False
            assert e["iterations"] is None
            assert reason in e["note"]
