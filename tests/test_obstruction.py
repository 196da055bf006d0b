"""Formal construction at rational rotation numbers and its obstruction."""

import ast
import json
import math
import os
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from kamforge import fourier, jsonio, obstruction
from kamforge.cli import run_sweep
from kamforge.continuation import crosscheck, taylor0_recursion
from kamforge.errors import OverflowRiskError
from kamforge.fourier import FourierSeries, composition_jet, sup_norm
from kamforge.frequency import (DiophantineClass, check_small_divisor_bound,
                                export_set_geometry, from_q, lambda_k)
from kamforge.kam import SolverConfig, solve_curve
from kamforge.obstruction import (ObstructionReport, RationalFreq,
                                  beta_gamma_oracle, delta_star, e_star,
                                  obstruction_order, projector)
from kamforge.operators import e_n
from kamforge.verify import degree3_forcing


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


# counts given as floats or bools were truncated by int() into other counts
COUNT_CASES = {
    "p float": ("p must be an int, got 1.5", lambda: RationalFreq(1.5, 3)),
    "p bool": ("p must be an int, got True", lambda: RationalFreq(True, 3)),
    "m float": ("m must be an int >= 1, got 2.5",
                lambda: RationalFreq(1, 2.5)),
    "N_q float": ("N_q must be an int in [1, 60], got 3.9",
                  lambda: taylor0_recursion(FourierSeries.cos(), 0.05,
                                            N_q=3.9)),
    "N_q bool": ("N_q must be an int in [1, 60], got True",
                 lambda: taylor0_recursion(FourierSeries.cos(), 0.05,
                                           N_q=True)),
    "max_order float": ("max_order must be an int in [1, 400], got 2.9",
                        lambda: obstruction_order(
                            FourierSeries.cos(), RationalFreq(1, 3),
                            max_order=2.9)),
    "up_to float": ("up_to must be an int >= 1, got 2.9",
                    lambda: beta_gamma_oracle(1, RationalFreq(1, 3), 2.9)),
    "n_taylor float": ("n_taylor must be an int in [1, 60], got 3.9",
                       lambda: crosscheck(FourierSeries.cos(), from_q(0.3),
                                          0.05, n_taylor=3.9)),
    # lambda_2 and E^(2) were returned for k = 2.5 and n = 2.5
    "k float": ("k must be an int, got 2.5",
                lambda: lambda_k(from_q(0.3), 2.5)),
    "k bool": ("k must be an int, got True",
               lambda: lambda_k(from_q(0.3), True)),
    "n float": ("n must be an int >= 1, got 2.5",
                lambda: e_n(FourierSeries.cos(), 2.5)),
    "n bool": ("n must be an int >= 1, got True",
               lambda: e_n(FourierSeries.cos(), True)),
}


def _sweep(**kwargs):
    # /dev/null takes the records, should a count not be refused
    return run_sweep(**{"omega_re": (0.3, 0.3, 1), "omega_im": (0.1, 0.1, 1),
                        "eps": 0.05, "f": FourierSeries.cos(), "modes": 16,
                        "out_path": os.devnull, **kwargs})


# entry points that checked no count: a float was truncated or hit a numpy
# error, and 0 gave an empty result
UNCHECKED_COUNTS = {
    "k_max": lambda v: check_small_divisor_bound(
        from_q(0.3), DiophantineClass(6.0, 0.5, 100), k_max=v),
    "boundary_n": lambda v: export_set_geometry(
        DiophantineClass(6.0, 0.5, 50), boundary_n=v),
    "grid_n": lambda v: solve_curve(FourierSeries.cos(), from_q(0.3), 0.05,
                                    SolverConfig(cutoff=16)).csv_rows(v),
    "omega_re count": lambda v: _sweep(omega_re=(0.3, 0.4, v)),
    "workers": lambda v: _sweep(workers=v),
}
COUNT_CASES.update({
    f"{name} {label}": (f"{name} must be an int >= 1, got {v!r}",
                        partial(call, v))
    for name, call in UNCHECKED_COUNTS.items()
    for label, v in (("float", 2.5), ("bool", True), ("0", 0))})


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_a_count_that_is_not_an_int_is_refused(case):
    message, call = COUNT_CASES[case]
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


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


@pytest.mark.parametrize("K,message", [
    (2.5, "K must be an int, got 2.5"),      # numpy's bare IndexError
    (True, "K must be an int, got True"),    # ran as K = 1
    ("1", "K must be an int, got '1'"),      # a string-formatting TypeError
    (0, "the oracle is undefined at K = 0"),  # returned betas 1, 0, 0
])
def test_the_oracle_refuses_a_K_that_is_no_nonzero_int(K, message):
    with pytest.raises(ValueError) as info:
        beta_gamma_oracle(K, RationalFreq(1, 3), 3)
    assert str(info.value) == message


@pytest.mark.parametrize("j", [1.5, True])
def test_the_projector_refuses_a_class_that_is_no_int(j):
    # j = 1.5 kept no mode (no k is 1.5 mod 3), and True acted as 1
    with pytest.raises(ValueError, match=f"^j must be an int, got {j!r}$"):
        projector(FourierSeries.cos(), RationalFreq(1, 3), j)


def test_beta_gamma_hand_values():
    # K = 1, m = 3, A = 1/2 (a cosine forcing):
    # betas 1, 1/3, 1/6; gamma_2 = -i pi/6, gamma_3 = -pi^2/12
    betas, gammas = beta_gamma_oracle(1, RationalFreq(1, 3), 3, A=0.5)
    assert betas == pytest.approx([1.0, 1.0 / 3.0, 1.0 / 6.0], abs=1e-15)
    assert gammas[0] == pytest.approx(0.5, abs=1e-15)
    assert gammas[1] == pytest.approx(-1j * math.pi / 6.0, abs=1e-14)
    assert gammas[2] == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-13)
    # K = 1, m = 2: beta_2 = 1/4, gamma_2 = -i pi/8
    betas2, gammas2 = beta_gamma_oracle(1, RationalFreq(1, 2), 2, A=0.5)
    assert betas2 == pytest.approx([1.0, 0.25], abs=1e-15)
    assert gammas2[1] == pytest.approx(-1j * math.pi / 8.0, abs=1e-14)


def convolution_power_betas(K, rf, up_to, extended=False):
    """beta_n = sum_{r=1}^{n-1} (1/r!) [x^{n-1}] B^r with B^r by convolution."""
    _, lam = rf.tables(extended=extended)
    real = np.longdouble if extended else float
    beta = [real(1.0)]
    b = np.zeros(up_to + 1, dtype=lam.dtype)
    b[1] = -lam[K % rf.m]
    for n in range(2, up_to + 1):
        B = b[:n]
        P = B.copy()
        total = real(0.0)
        fact = real(1.0)
        for r in range(1, n):
            total += P[n - 1] / fact
            fact *= r + 1
            if r < n - 1:
                P = np.convolve(P, B)[:n]
        beta.append(total)
        b[n] = -lam[(n * K) % rf.m] * total
    return [float(x) for x in beta]


@pytest.mark.parametrize("K,p,m", [(1, 34, 89), (1, 13, 34), (2, 5, 21),
                                   (3, 1, 7), (2, 1, 4)])
@pytest.mark.parametrize("extended", [False, True])
def test_oracle_matches_the_convolution_powers(K, p, m, extended):
    rf = RationalFreq(p, m)
    betas, _ = beta_gamma_oracle(K, rf, 60, extended=extended)
    ref = convolution_power_betas(K, rf, 60, extended=extended)
    assert all(b > 0 for b in betas)
    assert all(abs(x - y) <= 4e-15 * y for x, y in zip(betas, ref))


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


# (n*, gamma_engine, witness at its modes +-m), as an engine that ran one
# exponential series per mode of f on all modes recorded them
OBSTRUCTION_PINS = {
    "cos float 1/7": (7, (-2428.103507767427+0j), {
        -7: (-2428.1035077674233+0j),
        7: (-2428.103507767427+0j),
    }),
    "cos float 3/13": (13, (8643834.456066154+0j), {
        -13: (8643834.456066122+0j),
        13: (8643834.456066154+0j),
    }),
    "cos float 5/21": (21, (45343823424415.125+0j), {
        -21: (45343823424415.28+0j),
        21: (45343823424415.125+0j),
    }),
    "cos float 13/34": (34, -5.649918906493493e+21j, {
        -34: 5.649918906493356e+21j,
        34: -5.649918906493493e+21j,
    }),
    "cos float 21/55": (55, (-1.198514710688078e+38+0j), {
        -55: (-1.1985147106879588e+38+0j),
        55: (-1.198514710688078e+38+0j),
    }),
    "cos float 34/89": (89, (7.770691818382993e+64+0j), {
        -89: (7.770691818381726e+64+0j),
        89: (7.770691818382993e+64+0j),
    }),
    "cos extended 1/7": (7, (-2428.103507767429+0j), {
        -7: (-2428.103507767429+0j),
        7: (-2428.103507767429+0j),
    }),
    "cos extended 3/13": (13, (8643834.456066113+0j), {
        -13: (8643834.456066113+0j),
        13: (8643834.456066113+0j),
    }),
    "cos extended 5/21": (21, (45343823424415.78+0j), {
        -21: (45343823424415.78+0j),
        21: (45343823424415.78+0j),
    }),
    "cos extended 13/34": (34, -5.649918906493618e+21j, {
        -34: 5.649918906493618e+21j,
        34: -5.649918906493618e+21j,
    }),
    "cos extended 21/55": (55, (-1.1985147106882259e+38+0j), {
        -55: (-1.198514710688226e+38+0j),
        55: (-1.1985147106882259e+38+0j),
    }),
    "cos extended 34/89": (89, (7.770691818381932e+64+0j), {
        -89: (7.770691818381932e+64+0j),
        89: (7.770691818381932e+64+0j),
    }),
    "g float 1/7": (3, (-0.1647745168198245+0.27751565405401485j), {
        -7: (4.059026059451517+0.39565241498849824j),
        7: (-0.01686948050797407-2.8745266952727477j),
    }),
    "g float 3/13": (5, (-3.104261808634912+2.4989158683172485j), {
        -13: (11.276005924349008+268.57622245090397j),
        13: (22.168697163986728-81.27695971782931j),
    }),
    "g float 5/21": (7, (-10.478552077576982+3.479141440970542j), {
        -21: (52.22929721928744-269.22879343781364j),
        21: (-10.478552077576982+3.479141440970542j),
    }),
    "g float 13/34": (12, (-2598621.3293361766-1674610.14257429j), {
        -34: (435905635908.86566+832484626030.6498j),
        34: (9804550427.579264-1850783059.1689444j),
    }),
    "g float 21/55": (19, (2180017666032.7534-8471462501918.568j), {
        -55: (3.186654045713071e+19+1.0630567517175988e+20j),
        55: (2.303924302629253e+16+4.145337770671359e+16j),
    }),
    "g float 34/89": (32, (2.8860582056163742e+23+4.5237636111359475e+23j), {
        -89: (2.8177297152573197e+41-4.4308895779620785e+42j),
        89: (-5.391629448576638e+37+4.392010535324473e+36j),
    }),
    "g extended 1/7": (3, (-0.16477451681982463+0.2775156540540151j), {
        -7: (4.059026059451518+0.3956524149884993j),
        7: (-0.01686948050797408-2.874526695272749j),
    }),
    "g extended 3/13": (5, (-3.1042618086349054+2.4989158683172423j), {
        -13: (11.276005924348969+268.57622245090306j),
        13: (22.16869716398669-81.27695971782916j),
    }),
    "g extended 5/21": (7, (-10.478552077576994+3.479141440970546j), {
        -21: (52.229297219287446-269.22879343781347j),
        21: (-10.478552077576994+3.479141440970546j),
    }),
    "g extended 13/34": (12, (-2598621.329336241-1674610.1425743308j), {
        -34: (435905635908.88525+832484626030.6874j),
        34: (9804550427.57938-1850783059.1689668j),
    }),
    "g extended 21/55": (19, (2180017666033.2231-8471462501920.397j), {
        -55: (3.1866540457130263e+19+1.0630567517175826e+20j),
        55: (2.3039243026294024e+16+4.145337770671627e+16j),
    }),
    "g extended 34/89": (32, (2.8860582056175315e+23+4.5237636111377715e+23j), {
        -89: (2.8177297152573583e+41-4.430889577962179e+42j),
        89: (-5.391629448575859e+37+4.3920105353238263e+36j),
    }),
}


@pytest.mark.parametrize("key", sorted(OBSTRUCTION_PINS))
def test_obstruction_pins_at_the_workload_rationals(key):
    forcing, exactness, pm = key.split()
    p, m = map(int, pm.split("/"))
    f = FourierSeries.cos() if forcing == "cos" else degree3_forcing(7)
    rep = obstruction_order(f, RationalFreq(p, m), exactness=exactness)
    n_star, gamma, witness = OBSTRUCTION_PINS[key]
    assert rep.n_star == rep.orders_computed == n_star
    assert abs(rep.gamma_engine - gamma) <= 1e-13 * abs(gamma)
    w = rep.obstruction_witness
    assert w.N == n_star * rep.K
    nonzero = {k for k in range(-w.N, w.N + 1) if w.coeff(k) != 0}
    assert nonzero <= set(witness) | {0}
    for k, value in witness.items():
        assert abs(w.coeff(k) - value) <= 1e-13 * abs(value)
    # mode 0 of every g_n vanishes analytically (the mean of f(id + u) when
    # delta u = eps f(id + u) holds at the lower orders)
    assert w.coeff(0) == 0
    assert rep.relative_gap <= 1e-13


@pytest.mark.parametrize("forcing", ["cos", "degree3"])
def test_float_engine_agrees_with_the_extended_engine(forcing):
    # an accuracy check, where invariant I10's engine-vs-oracle gap is not:
    # both sides of that gap share one summation order.  Against the
    # long-double engine, the float gammas and witness hold 1e-12 relative
    f = FourierSeries.cos() if forcing == "cos" else degree3_forcing(7)
    for p, m in ((3, 13), (13, 34), (21, 55), (34, 89)):
        rep = obstruction_order(f, RationalFreq(p, m))
        ext = obstruction_order(f, RationalFreq(p, m), exactness="extended")
        assert rep.n_star == ext.n_star is not None
        g, g_ext = np.array(rep.gammas_engine), np.array(ext.gammas_engine)
        assert np.max(np.abs(g - g_ext) / np.abs(g_ext)) <= 1e-12, (p, m)
        w = rep.obstruction_witness.coeffs
        w_ext = ext.obstruction_witness.coeffs
        assert np.array_equal(w != 0, w_ext != 0)
        nz = w_ext != 0
        assert np.max(np.abs(w[nz] - w_ext[nz]) / np.abs(w_ext[nz])) <= 1e-12


def test_one_sided_lattice_forcing_and_its_reflection():
    # modes 1 and 4 (lattice 1 + 3Z, one-sided) and its mirror image -1, -4
    c = np.zeros(9, dtype=np.complex128)
    c[4 + 1], c[4 + 4] = 0.7 - 0.2j, 0.4 + 0.1j
    f = FourierSeries(c)
    mirror = FourierSeries(c[::-1])
    for p, m in ((1, 5), (3, 7), (2, 9)):
        rep = obstruction_order(f, RationalFreq(p, m))
        ref = obstruction_order(mirror, RationalFreq(p, m))
        ext = obstruction_order(f, RationalFreq(p, m), exactness="extended")
        assert not rep.reflected and ref.reflected
        assert rep.n_star == ref.n_star == ext.n_star is not None
        assert rep.relative_gap < 1e-12 and ext.relative_gap < 1e-12
        assert abs(rep.gamma_engine - ref.gamma_engine) <= (
            1e-15 * abs(rep.gamma_engine))
        # the mirror's g_n are (-1)^(n+1) times f's, mirrored
        w, v = rep.obstruction_witness.coeffs, ref.obstruction_witness.coeffs
        sign = (-1) ** (rep.n_star + 1)
        assert np.max(np.abs(sign * w[::-1] - v)) <= 1e-14 * rep.witness_norm


@pytest.mark.parametrize("exactness", ["float", "extended"])
def test_reflected_witness_matches_a_direct_lattice_run(exactness):
    # modes -4 and -1 (lattice -4 + 3Z): the engine runs on f(-theta) and
    # maps the witness back; the jet runs on f's own lattice just as well
    dtype = np.clongdouble if exactness == "extended" else np.complex128
    c = np.zeros(9, dtype=dtype)
    c[4 - 4], c[4 - 1] = 0.4 + 0.1j, 0.7 - 0.2j
    for p, m in ((1, 5), (3, 7), (2, 9)):
        rf = RationalFreq(p, m)
        rep = obstruction_order(FourierSeries(c), rf, exactness=exactness)
        assert rep.reflected
        _, lam = rf.tables(extended=exactness == "extended")
        jet = composition_jet(c[[0, 3]], step=3, center=-2.5)
        g = next(jet)
        for n in range(2, rep.n_star + 1):
            g = jet.send(g * lam[(-4 * (n - 1) + 3 * np.arange(g.size)) % m])
        ks = -4 * rep.n_star + 3 * np.arange(g.size)
        res = (ks % m == 0) & (ks != 0)
        direct = np.zeros(8 * rep.n_star + 1, dtype=dtype)
        direct[4 * rep.n_star + ks[res]] = g[res]
        w = rep.obstruction_witness.coeffs
        assert np.max(np.abs(w - direct)) <= 1e-13 * rep.witness_norm
        assert rep.witness_norm == pytest.approx(float(np.max(np.abs(g[res]))),
                                                 rel=1e-13)


# real on their lattices (f = r, or i r for sin-type), so the engine runs
# the jet in float64: cos (stacked path), three cosines (span 6 at stride 1,
# the pairs path), sin 2 pi theta - 0.4 sin 6 pi theta, and a forcing whose
# only extreme mode is -2 (reflected)
REAL_FORCINGS = {
    "cos": FourierSeries.cos(),
    "three cosines": FourierSeries([0.1, 0.15, 0.25, 0, 0.25, 0.15, 0.1]),
    "sin-type": FourierSeries([0.2j, 0, -0.5j, 0, 0.5j, 0, -0.2j]),
    "reflected": FourierSeries([0.3, 0.5, 0, 0.5, 0]),
}


@pytest.mark.parametrize("p,m", [(3, 13), (21, 55), (34, 89)])
@pytest.mark.parametrize("name", sorted(REAL_FORCINGS))
def test_real_forcings_match_the_complex_run(name, p, m, monkeypatch):
    # the real run against the same problem in complex128: the same n_star,
    # and gammas and witness within 500 epsilons, relative
    f, rf = REAL_FORCINGS[name], RationalFreq(p, m)
    jets = []

    def spy(f_lat, **kw):
        jets.append((f_lat.dtype, fourier._takes_stacked_path(f_lat)))
        return composition_jet(f_lat, **kw)

    monkeypatch.setattr(obstruction, "composition_jet", spy)
    got = obstruction_order(f, rf)
    monkeypatch.setattr(obstruction, "_real_form", lambda f_lat: None)
    ref = obstruction_order(f, rf)
    stacked = name != "three cosines"
    assert jets == [(np.float64, stacked), (np.complex128, stacked and name == "cos")]
    assert got.reflected == ref.reflected == (name == "reflected")
    assert got.n_star == ref.n_star is not None
    assert got.orders_computed == ref.orders_computed
    tol = 500 * np.finfo(np.float64).eps
    ge, gr = np.array(got.gammas_engine), np.array(ref.gammas_engine)
    assert np.all(np.abs(ge - gr) <= tol * np.abs(gr))
    w, wr = got.obstruction_witness.coeffs, ref.obstruction_witness.coeffs
    assert w.shape == wr.shape
    assert np.max(np.abs(w - wr)) <= tol * np.max(np.abs(wr))
    assert got.witness_norm == pytest.approx(ref.witness_norm, rel=tol)


def test_obstruction_peak_memory():
    # cos on its lattice takes the jet's stacked path in float64: u_j and
    # F_s in blocks of 32 orders (about 100 kB for the 89 orders against
    # 65 kB of rows) and a fold buffer of about 25 kB, since no product over
    # j is ever held whole; the peak read 0.16 MB (0.31 MB in complex128)
    obstruction_order(FourierSeries.cos(), RationalFreq(34, 89))
    tracemalloc.start()
    try:
        obstruction_order(FourierSeries.cos(), RationalFreq(34, 89))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.33e6, peak


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


@pytest.mark.parametrize("max_order,n", [(None, 97), (90, 90)])
def test_a_witness_past_the_hard_cap_is_refused_naming_its_order(max_order, n):
    # the run itself is cheap (n* = 97 at 1/97); only the witness on modes
    # -n K..n K, K = 50, would pass HARD_CAP
    f = basis(50, 0.5) + basis(-50, 0.5)
    with pytest.raises(ValueError, match=rf"order {n} needs modes up to "
                       rf"n K = {n} \* 50 = {n * 50}, past the hard cap 4096"):
        obstruction_order(f, RationalFreq(1, 97), max_order=max_order)


@pytest.mark.parametrize("m,n_star", [(81, 81), (100, 2)])
def test_a_witness_within_the_hard_cap_is_returned(m, n_star):
    # at 1/100, max_order K = 5000 passes the cap, but n* = 2 stops the run
    rep = obstruction_order(basis(50, 0.5) + basis(-50, 0.5), RationalFreq(1, m))
    assert (rep.n_star, rep.obstruction_witness.N) == (n_star, n_star * 50)


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
    b64, g64 = beta_gamma_oracle(2, rf, 12, A=0.3 - 0.2j)
    bext, gext = beta_gamma_oracle(2, rf, 12, A=0.3 - 0.2j, extended=True)
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


@pytest.mark.parametrize("A", [math.nan, math.inf, complex(1.0, math.nan)])
def test_the_oracle_refuses_a_non_finite_A(A):
    # a NaN A was reported as an overflow at order 1
    with pytest.raises(ValueError, match="^A must be finite"):
        beta_gamma_oracle(1, RationalFreq(1, 3), 3, A=A)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_overflow_is_typed():
    # gamma_2 = -2 pi i A^2 beta_2 and A^2 overflows
    with pytest.raises(OverflowRiskError, match="oracle order 2 overflowed"):
        beta_gamma_oracle(1, RationalFreq(1, 7), 3, A=1e200)


def test_an_oracle_overflow_stops_the_engine_at_its_order(monkeypatch):
    # 2^300 cos: A = 2^299, so A^4 in gamma_4 passes the largest double while
    # the long-double jet runs on; the oracle runs beside the engine, so the
    # engine stops at order 4 (3 sends) instead of running all 34 orders
    # (33 sends)
    sends = []

    def counting(f_lat, **kw):
        jet = composition_jet(f_lat, **kw)
        u = yield next(jet)
        while True:
            sends.append(1)
            u = yield jet.send(u)

    monkeypatch.setattr(obstruction, "composition_jet", counting)
    f = FourierSeries(FourierSeries.cos().coeffs * 2.0 ** 300)
    with pytest.raises(OverflowRiskError,
                       match="oracle order 4 overflowed") as info:
        obstruction_order(f, RationalFreq(13, 34), exactness="extended")
    assert info.value.diagnostics == {"order": 4}
    assert len(sends) == 3


def test_an_oracle_overflow_builds_the_divisor_tables_once_a_side(monkeypatch):
    # the oracle ran to max_order before the first engine order and, after
    # an overflow, once more to the order before it: three table builds
    built = []
    tables = RationalFreq.tables

    def counting(self, extended=False):
        built.append(extended)
        return tables(self, extended)

    monkeypatch.setattr(RationalFreq, "tables", counting)
    f = FourierSeries(FourierSeries.cos().coeffs * 2.0 ** 300)
    with pytest.raises(OverflowRiskError,
                       match="oracle order 4 overflowed") as info:
        obstruction_order(f, RationalFreq(13, 34), exactness="extended")
    assert info.value.diagnostics == {"order": 4}
    assert built == [True, True]


def test_the_oracle_stops_where_the_engine_stops(monkeypatch):
    # the oracle ran all 89 orders and the report kept the first 32
    pulled = []
    orders = obstruction._oracle_orders

    def counting(*args):
        for pair in orders(*args):
            pulled.append(pair)
            yield pair

    monkeypatch.setattr(obstruction, "_oracle_orders", counting)
    report = obstruction_order(degree3_forcing(7), RationalFreq(34, 89))
    assert report.orders_computed == len(pulled) == 32
    assert pulled == list(zip(report.betas, report.gammas_oracle))


def test_report_json_dict():
    report = obstruction_order(FourierSeries.cos(), RationalFreq(1, 3))
    d = jsonio.encode(report)
    assert d["p"] == 1 and d["m"] == 3
    assert d["n_star"] == 3
    assert isinstance(d["gamma_engine"], list) and len(d["gamma_engine"]) == 2
    assert d["relative_gap"] < 1e-12
    assert len(d["betas"]) == d["orders_computed"]


def _radial_sweep(tmp_path, eps, radii):
    """Picard at q = r e^{2 pi i / 3}: a sweep on Re omega = 1/3 at
    Im omega = -ln r / 2 pi, one point a radius (the README's radial probe)."""
    records = []
    for r in radii:
        im = -math.log(r) / (2 * math.pi)
        out = tmp_path / f"radial-{r}.jsonl"
        run_sweep(omega_re=(1 / 3, 1 / 3, 1), omega_im=(im, im, 1), eps=eps,
                  f=FourierSeries.cos(), modes=256, method="picard",
                  out_path=out)
        records += [json.loads(line) for line in out.read_text().splitlines()]
    return records


def test_radial_iteration_counts_climb_toward_resonance(tmp_path):
    # approaching q = e^{2 pi i /3} radially, the Picard contraction slows
    # down; the counts are a natural-boundary indicator
    out = _radial_sweep(tmp_path, 0.05, (0.80, 0.88, 0.94))
    assert all(e["status"] == "converged" for e in out)
    assert [e["iterations"] for e in out] == [13, 21, 61]


def test_radial_picard_sweep_records_each_failure(tmp_path):
    # at eps = 2e4 every radius overflows the evaluation exponent cap in the
    # first composition off the grid; at eps = 50 Picard's divergence
    # safeguard stops every radius before that.  Either way the sweep
    # records each radius as failed instead of raising
    for eps, error, reason in ((2e4, "OverflowRiskError", "exceeds cap"),
                               (50.0, "DivergenceError", "residual grew")):
        out = _radial_sweep(tmp_path, eps, (0.85, 0.90, 0.95))
        assert len(out) == 3
        for e in out:
            assert e["status"] == "failed"
            assert e["error"]["type"] == error
            assert reason in e["error"]["message"]


def test_obstruction_imports_no_solver():
    # the rational theory stands on the tables and the jet alone
    tree = ast.parse(Path(obstruction.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {part for a in node.names for part in a.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            names |= set((node.module or "").split("."))
            names |= {a.name for a in node.names}
    assert not names & {"kam", "continuation"}


@pytest.mark.parametrize("m,max_order,named", [
    pytest.param(obstruction.OBSTRUCTION_ORDER_CAP + 1, None, "m",
                 id="401-None-m = 401"),
    pytest.param(7, obstruction.OBSTRUCTION_ORDER_CAP + 1, "max_order",
                 id="7-401-max_order = 401"),
])
def test_obstruction_refuses_orders_past_the_cap(monkeypatch, m, max_order,
                                                 named):
    # the tables take m entries and the default order budget is m: both are
    # refused before any table is built
    def no_tables(*args, **kwargs):
        raise AssertionError("tables built before the cap was checked")

    monkeypatch.setattr(RationalFreq, "tables", no_tables)
    with pytest.raises(ValueError) as e:
        obstruction_order(FourierSeries.cos(), RationalFreq(1, m),
                          max_order=max_order)
    assert str(e.value) == f"{named} must be an int in [1, 400], got 401"


def test_obstruction_runs_at_the_cap():
    rep = obstruction_order(FourierSeries.cos(), RationalFreq(1, 7),
                            max_order=obstruction.OBSTRUCTION_ORDER_CAP)
    assert rep.n_star == 7
