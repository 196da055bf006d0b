"""Frequency charts, small divisors, Diophantine geometry, sampled families."""

import cmath
import dataclasses
import hashlib
import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from kamforge import frequency, jsonio
from kamforge.errors import BoundViolationError, ResonanceError
from kamforge.frequency import (
    DiophantineClass,
    _difference_sum,
    _prime_factor_sieve,
    SampledFamily,
    c1hol_norm_estimate,
    check_exp_dist_bound,
    check_small_divisor_bound,
    dioph_real_margin,
    dist_to_AMR,
    dist_to_integers,
    export_set_geometry,
    from_omega,
    from_q,
    in_AMC,
    in_KM,
    lambda_k,
    lambda_table,
    reflected,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def cls6(m_max=2000):
    return DiophantineClass(6.0, 0.5, m_max)


# -- charts -----------------------------------------------------------------


def test_charts_by_sign_of_im():
    real = from_omega(GOLDEN)
    assert real.chart == "inner"
    assert abs(abs(real.coord) - 1.0) < 1e-15
    up = from_omega(0.3 + 0.2j)
    assert up.chart == "inner" and abs(up.coord) < 1.0
    down = from_omega(0.3 - 0.2j)
    assert down.chart == "outer" and abs(down.coord) < 1.0


def test_q_roundtrip():
    freq = from_q(0.3)
    assert abs(freq.q - 0.3) < 1e-15
    # omega and q are tied by q = exp(2 pi i omega)
    assert abs(cmath.exp(2j * math.pi * freq.omega) - 0.3) < 1e-15
    freq2 = from_omega(freq.omega)
    assert abs(freq2.q - freq.q) < 1e-15


CAP_IM = frequency.EXP_CAP / (2.0 * math.pi)   # the largest |Im omega|


@pytest.mark.parametrize("im", [
    math.inf, -math.inf, 120.0, -120.0, 200.0, -200.0, 1e300,
    pytest.param(CAP_IM * (1.0 + 1e-12), id="cap-above"),
    pytest.param(-CAP_IM * (1.0 + 1e-12), id="cap-below")])
def test_from_omega_refuses_the_poles_and_past_the_cap(im):
    # q^{+-1} = e^{-+2 pi i omega} exist only for 2 pi |Im omega| <= EXP_CAP,
    # so no frequency, and no shift multiplier, is made past it
    with pytest.raises(ValueError, match=r"^omega must be finite with "
                                         r"2 pi \|Im omega\| <= 700, got"):
        from_omega(complex(0.3, im))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_from_omega_accepts_the_cap(sign):
    freq = from_omega(complex(0.3, sign * CAP_IM * (1.0 - 1e-12)))
    assert freq.chart == ("inner" if sign > 0 else "outer")
    assert cmath.isfinite(freq.q) and freq.q != 0
    assert cmath.isfinite(freq.coord) and 0.0 < abs(freq.coord) < 1e-303


@pytest.mark.parametrize("q", [0.0, -0.0j, math.inf, complex(0.0, -math.inf),
                               math.nan, complex(0.3, math.nan), 1e-305,
                               1e305, complex(1.5e308, 1.5e308)])
def test_from_q_refuses_the_poles_and_past_the_cap_naming_q(q):
    with pytest.raises(ValueError, match=r"^q must be nonzero and finite .*, "
                                         rf"got {re.escape(str(complex(q)))}$"):
        from_q(q)


def test_reflection_conjugates_omega():
    freq = from_omega(0.5 + 0.5j)
    refl = reflected(freq)
    assert abs(refl.omega - (0.5 - 0.5j)) < 1e-15
    assert refl.chart == "outer"


def test_dist_to_integers():
    assert dist_to_integers(0.25) == 0.25
    assert dist_to_integers(3.9) == pytest.approx(0.1, abs=1e-12)
    # complex argument: distance to the nearest integer in the plane
    assert dist_to_integers(-0.4 + 0.3j) == pytest.approx(abs(complex(-0.4, 0.3)),
                                                          abs=1e-12)


# -- elementary divisors -----------------------------------------------------


def test_lambda_hand_value_at_golden():
    # 1 / (e^(2 pi i golden) - 1) computed independently
    freq = from_omega(GOLDEN)
    q = cmath.exp(2j * math.pi * GOLDEN)
    for k in (1, 2, 5, -3):
        direct = 1.0 / (q ** k - 1.0)
        assert abs(lambda_k(freq, k) - direct) < 1e-12 * abs(direct)
    lam1 = lambda_k(freq, 1)
    # Re = -1/2 exactly: lambda_1 + lambda_{-1} = -1 and the pair is conjugate
    assert abs(lam1.real + 0.5) < 1e-15
    assert abs(lam1.imag - 0.19440036678010322) < 1e-12


def test_lambda_reflection_identity():
    # lambda_k + lambda_{-k} = -1 for every k and frequency
    rng = np.random.default_rng(21)
    for _ in range(25):
        freq = from_omega(rng.random() + 1j * rng.uniform(-0.4, 0.4))
        k = int(rng.integers(1, 60))
        s = lambda_k(freq, k) + lambda_k(freq, -k)
        assert abs(s + 1.0) < 1e-12


def test_lambda_overflow_free_high_in_band():
    # Im omega = 40 would overflow exp(2 pi * 40 * k) if computed naively
    freq = from_omega(0.3 + 40.0j)
    assert abs(lambda_k(freq, 100) + 1.0) < 1e-300  # q^100 underflows, 1/(0-1)
    assert abs(lambda_k(freq, -100)) < 1e-300
    with pytest.raises(ValueError):
        lambda_k(freq, 0)


def scalar_lambda_row(freq, N):
    """lambda_k for k = -N..N from the scalar reference, 0 at k = 0."""
    return np.array([lambda_k(freq, k) if k else 0j for k in range(-N, N + 1)])


def vanishes(freq, k):
    try:
        lambda_k(freq, k)
    except ResonanceError:
        return True
    return False


@settings(derandomize=True, max_examples=200, deadline=None)
@given(re=st.floats(0.0, 1.0, exclude_max=True),
       im=st.one_of(st.just(0.0), st.floats(-40.0, 40.0)),
       N=st.integers(0, 200))
@example(re=0.0, im=0.0, N=3)           # omega = 0: every divisor vanishes
def test_lambda_table_matches_scalar_reference(re, im, N):
    freq = from_omega(complex(re, im))
    if any(vanishes(freq, k) for k in range(-N, N + 1) if k):
        # the table names the smallest vanishing |k|
        first = min(k for k in range(1, N + 1) if vanishes(freq, k))
        with pytest.raises(ResonanceError, match=f"at k = {first}:"):
            lambda_table(freq, N)
        return
    ref = scalar_lambda_row(freq, N)
    table = lambda_table(freq, N)
    assert table.shape == (2 * N + 1,)
    assert table[N] == 0.0
    assert np.all(np.abs(table - ref) <= 4e-16 * np.abs(ref))


@pytest.mark.parametrize("omega,p,m", [(0.5, 1, 2), (1 / 3, 1, 3), (0.4, 2, 5),
                                       (0.25, 1, 4)])
def test_exact_rationals_are_resonant(omega, p, m):
    # q^m - 1 is round-off there (|lambda| read 4e15-4e17 under a 1e-300 test)
    freq = from_omega(omega)
    with pytest.raises(ResonanceError, match=f"at k = {m}: omega is {p}/{m} ") as e:
        lambda_table(freq, 200)
    assert (e.value.diagnostics["k"], e.value.diagnostics["p"],
            e.value.diagnostics["m"]) == (m, p, m)
    for k in (m, -m, 7 * m):
        with pytest.raises(ResonanceError, match=f"omega is {p}/{m} "):
            lambda_k(freq, k)
    lambda_k(freq, m + 1)  # a k that m does not divide is an ordinary divisor


@pytest.mark.parametrize("omega", [0.5 + 1e-9, 0.5 - 1e-9, GOLDEN,
                                   math.sqrt(2.0) - 1.0, 0.5 + 1e-3j])
def test_near_rationals_keep_their_divisors(omega):
    freq = from_omega(omega)
    table = lambda_table(freq, 4096)
    ref = scalar_lambda_row(freq, 4096)
    assert np.all(np.abs(table - ref) <= 4e-16 * np.abs(ref))


def test_exp_dist_bound():
    assert check_exp_dist_bound(0.3)
    assert check_exp_dist_bound(1e-9)      # near-integer: both sides tiny
    assert check_exp_dist_bound(0.5 + 0.49j)
    with pytest.raises(ValueError):
        check_exp_dist_bound(0.1 + 0.51j)  # outside the certified strip


# -- real margins and the gap union -----------------------------------------


def test_margin_golden_closed_form():
    # fold(golden) = (3 - sqrt 5)/2, worst at convergent 0/1:
    # margin = M * (3 - sqrt 5)/2
    margin, worst = dioph_real_margin(GOLDEN, cls6())
    assert worst == (0, 1)
    assert abs(margin - 6.0 * (3.0 - math.sqrt(5.0)) / 2.0) < 1e-12
    # exact fold invariance
    assert dioph_real_margin(GOLDEN + 1.0, cls6()) == (margin, worst)
    assert dioph_real_margin(-GOLDEN, cls6()) == (margin, worst)


def test_margin_sqrt2_closed_form():
    margin, worst = dioph_real_margin(math.sqrt(2.0) - 1.0, cls6())
    assert worst == (0, 1)
    assert abs(margin - 6.0 * (math.sqrt(2.0) - 1.0)) < 1e-12


def test_margin_rational_is_zero():
    margin, worst = dioph_real_margin(0.5, cls6())
    assert margin == 0.0 and worst == (1, 2)
    margin0, worst0 = dioph_real_margin(0.0, cls6())
    assert margin0 == 0.0 and worst0 == (0, 1)


def test_membership():
    c = cls6()
    assert in_KM(from_omega(GOLDEN), c)
    assert not in_KM(from_omega(0.5), c)
    assert in_AMC(GOLDEN + 0.001j, c)
    assert not in_AMC(0.5 + 0.001j, c)
    assert in_AMC(0.5 + 0.1j, c)  # high enough over the gap


def test_gap_union_tiny_class_closed_form():
    # m_max = 2: gaps at 0,1 (radius 1/6) and 1/2 (radius 1/(6*2^2.5));
    # disjoint, so the measure is exactly the sum
    c = DiophantineClass(6.0, 0.5, 2)
    measure = c._gaps()[2]
    expected = 2.0 / 6.0 + 2.0 / (6.0 * 2.0 ** 2.5)
    assert abs(measure - expected) < 1e-14
    # distances from gap centers reach the first free point
    assert abs(dist_to_AMR(0.0, c) - 1.0 / 6.0) < 1e-14
    assert abs(dist_to_AMR(0.5, c) - 1.0 / (6.0 * 2.0 ** 2.5)) < 1e-14
    assert dist_to_AMR(0.25, c) == 0.0


def test_gap_measure_bound_and_monotonicity():
    # harmonic bound 2 zeta(1 + tau) / M, from sum_m phi(m) * 2 /(M m^(2+tau))
    for M in (6.0, 12.0):
        c = DiophantineClass(M, 0.5, 500)
        assert c.measure_bound() == pytest.approx(2.0 * zeta(1.5) / M,
                                                  rel=1e-12)
        assert c._gaps()[2] <= c.measure_bound()
    m6 = DiophantineClass(6.0, 0.5, 500)._gaps()[2]
    m12 = DiophantineClass(12.0, 0.5, 500)._gaps()[2]
    assert m12 < m6
    # measure grows with m_max (more gaps), still under the bound
    m6b = DiophantineClass(6.0, 0.5, 1000)._gaps()[2]
    assert m6 < m6b <= DiophantineClass(6.0, 0.5, 1000).measure_bound()


def test_admissibility_gate():
    with pytest.raises(ValueError):
        DiophantineClass(5.0, 0.5, 100)   # 5 < 2 zeta(1.5) = 5.2247
    with pytest.raises(ValueError):
        DiophantineClass(6.0, -0.1, 100)
    c = DiophantineClass(5.3, 0.5, 100)   # just admissible
    assert c.measure_bound() < 1.0


@pytest.mark.parametrize("m_max", [200.5, 200.0, True, np.int64(200), "200",
                                   1, -5], ids=["200.5", "200.0", "True",
                                                "np.int64", "str", "1", "-5"])
def test_m_max_must_be_an_int_of_at_least_2(m_max):
    # the sieve behind dist_to_AMR counts to m_max: a float would fail there
    got = re.escape(repr(m_max))
    with pytest.raises(ValueError, match=rf"^m_max must be an int >= 2, got {got}$"):
        DiophantineClass(6.0, 0.5, m_max)


@pytest.mark.parametrize("name", ["M", "tau"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(name, value):
    params = {"M": 6.0, "tau": 0.5, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        DiophantineClass(params["M"], params["tau"], 100)


def reference_gap_union(M, tau, m_max):
    """Pure-Python union: gcd enumeration, sort by left end, running max."""
    intervals = []
    for m in range(1, m_max + 1):
        r = 1.0 / (M * float(m) ** (2.0 + tau))
        centers = [float(n) / m for n in range(m) if math.gcd(n, m) == 1]
        if m == 1:
            centers.append(1.0)
        intervals += [(c - r, c + r) for c in centers]
    intervals.sort()
    starts, ends = [intervals[0][0]], [intervals[0][1]]
    for lo, hi in intervals[1:]:
        if lo <= ends[-1]:          # open gaps that touch or overlap merge
            ends[-1] = max(ends[-1], hi)
        else:
            starts.append(lo)
            ends.append(hi)
    return np.array(starts), np.array(ends)


def unpruned_gap_union(M, tau, m_max):
    """The union of every gap, none pruned: the build the pruned one replaced.

    Endpoints float64(n)/m -/+ r_m of all 2 + sum phi(m) gaps, two sorts
    and the adjacent-compare merge.
    """
    factors, phi = _prime_factor_sieve(m_max)
    size = 2 + sum(phi[2:])
    lo = np.empty(size, dtype=np.float64)
    hi = np.empty(size, dtype=np.float64)
    r = 1.0 / M
    lo[:2] = (0.0 - r, 1.0 - r)
    hi[:2] = (0.0 + r, 1.0 + r)
    nums = np.arange(m_max, dtype=np.float64)
    pos = 2
    for m in range(2, m_max + 1):
        r = 1.0 / (M * float(m) ** (2.0 + tau))
        coprime = np.ones(m - 1, dtype=bool)
        for p in factors[m]:
            coprime[p - 1::p] = False
        seg = slice(pos, pos + phi[m])
        np.compress(coprime, nums[1:m], out=lo[seg])
        np.divide(lo[seg], m, out=lo[seg])
        np.add(lo[seg], r, out=hi[seg])
        np.subtract(lo[seg], r, out=lo[seg])
        pos += phi[m]
    lo.sort()
    hi.sort()
    flags = np.ones(size + 1, dtype=bool)
    np.less(hi[:-1], lo[1:], out=flags[1:-1])
    starts = lo[flags[:-1]]
    ends = hi[flags[1:]]
    measure = float(np.sum(ends - starts) + starts[0] - ends[-1] + 1.0)
    return starts, ends, measure


@pytest.mark.parametrize("M, tau, m_max", [
    (5.3, 0.5, 2000), (6.0, 0.5, 2000), (25.0, 0.1, 2000), (3.0, 2.0, 2000),
    (60.0, 0.5, 2000),
    (5.3, 0.5, 4000),   # every container 1/2 .. 5/6 strikes
])
def test_pruned_gap_union_is_bit_identical(M, tau, m_max):
    # at m_max = 2000 the containers 1/2 and 1/3 strike (and 1/4 at M = 5.3
    # and 6); at M = 60 only the m = 1 gaps prune
    starts, ends, measure = DiophantineClass(M, tau, m_max)._gaps()
    ref_starts, ref_ends, ref_measure = unpruned_gap_union(M, tau, m_max)
    assert starts.tobytes() == ref_starts.tobytes()
    assert ends.tobytes() == ref_ends.tobytes()
    assert measure.hex() == ref_measure.hex()


def test_gap_union_peak_memory():
    # the unpruned build peaked at 25 MB at m_max = 2000: both endpoint
    # arrays of all 1.2M gaps, then fresh copies of the starts and ends;
    # the pruned one with a full-size break mask and ``ends - starts``
    # peaked at 87 MB at m_max = 5000, where lo + hi of the kept gaps
    # take 64 MB
    for m_max, bound in ((2000, 21e6), (5000, 75e6)):
        cls = DiophantineClass(6.0, 0.5, m_max)
        tracemalloc.start()
        try:
            cls._gaps()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (m_max, peak)


def test_gap_union_refuses_m_max_past_its_cap(monkeypatch):
    # 2 + sum phi(m) doubles at m_max = 10^5 would be 24 GB: the refusal
    # comes before the sieve, so nothing is allocated
    def no_sieve(n):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(frequency, "_prime_factor_sieve", no_sieve)
    cls = DiophantineClass(6.0, 0.5, frequency.GAP_UNION_MAX_M + 1)
    with pytest.raises(ValueError,
                       match="m_max = 10001 exceeds the gap-union cap 10000"):
        cls._gaps()
    with pytest.raises(ValueError, match="10001"):
        in_KM(from_omega(0.3 + 0.01j), cls)
    # the convergent scan needs no union and takes any m_max
    assert dioph_real_margin(GOLDEN, DiophantineClass(6.0, 0.5, 10**9))[0] > 1


def test_gap_union_sort_worker_reraises_and_is_joined(monkeypatch):
    # hi sorts on a worker thread: its exception reaches the caller, and the
    # thread is gone when _gaps() returns, normally or by raising
    boom = RuntimeError("sort failed")
    ran_on = []

    class FailingSort(ThreadPoolExecutor):
        def submit(self, fn):
            def sort_then_fail():
                fn()
                ran_on.append(threading.current_thread())
                raise boom
            return super().submit(sort_then_fail)

    before = threading.active_count()
    assert DiophantineClass(6.0, 0.5, 200)._gaps()[0].size == 6191
    assert threading.active_count() == before
    monkeypatch.setattr(frequency, "ThreadPoolExecutor", FailingSort)
    with pytest.raises(RuntimeError) as info:
        DiophantineClass(6.0, 0.5, 200)._gaps()
    assert info.value is boom
    assert ran_on and ran_on[0] is not threading.current_thread()
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [
    (1 << 17) - 1, 1 << 17, (1 << 17) + 1,   # around the leaf size
    10**6 + 7,
    13_447_899,     # the components at (6, 0.5, 10^4)
])
def test_difference_sum_is_numpys_sum(n):
    # the measure's chunked sum must follow numpy's own pairwise order: if
    # numpy ever changes it, this fails before the pinned measures do
    rng = np.random.default_rng(n)
    a = rng.random(n)
    b = rng.random(n)
    b += a
    assert _difference_sum(b, a).hex() == np.sum(b - a).hex()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(M=st.floats(5.3, 100.0), tau=st.floats(0.1, 2.0),
       m_max=st.integers(2, 80))
@example(M=5.3, tau=0.5, m_max=400)     # the container 1/2 strikes too
def test_gap_union_matches_reference(M, tau, m_max):
    assume(M > 2.0 * zeta(1.0 + tau))
    starts, ends, measure = DiophantineClass(M, tau, m_max)._gaps()
    ref_starts, ref_ends = reference_gap_union(M, tau, m_max)
    assert starts.tobytes() == ref_starts.tobytes()
    assert ends.tobytes() == ref_ends.tobytes()
    assert np.all(ends[:-1] < starts[1:])
    assert starts[0] < 0.0 and ends[-1] > 1.0
    assert 0.0 < measure <= DiophantineClass(M, tau, m_max).measure_bound()


def test_gap_union_overlap_heavy_against_reference():
    # M = 5.3 sits just above 2 zeta(1.5): neighbouring gaps overlap a lot
    starts, ends, _ = DiophantineClass(5.3, 0.5, 80)._gaps()
    ref_starts, ref_ends = reference_gap_union(5.3, 0.5, 80)
    assert starts.size < 2 + sum(1 for m in range(2, 81)
                                 for n in range(1, m) if math.gcd(n, m) == 1)
    assert starts.tobytes() == ref_starts.tobytes()
    assert ends.tobytes() == ref_ends.tobytes()


@pytest.mark.parametrize("m_max, components, measure_hex", [
    (200, 6191, "0x1.20204883fef5bp-1"),
    (2000, 556231, "0x1.24d61d5386181p-1"),
])
def test_gap_union_pinned(m_max, components, measure_hex):
    starts, ends, measure = DiophantineClass(6.0, 0.5, m_max)._gaps()
    assert (starts.size, ends.size) == (components, components)
    assert measure.hex() == measure_hex


def test_small_divisor_bound_certificate():
    rep = check_small_divisor_bound(from_omega(GOLDEN), cls6(), k_max=100)
    assert rep["max_ratio"] <= 1.0
    assert abs(rep["k_at_max"]) <= 100
    with pytest.raises(BoundViolationError):
        check_small_divisor_bound(from_omega(0.5 + 1e-9), cls6(), k_max=10)
    with pytest.raises(ResonanceError):
        check_small_divisor_bound(from_omega(0.5), cls6(), k_max=10)


def test_small_divisor_bound_resolves_a_tie_to_plus_k():
    # on the real circle q^{-k} is the exact conjugate of q^k, so
    # |lambda_k| and |lambda_{-k}| tie bit for bit at every k
    freq = from_omega(GOLDEN)
    rep = check_small_divisor_bound(freq, cls6(), k_max=100)
    k = rep["k_at_max"]
    assert k > 0
    assert abs(lambda_k(freq, k)) == abs(lambda_k(freq, -k))
    # the scalar scan, +k before -k, keeps the first of equal ratios
    best, best_k = 0.0, 0
    for kk in [s * j for j in range(1, 101) for s in (1, -1)]:
        ratio = abs(lambda_k(freq, kk)) / (
            math.sqrt(2.0) * 6.0 * float(abs(kk)) ** 1.5)
        if ratio > best:
            best, best_k = ratio, kk
    assert k == best_k
    assert rep["max_ratio"] == pytest.approx(best, rel=1e-15)


def test_class_is_frozen():
    # the gap union is cached per instance, so its parameters cannot move
    c = DiophantineClass(6.0, 0.5, 50)
    measure = c._gaps()[2]
    for name, value in (("M", 12.0), ("M", float("nan")), ("tau", 1.0),
                        ("m_max", 100)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, value)
    assert c.M == 6.0
    assert c._gaps()[2] == measure


def test_set_geometry_export():
    c = DiophantineClass(6.0, 0.5, 50)
    geo = export_set_geometry(c, boundary_n=64)
    d = geo.to_json_dict()
    assert d["first_untested_denominator"] == 51
    assert len(d["boundary_samples"]) == 128  # both branches
    for lo, hi in d["gaps"]:
        assert 0.0 <= lo < hi <= 1.0
    assert d["total_gap_measure"] == pytest.approx(geo.total_gap_measure)
    # boundary samples sit exactly on |Im| = dist(Re, set)
    for re, im in d["boundary_samples"][:10]:
        assert abs(abs(im) - dist_to_AMR(re, c)) < 1e-14


def test_set_geometry_json_is_pinned():
    # sha256 of the JSON from the vector gap-distance route the scalar one replaced
    geo = export_set_geometry(DiophantineClass(6, 0.5, 300))
    digest = hashlib.sha256(jsonio.dumps(geo.to_json_dict()).encode()).hexdigest()
    assert digest == "f6b63e74b3d1152a46edd47ff4d72c8746b019db3080b7588be109c14a85b0e3"


# -- membership queries against their exact references -----------------------


def margin_fraction(x, cls):
    """The convergent scan on ``Fraction`` arithmetic: the margin's reference."""
    y = float(x) % 1.0
    if y > 0.5:
        y = 1.0 - y
    fr = Fraction(y)
    margin, worst = math.inf, (0, 1)
    num, den = fr.numerator, fr.denominator
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0
    a, rem = divmod(num, den)
    while True:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > cls.m_max:
            break
        val = float(abs(q_cur * fr - p_cur)) * cls.M * float(q_cur) ** (1.0 + cls.tau)
        if val < margin:
            margin, worst = val, (p_cur, q_cur)
        if rem == 0:
            break
        num, den = den, rem
        a, rem = divmod(num, den)
    return margin, worst


def dist_many(xs, cls):
    """Gap distances of many points at once: the scalar distance's reference."""
    starts, ends, _ = cls._gaps()
    y = np.asarray(xs, dtype=np.float64) % 1.0
    i = np.searchsorted(starts, y, side="right") - 1
    inside = (i >= 0) & (y < ends[np.clip(i, 0, ends.size - 1)])
    out = np.zeros_like(y)
    yi, ii = y[inside], i[inside]
    first, last = 0, starts.size - 1
    left = np.where(ii == first, yi - (starts[last] - 1.0), yi - starts[ii])
    right = np.where(ii == last, (ends[first] + 1.0) - yi, ends[ii] - yi)
    out[inside] = np.minimum(left, right)
    return out


CLS2000 = cls6(2000)  # its gap union is built on first use


def assert_membership_matches_references(xs, ys):
    cls = CLS2000
    want_dist = dist_many(xs, cls)
    for x, y, want in zip(xs, ys, want_dist.tolist()):
        margin, worst = dioph_real_margin(x, cls)
        want_margin, want_worst = margin_fraction(x, cls)
        assert (margin.hex(), worst) == (want_margin.hex(), want_worst), x
        assert dist_to_AMR(x, cls).hex() == want.hex(), x
        assert in_AMC(complex(x, y), cls) == (want <= abs(y)), x


def edge_points():
    starts, ends, _ = CLS2000._gaps()
    picks = np.random.default_rng(3).integers(1, starts.size - 1, 40)
    return [0.0, -0.0, 0.5, 1.0 / 3.0, GOLDEN, 1.0 - 2.0 ** -53, 5e-324,
            -5e-324, 1.0, -1e-20, 2.5, -7.75,
            # the wrap components: [starts[0], ends[0]] holds 0 and
            # [starts[-1], ends[-1]] holds 1
            0.01, -0.01, 0.99, 1.01, float(ends[0]), float(starts[-1]),
            float(starts[0]) + 1.0, float(ends[-1]) - 1.0,
            *starts[picks].tolist(), *ends[picks].tolist()]


def test_membership_bit_for_bit_against_references():
    rng = np.random.default_rng(20260)
    xs = [*edge_points(), *rng.random(20_000).tolist()]
    ys = rng.uniform(-0.05, 0.05, len(xs)).tolist()
    assert_membership_matches_references(xs, ys)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False),
       y=st.floats(-0.1, 0.1))
@example(x=5e-324, y=0.0)
@example(x=1.0 - 2.0 ** -53, y=1e-9)
def test_membership_matches_references(x, y):
    assert_membership_matches_references([x], [y])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_refused(x):
    c = cls6(50)
    with pytest.raises(ValueError, match="^x must be finite"):
        dist_to_AMR(x, c)
    with pytest.raises(ValueError, match="^x must be finite"):
        in_AMC(complex(x, 0.01), c)
    with pytest.raises(ValueError, match="^x must be finite"):
        dioph_real_margin(x, c)


def test_nan_imaginary_part_is_refused():
    # 0.25 is outside every gap: a NaN height used to read as "not a member"
    with pytest.raises(ValueError, match="^omega must have no NaN part"):
        in_AMC(complex(0.25, math.nan), cls6(50))


# -- sampled families ---------------------------------------------------------


def test_sampled_family_roundtrip_and_c1_estimate():
    # linear family phi(omega) = c * omega: difference quotients equal the
    # claimed derivative up to round-off, so the defect part vanishes
    c = np.array([2.0 - 1.0j, 0.5j])
    oms = [0.2 + 0.1j, 0.25 + 0.1j, 0.3 - 0.12j]
    points = [from_omega(om) for om in oms]
    values = [c * om for om in oms]
    derivs = [c.copy() for _ in oms]
    fam = SampledFamily(points=points, values=values, derivs=derivs)
    n0, n1, n2 = c1hol_norm_estimate(fam)
    assert n0 == pytest.approx(max(abs(c * om).max() for om in oms), rel=1e-12)
    assert n1 >= abs(c).max()
    assert n2 < 1e-12
    fam2 = SampledFamily.from_json_dict(fam.to_json_dict())
    assert all(abs(p.omega - p2.omega) < 1e-15
               for p, p2 in zip(fam.points, fam2.points))
    assert all(np.allclose(v, v2, atol=0, rtol=0)
               for v, v2 in zip(fam.values, fam2.values))
    n0b, n1b, n2b = c1hol_norm_estimate(fam2)
    assert (n0b, n1b) == (n0, n1)


def test_c1_estimate_compares_points_across_the_real_axis():
    # c above the axis, -c below, zero claimed derivatives: the one quotient
    # across the axis reads |2c| / |2 delta|, while each side alone is flat
    c, delta = np.array([1.5 - 2.0j]), 1e-3
    points = [from_omega(0.3 + 1j * delta), from_omega(0.3 - 1j * delta)]
    assert [p.chart for p in points] == ["inner", "outer"]
    fam = SampledFamily(points=points, values=[c, -c],
                        derivs=[np.zeros(1), np.zeros(1)])
    n0, n1, n2 = c1hol_norm_estimate(fam)
    assert (n0, n1) == (2.5, 5.0)
    assert n2 == pytest.approx(2.5 / delta, rel=1e-12)


def test_c1_estimate_takes_omega_differences_mod_one():
    # from_omega folds Re omega = -0.01 to 0.99; phi = c * omega on the
    # unfolded points is linear only if that pair's step reads 0.01
    c = np.array([2.0 - 1.0j, 0.5j])
    oms = [-0.01 + 0.05j, 0.05j, 0.01 + 0.05j]
    points = [from_omega(om) for om in oms]
    assert points[0].omega.real == pytest.approx(0.99)
    fam = SampledFamily(points=points, values=[c * om for om in oms],
                        derivs=[c.copy() for _ in oms])
    assert c1hol_norm_estimate(fam)[2] < 1e-12


def test_sampled_family_none_derivs():
    points = [from_q(0.2), from_q(0.3)]
    values = [np.array([1.0 + 0j]), np.array([2.0 + 0j])]
    fam = SampledFamily(points=points, values=values, derivs=[None, None])
    n0, n1, n2 = c1hol_norm_estimate(fam)
    assert n0 == 2.0
    assert n2 == 0.0  # no claimed derivatives, no defect
    fam2 = SampledFamily.from_json_dict(fam.to_json_dict())
    assert fam2.derivs == [None, None]


def _family_dict(n_points, n_values, n_derivs, lengths=None):
    lengths = lengths or [2] * n_values
    return SampledFamily(
        points=[from_omega(0.1 * (i + 1) + 0.05j) for i in range(n_points)],
        values=[np.arange(n, dtype=np.complex128) for n in lengths],
        derivs=[np.ones(2, dtype=np.complex128)] * n_derivs).to_json_dict()


@pytest.mark.parametrize("d,message", [
    (_family_dict(2, 2, 1), r"\(points, values, derivs\) = \(2, 2, 1\)"),
    (_family_dict(1, 2, 1), r"\(points, values, derivs\) = \(1, 2, 1\)"),
    (_family_dict(2, 2, 2, lengths=[2, 3]), r"of lengths \[2, 3\]"),
], ids=["missing-deriv", "orphan-value", "unequal-lengths"])
def test_sampled_family_decode_refuses_mismatched_counts(d, message):
    with pytest.raises(ValueError, match=message):
        SampledFamily.from_json_dict(d)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_entry = st.builds(complex, _finite, _finite) | st.sampled_from(
    [complex(-0.0, -0.0), complex(-0.0, 0.5), complex(0.25, -0.0)])


@st.composite
def _families(draw):
    n, size = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    vec = st.lists(_entry, min_size=size, max_size=size).map(np.array)
    re = st.floats(0.0, 1.0, exclude_max=True)
    im = st.floats(-5.0, 5.0) | st.just(-0.0)
    return SampledFamily(
        points=[from_omega(complex(draw(re), draw(im))) for _ in range(n)],
        values=[draw(vec) for _ in range(n)],
        derivs=[draw(st.none() | vec) for _ in range(n)])


def _bits(v):
    return None if v is None else np.asarray(v, dtype=np.complex128).tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_families())
def test_sampled_family_roundtrips_bit_for_bit(fam):
    fam2 = SampledFamily.from_json_dict(
        jsonio.loads(jsonio.dumps(fam.to_json_dict())))
    def points(f):
        return [(p.chart, _bits([p.omega, p.coord])) for p in f.points]
    assert points(fam) == points(fam2)
    assert [_bits(v) for v in fam.values] == [_bits(v) for v in fam2.values]
    assert [_bits(v) for v in fam.derivs] == [_bits(v) for v in fam2.derivs]
