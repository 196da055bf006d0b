"""Frequency charts, small divisors, Diophantine geometry, sampled families."""

import cmath
import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from kamforge import jsonio
from kamforge.errors import BoundViolationError, ResonanceError
from kamforge.frequency import (
    DiophantineClass,
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
@example(re=0.3, im=math.inf, N=5)      # the pole q = 0
@example(re=0.3, im=-math.inf, N=5)     # the pole q = infinity
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
    if freq.is_pole:
        assert table.tobytes() == ref.tobytes()
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
    assert c.sigma == 4.0 + 2.0 * 0.5


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(M=st.floats(5.3, 20.0), tau=st.floats(0.1, 2.0),
       m_max=st.integers(2, 80))
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
    # linear family phi(q) = c * q: difference quotients equal the claimed
    # derivative exactly, so the defect part of the estimate vanishes
    c = np.array([2.0 - 1.0j, 0.5j])
    qs = [0.2 + 0.1j, 0.25 + 0.1j, 0.3 + 0.12j]
    points = [from_q(q) for q in qs]
    values = [c * q for q in qs]
    derivs = [c.copy() for _ in qs]
    fam = SampledFamily(points=points, values=values, derivs=derivs)
    n0, n1, n2 = c1hol_norm_estimate(fam)
    assert n0 == pytest.approx(max(abs(c * q).max() for q in qs), rel=1e-12)
    assert n1 >= abs(c).max()
    assert n2 < 1e-12
    fam2 = SampledFamily.from_json_dict(fam.to_json_dict())
    assert all(abs(p.omega - p2.omega) < 1e-15
               for p, p2 in zip(fam.points, fam2.points))
    assert all(np.allclose(v, v2, atol=0, rtol=0)
               for v, v2 in zip(fam.values, fam2.values))
    n0b, n1b, n2b = c1hol_norm_estimate(fam2)
    assert (n0b, n1b) == (n0, n1)


def test_sampled_family_none_derivs():
    points = [from_q(0.2), from_q(0.3)]
    values = [np.array([1.0 + 0j]), np.array([2.0 + 0j])]
    fam = SampledFamily(points=points, values=values, derivs=[None, None])
    n0, n1, n2 = c1hol_norm_estimate(fam)
    assert n0 == 2.0
    assert n2 == 0.0  # no claimed derivatives, no defect
    fam2 = SampledFamily.from_json_dict(fam.to_json_dict())
    assert fam2.derivs == [None, None]
