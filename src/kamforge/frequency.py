"""Rotation numbers, multiplier charts, and Diophantine set geometry.

A rotation number omega (complex, real part mod 1) maps to the multiplier
q = exp(2 pi i omega).  The Riemann sphere of multipliers is covered by two
charts: the *inner* chart (|q| <= 1, i.e. Im omega >= 0, coordinate q) and
the *outer* chart (coordinate xi = 1/q).  Both chart coordinates stay in
the closed unit disc, and ``log_scale`` = 2 pi Im(omega) carries the
magnitude exactly.  A frequency exists only where 2 pi |Im omega| <=
``fourier.EXP_CAP``, so that q^{+-1} are finite and nonzero: the chart
poles q = 0, infinity are refused where a frequency is made.

The real Diophantine set of exponent tau and constant M is the complement
of the open intervals of radius 1/(M m^(2+tau)) around every rational n/m;
its complex extension admits omega whenever |Im omega| dominates the real
distance to the set.  Because floats are rational, membership is always
relative to a truncated union (denominators m <= m_max); every artifact
records m_max and the first untested denominator.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import zeta as _zeta

from . import jsonio
from .errors import BoundViolationError, ResonanceError
from .fourier import EXP_CAP

_TWO_PI = 2.0 * math.pi
RESONANCE_ULPS = 4.0  # |q^k - 1| < RESONANCE_ULPS 2 pi |k| 2^-52 counts as zero
GAP_UNION_MAX_M = 10_000  # largest m_max whose gap union is built (~258 MB peak)


# ---------------------------------------------------------------------------
# frequencies and charts


@dataclass(frozen=True)
class Frequency:
    """A rotation number together with its multiplier-chart data.

    ``coord`` is the coordinate in the active chart (q inner, xi outer) and
    always has modulus <= 1.  ``from_omega`` and ``from_q`` admit only
    2 pi |Im omega| <= ``EXP_CAP``, so q, 1/q and ``coord`` are finite and
    nonzero: every frequency has its shift multipliers.
    """

    omega: complex
    q: complex
    chart: str        # "inner" | "outer"
    log_scale: float  # 2 pi Im(omega)
    coord: complex


def from_omega(omega) -> Frequency:
    """The frequency of omega, with Re omega folded into [0, 1).

    Raises ``ValueError`` naming omega unless it is finite with
    2 pi |Im omega| <= ``EXP_CAP``: past the cap q or 1/q overflows, and at
    the chart poles q = 0, infinity no shift multiplier exists.
    """
    om = complex(omega)
    if not (cmath.isfinite(om) and _TWO_PI * abs(om.imag) <= EXP_CAP):
        raise ValueError(f"omega must be finite with 2 pi |Im omega| <= "
                         f"{EXP_CAP:g}, got {om}")
    om = complex(om.real % 1.0, om.imag)
    log_scale = _TWO_PI * om.imag
    if om.imag >= 0:
        coord = cmath.exp(2j * math.pi * om)      # |coord| = e^{-2 pi Im} <= 1
        return Frequency(om, coord, "inner", log_scale, coord)
    coord = cmath.exp(-2j * math.pi * om)         # |coord| = e^{2 pi Im} < 1
    return Frequency(om, 1.0 / coord, "outer", log_scale, coord)


def from_q(q) -> Frequency:
    """The frequency of the multiplier q; ``ValueError`` naming q at q = 0,
    at an infinite or NaN q, and where |log |q|| passes ``EXP_CAP``."""
    qq = complex(q)
    try:
        return from_omega(complex(cmath.phase(qq) / _TWO_PI,
                                  -math.log(abs(qq)) / _TWO_PI))
    except (ValueError, OverflowError):  # log 0, abs overflow, from_omega
        raise ValueError(f"q must be nonzero and finite with |log |q|| <= "
                         f"{EXP_CAP:g}, got {qq}") from None


def reflected(freq: Frequency) -> Frequency:
    """The real-symmetry partner: omega -> conj(omega), q -> 1/conj(q)."""
    om = freq.omega
    return from_omega(complex(om.real, -om.imag))


def resonance_error(k: int, om: complex) -> ResonanceError:
    """q^k - 1 vanished: omega is the rational p/m = round(k Re omega) / k."""
    r = Fraction(round(k * om.real), k)
    return ResonanceError(f"q^k - 1 vanished at k = {k}: omega is {r} to working "
                          "precision", {"k": k, "omega": om, "p": r.numerator,
                                        "m": r.denominator})


def lambda_k(freq: Frequency, k: int) -> complex:
    """The elementary divisor 1 / (q^k - 1), evaluated overflow-free.

    The branch is chosen by the sign of k * Im(omega) so the exponential
    w always has modulus <= 1; on the amplified side the algebraically
    equal form w / (1 - w) with w = q^{-k} is used.  (The reflection
    -1 - lambda_{-k} would be exact algebra too, but it cancels
    catastrophically once |lambda_k| drops under the ulp of 1, and the
    forward multipliers q^k - 1 grow fast enough to surface that absolute
    error; w / (1 - w) keeps full relative precision instead.)  A divisor
    within ``RESONANCE_ULPS`` round-offs of 2 pi k omega of zero raises
    ``ResonanceError``: omega is then a rational p/m with m | k.
    """
    k = int(k)
    if k == 0:
        raise ValueError("lambda_k is undefined at k = 0")
    om = freq.omega
    direct = k * om.imag >= 0
    w = cmath.exp((2j if direct else -2j) * math.pi * k * om)
    d = w - 1.0 if direct else 1.0 - w
    if abs(d) < RESONANCE_ULPS * _TWO_PI * abs(k) * 2.0 ** -52:
        raise resonance_error(k, om)
    return 1.0 / d if direct else w / d


def lambda_table(freq: Frequency, N: int) -> np.ndarray:
    """``lambda_k`` for k = -N..N in one pass, 0 at k = 0: the same branches
    and ``ResonanceError`` (at the smallest vanishing |k| > 0)."""
    table, k = lambda_pass(freq, N)
    if k:
        raise resonance_error(k, freq.omega)
    return table


def lambda_pass(freq: Frequency, N: int) -> tuple[np.ndarray, int]:
    """``lambda_table`` without the refusal: the table, 0 wherever q^k - 1
    vanished, and the smallest such |k| (0 if none)."""
    ks = np.arange(-N, N + 1)
    table = np.zeros(2 * N + 1, dtype=np.complex128)
    om = freq.omega
    direct = ks * om.imag >= 0
    w = np.exp(np.where(direct, 2j * math.pi, -2j * math.pi) * ks * om)
    d = np.where(direct, w - 1.0, 1.0 - w)
    nz = ks != 0
    vanished = nz & (np.abs(d) < RESONANCE_ULPS * _TWO_PI * np.abs(ks) * 2.0 ** -52)
    k = int(np.min(np.abs(ks[vanished]))) if vanished.any() else 0
    ok = nz & ~vanished
    table[ok] = np.where(direct, 1.0, w)[ok] / d[ok]
    return table, k


def dist_to_integers(z) -> float:
    """Distance from a real or complex number to the integer lattice."""
    zz = complex(z)
    return math.hypot(zz.real - round(zz.real), zz.imag)


def check_exp_dist_bound(z) -> bool:
    """Certify |exp(2 pi i z) - 1| >= dist(z, Z) on the strip |Im z| <= 1/2.

    Raises ``BoundViolationError`` if the inequality fails (it cannot, for
    correct code), ``ValueError`` outside the strip.
    """
    zz = complex(z)
    if abs(zz.imag) > 0.5:
        raise ValueError("bound certified only for |Im z| <= 1/2")
    lhs = abs(cmath.exp(2j * math.pi * zz) - 1.0)
    rhs = dist_to_integers(zz)
    if lhs + 1e-15 < rhs:
        raise BoundViolationError(
            "exp-distance bound violated",
            {"z": zz, "lhs": lhs, "rhs": rhs},
        )
    return True


# ---------------------------------------------------------------------------
# Diophantine classes


def _finite_x(x) -> float:
    """*x* as a float, or ValueError naming x if it is NaN or infinite."""
    xf = float(x)
    if not math.isfinite(xf):
        raise ValueError(f"x must be finite, got {xf}")
    return xf


def _fold(x: float) -> float:
    """Reduce mod 1 and fold to [0, 1/2]; both maps are exact in binary."""
    y = x % 1.0
    if y > 0.5:
        y = 1.0 - y
    return y


@dataclass(frozen=True)
class DiophantineClass:
    """Parameters (M, tau) of the gap family, truncated at m_max.

    Admissibility requires M > 2 zeta(1+tau) so the gaps cannot cover the
    circle.  Instances are frozen, so the gap union each one caches always
    belongs to its parameters.  That union is built only up to
    ``GAP_UNION_MAX_M``; ``dioph_real_margin`` needs none and takes any m_max.
    """

    M: float = 6.0
    tau: float = 0.5
    m_max: int = 2000

    def __post_init__(self):
        for name in ("M", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not (type(self.m_max) is int and self.m_max >= 2):
            raise ValueError(f"m_max must be an int >= 2, got {self.m_max!r}")
        bound = 2.0 * float(_zeta(1.0 + self.tau))
        if not self.M > bound:
            raise ValueError(
                f"M = {self.M} not admissible: need M > 2 zeta(1+tau) = {bound:.6f}"
            )
        object.__setattr__(self, "_gap_cache", None)

    # -- real margins ------------------------------------------------------

    def measure_bound(self) -> float:
        return 2.0 * float(_zeta(1.0 + self.tau)) / self.M

    def _gaps(self):
        if self._gap_cache is None:
            if self.m_max > GAP_UNION_MAX_M:
                raise ValueError(
                    f"m_max = {self.m_max} exceeds the gap-union cap "
                    f"{GAP_UNION_MAX_M}")
            object.__setattr__(self, "_gap_cache",
                               _merged_gap_union(self.M, self.tau, self.m_max))
        return self._gap_cache


def dioph_real_margin(x: float, cls: DiophantineClass):
    """Worst normalized closeness of x to rationals with m <= m_max.

    Returns ``(margin, (n, m))`` where margin = min_m |x - n/m| M m^(2+tau)
    over 1 <= m <= m_max (n the nearest numerator), computed for the folded
    representative of x in [0, 1/2].  Membership in the truncated real set
    is margin >= 1.  The minimum over all m is attained at a continued-
    fraction convergent denominator (best-approximation property), so only
    convergents are scanned, in exact integer arithmetic without
    ``Fraction``: on the pair y = num/den of ``y.as_integer_ratio()`` each
    distance |q y - p| is |q num - p den| / den, one correctly rounded
    int/int division.  Raises ``ValueError`` for NaN or infinite x.
    """
    y = _fold(_finite_x(x))
    y_num, y_den = y.as_integer_ratio()
    margin = math.inf
    worst = (0, 1)
    num, den = y_num, y_den
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0  # convergents p/q, seeded before a0
    a, rem = divmod(num, den)
    while True:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > cls.m_max:
            break
        dist = abs(q_cur * y_num - p_cur * y_den) / y_den
        val = dist * cls.M * float(q_cur) ** (1.0 + cls.tau)
        if val < margin:
            margin = val
            worst = (p_cur, q_cur)
        if rem == 0:
            break
        num, den = den, rem
        a, rem = divmod(num, den)
    return margin, worst


def _prime_factor_sieve(n: int):
    """Distinct prime factors of every m <= n, and Euler's phi(m)."""
    factors = [[] for _ in range(n + 1)]
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if factors[p]:        # composite: already hit by a smaller prime
            continue
        for k in range(p, n + 1, p):
            factors[k].append(p)
            phi[k] -= phi[k] // p
    return factors, phi


def _merged_gap_union(M: float, tau: float, m_max: int):
    """Union of all truncated gaps, as merged intervals on [-1/M, 1 + 1/M].

    The gaps are the open intervals (n/m - r_m, n/m + r_m) with
    r_m = 1/(M m^(2+tau)), for 1 <= m <= m_max and 0 <= n < m coprime to
    m, plus the duplicate integer gap at 1; the union covers one full
    period, with the wrap-around component split at 0 and 1.  Every
    endpoint is float64(n) / m -/+ r_m.

    A gap that lies inside a *container*, a gap of denominator m' <= M0,
    is never stored (at M = 6, tau = 1/2, m_max = 10^4 that is about half
    of the 30.4M gaps).  Row m keeps the numerators first..m-first, where
    n < first puts (n/m - r_m, n/m + r_m) inside the m = 1 gap (-r_1, r_1)
    and n > m - first inside (1 - r_1, 1 + r_1); of those it strikes the
    integer range of n with

        |n/m - p/m'| <= r_m' - r_m - MARGIN

    for each container p/m' with 2 <= m' <= M0 (one vectorized pass over
    all rows gives every range).  A range is struck only if it holds at
    least ``PAYOFF`` numerators: a shorter one costs the row loop more than
    its gaps cost the sort.  Ranges may overlap; the mask does not care.

    Why the output is bit-identical to the union of all gaps: an endpoint
    float64(n)/m -/+ r_m is two roundings of numbers below 2 away from
    n/m -/+ r_m, so within 2^-51 of it, and so is a container's endpoint;
    the bounds first, ceil(m (p/m' - t)) and floor(m (p/m' + t)) with
    t = r_m' - r_m - MARGIN, come from float values within m 2^-50 of the
    exact ones.  MARGIN = 2^-30 exceeds that 2^-50 (and the 2 * 2^-51 the
    endpoints may move toward each other) by a factor 2^19, so every
    dropped gap lies inside its container *as floats*: its left end is >=
    the container's and its right end <=.  A dropped gap with m <= M0 lies
    inside an m = 1 gap, which is always kept, and inclusion is transitive.
    Dropping an interval that lies inside a kept one changes neither the
    union nor which intervals touch, so each component keeps its smallest
    left end and its largest right end, bit for bit.

    What is allocated, stage by stage (tracemalloc at M = 6, tau = 1/2,
    m_max = 10^4, where 15.8M of 30.4M gaps are kept).  One sieve gives
    every m its distinct prime factors and phi(m); they and the
    containers' numerator ranges are per-row Python lists, about 10 MB.
    The centers n/m go into ``lo``, allocated at the upper bound
    2 + sum phi(m) (243 MB).  The lists are released and ``lo`` is shrunk
    to the kept count before ``hi`` exists, so memory and page faults
    scale with the kept gaps.  A pass over the rows fills ``hi`` with the
    right ends first; then one worker thread sorts ``hi`` while the calling
    thread shifts ``lo`` to the left ends and sorts it.  numpy sorts without
    the GIL, so on two cores the sorts overlap; on one they share it, and
    the result is the same, sorting being deterministic.  The worker is
    joined, re-raising its exception, before anything resizes either
    array.  From then on nothing full-size is allocated beside ``lo`` and
    ``hi`` (254 MB, the peak): both sort in place,
    ``_merge_in_place`` compacts the components into them chunk by chunk,
    and ``_difference_sum`` sums ``ends - starts`` chunk by chunk.  The
    measure is still that of ``np.sum(ends - starts)`` bit for bit, 108 MB
    difference aside: numpy sums pairwise, splitting a block of n > 128
    at n // 2 rounded down to a multiple of 8, and ``_difference_sum``
    splits at the same points down to leaves that it hands to ``np.sum``,
    so every addition has the same operands.

    Sorting ``lo`` and ``hi`` independently is legitimate for a union.  A
    component starts at lo[i] iff no interval is still open there,
    #(hi < lo[i]) == i, and ends at hi[i] iff #(lo <= hi[i]) == i + 1.
    With both arrays sorted each count is one adjacent compare: every
    interval has lo_j < hi_j, so #(hi < lo[i]) <= #(lo < lo[i]) <= i, with
    equality iff hi[i-1] < lo[i]; and #(lo <= hi[i]) >= #(hi <= hi[i])
    >= i + 1, with equality iff lo[i+1] > hi[i].  Hence breaks between
    components sit exactly where hi[i] < lo[i+1], which is the same event
    sweep as counting open intervals, with no approximation.

    Returns ``(starts, ends, measure)`` with the measure already clipped to
    the circle.
    """
    M0 = 6               # containers: the gaps with denominators m' <= M0
    MARGIN = 2.0 ** -30  # slack of the containment test, far above rounding
    PAYOFF = 16          # shortest numerator range worth a strike
    factors, phi = _prime_factor_sieve(m_max)
    # r[m] = r_m for m >= 1
    r = [0.0] + [1.0 / (M * float(m) ** (2.0 + tau)) for m in range(1, m_max + 1)]

    ms = np.arange(2, m_max + 1)
    rs = np.array(r[2:])
    first = 1 + np.maximum(np.floor(ms * (r[1] - rs - MARGIN)), 0).astype(np.int64)
    lows, highs = [], []   # containers' numerator ranges, offsets from first
    for mc in range(2, min(M0, m_max) + 1):
        t = r[mc] - rs - MARGIN
        for p in range(1, mc):
            if math.gcd(p, mc) == 1:
                lows.append(np.maximum(np.ceil(ms * (p / mc - t)), first))
                highs.append(np.minimum(np.floor(ms * (p / mc + t)), ms - first) + 1)
    lows = (np.array(lows) - first).astype(np.int64).T.tolist()
    highs = (np.array(highs) - first).astype(np.int64).T.tolist()

    lo = np.empty(2 + sum(phi[2:]), dtype=np.float64)
    lo[:2] = (0.0, 1.0)                          # m = 1: gaps at 0 and 1
    segments = [(0, 2, r[1])]
    nums = np.arange(m_max, dtype=np.float64)
    pos = 2
    for m, f, row_lows, row_highs in zip(range(2, m_max + 1), first.tolist(),
                                         lows, highs):
        keep = np.ones(m + 1 - 2 * f, dtype=bool)  # numerators f..m-f
        for p in factors[m]:
            keep[-f % p::p] = False
        for a, b in zip(row_lows, row_highs):
            if b - a >= PAYOFF:
                keep[a:b] = False
        centers = nums[f:m - f + 1][keep]
        # no named views of lo: its resize below needs none alive
        np.divide(centers, m, out=lo[pos:pos + centers.size])
        segments.append((pos, pos + centers.size, r[m]))
        pos += centers.size
    del factors, lows, highs, keep, centers   # else they add to lo + hi
    lo.resize(pos, refcheck=False)
    hi = np.empty(pos, dtype=np.float64)
    for a, b, rm in segments:
        np.add(lo[a:b], rm, out=hi[a:b])
    with ThreadPoolExecutor(max_workers=1) as worker:   # numpy sorts without the GIL
        hi_sorted = worker.submit(hi.sort)
        for a, b, rm in segments:
            np.subtract(lo[a:b], rm, out=lo[a:b])
        lo.sort()
        hi_sorted.result()       # re-raises the worker's exception
    starts, ends = _merge_in_place(lo, hi)
    if starts.size < 2 or starts[0] >= 0 or ends[-1] <= 1:
        raise AssertionError("gap union lost its wrap components (bug)")
    measure = float(_difference_sum(ends, starts) + starts[0] - ends[-1] + 1.0)
    return starts, ends, measure


def _merge_in_place(lo: np.ndarray, hi: np.ndarray):
    """Components of the sorted endpoints, compacted into *lo* and *hi*.

    One pass, chunk by chunk: ``flags[1:]`` holds the breaks
    hi[i] < lo[i+1] of the chunk (the last interval always ends one),
    ``flags[0]`` the break carried from the previous chunk's last hi (the
    first interval always starts one).  Starts take ``flags[:-1]``, ends
    ``flags[1:]``.  The write positions trail the read positions, so a
    forward copy never overwrites an unread element, and only one chunk is
    ever copied out.  Both arrays must own their data and have no views
    alive, since they are shrunk at the end.
    """
    CHUNK = 1 << 17
    n = lo.size
    flags = np.empty(CHUNK + 1, dtype=bool)
    flags[0] = True
    n_starts = n_ends = 0
    for i in range(0, n, CHUNK):
        c = min(CHUNK, n - i)
        t = min(c, n - 1 - i)            # intervals with a next lo
        np.less(hi[i:i + t], lo[i + 1:i + 1 + t], out=flags[1:t + 1])
        flags[t + 1:c + 1] = True        # the last interval ends a component
        kept = lo[i:i + c][flags[:c]]
        lo[n_starts:n_starts + kept.size] = kept
        n_starts += kept.size
        kept = hi[i:i + c][flags[1:c + 1]]
        hi[n_ends:n_ends + kept.size] = kept
        n_ends += kept.size
        flags[0] = flags[c]
    lo.resize(n_starts, refcheck=False)
    hi.resize(n_ends, refcheck=False)
    return lo, hi


def _difference_sum(b: np.ndarray, a: np.ndarray):
    """``np.sum(b - a)`` bit for bit, without its full-size temporary.

    numpy sums a contiguous float64 array pairwise: a block of n > 128
    elements is split at n // 2 rounded down to a multiple of 8 and the
    sums of the two halves are added.  Splitting the same way down to
    leaves of at most ``LEAF`` elements, and summing each leaf's
    differences with ``np.sum``, rebuilds that tree node for node.  A
    leaf's ``np.sum`` adds its tree to 0.0, which changes no nonzero sum.
    """
    LEAF = 1 << 17

    def tree(i: int, n: int):
        if n <= LEAF:
            return np.sum(b[i:i + n] - a[i:i + n])
        half = n // 2 - n // 2 % 8
        return tree(i, half) + tree(i + half, n - half)

    return tree(0, a.size)


def dist_to_AMR(x: float, cls: DiophantineClass) -> float:
    """Distance (on the circle) from Re-coordinate x to the truncated real set.

    Zero iff x lies outside every truncated gap.  One binary search in the
    cached gap union, then scalar float arithmetic (``_gap_dist``, which
    ``export_set_geometry`` shares).  Raises ``ValueError`` for NaN or
    infinite x.
    """
    starts, ends, _ = cls._gaps()
    return _gap_dist(_finite_x(x) % 1.0, starts, ends)


def _gap_dist(y: float, starts: np.ndarray, ends: np.ndarray) -> float:
    """Distance from y in [0, 1] to the complement of the merged components.

    One binary search finds the last component starting at or before y
    (there is one: ``starts[0] < 0``); y is inside it iff y < its end.
    The components holding 0 and 1 are one circular gap, so each measures
    to its partner's far edge.
    """
    i = int(starts.searchsorted(y, side="right")) - 1
    last = starts.size - 1
    if y >= ends[i]:
        return 0.0
    left = y - (float(starts[last]) - 1.0) if i == 0 else y - float(starts[i])
    right = (float(ends[0]) + 1.0) - y if i == last else float(ends[i]) - y
    return min(left, right)


def in_AMC(omega, cls: DiophantineClass) -> bool:
    """Membership of omega in the complex extension of the truncated set."""
    om = complex(omega)
    if math.isnan(om.imag):
        raise ValueError(f"omega must have no NaN part, got {om}")
    return dist_to_AMR(om.real, cls) <= abs(om.imag)


def in_KM(freq: Frequency, cls: DiophantineClass) -> bool:
    """Membership of the multiplier in the sphere-side set."""
    return in_AMC(freq.omega, cls)


def check_small_divisor_bound(freq: Frequency, cls: DiophantineClass,
                              k_max: int = 100) -> dict:
    """Certify |lambda_k| <= sqrt(2) M |k|^(1+tau) for 0 < |k| <= k_max.

    Returns a report with the worst ratio; raises ``BoundViolationError``
    when any ratio exceeds one (a bug, or a frequency outside the set).
    """
    # in the order 1, -1, 2, -2, ... argmax resolves a tie of +-k to +k
    ks = np.stack((np.arange(1, k_max + 1), -np.arange(1, k_max + 1)), 1).ravel()
    bound = math.sqrt(2.0) * cls.M * np.abs(ks).astype(float) ** (1.0 + cls.tau)
    ratios = np.abs(lambda_table(freq, k_max)[ks + k_max]) / bound
    worst = float(np.max(ratios, initial=0.0))
    worst_k = int(ks[np.argmax(ratios)]) if worst > 0.0 else 0
    report = {"k_max": k_max, "max_ratio": worst, "k_at_max": worst_k}
    if worst > 1.0:
        raise BoundViolationError(
            f"small-divisor bound violated at k = {worst_k} (ratio {worst:.3e})",
            report,
        )
    return report


# ---------------------------------------------------------------------------
# exported geometry


@dataclass
class SetGeometry:
    """Materialized truncated gap union plus boundary samples."""

    M: float
    tau: float
    m_max: int
    gap_lo: np.ndarray          # merged components; first may start < 0
    gap_hi: np.ndarray          # last may end > 1
    total_gap_measure: float    # clipped to one period
    boundary_samples: np.ndarray  # complex omega-plane points on the sawtooth

    @property
    def first_untested_denominator(self) -> int:
        return self.m_max + 1

    def to_json_dict(self) -> dict:
        lo = np.maximum(self.gap_lo, 0.0)
        hi = np.minimum(self.gap_hi, 1.0)
        return jsonio.encode({
            "M": self.M,
            "tau": self.tau,
            "m_max": self.m_max,
            "first_untested_denominator": self.first_untested_denominator,
            "total_gap_measure": self.total_gap_measure,
            "gaps": np.stack((lo, hi), axis=-1),
            "boundary_samples": self.boundary_samples,
        })


def export_set_geometry(cls: DiophantineClass, boundary_n: int = 512) -> SetGeometry:
    """Materialize the truncated gap union and sample its complex boundary.

    The boundary of the complex extension is the sawtooth |Im omega| =
    dist(Re omega, real set); both branches are traced (upper left-to-right,
    then lower right-to-left) at ``boundary_n`` points per branch.
    """
    starts, ends, measure = cls._gaps()
    xs = (np.arange(boundary_n) + 0.5) / boundary_n
    d = np.array([_gap_dist(x, starts, ends) for x in xs.tolist()])
    upper = xs + 1j * d
    lower = xs[::-1] - 1j * d[::-1]
    return SetGeometry(
        M=cls.M,
        tau=cls.tau,
        m_max=cls.m_max,
        gap_lo=starts,
        gap_hi=ends,
        total_gap_measure=measure,
        boundary_samples=np.concatenate([upper, lower]),
    )


# ---------------------------------------------------------------------------
# sampled families and the C1-holomorphic norm estimate


@dataclass
class SampledFamily:
    """Values (and omega-derivatives) of a quantity along frequency samples.

    ``values[i]`` is a complex vector attached to ``points[i]``; ``derivs[i]``
    is its derivative in omega, or None where a sweep's tangent solve raised
    a ``KamforgeError``.
    """

    points: list
    values: list
    derivs: list

    def to_json_dict(self) -> dict:
        def vec(v):
            if v is None:
                return None
            return np.atleast_1d(np.asarray(v, dtype=np.complex128))
        return jsonio.encode({
            "points": [{"omega": fr.omega, "chart": fr.chart, "coord": fr.coord}
                       for fr in self.points],
            "values": [vec(v) for v in self.values],
            "derivs": [vec(v) for v in self.derivs],
        })

    @classmethod
    def from_json_dict(cls, d: dict) -> "SampledFamily":
        values = [jsonio.to_complex(v) for v in d["values"]]
        derivs = [None if v is None else jsonio.to_complex(v)
                  for v in d["derivs"]]
        counts = (len(d["points"]), len(values), len(derivs))
        lengths = sorted({v.size for v in values + derivs if v is not None})
        if len(set(counts)) > 1 or len(lengths) > 1:
            raise ValueError(
                "a sampled family needs one value and one deriv per point, "
                f"all of one length: got (points, values, derivs) = {counts} "
                f"of lengths {lengths}")
        omegas = jsonio.to_complex([p["omega"] for p in d["points"]])
        return cls(points=[from_omega(om) for om in omegas],
                   values=values, derivs=derivs)


def c1hol_norm_estimate(family: SampledFamily):
    """Sampled three-part estimate of the C1-holomorphic norm in omega.

    Returns ``(n0, n1, n2)``:

    * n0 — largest sup-norm of the values;
    * n1 — largest of the claimed derivatives and of the raw increments
      |phi(omega') - phi(omega)|;
    * n2 — largest defect |(phi(omega') - phi(omega)) / (omega' - omega)
      - phi'(omega)| of the difference quotients against the claimed
      derivatives.

    Every pair of points is compared, across the real axis too.
    ``from_omega`` folds Re omega into [0, 1), so Re(omega' - omega) is
    taken to its nearest representative mod 1.
    """
    V = np.array([np.atleast_1d(v) for v in family.values],
                 dtype=np.complex128)
    om = np.array([p.omega for p in family.points])
    n0 = float(np.max(np.abs(V), initial=0.0))
    n1 = n2 = 0.0
    for a, d in enumerate(family.derivs):
        dv = V - V[a]
        n1 = max(n1, float(np.max(np.abs(dv))))
        if d is None:
            continue
        n1 = max(n1, float(np.max(np.abs(d))))
        dw = om - om[a]
        dw -= np.round(dw.real)
        ok = np.abs(dw) > 1e-12
        n2 = max(n2, float(np.max(np.abs(dv[ok] / dw[ok, None] - d),
                                  initial=0.0)))
    return n0, n1, n2
