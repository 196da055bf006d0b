"""Rotation numbers, their multipliers, and Diophantine set geometry.

A frequency is its rotation number omega (complex, real part mod 1); its
multiplier is q = exp(2 pi i omega), one formula on both sides of the real
axis.  A frequency exists only where 2 pi |Im omega| <= ``fourier.EXP_CAP``,
so that q^{+-1} are finite and nonzero: the poles q = 0, infinity are
refused where a frequency is made.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import zeta as _zeta

from . import jsonio
from .errors import BoundViolationError, ResonanceError
from .fourier import EXP_CAP, require_finite, require_int

_TWO_PI = 2.0 * math.pi
RESONANCE_ULPS = 4.0  # |q^k - 1| < RESONANCE_ULPS 2 pi |k| 2^-52 counts as zero
GAP_UNION_MAX_M = 10_000  # largest m_max whose gap union is built (~223 MB peak);
                          # below 2^_KEY_BITS, since a gap's sort key holds its m
_KEY_BITS = 14


# ---------------------------------------------------------------------------
# frequencies


@dataclass(frozen=True)
class Frequency:
    """A rotation number omega and its multiplier q = exp(2 pi i omega).

    ``from_omega`` and ``from_q`` admit only 2 pi |Im omega| <= ``EXP_CAP``,
    so q and 1/q are finite and nonzero: every frequency has its shift
    multipliers.
    """

    omega: complex
    q: complex


def from_omega(omega) -> Frequency:
    """The frequency of omega, with Re omega folded into [0, 1).

    Raises ``ValueError`` naming omega unless it is finite with
    2 pi |Im omega| <= ``EXP_CAP``: past the cap q or 1/q overflows, and at
    the poles q = 0, infinity no shift multiplier exists.
    """
    om = complex(omega)
    if not (cmath.isfinite(om) and _TWO_PI * abs(om.imag) <= EXP_CAP):
        raise ValueError(f"omega must be finite with 2 pi |Im omega| <= "
                         f"{EXP_CAP:g}, got {om}")
    re = om.real % 1.0
    om = complex(0.0 if re == 1.0 else re, om.imag)  # -1e-20 % 1.0 is 1.0
    return Frequency(om, cmath.exp(2j * math.pi * om))


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
    if require_int(k, "k") == 0:
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
    vanished, and the smallest such |k| (0 if none).

    One exponential per |k|: w = exp(2 pi i k omega) for the k whose sign
    is that of Im omega (k > 0 on the real axis), where |w| <= 1 and
    lambda_k = 1 / (w - 1); the same w gives lambda_{-k} = w / (1 - w), and
    |w - 1| decides the resonance of +-k together.  Both are ``lambda_k``'s
    bits.  The other side reads conj(w) where that is, bit for bit, its
    own exponential: on the real axis, where every k is direct and
    lambda_{-k} = 1 / (conj(w) - 1), and at Re omega = 0 below it, where w
    is real and the other side's exponent has -0.0 for the +0.0 imaginary
    part of this one.
    """
    table = np.zeros(2 * N + 1, dtype=np.complex128)
    plus, minus = table[N + 1:], table[:N][::-1]  # k = j and k = -j
    om = freq.omega
    up = om.imag >= 0
    j = np.arange(1, N + 1)
    w = np.exp((2j * math.pi) * (j if up else -j) * om)
    d = w - 1.0
    ok = np.abs(d) >= RESONANCE_ULPS * _TWO_PI * j * 2.0 ** -52
    k = 0 if ok.all() else int(np.argmin(ok)) + 1
    np.divide(1.0, d, out=plus if up else minus, where=ok)
    if om.imag == 0.0:
        np.divide(1.0, np.conj(w) - 1.0, out=minus, where=ok)
    else:
        if om.real == 0.0 and not up:
            w = np.conj(w)
        np.divide(w, 1.0 - w, out=minus if up else plus, where=ok)
    return table, k


def dist_to_integers(z) -> float:
    """Distance from z to the integer lattice; ValueError if z is not finite."""
    zz = require_finite(z, "z")
    return math.hypot(zz.real - round(zz.real), zz.imag)


def check_exp_dist_bound(z) -> bool:
    """Certify |exp(2 pi i z) - 1| >= dist(z, Z) on the strip |Im z| <= 1/2.

    Raises ``BoundViolationError`` if the inequality fails (it cannot, for
    correct code), ``ValueError`` for a non-finite z or outside the strip.
    """
    zz = require_finite(z, "z")
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
            value = require_finite(getattr(self, name), name, float)
            # a number is kept as given, and so is its JSON; "7" becomes 7.0
            if not isinstance(getattr(self, name), (int, float)):
                object.__setattr__(self, name, value)
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        require_int(self.m_max, "m_max", 2)
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
    ``Fraction``.  The distances are Euclid's remainders: on the pair
    y = num/den of ``y.as_integer_ratio()``, the remainder left when the
    convergent p/q is formed is |q num - p den|, so |q y - p| is that
    remainder over den, one correctly rounded int/int division.  Raises
    ``ValueError`` for NaN or infinite x.
    """
    y = _fold(require_finite(x, "x", float))
    num, y_den = y.as_integer_ratio()
    M, power, m_max = cls.M, 1.0 + cls.tau, cls.m_max
    margin = math.inf
    worst = (0, 1)
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0  # convergents p/q, seeded before a0
    den = y_den
    a, rem = divmod(num, den)
    while True:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > m_max:
            break
        val = rem / y_den * M * float(q_cur) ** power
        if val < margin:
            margin = val
            worst = (p_cur, q_cur)
        if rem == 0:
            break
        den, (a, rem) = rem, divmod(den, rem)
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

    *Small and large denominators.*  Distinct fractions n/m and n'/m'
    satisfy |n m' - n' m| >= 1 (Farey), so for m <= m' <= m_max their gaps
    lie at least 1/(m m_max) - 2 r_m apart.  ``_disjoint_threshold`` gives
    the least T >= 3 with 1/(m m_max) - 2 r_m >= 2^-30 for T <= m <= m_max
    (T = 224 at M = 6, tau = 1/2, m_max = 10^4): no two gaps with m >= T
    meet, not even as floats, whose endpoints lie within 2^-51 of the exact
    ones.  T >= 3 keeps 0/1, 1/1 and 1/2 small.  The small gaps, all of
    them (about 15k), are sorted and merged as below into S components
    (S = 7649 there).

    *Pruning.*  A large gap that lies inside a *container*, a gap of
    denominator m' <= M0, is never stored.  Row m keeps the numerators
    from first on, where n < first puts (n/m - r_m, n/m + r_m) inside the
    m = 1 gap (-r_1, r_1); of those it strikes the integer range of n with

        |n/m - p/m'| <= r_m' - r_m - MARGIN

    for each container p/m' with 2 <= m' <= M0 and 2p <= m' (one
    vectorized pass over all rows gives every range).  A range is struck
    only if it holds at least ``PAYOFF`` numerators: a shorter one costs
    the row loop more than its gaps cost the sort.  An endpoint
    float64(n)/m -/+ r_m is two roundings of numbers below 2 away from
    n/m -/+ r_m, so within 2^-51 of it, and so is a container's endpoint;
    the bounds first, ceil(m (p/m' - t)) and floor(m (p/m' + t)) with
    t = r_m' - r_m - MARGIN, come from float values within m 2^-50 of the
    exact ones.  MARGIN = 2^-30 exceeds that 2^-50 (and the 2 * 2^-51 the
    endpoints may move toward each other) by a factor 2^19, so every
    dropped gap lies inside its container *as floats*: its left end is >=
    the container's and its right end <=.  A range is empty unless
    m' < m, so a dropped gap lies inside one of smaller denominator, kept
    or dropped in turn; the chain ends at a small gap, and every small gap
    is kept.  Dropping an interval that lies inside a kept one changes
    neither the union nor which intervals touch, so each component keeps
    its smallest left end and its largest right end, bit for bit.

    *The mirror.*  n -> m - n maps the gaps of row m onto themselves and
    a gap inside a container onto one inside the mirrored container, at
    the same exact distances, so the argument above holds for the mirror
    image of the kept set.  The rows m >= T therefore run only over the
    numerators n < m/2 (for m >= 3 no coprime n equals m/2), and each kept
    n/m also stands for (m - n)/m.  Its endpoints are computed from
    float64(m - n) / m, as for any gap, not from 1 - n/m.

    *Keys.*  A kept large gap is stored as the int64 bits of
    c = float64(n) / m with the low ``_KEY_BITS`` bits replaced by m
    (``_key``), which ``GAP_UNION_MAX_M`` < 2^14 makes room for.  For
    0 < c < 1/2 an ulp is at most 2^-54 and the bits of a positive double
    order as its value, so clearing the low 14 bits moves c down by less
    than 2^-40, while two centers differ by at least 1/m_max^2 >= 10^-8:
    the keys sort in center order.  ``_unkey`` takes m from the low bits
    and n = rint(c' m), where c' is the cleared center: |c' - n/m| <
    2^-40 + 2^-55, so c' m is within 2^-25 of n and (n, m) come back
    exactly, and with them every endpoint's bits.

    *Merge.*  Sorting ``lo`` and ``hi`` independently is legitimate for a
    union.  A component starts at lo[i] iff no interval is still open
    there, #(hi < lo[i]) == i, and ends at hi[i] iff #(lo <= hi[i]) ==
    i + 1.  With both arrays sorted each count is one adjacent compare:
    every interval has lo_j < hi_j, so #(hi < lo[i]) <= #(lo < lo[i]) <= i,
    with equality iff hi[i-1] < lo[i]; and #(lo <= hi[i]) >= #(hi <= hi[i])
    >= i + 1, with equality iff lo[i+1] > hi[i].  Hence breaks between
    components sit exactly where hi[i] < lo[i+1], which is the same event
    sweep as counting open intervals, with no approximation.
    ``_merge_in_place`` merges the small gaps this way, and below the near
    gaps with the small components.

    *Near keys.*  The large keys are written into ``lo`` and sorted there
    as int64.  A large gap can touch a small component (a, b) only if its
    center lies within p = r_T + MARGIN of it, since r_m <= r_T for m >= T.
    For key n/m with center c that is c in [a - p, b + p] for the lower gap
    and, for the mirrored gap, whose center float64(m - n)/m lies within
    2^-52 of 1 - c, c in [1 - b - p, 1 - a + p].  Each of these 2 S ranges,
    computed in floats within 2^-50 of its exact ends and clipped to
    [0, 1/2], is looked up among the sorted keys with its lower end's low
    ``_KEY_BITS`` bits cleared and its upper end's set.  Clearing and
    setting the low bits keep the order of the bits of positive doubles,
    and a key lies between its center's bits cleared and set, so every key
    whose center lies in a range falls in its key range; a key range may
    hold a few more, which only costs them the merge below.  These *near*
    keys (1.25M of 7.9M at M = 6, tau = 1/2, m_max = 10^4) are decoded, both
    gaps of each, and merged with the S small components into C components
    (|C| = 112,429 there).  The lower gaps ascend with their keys below
    1/2, the mirrored ones with the keys reversed above it, and no two
    large gaps meet, so the decoded ends need no sort: the small components
    are inserted at their ``searchsorted`` points.

    *Far keys touch nothing.*  A far key's lower gap has its center more
    than p - 2^-50 from every small component, and its mirrored gap more
    than p - 2^-49, so both ends of each, within 2^-52 of the center
    -/+ r_m with r_m <= r_T, lie more than MARGIN - 2^-48 > 0 outside every
    small component; and every large gap lies at least 2^-30 from every
    other.  Each far gap is therefore a component of its own, apart from
    every component of C: its ends are final, and the union has
    F = 2 K' + |C| components for the K' far keys.

    *Decode in place.*  The far keys are compacted to the front of ``lo``,
    chunk by chunk with the writes trailing the reads; ``lo`` is resized to
    F and the keys move up to lo[|C|:|C| + K'] (numpy copies an overlapping
    one-dimensional range forward without a temporary).  Everything is
    apart, so sorted by start is sorted by end, and the order is known: the
    lower far gaps ascend with their keys, below 1/2; the mirrored ones
    descend with them, above 1/2; of the components of C, the L that start
    below 1/2 lie below every mirrored far gap, whose ends pass 1/2, and
    the U = |C| - L others above every lower one, whose starts are below
    1/2.  One chunked pass decodes keys i..e-1 and writes, into ``lo`` and
    ``hi`` alike, their lower gaps together with the components of C that
    start below the chunk's last lower gap and are not yet written, k1 in
    all, k of them written before: the block starts at i + k, and each
    component goes to its ``searchsorted`` slot (``_interleave``).  Their
    mirrored gaps go likewise with the h1 components above the chunk's
    lowest mirrored gap, h of them written before, in a block ending at
    F - i - h.  The components left lie between the two halves and go to
    K' + k.  A lower block ends at e + k1 <= e + L <= |C| + e, where the
    unread keys start.  A mirrored block starts at
    F - e - h1 >= 2 K' + L - e, so it can reach key j, at |C| + j, only if
    j >= 2 K' - e - U >= K' - U: those last min(U, K') <= |C| keys are
    copied aside before the pass and read from there (56k keys, 0.45 MB, of
    K' = 6.67M at m_max = 10^4).  Every end is still float64(n)/m -/+ r_m,
    bit for bit.

    What is allocated, stage by stage (tracemalloc at M = 6, tau = 1/2,
    m_max = 10^4, where 7.9M keys stand for 15.8M of the 30.4M gaps).  One
    sieve gives every m its distinct prime factors and phi(m); they and the
    containers' numerator ranges are per-row Python lists, about 10 MB.
    ``lo`` is allocated at sum_{m >= T} phi(m)/2 (122 MB), the count of
    coprime n < m/2, and the lists are released before the plan.  The plan
    adds the near mask (K bytes), the near keys and their decoded ends,
    204 MB in all at its peak.  ``lo`` then shrinks to F before ``hi``
    exists, and from then on nothing beside ``lo`` and ``hi`` (215 MB) is
    larger than C, the stash and a chunk (223 MB, the peak): the decode
    writes chunk by chunk and ``_difference_sum`` sums ``ends - starts``
    chunk by chunk.  The measure is still that of ``np.sum(ends - starts)``
    bit for bit, 108 MB difference aside: numpy sums pairwise, splitting a
    block of n > 128 at n // 2 rounded down to a multiple of 8, and
    ``_difference_sum`` splits at the same points down to leaves that it
    hands to ``np.sum``, so every addition has the same operands.

    Returns ``(starts, ends, measure)`` with the measure already clipped to
    the circle.
    """
    M0 = 6               # containers: the gaps with denominators m' <= M0
    MARGIN = 2.0 ** -30  # slack of the containment test, far above rounding
    PAYOFF = 16          # shortest numerator range worth a strike
    CHUNK = 1 << 15      # keys decoded at a time
    factors, phi = _prime_factor_sieve(m_max)
    # r[m] = r_m for m >= 1
    r = [0.0] + [1.0 / (M * float(m) ** (2.0 + tau)) for m in range(1, m_max + 1)]
    T = _disjoint_threshold(r, m_max, MARGIN)

    small_lo, small_hi = [], []
    for m in range(1, min(T, m_max + 1)):
        n = np.arange(max(m, 2))                 # m = 1: 0/1 and 1/1
        c = n[np.gcd(n, m) == 1].astype(np.float64) / m
        small_lo.append(c - r[m])
        small_hi.append(c + r[m])
    small_lo, small_hi = _merge_in_place(np.sort(np.concatenate(small_lo)),
                                         np.sort(np.concatenate(small_hi)))

    ms = np.arange(T, m_max + 1)
    rs = np.array(r[T:])
    first = 1 + np.maximum(np.floor(ms * (r[1] - rs - MARGIN)), 0).astype(np.int64)
    lows, highs = [], []   # containers' numerator ranges, offsets from first
    for mc in range(2, min(M0, m_max) + 1):
        t = r[mc] - rs - MARGIN
        for p in range(1, mc // 2 + 1):
            if math.gcd(p, mc) == 1:
                lows.append(np.maximum(np.ceil(ms * (p / mc - t)), first))
                highs.append(np.minimum(np.floor(ms * (p / mc + t)) + 1,
                                        (ms + 1) // 2))
    lows = (np.array(lows) - first).astype(np.int64).T.tolist()
    highs = (np.array(highs) - first).astype(np.int64).T.tolist()

    lo = np.empty(sum(phi[T:]) // 2, dtype=np.float64)   # coprime n < m/2
    nums = np.arange(m_max, dtype=np.float64)
    K = 0
    for m, f, row_lows, row_highs in zip(range(T, m_max + 1), first.tolist(),
                                         lows, highs):
        top = (m + 1) // 2                      # numerators f..top-1, below m/2
        keep = np.ones(top - f, dtype=bool)
        for p in factors[m]:
            keep[-f % p::p] = False
        for a, b in zip(row_lows, row_highs):
            if b - a >= PAYOFF:
                keep[a:b] = False
        centers = nums[f:top][keep]
        # no named views of lo: its resize below needs none alive
        np.divide(centers, m, out=lo[K:K + centers.size])
        _key(lo[K:K + centers.size], m)
        K += centers.size
    del factors, lows, highs   # else they add to the plan
    keys = lo[:K].view(np.int64)
    keys.sort()
    rt = np.array(r)

    pad = (r[T] if T <= m_max else 0.0) + MARGIN
    near = np.zeros(K, dtype=bool)
    # the centers within pad of a small component, lower gap or mirrored
    below = np.concatenate((small_lo - pad, 1.0 - small_hi - pad)).clip(0.0, 0.5)
    above = np.concatenate((small_hi + pad, 1.0 - small_lo + pad)).clip(0.0, 0.5)
    below = keys.searchsorted(below.view(np.int64) & (-1 << _KEY_BITS))
    above = keys.searchsorted(above.view(np.int64) | ((1 << _KEY_BITS) - 1),
                              side="right")
    for a, b in zip(below.tolist(), above.tolist()):
        near[a:b] = True
    near_keys = keys[near]
    n2 = 2 * near_keys.size
    c_lo, c_hi = np.empty(n2), np.empty(n2)
    for i in range(0, n2 // 2, CHUNK):
        e = min(i + CHUNK, n2 // 2)
        (c_lo[i:e], c_hi[i:e]), (c_lo[n2 - e:n2 - i], c_hi[n2 - e:n2 - i]) = \
            _decode(near_keys[i:e], rt)
    c_lo = np.insert(c_lo, c_lo.searchsorted(small_lo), small_lo)
    c_hi = np.insert(c_hi, c_hi.searchsorted(small_hi), small_hi)
    c_lo, c_hi = _merge_in_place(c_lo, c_hi)

    Kf = 0                                      # far keys, compacted in front
    for i in range(0, K, CHUNK):
        far = keys[i:i + CHUNK][~near[i:i + CHUNK]]
        keys[Kf:Kf + far.size] = far
        Kf += far.size
    del keys, near, near_keys
    C = c_lo.size
    F = 2 * Kf + C
    lo.resize(F, refcheck=False)
    lo[C:C + Kf] = lo[:Kf]
    hi = np.empty(F, dtype=np.float64)
    cut = max(Kf - (C - int(c_lo.searchsorted(0.5))), 0)  # keys cut.. are stashed
    stash = lo[C + cut:C + Kf].copy()
    k = h = 0          # components of C written below / above the streams
    for i in (*range(0, cut, CHUNK), *range(cut, Kf, CHUNK)):
        e = min(i + CHUNK, cut if i < cut else Kf)
        low, up = _decode((lo[C + i:C + e] if i < cut else stash[i - cut:e - cut])
                          .view(np.int64), rt)
        k1 = int(c_lo.searchsorted(low[0][-1]))
        _interleave(lo[i + k:e + k1], hi[i + k:e + k1], low,
                    (c_lo[k:k1], c_hi[k:k1]))
        h1 = C - int(c_lo.searchsorted(up[0][0]))
        _interleave(lo[F - e - h1:F - i - h], hi[F - e - h1:F - i - h], up,
                    (c_lo[C - h1:C - h], c_hi[C - h1:C - h]))
        k, h = k1, h1
    lo[Kf + k:Kf + C - h] = c_lo[k:C - h]
    hi[Kf + k:Kf + C - h] = c_hi[k:C - h]
    if lo.size < 2 or lo[0] >= 0 or hi[-1] <= 1:
        raise AssertionError("gap union lost its wrap components (bug)")
    measure = float(_difference_sum(hi, lo) + lo[0] - hi[-1] + 1.0)
    return lo, hi, measure


def _disjoint_threshold(r: list, m_max: int, margin: float) -> int:
    """The least T >= 3 with 1/(m m_max) - 2 r[m] >= margin for every
    T <= m <= m_max (m_max + 1 if m_max itself fails)."""
    ms = np.arange(1, m_max + 1)
    bad = np.flatnonzero(1.0 / (ms * float(m_max)) - 2.0 * np.array(r[1:]) < margin)
    return max(3, int(bad[-1]) + 2 if bad.size else 1)


def _key(centers: np.ndarray, m: int) -> None:
    """Turn centers n/m in (0, 1/2), in place, into their int64 gap keys:
    the center's bits with the low ``_KEY_BITS`` bits replaced by m."""
    k = centers.view(np.int64)
    np.bitwise_and(k, -1 << _KEY_BITS, out=k)
    np.bitwise_or(k, m, out=k)


def _unkey(keys: np.ndarray):
    """``(n, m)`` of gap keys: n as an exact float64, m as int64."""
    m = keys & ((1 << _KEY_BITS) - 1)
    n = np.rint((keys & (-1 << _KEY_BITS)).view(np.float64) * m)
    return n, m


def _decode(keys: np.ndarray, r: np.ndarray):
    """The ends ``(lo, hi)`` of the gaps of sorted gap *keys*: those of the
    lower gaps n/m, ascending, and those of the mirrored gaps (m - n)/m,
    also ascending (the keys reversed); *r* holds r_m at index m."""
    n, m = _unkey(keys)
    rm = r[m]
    c = n / m
    up = (m - n)[::-1] / m[::-1]
    rup = rm[::-1]
    return (c - rm, c + rm), (up - rup, up + rup)


def _interleave(lo: np.ndarray, hi: np.ndarray, gaps, comps) -> None:
    """Write two sorted runs of pairwise apart intervals, *gaps* and *comps*
    (each a ``(lo, hi)`` pair), merged in order into the slices *lo* and
    *hi*: the components go to their ``searchsorted`` slots."""
    slots = gaps[0].searchsorted(comps[0]) + np.arange(comps[0].size)
    free = np.ones(lo.size, dtype=bool)
    free[slots] = False
    lo[free], lo[slots] = gaps[0], comps[0]
    hi[free], hi[slots] = gaps[1], comps[1]


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
    """Distance (on the circle) from a real part x to the truncated real set.

    Zero iff x lies outside every truncated gap.  One binary search in the
    cached gap union, then scalar float arithmetic (``_gap_dist``, which
    ``export_set_geometry`` shares).  Raises ``ValueError`` for NaN or
    infinite x.
    """
    starts, ends, _ = cls._gaps()
    return _gap_dist(require_finite(x, "x", float) % 1.0, starts, ends)


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
    """Membership of omega in the complex extension of the truncated set;
    ``ValueError`` naming omega if a part is NaN or infinite."""
    om = require_finite(omega, "omega")
    return dist_to_AMR(om.real, cls) <= abs(om.imag)


def check_small_divisor_bound(freq: Frequency, cls: DiophantineClass,
                              k_max: int = 100) -> dict:
    """Certify |lambda_k| <= sqrt(2) M |k|^(1+tau) for 0 < |k| <= k_max.

    Returns a report with the worst ratio; raises ``BoundViolationError``
    when any ratio exceeds one (a bug, or a frequency outside the set).
    """
    require_int(k_max, "k_max", 1)
    bound = math.sqrt(2.0) * cls.M * np.arange(1.0, k_max + 1) ** (1.0 + cls.tau)
    mags = np.abs(lambda_table(freq, k_max))
    plus = mags[k_max + 1:] / bound       # |k| = 1..k_max, k > 0
    minus = mags[k_max - 1::-1] / bound   # and k < 0
    ratios = np.maximum(plus, minus)
    i = int(np.argmax(ratios))            # the first |k| wins a tie,
    worst = float(ratios[i])              # and +k wins it over -k
    # no k when every bound overflowed to inf
    worst_k = (i + 1 if plus[i] >= minus[i] else -i - 1) if worst > 0.0 else 0
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
        gaps = np.stack((self.gap_lo, self.gap_hi), axis=-1)
        return jsonio.encode({
            "M": self.M,
            "tau": self.tau,
            "m_max": self.m_max,
            "first_untested_denominator": self.first_untested_denominator,
            "total_gap_measure": self.total_gap_measure,
            "gaps": np.clip(gaps, 0.0, 1.0, out=gaps),
            "boundary_samples": self.boundary_samples,
        })


def export_set_geometry(cls: DiophantineClass, boundary_n: int = 512) -> SetGeometry:
    """Materialize the truncated gap union and sample its complex boundary.

    The boundary of the complex extension is the sawtooth |Im omega| =
    dist(Re omega, real set); both branches are traced (upper left-to-right,
    then lower right-to-left) at ``boundary_n`` points per branch.
    """
    require_int(boundary_n, "boundary_n", 1)
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
            "points": self.points,
            "values": [vec(v) for v in self.values],
            "derivs": [vec(v) for v in self.derivs],
        })

    @classmethod
    def from_json_dict(cls, d: dict) -> "SampledFamily":
        keys = ("points", "values", "derivs")
        jsonio.require_keys(d, "sampled family", keys)
        jsonio.require_kinds(d, "sampled family", dict.fromkeys(keys, "a list"))
        points = [jsonio.require_keys(p, "sampled family point", ("omega",),
                                      None) for p in d["points"]]
        values = [jsonio.to_complex(v, "sampled family", f"values[{i}]")
                  for i, v in enumerate(d["values"])]
        derivs = [None if v is None else
                  jsonio.to_complex(v, "sampled family", f"derivs[{i}]")
                  for i, v in enumerate(d["derivs"])]
        for key, vecs in (("values", values), ("derivs", derivs)):
            if not all(np.isfinite(v).all() for v in vecs if v is not None):
                raise ValueError(f"sampled family JSON {key!r} must hold "
                                 "finite entries only")
        counts = (len(points), len(values), len(derivs))
        lengths = sorted({v.size for v in values + derivs if v is not None})
        if len(set(counts)) > 1 or len(lengths) > 1:
            raise ValueError(
                "a sampled family needs one value and one deriv per point, "
                f"all of one length: got (points, values, derivs) = {counts} "
                f"of lengths {lengths}")
        omegas = jsonio.to_complex([p["omega"] for p in points],
                                    "sampled family point", "omega")
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
