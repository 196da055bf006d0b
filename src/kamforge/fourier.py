"""Truncated Fourier series on the circle, with complex extensions.

A series is stored as the coefficient vector (c_{-N}, ..., c_N) of

    phi(theta) = sum_{|k| <= N} c_k exp(2 pi i k theta),

which converges on any horizontal strip |Im theta| <= r once the
coefficients decay like exp(-2 pi r |k|).  All heavy operations (products,
compositions, pointwise inverses) go through equispaced grids and the FFT;
grids are oversampled by at least a factor of four relative to the joint
cutoff and every truncation reports the magnitude of what it dropped.  The
one exception is ``composition_jet``, the order-by-order composition used by
the formal series: it convolves raw coefficient arrays directly, in
whatever complex dtype it is given.

Point evaluation off the grid, ``evaluate``, forms no matrix of
exp(2 pi i k z): it sums the modes k >= 1 and k <= -1 as polynomials in
w = exp(2 pi i z) and 1/w by baby steps and giant steps (Horner in
w^ceil(sqrt N)), in O(G sqrt N) memory for G points; the baby steps are
ceil(sqrt N) - 1 vector multiplies, one contiguous row per power.

A series is validated once, where it enters: the constructor (behind
``from_json_dict`` and the CLI's ``--f``) copies it and checks its shape,
the hard cap and finiteness.  ``FourierSeries._of`` wraps a computed series
with neither: each such site keeps the length odd and the cutoff within
``HARD_CAP`` by construction, and its inputs are finite (scalars are checked
in ``__mul__``, and the solvers' own scalings by eps and mu0 check that
their products stay finite).  An overflow of finite data (huge
coefficients, a shift phase near exp(EXP_CAP)) meets the finiteness check of
``operators.apply``, which every solver iterate passes.

Series are double precision.  ``check_exponent`` is the one guard on every
exp(2 pi i k z) with Im z != 0: an exponent above ``EXP_CAP`` (the IEEE-754
overflow threshold, with margin) raises ``OverflowRiskError`` instead of
silently producing infinities.  ``evaluate`` applies it to 2 pi N max|Im z|,
which bounds every intermediate of its sums.  ``mode_phases`` forms the
vector exp(2 pi i k z), k = -N..N, at one point z, as the constant-shift
composition and the shift multipliers q^k use it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from . import jsonio
from .errors import NearSingularError, OverflowRiskError

DEFAULT_CUTOFF = 256
HARD_CAP = 4096          # no series ever carries more than 2*HARD_CAP+1 modes
EXP_CAP = 700.0          # |exponent| cap; exp(709.78) overflows a double
GRID_FACTOR = 4          # minimal oversampling of composition grids
AMIN_FLOOR = 1e-8        # smallest grid |A| that invert_pointwise accepts
CLAMP_REL = 1e-16        # relative size below which clamp_small drops coefficients

_TWO_PI = 2.0 * np.pi


class FourierSeries:
    """Immutable truncated Fourier series.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients ordered k = -N..N (odd length).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise ValueError("coeffs must be a 1-d odd-length array (k = -N..N)")
        if arr.size > 2 * HARD_CAP + 1:
            raise ValueError(f"cutoff exceeds hard cap {HARD_CAP}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FourierSeries is immutable")

    def __reduce__(self):
        # immutability blocks the default setattr-based unpickling;
        # rebuild through the constructor instead
        return (FourierSeries, (np.array(self.coeffs),))

    @property
    def N(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coeff(self, k: int) -> complex:
        """Coefficient c_k, zero beyond the cutoff."""
        if abs(k) > self.N:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.N])

    def __call__(self, theta):
        return evaluate(self, theta)

    # -- small arithmetic (cutoffs align to the larger operand) ------------

    def _binary(self, other, sign):
        if not isinstance(other, FourierSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if a.size != b.size:
            N = max(self.N, other.N)
            a, b = _widen(a, N), _widen(b, N)
        return FourierSeries._of(a + sign * b)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return FourierSeries._of(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, FourierSeries):
            return product(self, other)
        return FourierSeries(self.coeffs * finite_scalar(other, "scalar factor"))

    __rmul__ = __mul__

    def __repr__(self):
        return f"FourierSeries(N={self.N}, sup~{sup_norm(self):.3g})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, arr: np.ndarray) -> "FourierSeries":
        """Wrap a computed complex128 vector of odd length, cutoff at most
        ``HARD_CAP`` and finite values, without copy or check (read-only)."""
        arr.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", arr)
        return out

    @classmethod
    def zero(cls, N: int = 0) -> "FourierSeries":
        return cls(np.zeros(2 * N + 1, dtype=np.complex128))

    @classmethod
    def constant(cls, value: complex) -> "FourierSeries":
        return cls(np.array([value], dtype=np.complex128))

    @classmethod
    def basis(cls, k: int, amplitude: complex = 1.0) -> "FourierSeries":
        """The pure mode e_k(theta) = amplitude * exp(2 pi i k theta)."""
        N = abs(k)
        c = np.zeros(2 * N + 1, dtype=np.complex128)
        c[k + N] = amplitude
        return cls(c)

    @classmethod
    def cos(cls) -> "FourierSeries":
        """cos(2 pi theta) = (e_1 + e_{-1}) / 2."""
        return cls(np.array([0.5, 0.0, 0.5], dtype=np.complex128))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"N": self.N, "coeffs": jsonio.encode(self.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FourierSeries":
        for key in ("N", "coeffs"):
            if key not in d:
                raise ValueError(f"series JSON has no {key!r} key")
        N = d["N"]
        if type(N) is not int or N < 0:  # a bool is no count either
            raise ValueError(f"series JSON 'N' must be an integer >= 0, got {N!r}")
        coeffs = jsonio.to_complex(d["coeffs"])
        if coeffs.size != 2 * N + 1:
            raise ValueError("coeff count does not match N")
        return cls(coeffs)


@dataclass(frozen=True)
class CompositionReport:
    """What a grid composition dropped and how finely it sampled."""

    aliasing_tail: float
    grid_size: int


# ---------------------------------------------------------------------------
# the exponent guard, point evaluation and exact grids


def finite_scalar(value, name: str) -> complex:
    """*value* as a complex number, or ValueError naming *name* if not finite."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z}")
    return z


def _widen(c: np.ndarray, N: int) -> np.ndarray:
    """Centered *c* assigned into zeros of cutoff N (assignment keeps -0.0)."""
    out = np.zeros(2 * N + 1, dtype=np.complex128)
    lo = N - (c.size - 1) // 2
    out[lo:lo + c.size] = c
    return out


def check_exponent(exponent: float, what: str, **diagnostics) -> None:
    """Raise ``OverflowRiskError`` if *exponent* exceeds ``EXP_CAP``."""
    if exponent > EXP_CAP:
        raise OverflowRiskError(
            f"{what} exponent {exponent:.3g} exceeds cap",
            {"exponent": exponent, "cap": EXP_CAP, **diagnostics},
        )


def mode_phases(z: complex, N: int, what: str, **diagnostics) -> np.ndarray:
    """exp(2 pi i k z) for k = -N..N, guarded on 2 pi N |Im z|."""
    check_exponent(_TWO_PI * N * abs(z.imag), what, **diagnostics)
    return np.exp(2j * np.pi * np.arange(-N, N + 1) * z)


def _power_sum(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{n} c[k-1] w^k at every point w, for n = c.size >= 1.

    Baby steps w^1..w^B (B = ceil(sqrt n)), one contiguous row each from
    B - 1 vector multiplies, meet the coefficients, blocked B at a time, in
    one matmul; Horner in the giant step w^B then sums the ceil(n/B)
    blocks.  No intermediate exceeds sum|c| max(1, |w|)^n, and the memory
    is O(G sqrt n) for G points.
    """
    B = math.isqrt(c.size - 1) + 1
    blocks = np.zeros((-(-c.size // B), B), dtype=c.dtype)
    blocks.reshape(-1)[:c.size] = c
    baby = np.empty((B, w.size), dtype=w.dtype)
    baby[0] = w
    for j in range(1, B):
        np.multiply(baby[j - 1], w, out=baby[j])
    partial = blocks @ baby
    giant = baby[-1]
    acc = partial[-1]
    for row in partial[-2::-1]:
        acc = acc * giant + row
    return acc


def evaluate(phi: FourierSeries, theta):
    """Evaluate phi at real or complex angles (scalar or array).

    The modes k >= 1 are summed as a polynomial in w = exp(2 pi i theta) and
    the modes k <= -1 as one in 1/w, each by ``_power_sum``; splitting at
    k = 0 keeps every intermediate within sum|c_k| exp(2 pi N |Im theta|),
    whose exponent ``check_exponent`` guards.  An array of G angles costs
    O(G sqrt N) memory; the result is 1-d for array input.

    Raises
    ------
    OverflowRiskError
        If 2 pi N |Im theta| exceeds the exponent cap for some point.
    """
    th = np.asarray(theta, dtype=np.complex128)
    scalar = th.ndim == 0
    th = th.ravel()
    N = phi.N
    check_exponent(_TWO_PI * N * float(np.max(np.abs(th.imag), initial=0.0)),
                   "evaluation")
    c = phi.coeffs
    vals = np.full(th.size, c[N])
    if N:
        vals += _power_sum(np.exp(2j * np.pi * th), c[N + 1:])
        vals += _power_sum(np.exp(-2j * np.pi * th), c[N - 1::-1])
    return complex(vals[0]) if scalar else vals


def grid_values(phi: FourierSeries, G: int) -> np.ndarray:
    """Exact samples phi(j/G), j = 0..G-1, via the inverse FFT.

    Modes k and k + G agree on the grid, so the coefficients are folded
    mod G first and the samples are exact for any G >= 1.
    """
    c = phi.coeffs
    slot = np.arange(-phi.N, phi.N + 1) % G
    X = np.zeros(G, dtype=np.complex128)
    X[slot[:G]] = c[:G]                # G consecutive modes: distinct slots
    np.add.at(X, slot[G:], c[G:])
    return np.fft.ifft(X) * G


def sup_norm(phi: FourierSeries) -> float:
    """Sup of |phi| over the real circle (anti-aliased grid max)."""
    G = next_fast_len(max(2 * (2 * phi.N + 1), 64))
    return float(np.max(np.abs(grid_values(phi, G))))


def mean(phi: FourierSeries) -> complex:
    """The average over the circle: the k = 0 coefficient."""
    return phi.coeff(0)


def truncate(phi: FourierSeries, N: int):
    """Drop modes beyond |k| = N.  Returns (series, sup of dropped coeffs)."""
    if N >= phi.N:
        return phi, 0.0
    lo, c = phi.N - N, phi.coeffs
    tail = float(np.max(np.abs(np.concatenate([c[:lo], c[c.size - lo:]]))))
    return FourierSeries._of(c[lo:c.size - lo]), tail


def clamp_small(phi: FourierSeries) -> FourierSeries:
    """Zero every coefficient below CLAMP_REL * max|coeffs| and trim the support.

    Coefficients that far below the leading one are round-off, not signal;
    when the multiplier q sits off the unit circle the forward difference
    operators amplify mode k by |q|^(-|k|), so leaving such noise in place
    destroys an iteration even though it is harmless for |q| = 1.  Clamping
    to an exact zero keeps the amplification acting on genuine data only.
    """
    c = phi.coeffs
    m = float(np.max(np.abs(c)))
    if m == 0.0:
        return FourierSeries.zero(0)
    keep = np.abs(c) >= CLAMP_REL * m
    if bool(keep.all()):
        return phi
    out = np.where(keep, c, 0.0)
    nz = np.nonzero(out)[0]
    N = phi.N
    reach = max(abs(int(nz.min()) - N), abs(int(nz.max()) - N))
    return FourierSeries._of(out[N - reach:N + reach + 1])


# ---------------------------------------------------------------------------
# products and derivatives


def _conv(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Full linear convolution of coefficient vectors."""
    la, lb = ca.size, cb.size
    if la * lb <= 200_000:
        return np.convolve(ca, cb)
    L = la + lb - 1
    G = next_fast_len(L)
    return np.fft.ifft(np.fft.fft(ca, G) * np.fft.fft(cb, G))[:L]


def product(a: FourierSeries, b: FourierSeries) -> FourierSeries:
    """Exact series product; the output cutoff is the sum of the cutoffs.

    Above the hard cap the result is truncated (the analytic tail of any
    well-resolved operand sits far below double precision there).
    """
    out = FourierSeries._of(_conv(a.coeffs, b.coeffs))
    if out.N > HARD_CAP:
        out, tail = truncate(out, HARD_CAP)
        warnings.warn(
            f"product cutoff hit hard cap {HARD_CAP}; dropped tail {tail:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def derivative(phi: FourierSeries, order: int = 1) -> FourierSeries:
    """d^p/dtheta^p acting as multiplication by (2 pi i k)^p on mode k."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    ks = np.arange(-phi.N, phi.N + 1)
    mult = (2j * np.pi * ks) ** order
    return FourierSeries._of(phi.coeffs * mult)


# ---------------------------------------------------------------------------
# composition with a perturbed identity


def compose_id_plus(f: FourierSeries, u: FourierSeries):
    """Compute f(theta + u(theta)) as a truncated series.

    Returns (series, CompositionReport).  Two shortcuts are exact and sample
    no grid (``grid_size`` 0): a zero displacement returns f itself, and a
    constant displacement c multiplies mode k by exp(2 pi i k c).  Otherwise
    ``evaluate`` (and its exponent guard) samples f(theta + u(theta)) on
    G = next_fast_len(GRID_FACTOR (f.N + u.N + 1)) points; the modes |k| <=
    min(f.N + u.N, HARD_CAP) are kept, the largest dropped is the tail.
    """
    if not np.any(u.coeffs):
        return f, CompositionReport(0.0, 0)

    if u.N == 0 or not np.any(np.delete(u.coeffs, u.N)):
        shifted = f.coeffs * mode_phases(u.coeff(0), f.N, "constant-shift")
        return FourierSeries._of(shifted), CompositionReport(0.0, 0)

    K = min(f.N + u.N, HARD_CAP)
    G = next_fast_len(GRID_FACTOR * (f.N + u.N + 1))
    z = np.arange(G) / G + grid_values(u, G)
    c = np.fft.fft(evaluate(f, z)) / G
    tail = float(np.max(np.abs(c[K + 1:G - K])))
    out = np.concatenate([c[G - K:], c[:K + 1]])
    return FourierSeries._of(out), CompositionReport(tail, G)


def _add_centered(acc: np.ndarray, a: np.ndarray) -> None:
    """Add the centered coefficient vector *a* into the middle of *acc*."""
    lo = (acc.size - a.size) // 2
    acc[lo:lo + a.size] += a


def composition_jet(f: np.ndarray):
    """Orders of f(theta + u) when u is a power series in a parameter t.

    A generator on raw centered coefficient arrays.  For
    u = sum_{s>=1} t^s u_s, the first ``next()`` yields [f(theta+u)]_0 = f
    and each ``send(u_s)``, for s = 1, 2, ..., yields [f(theta+u)]_s.
    Mode k of f contributes f_k e_k E^(k) with E^(k) = exp(2 pi i k u),
    whose orders follow the power-series exponential recurrence

        E^(k)_0 = 1,    n E^(k)_n = 2 pi i k sum_{j=1}^{n} j u_j E^(k)_{n-j}.

    Every product is a direct ``np.convolve``: no grid and no FFT, so a mode
    that is zero by structure stays an exact zero.  The arithmetic runs in
    the complex dtype of *f* (clongdouble included).  Order n costs n
    convolutions per nonzero mode of f.
    """
    f = np.asarray(f)
    K = (f.size - 1) // 2
    two_pi_i = f.dtype.type(2j) * np.arccos(f.real.dtype.type(-1))
    modes = [k for k in range(-K, K + 1) if k != 0 and f[k + K] != 0]
    E = {k: [np.ones(1, dtype=f.dtype)] for k in modes}
    ju: list = []        # j u_j for j = 1..n
    half = [0]           # half-width of E^(k)_n, the same for every k
    u = yield f
    while True:
        n = len(ju) + 1
        ju.append(n * np.asarray(u))
        hw = max((a.size - 1) // 2 + half[n - j] for j, a in enumerate(ju, 1))
        half.append(hw)
        out = np.zeros(2 * (hw + K) + 1, dtype=f.dtype)
        for k in modes:
            acc = np.zeros(2 * hw + 1, dtype=f.dtype)
            for j in range(1, n + 1):
                _add_centered(acc, np.convolve(ju[j - 1], E[k][n - j]))
            acc *= two_pi_i * k / n
            E[k].append(acc)
            out[K + k:K + k + acc.size] += f[k + K] * acc
        u = yield out


# ---------------------------------------------------------------------------
# pointwise inverse


def invert_pointwise(A: FourierSeries) -> FourierSeries:
    """Series of 1/A(theta), built from an oversampled grid.

    The output cutoff adapts: it is the smallest K whose discarded grid
    spectrum sits below 1e-13 relative to the largest coefficient (one grid
    refinement is attempted if the first grid cannot get there).  Raises
    ``NearSingularError`` when min |A| on the grid is at or below
    ``AMIN_FLOOR``, or when the cutoff the inverse needs exceeds
    ``HARD_CAP``.
    """
    G = next_fast_len(max(8 * (A.N + 1), 512))
    for attempt in range(2):
        vals = grid_values(A, G)
        gmin = float(np.min(np.abs(vals)))
        if gmin <= AMIN_FLOOR:
            raise NearSingularError(
                f"min |A| on grid = {gmin:.3e} at/below floor {AMIN_FLOOR:.1e}",
                {"grid_min": gmin, "floor": AMIN_FLOOR},
            )
        c_full = np.fft.fft(1.0 / vals) / G
        mag = np.abs(c_full)
        scale = float(np.max(mag))
        Kmax = (G - 1) // 2
        # level[j] = largest coefficient at |k| = j: bins j and G - j, and
        # level[Kmax + 1] the Nyquist bin G/2 of an even G (0 for an odd G)
        level = np.zeros(Kmax + 2)
        level[:G - Kmax] = mag[:G - Kmax]
        np.maximum(level[1:Kmax + 1], mag[:G - Kmax - 1:-1], out=level[1:Kmax + 1])
        # suffix[j] = largest coefficient at |k| >= j
        suffix = np.maximum.accumulate(level[::-1])[::-1]
        tol = 1e-13 * scale
        ok = np.nonzero(suffix <= tol)[0]
        if ok.size:
            K = max(int(ok[0]) - 1, 0)
            K = min(max(K, min(A.N, Kmax)), Kmax)
            break
        if attempt == 0:
            G = next_fast_len(4 * G)
        else:
            K = Kmax
    if K > HARD_CAP:
        raise NearSingularError(
            f"inverse needs cutoff {K} above the hard cap {HARD_CAP}",
            {"cutoff": K, "hard_cap": HARD_CAP, "grid_min": gmin},
        )
    ks = np.arange(-K, K + 1)
    return FourierSeries._of(c_full[ks % G])


# ---------------------------------------------------------------------------
# analytic-norm bookkeeping


def strip_norm_bound(phi: FourierSeries, r: float) -> float:
    """Upper bound sum_k |c_k| exp(2 pi r |k|) for the sup on |Im theta| <= r."""
    if r < 0:
        raise ValueError("strip half-width must be nonnegative")
    N = phi.N
    check_exponent(_TWO_PI * r * N, "strip")
    ks = np.abs(np.arange(-N, N + 1))
    total = float(np.sum(np.abs(phi.coeffs) * np.exp(_TWO_PI * r * ks)))
    if not np.isfinite(total):
        raise OverflowRiskError("strip norm bound overflowed", {"r": r})
    return total
