"""Truncated Fourier series on the circle, with complex extensions.

A series is stored as the coefficient vector (c_{-N}, ..., c_N) of

    phi(theta) = sum_{|k| <= N} c_k exp(2 pi i k theta),

which converges on any horizontal strip |Im theta| <= r once the
coefficients decay like exp(-2 pi r |k|).  Compositions and inverses go
through grids and the FFT, oversampled at least fourfold, and every
truncation reports what it dropped; products convolve directly up to 200k
mode pairs and by FFT above.  ``composition_jet``, the order-by-order
composition of the formal series, samples no grid: it carries F =
f(theta + u) through (1 + u_theta) F_t = u_t F_theta on raw coefficient
arrays, on the stride-d lattice of f's modes (F_s stays on (s + 1) r + d Z
when f lives on r + d Z and u_j on j r + d Z), in whatever complex dtype it
is given.  Its sum over the pairs of orders (n, j) is exact either way: for
an f of lattice span 1 or 2 a few matrix products per order on
lattice-aligned rows, folded along anti-diagonals; for a wider f two direct
convolutions per pair.

Point evaluation off the grid, ``evaluate``, forms no matrix of
exp(2 pi i k z): from one w = exp(2 pi i z) a point it sums the modes
k >= 1 and k <= -1 as polynomials in w and 1/w by baby and giant steps
(Horner in w^ceil(sqrt N)), in O(G sqrt N) memory for G points; the baby
steps are ceil(sqrt N) - 1 vector multiplies, one row per power.

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
INVERSE_TAIL_MAX = 1e-8  # largest tail an unresolved inverse may keep (half the digits)

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

    From one w = exp(2 pi i theta) a point, ``_power_sum`` sums the modes
    k >= 1 as a polynomial in w and k <= -1 as one in 1/w; splitting at k = 0
    keeps every intermediate within sum|c_k| exp(2 pi N |Im theta|), whose
    exponent ``check_exponent`` guards.  An array of G angles costs
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
    check_exponent(_TWO_PI * N * float(np.abs(th.imag).max(initial=0.0)),
                   "evaluation")
    c = phi.coeffs
    vals = np.full(th.size, c[N])
    if N:
        w = np.exp(2j * np.pi * th)
        vals += _power_sum(w, c[N + 1:])
        vals += _power_sum(np.reciprocal(w), c[N - 1::-1])
    return complex(vals[0]) if scalar else vals


def grid_values(phi: FourierSeries, G: int) -> np.ndarray:
    """Exact samples phi(j/G), j = 0..G-1, via the inverse FFT.

    Modes k and k + G agree on the grid, so the coefficients are folded
    mod G by whole-period slices, and the samples are exact for any G >= 1.
    """
    c = phi.coeffs
    X = np.zeros(G, dtype=np.complex128)    # X[j] holds mode j - N mod G
    X[:min(c.size, G)] = c[:G]
    for lo in range(G, c.size, G):          # whole periods, in mode order
        X[:min(c.size - lo, G)] += c[lo:lo + G]
    s = phi.N % G
    return np.fft.ifft(np.concatenate([X[s:], X[:s]])) * G


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


def derivative(phi: FourierSeries) -> FourierSeries:
    """d/dtheta acting as multiplication by 2 pi i k on mode k."""
    ks = np.arange(-phi.N, phi.N + 1)
    return FourierSeries._of(phi.coeffs * (2j * np.pi * ks))


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

    if not (u.coeffs[:u.N].any() or u.coeffs[u.N + 1:].any()):
        shifted = f.coeffs * mode_phases(u.coeff(0), f.N, "constant-shift")
        return FourierSeries._of(shifted), CompositionReport(0.0, 0)

    K = min(f.N + u.N, HARD_CAP)
    G = next_fast_len(GRID_FACTOR * (f.N + u.N + 1))
    z = np.arange(G) / G + grid_values(u, G)
    c = np.fft.fft(evaluate(f, z)) / G
    tail = float(np.max(np.abs(c[K + 1:G - K])))
    out = np.concatenate([c[G - K:], c[:K + 1]])
    return FourierSeries._of(out), CompositionReport(tail, G)


def composition_jet(f: np.ndarray, step: int = 1, center=0):
    """Orders of F = f(theta + u) when u is a power series in a parameter t.

    A generator on raw coefficient arrays: for u = sum_{s>=1} t^s u_s, the
    first ``next()`` yields F_0 = f and each ``send(u_s)``, s = 1, 2, ...,
    yields F_s, the t^s coefficient of F (the jet keeps it: do not write
    it).  It carries F itself, through the t^(n-1) coefficient of
    (1 + u_theta) F_t = u_t F_theta (Brent & Kung, J. ACM 25, 1978),

        n F_n = sum_{j=1}^{n} j u_j * F'_{n-j} - sum_{j=1}^{n-1} (n-j) u_j' * F_{n-j},

    * the convolution and ' the theta-derivative.  Modes k1 of u_j and k2 of
    F_{n-j} enter with 2 pi i (j k2 - (n-j) k1) = 2 pi i (j k - n k1), k =
    k1 + k2, so n F_n = 2 pi i (k sum_j (j u_j) * F_{n-j} - n sum_j (k u_j)
    * F_{n-j}).  No grid and no FFT, so a structural zero stays exact (a
    padding zero only ever adds 0 x terms); the arithmetic runs in f's
    complex dtype (clongdouble included), on one of two paths that give the
    same orders to round-off:

    - stacked: u_j and F_s sit in blocks of ``_JET_ROWS`` orders, aligned
      to the lattice, and the sums over j are a few matrix products per
      order folded along anti-diagonals (``_StackedSums``); it holds the
      blocks (200 kB for ``cos`` at 34/89, against 130 kB of rows) and a
      scratch of about 50 kB;
    - pairs: two ``np.convolve``s per (n, j) (``_PairSums``), holding three
      arrays an order.

    ``_takes_stacked_path`` chooses from f alone: the stacked path for a
    complex128 f of lattice span len(f) - 1 <= 2, where it measured 0.45 to
    0.68 of the pairs path's time, and the pairs path otherwise.

    The terms (j k - n k1) u_j F_{n-j} cancel, so accuracy depends on the
    drive.  For u_s built mode by mode from the orders yielded, as
    ``obstruction_order`` and ``taylor0_recursion`` build them, complex128
    agrees with clongdouble to about 1e-13 relative (7e-13 at order 88 of
    34/89); a small drive such as u = t u_1, |u_1| ~ 0.05, loses all
    digits (7e-4 relative at order 20, 5e3 at order 30).

    Entry i of f is mode center + step (i - (len(f) - 1)/2), and every
    array of order s (u_s, and F_{s-1}) is centred on mode s center.  Order
    s has the window of modes s lo .. s hi at stride ``step`` (lo and hi
    f's extreme modes), and u_s must lie inside it.  If f lives on r +
    step Z and u_j on j r + step Z, each product above pairs a mode of
    j r + step Z with one of (s - j + 1) r + step Z, so F_s lives on
    (s + 1) r + step Z: a caller whose u_s act mode by mode on F_{s-1}
    stores 1/step of each array.  The defaults give centred arrays
    c_{-N}..c_N.  F_n has the length max_j (len(u_j) + len(F_{n-j})) - 1.
    """
    f = np.asarray(f)
    two_pi_i = f.dtype.type(2j) * np.arccos(f.real.dtype.type(-1))
    span = f.size - 1
    lo = center - step * span / 2          # the mode of f[0]
    sums = (_StackedSums if _takes_stacked_path(f) else _PairSums)(f, step, lo)
    u_sizes, f_sizes = [], [f.size]
    u = yield f
    n = 0
    while True:
        n += 1
        u = np.asarray(u)
        off, odd = divmod(n * span + 1 - u.size, 2)    # u_n's place in its window
        if off < 0 or odd:
            raise ValueError(f"u_{n} has {u.size} entries, off the window of "
                             f"its order ({n * span + 1} entries)")
        u_sizes.append(u.size)
        size = max(map(int.__add__, u_sizes, reversed(f_sizes))) - 1
        w0 = ((n + 1) * span + 1 - size) // 2          # F_n's place in its window
        acc = sums.add(u, n, off, w0, size)
        acc *= two_pi_i / n
        sums.keep(acc, n, w0)
        f_sizes.append(size)
        u = yield acc


_JET_ROWS = 32         # orders per stored block of the stacked path
_JET_SLAB = 1500       # least bound on h (R + rows), half the scratch of one slab


def _takes_stacked_path(f: np.ndarray) -> bool:
    """Whether ``composition_jet`` sums over pairs of orders by ``_StackedSums``.

    It looks at widths and the dtype the jet holds from the start.  The
    window of order n is n span + 1 entries wide (span = len(f) - 1), and a
    stacked product pads every row of a run to the run's widest window: at
    span 1 or 2 (``cos`` on its lattice, or at stride 1) the rows fill
    their windows and a few products replace 2n convolutions per order;
    from span 3 on, the padded products and their folds cost more than the
    exact convolutions, the more so the more orders.  Stacked over pairs
    time, one-sided forcings at stride 1, 20 / 40 / 60 orders (2-CPU host,
    one OpenBLAS thread, numpy 2.4): span 1 0.66 / 0.48 / 0.45, span 2
    0.68 / 0.64 / 0.68, span 3 0.85 / 0.96 / 1.12, span 4 0.99 / 1.23 /
    1.41, span 6 1.33 / 1.58 / 1.88.  numpy multiplies clongdouble matrices
    without BLAS, so an extended-precision f keeps the pairs path: on the
    stacked path ``cos`` at 34/89 took 168 ms against 58 ms.
    """
    return f.size - 1 <= 2 and f.dtype == np.complex128


class _PairSums:
    """The sums of ``composition_jet`` by two ``np.convolve``s per (n, j).

    Keeps j u_j and k u_j for j = 1..n and F_s for s < n at their own
    lengths, each with its offset in its order's window.
    """

    def __init__(self, f, step, lo):
        self.step, self.lo, self.dtype = step, lo, f.dtype
        self.ju, self.ku, self.F = [], [], [(f, 0)]

    def add(self, u, n, off, w0, size):
        """n F_n / (2 pi i) on modes w0..w0 + size - 1 of its window."""
        ks = n * self.lo + self.step * (off + np.arange(u.size))
        self.ju.append((n * u, off))
        self.ku.append(ks * u)
        acc = np.zeros(size, dtype=self.dtype)  # sum (j u_j) * F_{n-j}
        kcc = np.zeros(size, dtype=self.dtype)  # sum (k u_j) * F_{n-j}
        for (a, oa), b, (c, oc) in zip(self.ju, self.ku, reversed(self.F)):
            i = oa + oc - w0
            acc[i:i + a.size + c.size - 1] += np.convolve(a, c)
            kcc[i:i + a.size + c.size - 1] += np.convolve(b, c)
        acc *= (n + 1) * self.lo + self.step * (w0 + np.arange(size))
        acc -= n * kcc
        return acc

    def keep(self, F, s, off):
        self.F.append((F, off))


class _StackedSums:
    """The sums of ``composition_jet`` by matrix products over j.

    Rows sit on the lattice: entry i of u_j is mode k1 = j lo + step i and
    entry l of F_s is mode (s + 1) lo + step l, so the pair (i, l) of any
    (u_j, F_{n-j}) lands on entry c = i + l of order n + 1's window, mode
    k = (n + 1) lo + step c, whatever j is.  Rows are kept in blocks of
    ``_JET_ROWS`` orders, each as wide as the window of its last order, the
    F blocks in reverse order so that the F_{n-j} paired with consecutive
    u_j are consecutive rows.  Order n splits j = 1..n where either block
    changes (about 2n / ``_JET_ROWS`` runs), and

        n F_n / (2 pi i) [c] = k A_j[c] - n A_k[c],

    with A_j and A_k the anti-diagonal sums (i + l = c) of the outer
    products sum_j j u_j F_{n-j}^T and sum_j (k1 u_j) F_{n-j}^T over every
    run, the k1 weight sitting on the entries of u_j as in ``_PairSums``.
    Memory: the blocks (for ``cos`` at 34/89, 200 kB beside the 130 kB of
    the rows themselves) and one scratch buffer of about 2 ``_JET_SLAB``
    entries, or 32 per entry of the window when that is more, since
    ``_fold`` never holds a whole product.
    """

    def __init__(self, f, step, lo):
        self.step, self.lo, self.span, self.dtype = step, lo, f.size - 1, f.dtype
        self.U, self.F = [], []
        self.scratch = np.zeros(0, dtype=f.dtype)
        self.layout = self.out = self.diag = self.X = None   # views into scratch
        self.ints = self.sig = np.zeros(0, dtype=f.dtype)  # i and step i
        self.keep(f, 0, 0)

    def _row(self, blocks, t, reverse=False):
        """Block and row of row t (j - 1 of u_j, or s of F_s, *reverse*d).

        A block is as wide as the window of its last order and grows 4, 8,
        16, ... ``_JET_ROWS`` rows as its orders arrive (the rows of a
        reversed block sit at its end), so that the last block of a run
        holds little more than the rows it has.
        """
        b, r = divmod(t, _JET_ROWS)
        if b == len(blocks):
            width = (b + 1) * _JET_ROWS * self.span + 1
            blocks.append(np.zeros((0, width), dtype=self.dtype))
        block = blocks[b]
        if r == len(block):
            grown = np.zeros((min(max(4, 2 * r), _JET_ROWS), block.shape[1]),
                             dtype=self.dtype)
            if reverse:
                grown[len(grown) - r:] = block
            else:
                grown[:r] = block
            blocks[b] = block = grown
        return block, len(block) - 1 - r if reverse else r

    def keep(self, F, s, off):
        block, row = self._row(self.F, s, reverse=True)
        block[row, off:off + F.size] = F

    def add(self, u, n, off, w0, size):
        """n F_n / (2 pi i) on modes w0..w0 + size - 1 of its window."""
        C, span = _JET_ROWS, self.span
        block, r = self._row(self.U, n - 1)
        block[r, off:off + u.size] = u
        width = (n + 1) * span + 1
        if self.ints.size < 2 * width + n:        # slab columns i, and j <= n
            self.ints = np.arange(4 * width + 2 * n).astype(self.dtype)
            self.sig = self.step * self.ints
        # a slab of U keeps >= 16 columns at wide windows: at 160 orders of
        # cos at stride 1 the least bound alone took 0.48 s against 0.42 s
        # on the pairs path
        self.slab = max(_JET_SLAB, 16 * width)
        need = 2 * (self.slab + 2 * width + C)        # bounds 2 h (R + rows)
        if self.scratch.size < need:
            self.scratch = self.out = self.diag = self.X = self.layout = None
            self.scratch = np.zeros(need + 4 * width, dtype=self.dtype)
        acc = np.zeros((2, width + C * span), dtype=self.dtype)   # A_j, A_k
        j = 1
        while j <= n:
            bu, ru = divmod(j - 1, C)
            bf, rf = divmod(n - j, C)
            rows = min(C - ru, rf + 1)
            U = self.U[bu][ru:ru + rows, :(j + rows - 1) * span + 1]
            top = len(self.F[bf]) - 1 - rf
            F = self.F[bf][top:top + rows, :(n - j + 1) * span + 1]
            self._fold(acc, U, F, self.ints[j:j + rows])
            j += rows
        k = (n + 1) * self.lo + self.step * np.arange(w0, w0 + size)
        return k * acc[0, w0:w0 + size] - n * acc[1, w0:w0 + size]

    def _fold(self, acc, U, F, js):
        """Add A_j and A_k of one run (U_j, j = js; F_{n-j}) to acc.

        A slab of h columns i0..i0 + h - 1 of U at a time: one matrix
        product X @ F, X = [j U_slab^T; k1 U_slab^T], writes both products
        into a zeroed buffer at row stride R = F's width + h, so that read
        at stride R - 1 every anti-diagonal is a column, summed into acc.
        Buffer and X share the scratch, 2 h (R + rows) <= 2 ``slab``
        entries; the gaps of the buffer stay zero while (h, R, rows)
        repeats.
        """
        wu, wf, rows = U.shape[1], F.shape[1], js.size
        b = wf + rows
        h = max(1, int((math.sqrt(b * b + 4 * self.slab) - b) / 2))
        slabs = -(-wu // h)
        h = -(-wu // slabs)                     # even slabs of at most h
        ljs = self.lo * js
        for i0 in range(0, wu, h):
            h = min(h, wu - i0)
            R = wf + h
            if self.layout != (h, R, rows):
                buf = self.scratch[:2 * h * R]
                buf.fill(0)
                self.out = buf.reshape(2 * h, R)[:, :wf]
                diag = buf.reshape(2, h * R)[:, :h * (R - 1)]
                self.diag = diag.reshape(2, h, R - 1)
                self.X = self.scratch[2 * h * R:2 * h * (R + rows)].reshape(2 * h, rows)
                self.layout = (h, R, rows)
            Ut = U[:, i0:i0 + h].T
            np.multiply(Ut, js, out=self.X[:h])
            np.multiply(Ut, np.add.outer(self.sig[i0:i0 + h], ljs), out=self.X[h:])
            np.matmul(self.X, F, out=self.out)
            acc[:, i0:i0 + R - 1] += self.diag.sum(axis=1)


# ---------------------------------------------------------------------------
# pointwise inverse


def refuse_grid_min(gmin: float) -> None:
    """NearSingularError when min |A| on a grid is at or below AMIN_FLOOR."""
    if gmin <= AMIN_FLOOR:
        raise NearSingularError(
            f"min |A| on grid = {gmin:.3e} at/below floor {AMIN_FLOOR:.1e}",
            {"grid_min": gmin, "floor": AMIN_FLOOR})


def invert_pointwise(A: FourierSeries) -> FourierSeries:
    """Series of 1/A(theta), built from an oversampled grid.

    The first grid is the fourfold next_fast_len(max(GRID_FACTOR (A.N + 1),
    512)).  The output cutoff adapts, above or below A.N: it is the smallest
    K whose discarded grid spectrum sits below 1e-13 relative to the largest
    coefficient (one 4x refinement is attempted if the first grid cannot get
    there).  Raises
    ``NearSingularError`` when min |A| on the grid is at or below
    ``AMIN_FLOOR``, when the cutoff the inverse needs exceeds ``HARD_CAP``,
    or when neither grid gets the tail below 1e-13 and the one the refined
    grid leaves at its reach is above ``INVERSE_TAIL_MAX`` (the error names
    the grid size and that tail).  A tail between the two is kept: at
    1.7e-11 the inverse still holds ten digits, while at 2e-2 (A = 1 -
    0.99999 cos) |A inv - 1| reaches 9.
    """
    G0 = next_fast_len(max(GRID_FACTOR * (A.N + 1), 512))
    for G in (G0, next_fast_len(4 * G0)):
        vals = grid_values(A, G)
        gmin = float(np.min(np.abs(vals)))
        refuse_grid_min(gmin)
        c_full = np.fft.fft(1.0 / vals) / G
        mag = np.abs(c_full)
        Kmax = (G - 1) // 2
        # level[j] = largest coefficient at |k| = j: bins j and G - j, and
        # level[Kmax + 1] the Nyquist bin G/2 of an even G (0 for an odd G)
        level = np.zeros(Kmax + 2)
        level[:G - Kmax] = mag[:G - Kmax]
        np.maximum(level[1:Kmax + 1], mag[:G - Kmax - 1:-1], out=level[1:Kmax + 1])
        # suffix[j] = largest coefficient at |k| >= j, suffix[0] the largest
        suffix = np.maximum.accumulate(level[::-1])[::-1]
        ok = np.nonzero(suffix <= 1e-13 * suffix[0])[0]
        K = max(int(ok[0]) - 1, 0) if ok.size else Kmax
        if ok.size:
            break
    tail = 0.0 if ok.size else float(suffix[Kmax] / suffix[0])
    if tail > INVERSE_TAIL_MAX and K <= HARD_CAP:
        raise NearSingularError(
            f"a grid of {G} points leaves the inverse's tail at {tail:.3e} "
            f"of its largest coefficient, above {INVERSE_TAIL_MAX:.0e}",
            {"grid_size": G, "tail": tail, "grid_min": gmin},
        )
    if K > HARD_CAP:
        raise NearSingularError(
            f"inverse needs cutoff {K} above the hard cap {HARD_CAP}",
            {"cutoff": K, "hard_cap": HARD_CAP, "grid_min": gmin},
        )
    return FourierSeries._of(np.concatenate([c_full[G - K:], c_full[:K + 1]]))
