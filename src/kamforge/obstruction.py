"""Formal obstruction at rational rotation numbers.

At omega = p/m the divisor operator acts mode-by-mode with eigenvalue
D_j = -4 sin^2(j pi p / m) depending only on j = k mod m, so it kills the
whole subspace V0 of modes k in m*Z instead of just the constants.  The
order-by-order construction of a formal solution u = sum eps^n u_n then
survives exactly as long as each right-hand side g_n stays clear of V0;
the first n where the projection Pi0 g_n is nonzero is the obstruction
order n_star.  For a forcing with top mode K != 0 the theory pins
n_star = m / gcd(K, m) and gives the leading resonant coefficient in
closed form,

    gamma_n = (-2 pi i K)^(n-1) A^n beta_n,

with A the top coefficient of f and beta_n > 0 produced by a scalar
recursion in the divisor values.  The engine here computes the g_n with
the same composition kernel as the Taylor orders at q = 0
(``fourier.composition_jet``: exact sums over pairs of orders, by matrix
products on lattice-aligned rows for ``cos`` and by direct convolution for
wider forcings; no FFT, no grids), on the lattice of f's modes, in real
arithmetic when f's coefficients there are all real or all imaginary; the
oracle uses only K, A and the divisor tables, so the comparison is a
genuine two-route consistency check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OverflowRiskError
from .fourier import (HARD_CAP, FourierSeries, composition_jet, require_finite,
                      require_int)

# Largest m and max_order: the tables take m entries and the default order
# budget is m.  On one core of a shared 2-CPU host, cos at 144/377 takes
# 4.6 s in float64; at 233/610 the engine overflows at order 384 in float64
# and the oracle at 391 in long double (where the engine stops), so no
# budget past ~400 orders can finish for cos.
OBSTRUCTION_ORDER_CAP = 400

@dataclass(frozen=True)
class RationalFreq:
    """A rotation number p/m in lowest terms, with its divisor spectrum."""

    p: int
    m: int

    def __post_init__(self):
        p, m = require_int(self.p, "p"), require_int(self.m, "m", 1)
        if math.gcd(abs(p), m) != 1:
            raise ValueError(f"{p}/{m} is not in lowest terms")

    @property
    def omega(self) -> float:
        return self.p / self.m

    def tables(self, extended: bool = False):
        """(D, lam) eigenvalue tables indexed by k mod m.

        D_j = -4 sin^2(j pi p / m) and lam_j = 1/D_j for j != 0, lam_0 = 0;
        both vanish exactly on the resonant class j = 0.  With
        ``extended=True`` the tables are computed in long-double precision
        for the engine's headroom mode.
        """
        real = np.longdouble if extended else np.float64
        j = np.arange(self.m, dtype=real)
        s = np.sin(j * np.arccos(real(-1)) * self.p / self.m)
        D = -4.0 * s * s
        D[0] = 0.0
        lam = np.zeros_like(D)
        lam[1:] = 1.0 / D[1:]
        return D, lam


def _modes(phi: FourierSeries) -> np.ndarray:
    return np.arange(-phi.N, phi.N + 1)


def delta_star(phi: FourierSeries, rf: RationalFreq) -> FourierSeries:
    """Divisor operator at omega = p/m: mode k scales by D_{k mod m}."""
    D, _ = rf.tables()
    return FourierSeries(phi.coeffs * D[np.mod(_modes(phi), rf.m)])


def e_star(phi: FourierSeries, rf: RationalFreq) -> FourierSeries:
    """Partial inverse of delta_star, zero on the resonant modes."""
    _, lam = rf.tables()
    return FourierSeries(phi.coeffs * lam[np.mod(_modes(phi), rf.m)])


def projector(phi: FourierSeries, rf: RationalFreq, j: int = 0) -> FourierSeries:
    """Keep only the modes k with k = j (mod m)."""
    mask = np.mod(_modes(phi), rf.m) == (require_int(j, "j") % rf.m)
    return FourierSeries(np.where(mask, phi.coeffs, 0.0))


# ---------------------------------------------------------------------------
# the order-by-order engine


@dataclass
class ObstructionReport:
    """Everything the order-by-order run produced, JSON-able."""

    p: int
    m: int
    K: int
    A: complex
    reflected: bool
    exactness: str
    orders_computed: int
    n_star: int | None
    threshold: float
    witness_norm: float
    obstruction_witness: FourierSeries
    gamma_engine: complex
    gamma_oracle: complex
    relative_gap: float
    betas: list = field(default_factory=list)
    gammas_engine: list = field(default_factory=list)
    gammas_oracle: list = field(default_factory=list)


def obstruction_order(f: FourierSeries, rf: RationalFreq,
                      max_order: int | None = None,
                      exactness: str = "float") -> ObstructionReport:
    """Run the formal construction at omega = p/m until it obstructs.

    The right-hand side of delta_star u_n = g_n is g_1 = f and, for n >= 2,
    g_n = [f(id+u)]_{n-1}, the eps^(n-1) coefficient of the composition,
    which ``composition_jet`` builds from u_1..u_{n-1} by exact
    convolution; u_n = lam * g_n.  If f lives on lo + d Z (lo its lowest
    mode, d the gcd of its mode differences) and u_j on j lo + d Z for
    j < n, the jet puts g_n on n lo + d Z, and lam, acting mode by mode,
    keeps u_n there: each is stored as its modes n lo..n K at stride d (half
    of each array for ``cos``).  The run stops at the first n where
    ||Pi0 g_n|| exceeds the threshold, 1e-10 times the largest
    coefficient magnitude accumulated so far.  Mode 0 of g_n, the mean of
    f(id+u), vanishes once the lower orders hold: it is never tested and
    the witness holds it as an exact zero.  Forcings whose only extreme
    mode is -K are reduced to the +K case by the reflection theta -> -theta
    (the divisor spectrum is even in p, so the same tables apply); the
    report's ``reflected`` flag records this.  The reflected forcing
    f(-theta) at eps is the caller's problem at -eps, mirrored, so its
    g_n are (-1)^(n+1) times the caller's, mirrored: the witness is mapped
    back to the caller's modes by that rule, while ``A`` and the
    ``gamma_*`` values stay in the reflected frame.

    At ``exactness="float"``, a forcing whose lattice coefficients are all
    real (``cos``) or all imaginary (sin-type) is c r with c = 1 or i and r
    real.  Every g_n is then c (i c)^(n-1) times a real array g~_n, and the
    jet runs on r in float64, driven by u~_n = lam g~_n.  The phase goes
    back, exactly, only on what leaves the loop: ``gammas_engine`` and the
    witness.  The scale, the threshold and n_star read moduli, so they do
    not see it.  Other forcings run in complex128.
    ``exactness="extended"`` runs the complex arithmetic in long-double
    precision (a real long-double jet has no BLAS and measured no
    faster).  Each engine order pulls one oracle order, so the oracle stops
    where the engine stops; ``OverflowRiskError`` names the first order
    whose g_n, or then whose oracle gamma_n, is not finite.

    The witness lives on modes -n K..n K at the final order n (n_star, or
    ``max_order``); a ``ValueError`` naming n, K and n K refuses a run whose
    n K passes ``HARD_CAP``.

    Preconditions: f zero-mean and not identically zero, m and
    ``max_order`` ints in [1, ``OBSTRUCTION_ORDER_CAP``].
    """
    if exactness not in ("float", "extended"):
        raise ValueError("exactness must be 'float' or 'extended'")
    max_order = rf.m if max_order is None else max_order
    require_int(rf.m, "m", 1, OBSTRUCTION_ORDER_CAP)
    require_int(max_order, "max_order", 1, OBSTRUCTION_ORDER_CAP)
    if abs(f.coeff(0)) > 0.0:
        raise ValueError("forcing must have zero mean")
    modes = np.nonzero(f.coeffs)[0] - f.N
    if len(modes) == 0:
        raise ValueError("forcing is identically zero")
    K = int(max(abs(modes)))
    reflected = f.coeff(K) == 0
    dtype = np.clongdouble if exactness == "extended" else np.complex128
    c = np.asarray(f.coeffs, dtype=dtype)
    if reflected:
        c, modes = c[::-1], -modes[::-1]
    lo, d = int(modes[0]), int(np.gcd.reduce(np.diff(modes))) or 1
    f_lat = c[f.N + lo:f.N + K + 1:d]    # f on its lattice: modes lo..K, stride d
    A = complex(f_lat[-1])

    extended = exactness == "extended"
    _, lam = rf.tables(extended=extended)
    real = None if extended else _real_form(f_lat)
    jet = composition_jet(f_lat if real is None else real[0],
                          step=d, center=(lo + K) / 2)
    g = next(jet)                 # g_1 = f
    oracle = _oracle_orders(K, rf, max_order, A, extended)
    rows: list = []   # per order: mode n K of g_n as the jet gives it, beta_n, gamma_n
    scale = 0.0
    n_star = None
    # an overflowing order surfaces as a typed error, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, max_order + 1):
            if n > 1:
                g = jet.send(u)       # g_n = [f(id+u)]_{n-1}
            if not np.isfinite(g).all():
                raise OverflowRiskError(f"obstruction order {n} overflowed",
                                        {"order": n})
            rows += (g[-1], *next(oracle))    # the engine's error wins a tie
            scale = max(scale, float(np.max(np.abs(g))))
            thr = 1e-10 * scale
            ks = n * lo + d * np.arange(g.size)    # g_n lives on n lo + d Z
            res = (ks % rf.m == 0) & (ks != 0)     # mode 0 vanishes analytically
            wnorm = float(np.abs(g[res]).max(initial=0.0))
            if wnorm > thr:
                n_star = n
                break
            u = g * lam[ks % rf.m]
    tops, betas, gammas_oracle = rows[::3], rows[1::3], rows[2::3]
    gres = g[res]
    if real is not None:     # g_n = c (i c)^(n-1) times the jet's order, c = i^e
        e = real[1]
        turns = e + (1 + e) * np.arange(len(tops))
        tops, gres = _turned(np.array(tops), turns), _turned(gres, turns[-1])
    gammas_engine = [complex(x) for x in tops]
    gap = max(abs(ge - go) for ge, go in zip(gammas_engine, gammas_oracle))
    relative_gap = gap / max(map(abs, gammas_oracle))   # [0] is A, never 0

    if n * K > HARD_CAP:
        raise ValueError(f"the witness at order {n} needs modes up to n K = "
                         f"{n} * {K} = {n * K}, past the hard cap {HARD_CAP}")
    witness = np.zeros(2 * n * K + 1, dtype=dtype)   # modes -n K..n K
    if reflected:   # f(-theta) at eps is f at -eps, mirrored
        witness[n * K - ks[res]] = gres if n % 2 else -gres
    else:
        witness[n * K + ks[res]] = gres
    return ObstructionReport(
        p=rf.p,
        m=rf.m,
        K=K,
        A=A,
        reflected=bool(reflected),
        exactness=exactness,
        orders_computed=len(gammas_engine),
        n_star=n_star,
        threshold=float(thr),
        obstruction_witness=FourierSeries(witness),
        witness_norm=wnorm,
        gamma_engine=gammas_engine[-1],     # order n_star, or the last one
        gamma_oracle=gammas_oracle[-1],
        relative_gap=float(relative_gap),
        betas=betas,
        gammas_engine=gammas_engine,
        gammas_oracle=gammas_oracle,
    )


def _real_form(f_lat: np.ndarray):
    """(r, e) with f_lat = i^e r for a real array r and e in {0, 1}, or None."""
    if not f_lat.imag.any():
        return np.ascontiguousarray(f_lat.real), 0
    if not f_lat.real.any():
        return np.ascontiguousarray(f_lat.imag), 1
    return None


def _turned(x: np.ndarray, k) -> np.ndarray:
    """i^k x for a real x, formed exactly: the other part holds +0."""
    k = np.asarray(k) % 4
    x = np.where(k >= 2, -x, x)
    out = np.zeros(x.shape, dtype=np.complex128)
    out.real = np.where(k % 2 == 0, x, 0.0)
    out.imag = np.where(k % 2 == 1, x, 0.0)
    return out


# ---------------------------------------------------------------------------
# closed-form oracle


def beta_gamma_oracle(K: int, rf: RationalFreq, up_to: int,
                      A: complex = 1.0 + 0.0j, extended: bool = False):
    """Leading resonant coefficients from the scalar recursion.

    beta_1 = 1 and, with b_j = (-lam_{[jK]}) beta_j >= 0,

        beta_n = sum_{r=1}^{n-1} (1/r!) [x^{n-1}] (sum_j b_j x^j)^r,

    so every beta_n > 0 as long as K is not resonant.  Since b_0 = 0 the
    sum over r is [x^{n-1}] (exp(B) - 1) with B = sum_j b_j x^j, so
    beta_n = E_{n-1} for the series E = exp(B), whose coefficients follow
    from E' = B' E: E_0 = 1 and i E_i = sum_{j=1}^{i} j b_j E_{i-j}.  That
    is one dot product per order, with no cancellation (b_j >= 0), in place
    of the O(n^2) convolutions the powers B^r take.  The gammas attach
    the forcing data: gamma_n = (-2 pi i K)^(n-1) A^n beta_n.  Returns
    ``(betas, gammas)``, collected from the orders that
    ``obstruction_order`` meets one at a time.  With ``extended=True`` the
    recursion and the gamma products run in long double on the long-double
    tables, matching the engine's ``exactness="extended"``; the values are
    rounded to Python floats and complexes either way.  A K that is no
    nonzero int or a non-finite A raises ``ValueError``, and the first
    order whose gamma is not finite ``OverflowRiskError``.
    """
    betas, gammas = zip(*_oracle_orders(K, rf, up_to, A, extended))
    return list(betas), list(gammas)


def _oracle_orders(K, rf, up_to, A, extended):
    """(beta_n, gamma_n) for n = 1..up_to, one order at a time."""
    if require_int(K, "K") == 0:
        raise ValueError("the oracle is undefined at K = 0")
    cplx = np.clongdouble if extended else complex   # float: Python's powers
    a = cplx(require_finite(A, "A"))
    require_int(up_to, "up_to", 1)
    _, lam = rf.tables(extended=extended)
    pi = np.arccos(lam.dtype.type(-1))
    beta = np.zeros(up_to, dtype=lam.dtype)     # beta[i] = beta_{i+1} = E_i
    jb = np.zeros(up_to, dtype=lam.dtype)       # j b_j
    beta[0] = 1.0
    base = cplx(-2j) * pi * K
    for n in range(1, up_to + 1):
        i = n - 1
        if i:
            jb[i] = i * -lam[(i * K) % rf.m] * beta[i - 1]
            beta[i] = np.dot(jb[1:i + 1], beta[i - 1::-1]) / i
        try:
            g = complex((base ** i) * (a ** n) * beta[i])
        except OverflowError:  # Python's complex power raises, numpy's gives inf
            g = complex(math.inf)
        if not cmath.isfinite(g):
            raise OverflowRiskError(f"oracle order {n} overflowed", {"order": n})
        yield float(beta[i]), g
