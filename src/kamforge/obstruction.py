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
(``fourier.composition_jet``: direct convolution, no FFT, no grids), so
that the comparison against the oracle is a genuine two-route consistency
check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import KamforgeError, OverflowRiskError
from .fourier import FourierSeries, composition_jet
from .frequency import from_q

__all__ = [
    "RationalFreq",
    "ObstructionReport",
    "delta_star",
    "e_star",
    "projector",
    "obstruction_order",
    "beta_gamma_oracle",
    "radial_approach_diagnostic",
]


@dataclass(frozen=True)
class RationalFreq:
    """A rotation number p/m in lowest terms, with its divisor spectrum."""

    p: int
    m: int

    def __post_init__(self):
        p, m = int(self.p), int(self.m)
        if m < 1:
            raise ValueError("denominator must be a positive integer")
        if math.gcd(abs(p), m) != 1:
            raise ValueError(f"{p}/{m} is not in lowest terms")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)

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
        if extended:
            pi = np.arccos(np.longdouble(-1.0))
            j = np.arange(self.m, dtype=np.longdouble)
        else:
            pi = np.float64(math.pi)
            j = np.arange(self.m, dtype=np.float64)
        s = np.sin(j * pi * self.p / self.m)
        D = -4.0 * s * s
        D[0] = 0.0
        lam = np.zeros_like(D)
        if self.m > 1:
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
    mask = np.mod(_modes(phi), rf.m) == (j % rf.m)
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
    obstruction_witness: FourierSeries
    witness_norm: float
    gamma_engine: complex
    gamma_oracle: complex
    relative_gap: float
    betas: list = field(default_factory=list)
    gammas_engine: list = field(default_factory=list)
    gammas_oracle: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return jsonio.encode({
            "p": self.p,
            "m": self.m,
            "K": self.K,
            "A": self.A,
            "reflected": self.reflected,
            "exactness": self.exactness,
            "orders_computed": self.orders_computed,
            "n_star": self.n_star,
            "threshold": self.threshold,
            "witness_norm": self.witness_norm,
            "obstruction_witness": self.obstruction_witness,
            "gamma_engine": self.gamma_engine,
            "gamma_oracle": self.gamma_oracle,
            "relative_gap": self.relative_gap,
            "betas": self.betas,
            "gammas_engine": self.gammas_engine,
            "gammas_oracle": self.gammas_oracle,
        })


def obstruction_order(f: FourierSeries, rf: RationalFreq,
                      max_order: int | None = None,
                      threshold: float | None = None,
                      exactness: str = "float") -> ObstructionReport:
    """Run the formal construction at omega = p/m until it obstructs.

    The right-hand side of delta_star u_n = g_n is g_1 = f and, for n >= 2,
    g_n = [f(id+u)]_{n-1}, the eps^(n-1) coefficient of the composition,
    which ``composition_jet`` builds from u_1..u_{n-1} by exact
    convolution; u_n = lam * g_n.  The run stops at the first n where
    ||Pi0 g_n|| exceeds the threshold (default 1e-10 times the largest
    coefficient magnitude accumulated so far).  Forcings whose only extreme
    mode is -K are reduced to the +K case by the reflection theta -> -theta
    (the divisor spectrum is even in p, so the same tables apply); the
    report's ``reflected`` flag records this.  ``exactness="extended"``
    runs the identical arithmetic in long-double precision.  Raises
    ``OverflowRiskError`` naming the order when g_n, or the oracle's
    gamma_n, stops being finite.

    Preconditions: f zero-mean and not identically zero.
    """
    if exactness not in ("float", "extended"):
        raise ValueError("exactness must be 'float' or 'extended'")
    if abs(f.coeff(0)) > 0.0:
        raise ValueError("forcing must have zero mean")
    nz = np.nonzero(f.coeffs)[0]
    if len(nz) == 0:
        raise ValueError("forcing is identically zero")
    degree = int(max(abs(nz - f.N)))
    reflected = f.coeff(degree) == 0
    dtype = np.clongdouble if exactness == "extended" else np.complex128
    f_arr = np.asarray(f.coeffs[f.N - degree:f.N + degree + 1], dtype=dtype)
    if reflected:
        f_arr = f_arr[::-1].copy()
    K = degree
    A = complex(f_arr[2 * K])

    if max_order is None:
        max_order = rf.m
    max_order = int(max_order)
    if max_order < 1:
        raise ValueError("max_order must be at least 1")

    _, lam = rf.tables(extended=(exactness == "extended"))
    jet = composition_jet(f_arr)
    g = next(jet)                 # g_1 = f
    gammas_engine: list = []
    scale = 0.0
    n_star = None
    witness_arr = np.zeros(1, dtype=dtype)
    thr = threshold if threshold is not None else 0.0
    # an overflowing order surfaces as the typed error below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, max_order + 1):
            if n > 1:
                g = jet.send(u)       # g_n = [f(id+u)]_{n-1}
            if not np.isfinite(g).all():
                raise OverflowRiskError(f"obstruction order {n} overflowed",
                                        {"order": n})
            Ng = (len(g) - 1) // 2
            gammas_engine.append(complex(g[Ng + n * K]) if n * K <= Ng else 0.0j)
            scale = max(scale, float(np.max(np.abs(g))))
            if threshold is None:
                thr = 1e-10 * scale
            ks = np.arange(-Ng, Ng + 1)
            resonant = np.mod(ks, rf.m) == 0
            witness_arr = np.where(resonant, g, dtype(0))
            wnorm = float(np.max(np.abs(witness_arr)))
            if wnorm > thr:
                n_star = n
                break
            u = g * lam[np.mod(ks, rf.m)]

        betas, gammas_oracle, _ = beta_gamma_oracle(
            K, rf, len(gammas_engine), A, extended=(exactness == "extended"))
    ref = max((abs(g) for g in gammas_oracle), default=0.0)
    if ref > 0.0:
        relative_gap = max(
            abs(ge - go) for ge, go in zip(gammas_engine, gammas_oracle)
        ) / ref
    else:
        relative_gap = max((abs(g) for g in gammas_engine), default=0.0)

    idx = (n_star if n_star is not None else len(gammas_engine)) - 1
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
        obstruction_witness=FourierSeries(witness_arr),
        witness_norm=float(np.max(np.abs(witness_arr))),
        gamma_engine=gammas_engine[idx],
        gamma_oracle=gammas_oracle[idx],
        relative_gap=float(relative_gap),
        betas=betas,
        gammas_engine=gammas_engine,
        gammas_oracle=gammas_oracle,
    )


# ---------------------------------------------------------------------------
# closed-form oracle


def beta_gamma_oracle(K: int, rf: RationalFreq, up_to: int,
                      A: complex = 1.0 + 0.0j, extended: bool = False):
    """Leading resonant coefficients from the scalar recursion.

    beta_1 = 1 and, with b_j = (-lam_{[jK]}) beta_j >= 0,

        beta_n = sum_{r=1}^{n-1} (1/r!) [x^{n-1}] (sum_j b_j x^j)^r,

    so every beta_n > 0 as long as K is not resonant.  The gammas attach
    the forcing data: gamma_n = (-2 pi i K)^(n-1) A^n beta_n.  Returns
    ``(betas, gammas, A)``.  With ``extended=True`` the recursion and the
    gamma products run in long double on the long-double tables, matching
    the engine's ``exactness="extended"``; the returned values are rounded
    to Python floats and complexes either way.  Raises ``OverflowRiskError``
    naming the first order whose gamma is not finite.
    """
    up_to = int(up_to)
    if up_to < 1:
        raise ValueError("need at least one order")
    _, lam = rf.tables(extended=extended)
    if extended:
        real, cplx = np.longdouble, np.clongdouble
        pi = np.arccos(np.longdouble(-1.0))
    else:
        real, cplx = float, complex
        pi = math.pi
    beta = [real(1.0)]
    b = np.zeros(up_to + 1, dtype=lam.dtype)
    b[1] = -lam[(1 * K) % rf.m] * beta[0]
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
    base = cplx(-2j) * pi * K
    a = cplx(A)
    gammas = []
    for n in range(1, up_to + 1):
        try:
            g = complex((base ** (n - 1)) * (a ** n) * beta[n - 1])
        except OverflowError:  # Python's complex power raises, numpy's gives inf
            g = complex(math.inf)
        if not cmath.isfinite(g):
            raise OverflowRiskError(f"oracle order {n} overflowed", {"order": n})
        gammas.append(g)
    return [float(x) for x in beta], gammas, complex(A)


def radial_approach_diagnostic(f: FourierSeries, p: int, m: int, eps,
                               radii=(0.85, 0.90, 0.95)) -> list:
    """Picard iteration counts at q = r e^{2 pi i p/m} as r -> 1.

    The climb in iteration counts as the radius approaches the resonant
    boundary point is a natural-boundary indicator; it is reported for
    logging, not asserted against any threshold.  A radius where Picard
    refuses or fails is recorded as not converged, with the reason as its
    ``note``.
    """
    from .continuation import picard_solve

    out = []
    for r in radii:
        q = r * complex(math.cos(2 * math.pi * p / m),
                        math.sin(2 * math.pi * p / m))
        freq = from_q(q)
        entry = {"radius": float(r), "converged": False, "iterations": None}
        try:
            _, rep = picard_solve(f, freq, eps)
            entry["converged"] = True
            entry["iterations"] = rep.iterations
        except (ValueError, KamforgeError) as exc:
            entry["note"] = str(exc)
        out.append(entry)
    return out
