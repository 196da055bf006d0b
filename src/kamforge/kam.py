"""Modified Newton solver for invariant curves of the standard family.

The map is T_eps(x, y) = (x + y + eps f(x), y + eps f(x)).  A curve
gamma(theta) = (theta + u(theta), omega + v(theta)) with v = u - u(. - omega)
is invariant iff the second difference equation

    u(theta+omega) - 2 u(theta) + u(theta-omega) = eps f(theta + u(theta))

holds, i.e. iff the error functional E(u) = -delta u + eps f(id + u)
vanishes.  Each Newton step solves the factorized linearized equation

    A delta(A w) - (A w) delta A = A E(u) - <A E(u)>,   A = 1 + u',

by quadratures: alpha = 1/(A A+), psi = Gamma-(A E), mu0 = -<alpha psi>/<alpha>,
w = Gamma(alpha psi + mu0 alpha), and updates u <- u + A w; a constant A
(the first step from u = 0) needs no grid, as alpha = 1/A^2 and mu0 = 0.
The mean <A E(u)> vanishes identically (for any u, not only solutions),
which is what makes the scheme well-posed without eliminating a parameter.

Numerics: a fixed spectral cutoff with monitored aliasing tails replaces
the proof's shrinking-strip schedule.  Smallness hypotheses are replaced by
runtime checks: the grid-min of |A A+| against ``fourier.AMIN_FLOOR`` and
|<alpha>| (refusing an A = 1 + u' that is not invertible), sup|w| < 1 in
each step, and a ``DIVERGENCE_FACTOR`` (10x) residual-growth safeguard.
Each iterate is truncated to the cutoff and coefficients below
``fourier.CLAMP_REL`` times the largest are dropped.

``continuation.picard_solve`` runs the same solve, ``_iterate``, with the
Picard step u -> eps E_q f(id+u); ``_iterate`` opens both methods alike
(eps, the forcing's mean, ``in_KM``) and writes every failure's record.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import jsonio
from .errors import (
    DivergenceError,
    KamforgeError,
    NearSingularError,
    NoConvergenceError,
    OverflowRiskError,
    ResonanceError,
)
from .fourier import (
    DEFAULT_CUTOFF,
    HARD_CAP,
    FourierSeries,
    _widen,
    clamp_small,
    compose_id_plus,
    derivative,
    evaluate,
    grid_values,
    invert_pointwise,
    mean,
    product,
    refuse_grid_min,
    require_finite,
    require_int,
    sup_norm,
    truncate,
)
from .frequency import DiophantineClass, Frequency, from_omega, in_AMC
from .operators import (
    DELTA,
    E_Q,
    GAMMA,
    GAMMA_MINUS,
    NABLA,
    NABLA_MINUS,
    SHIFT_PLUS,
    apply,
    max_divisor_magnitude,
)

_TWO_PI = 2.0 * math.pi


DIVERGENCE_FACTOR = 10.0  # largest tolerated one-iteration residual growth


@dataclass
class SolverConfig:
    """Knobs of the Newton and Picard iterations.

    ``tol`` is the target of the gauge-fixed defect both methods record,
    ``max_iters`` the Newton budget (Picard's is ``PICARD_MAX_ITERS``),
    ``cutoff`` the Fourier mode cutoff (at most ``HARD_CAP``), and ``seed``
    enables warm starts of either method (continuation in eps); the default
    seed is u = 0.
    The fixed numerical constants are module-level: ``DIVERGENCE_FACTOR``
    here, ``fourier.AMIN_FLOOR`` and ``fourier.CLAMP_REL``, and
    ``continuation.PICARD_MAX_ITERS`` and ``continuation.PICARD_MARGIN``.
    """

    tol: float = 1e-12
    max_iters: int = 30
    cutoff: int = DEFAULT_CUTOFF
    seed: FourierSeries | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        require_int(self.max_iters, "max_iters", 0)
        require_int(self.cutoff, "cutoff", 1, HARD_CAP)
        if not (self.seed is None or isinstance(self.seed, FourierSeries)):
            raise ValueError("seed must be a FourierSeries or None, "
                             f"got a {type(self.seed).__name__}")


@dataclass
class SolveReport:
    method: str = "newton"
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    quadratic_fit_slope: float = math.nan
    beta: complex = 0j
    aliasing_tail: float = 0.0
    diagnostics: dict = field(default_factory=dict)


# the JSON kind of each report field but beta, which reads as a complex
_REPORT_KINDS = {"method": "a string", "converged": "a bool",
                 "iterations": "an int >= 0",
                 "residual_history": "a list of numbers",
                 "quadratic_fit_slope": "a number", "aliasing_tail": "a number",
                 "diagnostics": "an object"}


@dataclass
class InvariantCurve:
    """A solved curve gamma(theta) = (theta + u(theta), omega + v(theta)).

    ``u`` is zero-mean after normalization; ``v`` = u - u(. - omega).  The
    forcing ``f`` is kept with the curve so the dynamical residual can be
    re-verified from the object (and its serialization) alone.
    """

    u: FourierSeries
    v: FourierSeries
    freq: Frequency
    eps: complex
    report: SolveReport
    f: FourierSeries

    def to_json_dict(self, dynamical: float | None = None) -> dict:
        d = {
            "frequency": self.freq,
            "eps": complex(self.eps),
            "u": self.u,
            "v": self.v,
            "f": self.f,
            "report": self.report,
        }
        if dynamical is not None:
            d["dynamical_residual"] = dynamical
        return jsonio.encode(d)

    @classmethod
    def from_json_dict(cls, d: dict) -> "InvariantCurve":
        jsonio.require_keys(d, "curve", ("frequency", "eps", "u", "v", "f",
                                         "report"), ("dynamical_residual",))
        report = dict(jsonio.require_keys(
            d["report"], "curve report", [f.name for f in fields(SolveReport)]))
        jsonio.require_kinds(report, "curve report", _REPORT_KINDS)
        if "dynamical_residual" in d:
            jsonio.require_kinds(d, "curve", {"dynamical_residual": "a number"})
        report["beta"] = require_finite(
            jsonio.to_complex([report["beta"]], "curve report", "beta")[0], "beta")
        frequency = jsonio.require_keys(d["frequency"], "curve frequency",
                                        ("omega",), None)
        omega = jsonio.to_complex([frequency["omega"]], "curve frequency",
                                  "omega")[0]
        eps = jsonio.to_complex([d["eps"]], "curve", "eps")[0]
        return cls(
            u=FourierSeries.from_json_dict(d["u"]),
            v=FourierSeries.from_json_dict(d["v"]),
            freq=from_omega(omega),
            eps=require_finite(eps, "eps"),
            report=SolveReport(**report),
            f=FourierSeries.from_json_dict(d["f"]),
        )

    def csv_rows(self, grid_n: int = 256):
        """Curve samples: theta, re_x, im_x, re_y, im_y."""
        require_int(grid_n, "grid_n", 1)
        theta = np.arange(grid_n) / grid_n
        x = theta + grid_values(self.u, grid_n)
        y = self.freq.omega + grid_values(self.v, grid_n)
        return zip(theta.tolist(), x.real.tolist(), x.imag.tolist(),
                   y.real.tolist(), y.imag.tolist())


# ---------------------------------------------------------------------------
# the error functional and the linearized solve


def _scaled(c: complex, phi: FourierSeries, step: str) -> FourierSeries:
    """c phi for a finite scalar c, wrapped without the constructor's copy.

    Raises ``OverflowRiskError`` naming *step* when a coefficient overflows,
    before numpy can warn about it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = phi.coeffs * c
    if not np.isfinite(out).all():
        raise OverflowRiskError(f"{step} overflowed",
                                {"step": step, "scale": c})
    return FourierSeries._of(out)


def linearized_solve(A: FourierSeries, E: FourierSeries,
                     freq: Frequency) -> FourierSeries:
    """Solve A delta(A w) - (A w) delta A = A E - <A E> with <w> = 0.

    Quadrature construction: alpha = 1/(A A+), psi = Gamma-(A E),
    mu0 = -<alpha psi>/<alpha>, w = Gamma(alpha psi + mu0 alpha).  The mean
    of w vanishes exactly because Gamma kills mode zero.  A constant A = a
    (a cold start's first step) takes alpha = 1/a^2 on no grid, refused at
    |a a| <= ``AMIN_FLOOR``; mu0 = 0, and at a = 1 w is the grid's bit for bit.
    """
    if A.N == 0:
        a = complex(A.coeffs[0])
        refuse_grid_min(abs(a * a))
        alpha = FourierSeries._of(np.array([1.0 / (a * a)]))
    else:
        alpha = invert_pointwise(product(A, apply(SHIFT_PLUS, A, freq)))
    psi = apply(GAMMA_MINUS, product(A, E), freq)
    alpha_mean = mean(alpha)
    if abs(alpha_mean) < 1e-8:
        raise NearSingularError(
            f"<alpha> = {abs(alpha_mean):.3e} too small for the mean correction",
            {"alpha_mean": alpha_mean},
        )
    ap = product(alpha, psi)
    mu0 = -mean(ap) / alpha_mean
    chi = ap + _scaled(mu0, alpha, "mu0 alpha")
    return apply(GAMMA, chi, freq)


def omega_tangent(u: FourierSeries, freq: Frequency) -> FourierSeries:
    """The omega-derivative h of a converged zero-mean u, by one linear solve.

    On a solution eps f'(id + u) = delta A / A, so h = A w with w =
    ``linearized_solve(A, -(d_omega delta) u)`` (d_omega delta is 2 pi i k
    (q^k - q^-k) on mode k).  A spans the kernel and <A> = 1: h = A w -
    <A w> A has zero mean (de la Llave, González, Jorba & Villanueva,
    Nonlinearity 18, 2005).
    """
    A = FourierSeries.constant(1.0) + derivative(u)
    rhs = -derivative(apply(NABLA, u, freq) + apply(NABLA_MINUS, u, freq))
    Aw = product(A, linearized_solve(A, rhs, freq))
    return Aw - _scaled(mean(Aw), A, "<A w> A")


def newton_step(u: FourierSeries, comp: FourierSeries, freq: Frequency,
                eps) -> FourierSeries:
    """One modified Newton update u -> u + A w, A = 1 + u'.

    ``comp`` is the composition f(id + u), which the caller has already
    formed for its residual check; the step forms E(u) = eps comp - delta u
    from it and returns u + A w untruncated.  ``linearized_solve`` refuses
    only an A that is not invertible (``NearSingularError``), whatever
    sup|u'| is.  Raises a bare ``DivergenceError`` when w reaches sup 1 (a
    small divisor has taken over; the grid sup is formed only once sum|w_k|,
    its bound, reaches 1); ``_iterate`` adds the failure record.  At a cold
    start, u = 0, the step is w itself for A = 1 and E = eps comp (the same
    values, but for the sign of a zero).
    """
    cold = not u.coeffs.any()
    A, E = FourierSeries.constant(1.0), _scaled(eps, comp, "eps f(id + u)")
    if not cold:
        A, E = A + derivative(u), E - apply(DELTA, u, freq)
    w = linearized_solve(A, E, freq)
    if np.abs(w.coeffs).sum() >= 1.0 and (w_sup := sup_norm(w)) >= 1.0:
        raise DivergenceError(f"Newton correction has sup {w_sup:.3g} >= 1; "
                              "a small divisor has taken over")
    return w if cold else u + product(A, w)


def _fit_slope(history) -> float:
    """Least-squares slope of log r_{n+1} against log r_n, pre-floor pairs.

    The floor on r_{n+1} is 1e-13, or 1e-15 when that leaves under 2 pairs.
    The closed-form slope is nan under 2 pairs or when all share one log r_n.
    """
    for floor in (1e-13, 1e-15):
        pairs = [(math.log10(a), math.log10(b))
                 for a, b in zip(history, history[1:]) if a > 0 and b >= floor]
        if len(pairs) >= 2:
            xs, ys = zip(*pairs)
            if min(xs) == max(xs):
                return math.nan
            xm, ym = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
            return (math.fsum((x - xm) * (y - ym) for x, y in pairs)
                    / math.fsum((x - xm) ** 2 for x in xs))
    return math.nan


def _fixed_point_defect(u, target):
    """Sup-norm of (u - <u>) - target, for target = eps E_q(f(id+u)).

    Because E_q delta = id - mean exactly, this vanishes precisely when the
    invariance error does (up to the mean gauge, which the normalization
    fixes at the end).  Unlike the raw error it never multiplies stored
    coefficients by the forward divisors q^k - 2 + q^{-k}, which grow like
    |q|^{-|k|} off the unit circle and would amplify round-off into a fake
    divergence signal.
    """
    N = max(u.N, target.N)
    d = _widen(u.coeffs, N) - _widen(target.coeffs, N)
    d[N] = -target.coeff(0)  # u - <u> is exactly 0 at mode 0
    return sup_norm(FourierSeries._of(d))


def solve_curve(f: FourierSeries, freq: Frequency, eps,
                config: SolverConfig | None = None,
                dioph: DiophantineClass | None = None) -> InvariantCurve:
    """Newton iteration from u = 0 (or ``config.seed``), then normalization.

    The entry checks, the loop, its stopping rule, its errors and the
    normalization are ``_iterate``'s, with ``newton_step`` as the step and
    ``config.max_iters`` as the budget.
    """
    return _iterate(f, freq, eps, config, dioph,
                    lambda u, comp, _, eps: newton_step(u, comp, freq, eps),
                    None, "newton", {})


def _iterate(f: FourierSeries, freq: Frequency, eps,
             config: SolverConfig | None, dioph: DiophantineClass | None,
             step, budget: int | None, method: str,
             diagnostics: dict) -> InvariantCurve:
    """The solve of every method: open, iterate, stop, normalize, report.

    Every method opens alike: the default ``SolverConfig``, a finite eps, a
    warning when the forcing has a mean and, for a ``dioph`` class,
    ``in_KM`` (warning when False) ahead of the method's ``diagnostics``.
    ``step(u, comp, target, eps)`` and ``budget`` (None for
    ``config.max_iters``) are all a method brings: the next iterate,
    untruncated, given comp = f(id + u) and target = eps E_q comp, the
    product the defect has just formed and checked.
    The loop stops when the gauge-fixed defect ||(u - <u>) - eps E_q comp||
    reaches ``config.tol``.  It is zero exactly when the invariance error
    is, and stays honest off the unit circle, where the raw error routes
    round-off through exponentially large multipliers (on the circle the
    two differ by a factor at most ||delta|| <= 4).  A cold start (no
    ``config.seed``) takes at least one step before the defect may accept.
    Raises ``DivergenceError`` when a defect grows ``DIVERGENCE_FACTOR``-fold
    and ``NoConvergenceError`` after ``budget`` steps (the expected failure
    near resonances, where no analytic curve exists).  Any ``KamforgeError``
    of the loop, normalization or v gains, after its own diagnostics, the
    entry ``diagnostics`` (which also open the report's), ``residual_history``,
    ``max_divisor`` and ``max_divisor_k`` (the largest |lambda_k| up to
    max(cutoff, f.N); inf at a resonance's k) and ``truncation_tail``, the
    largest coefficient the last truncation to ``config.cutoff`` dropped: a
    defect that plateaus near that tail is limited by the cutoff, not by the
    divisors.  The converged u is shifted to exact zero mean by
    u(theta - u0) - u0, which maps solutions to solutions.
    """
    config = config or SolverConfig()
    eps = require_finite(eps, "eps")
    if dioph is not None:
        diagnostics = {"in_KM": in_AMC(freq.omega, dioph), **diagnostics}
        if not diagnostics["in_KM"]:
            warnings.warn("frequency lies outside the truncated Diophantine "
                          "set; convergence is not covered by the certified "
                          "regime", RuntimeWarning, stacklevel=3)
    fmean = abs(mean(f))  # the scale max(sup|f|, 1) is >= 1: no FFT below 1e-13
    if fmean > 1e-13 and fmean > 1e-13 * max(sup_norm(f), 1.0):
        warnings.warn(f"forcing has mean {fmean:.3e}; the invariance equation"
                      " is obstructed at first order", RuntimeWarning,
                      stacklevel=3)
    budget = config.max_iters if budget is None else budget
    cold = config.seed is None
    u = FourierSeries.zero(0) if cold else config.seed
    history: list[float] = []
    tails: list[float] = []
    t_tail = 0.0
    try:
        for it in range(budget + 1):
            comp, crep = compose_id_plus(f, u)
            tails.append(crep.aliasing_tail)
            target = _scaled(eps, apply(E_Q, comp, freq), "eps E_q f(id + u)")
            r = _fixed_point_defect(u, target)
            history.append(r)
            # the zero seed's defect eps |E_q f| is O(eps |q|) off the circle,
            # below tol far out, while v = (1 - q^{-k}) u needs the tiny modes
            if r <= config.tol and (it > 0 or not cold):
                break
            if len(history) >= 2 and r > DIVERGENCE_FACTOR * history[-2]:
                raise DivergenceError(
                    f"residual grew {r / history[-2]:.2g}x at iteration {it}")
            if it == budget:
                raise NoConvergenceError(
                    f"no convergence to {config.tol:.1e} within {budget} "
                    f"iterations (last residual {history[-1]:.3e})")
            u, t_tail = truncate(step(u, comp, target, eps), config.cutoff)
            tails.append(t_tail)
            u = clamp_small(u)

        # normalization: u~(theta) = u(theta - u0) - u0 (exactly mean-killing)
        u0 = mean(u)
        if u0 != 0:
            shifted, _ = compose_id_plus(u, FourierSeries.constant(-u0))
            c = shifted.coeffs.copy()
            c[shifted.N] = 0.0  # the "- u0": the mean is analytically zero
            u = FourierSeries._of(c)
        comp_n, crep_n = compose_id_plus(f, u)
        tails.append(crep_n.aliasing_tail)
        post = _fixed_point_defect(u, _scaled(eps, apply(E_Q, comp_n, freq),
                                              "eps E_q f(id + u)"))
        v = apply(NABLA_MINUS, u, freq)
    except KamforgeError as exc:
        res = exc if isinstance(exc, ResonanceError) else None
        try:
            lam, k = max_divisor_magnitude(freq, max(config.cutoff, f.N))
        except ResonanceError as caught:
            res = caught
        if res is not None:  # its table cannot be read: inf at the vanished k
            lam, k = math.inf, res.diagnostics["k"]
        exc.diagnostics.update(jsonio.encode({
            **diagnostics, "residual_history": history, "max_divisor": lam,
            "max_divisor_k": k, "truncation_tail": t_tail}))
        raise

    report = SolveReport(
        method=method, converged=True, iterations=len(history) - 1,
        residual_history=history, quadratic_fit_slope=_fit_slope(history),
        beta=eps * mean(comp_n), aliasing_tail=max(tails),
        diagnostics={**diagnostics, "post_normalization_residual": post})
    return InvariantCurve(u=u, v=v, freq=freq, eps=eps, report=report, f=f)


# ---------------------------------------------------------------------------
# verification functionals


def dynamical_residual(curve: InvariantCurve, grid_n: int = 1024) -> float:
    """Sup over a real grid of |gamma(theta+omega) - T_eps(gamma(theta))|.

    The x-component is compared modulo 1 (angles); f is evaluated through
    its holomorphic extension when the curve is complex.  u and v are FFT
    grid samples (at theta + omega through SHIFT_PLUS); only f(x) is not.
    """
    freq = curve.freq
    om = freq.omega
    require_int(grid_n, "grid_n", 1)
    theta = np.arange(grid_n) / grid_n
    x = theta + grid_values(curve.u, grid_n)
    y = om + grid_values(curve.v, grid_n)
    fx = evaluate(curve.f, x)
    x1 = x + y + complex(curve.eps) * fx
    y1 = y + complex(curve.eps) * fx
    xw = theta + om + grid_values(apply(SHIFT_PLUS, curve.u, freq), grid_n)
    yw = om + grid_values(apply(SHIFT_PLUS, curve.v, freq), grid_n)
    dx = xw - x1
    dx = dx - np.round(dx.real)  # angle component modulo 1
    dy = yw - y1
    return float(max(np.max(np.abs(dx)), np.max(np.abs(dy))))


def mean_identity_residual(u: FourierSeries, f: FourierSeries,
                           freq: Frequency, eps) -> float:
    """|<(1 + u') E(u)>| with E(u) = eps f(id + u) - delta u; it vanishes
    identically for ANY u (not only solutions).

    What it actually measures numerically is composition aliasing; a
    nonzero forcing mean shows up here as |eps <f>|.
    """
    comp, _ = compose_id_plus(f, u)
    E = complex(eps) * comp - apply(DELTA, u, freq)
    A = FourierSeries.constant(1.0) + derivative(u)
    return abs(mean(product(A, E)))

