"""Solutions away from the unit multiplier circle, three ways.

For |q| != 1 the invariance equation is equivalent to the fixed point

    u = eps E_q ( f(id + u) ),

which a Picard iteration contracts to for moderate eps (the divisor
operator E_q is bounded once q keeps a margin from the circle).  Near
q = 0 the same solution has a convergent Taylor expansion u = sum q^n u_n
whose orders obey an explicit recursion with two rigid structure laws:
u_n has no modes beyond |k| = n, and its extreme modes carry exactly
eps f_{+-n} — which is what makes the "inverse scattering" readout of f
from the solution family possible.  Cross-checking these against the
Newton solver (which does not need |q| != 1) is the practical meaning of
analytic continuation through the circle: all three must agree wherever
two of them are defined.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import KamforgeError, OverflowRiskError
from .fourier import (
    FourierSeries,
    composition_jet,
    finite_scalar,
    sup_norm,
)
from .frequency import Frequency, reflected
from .kam import (InvariantCurve, SolverConfig, _iterate, dynamical_residual,
                  solve_curve)

TAYLOR_ORDER_CAP = 60
PICARD_MAX_ITERS = 200    # Picard iteration budget
PICARD_MARGIN = 0.05      # smallest | |q| - 1 | at which Picard runs


@dataclass
class QTaylorData:
    """Orders u_1..u_Nq of the expansion u = sum q^n u_n at q = 0.

    Invariants (both exact by construction, asserted in tests): u_n has no
    modes beyond |k| = n; coeff(u_n, +-n) = eps * coeff(f_ref, +-n).
    """

    eps: complex
    f_ref: FourierSeries
    orders: list

    def order(self, n: int) -> FourierSeries:
        return self.orders[n - 1]

    @classmethod
    def from_json_dict(cls, d: dict) -> "QTaylorData":
        return cls(
            orders=[FourierSeries.from_json_dict(o) for o in d["orders"]],
            eps=complex(jsonio.to_complex([d["eps"]])[0]),
            f_ref=FourierSeries.from_json_dict(d["f_ref"]),
        )


# ---------------------------------------------------------------------------
# Picard fixed point


def picard_solve(f: FourierSeries, freq: Frequency, eps,
                 config: SolverConfig | None = None):
    """Iterate u <- eps E_q(f(id + u)) to its fixed point.

    Runs ``kam._iterate`` with this map as the step, so it honours
    ``config.seed``, records the gauge-fixed defect (for the zero-mean
    iterates, the next sup-difference) and raises Newton's errors, with
    ``q_modulus`` as their entry diagnostics.  Returns ``(u, SolveReport)``
    with u of zero mean; ``report.beta`` is the mean defect eps <f(id+u)>,
    an exact zero at the fixed point, so its size measures truncation only.
    Requires | |q| - 1 | >= ``PICARD_MARGIN`` or a gap ``math.isclose`` to
    it (|q| = 0.95 rounds to either side with its phase), and takes at most
    ``PICARD_MAX_ITERS`` steps.
    """
    curve = _picard_curve(f, freq, eps, config)
    return curve.u, curve.report


def _picard_curve(f: FourierSeries, freq: Frequency, eps,
                  config: SolverConfig | None = None) -> InvariantCurve:
    """``picard_solve``'s whole curve, v and the forcing included.  |q| is
    finite and nonzero: ``from_omega`` keeps |log_scale| <= ``EXP_CAP``."""
    config = config or SolverConfig()
    eps = finite_scalar(eps, "eps")
    modulus = math.exp(-freq.log_scale)
    gap = abs(modulus - 1.0)
    if gap < PICARD_MARGIN and not math.isclose(gap, PICARD_MARGIN):
        raise ValueError(
            f"|q| = {modulus:.6g} is within {PICARD_MARGIN} of the unit "
            "circle; the Picard contraction is not certified there"
        )
    return _iterate(f, freq, eps, config,
                    lambda u, comp, target: target,
                    PICARD_MAX_ITERS, "picard", {"q_modulus": modulus})


# ---------------------------------------------------------------------------
# Taylor orders at q = 0


def taylor0_recursion(f: FourierSeries, eps, N_q: int = 40) -> QTaylorData:
    """Orders u_1..u_Nq of the solution's expansion at q = 0.

    Expanding both sides of u = eps E_q(f(id + u)) in q gives

        u_n = eps sum_{n0=1}^{n} E^(n0) [f(id+u)]_{n-n0},   [f(id+u)]_0 = f,

    where [f(id+u)]_s, the q^s coefficient of the composition, depends on
    u_1..u_s only.  ``composition_jet`` supplies it one order at a time, so
    the cost is polynomial in N_q; the order cap bounds the desk-scale
    budget.  E^(n0) keeps the modes +-m, m | n0, weighted by n0/m = s, so
    u_n[+-m] = eps sum_{s m <= n} s [f(id+u)]_{n-s m}[+-m]: one gather per
    mode, on the cutoff max_{n0} min(n0, N([f(id+u)]_{n-n0})) that the n
    pieces E^(n0) give.  E^(n) breaks f's mode lattice, so the jet runs at
    stride 1.  Raises ``OverflowRiskError`` when an order stops being finite.
    """
    N_q = int(N_q)
    if N_q < 1:
        raise ValueError("need at least one order")
    if N_q > TAYLOR_ORDER_CAP:
        raise ValueError(
            f"N_q = {N_q} exceeds the order cap {TAYLOR_ORDER_CAP}")
    eps = finite_scalar(eps, "eps")
    jet = composition_jet(f.coeffs)
    # low[s] holds modes -N_q..N_q of [f(id+u)]_s, cut[s] its cutoff
    low = np.zeros((N_q, 2 * N_q + 1), dtype=np.complex128)
    cut: list = []
    orders: list = []
    # an overflowing order surfaces as the typed error below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, N_q + 1):
            comp = next(jet) if n == 1 else jet.send(orders[-1].coeffs)
            cut.append((comp.size - 1) // 2)
            w = min(cut[-1], N_q)
            low[n - 1, N_q - w:N_q + w + 1] = comp[cut[-1] - w:cut[-1] + w + 1]
            Nn = max(min(n0, cut[n - n0]) for n0 in range(1, n + 1))
            total = np.zeros(2 * Nn + 1, dtype=np.complex128)
            for m in range(1, Nn + 1):    # modes -m and m, rows n - s m
                total[Nn - m:Nn + m + 1:2 * m] = np.arange(1, n // m + 1) @ (
                    low[n - m::-m, N_q - m:N_q + m + 1:2 * m])
            total *= eps
            if not np.isfinite(total).all():
                raise OverflowRiskError(f"Taylor order {n} overflowed",
                                        {"order": n})
            orders.append(FourierSeries._of(total))
    return QTaylorData(eps=eps, f_ref=f, orders=orders)


def taylor0_eval(data: QTaylorData, q, with_info: bool = False):
    """Partial sum sum_n q^n u_n over the available orders.

    The sum accumulates in one array at the widest cutoff; a term's norm is
    |q^n| sup|u_n|, one ``sup_norm`` per order.  Warns when the term
    magnitudes stop decaying (the partial sums are then not Cauchy at this
    q).  With ``with_info=True`` also returns the term norms, the last-term
    truncation indicator, and the root-test line |u_n|^(1/n) — reported
    without any threshold.
    """
    qq = complex(q)
    if not abs(qq) < 1.0:  # refuses a NaN q too
        raise ValueError(
            f"Taylor data at q = 0 is only summable for |q| < 1, got q = {qq}")
    N = max((un.N for un in data.orders), default=0)
    acc = np.zeros(2 * N + 1, dtype=np.complex128)
    qn = 1.0 + 0.0j
    term_norms = []
    order_norms = []
    for un in data.orders:
        qn = qn * qq
        acc[N - un.N:N + un.N + 1] += un.coeffs * qn
        order_norms.append(sup_norm(un))
        term_norms.append(abs(qn) * order_norms[-1])
    last = term_norms[-1] if term_norms else 0.0
    scale = max(term_norms) if term_norms else 0.0
    if len(term_norms) >= 6 and scale > 0:
        head = term_norms[-6]
        if last > 1e-15 * scale and head > 0 and last > 0.9 * head:
            warnings.warn(
                f"Taylor partial sums not decaying at q = {qq:.4g} "
                f"(last term {last:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
    acc = FourierSeries._of(acc)
    if not with_info:
        return acc
    root_test = [nn ** (1.0 / n) if nn > 0 else 0.0
                 for n, nn in enumerate(order_norms, start=1)]
    info = {
        "last_term": last,
        "term_norms": term_norms,
        "order_norms": order_norms,
        "root_test": root_test,
    }
    return acc, info


def inverse_scattering(data: QTaylorData) -> FourierSeries:
    """Read eps*f back out of the orders: coefficient k comes from u_{|k|}.

    The top-coefficient law makes coeff(u_{|k|}, k) = eps f_k, so the
    returned series equals eps * f_ref on the recovered range (mode 0 is
    zero: the orders are mean-free).
    """
    K = len(data.orders)
    out = np.zeros(2 * K + 1, dtype=np.complex128)
    for k in range(1, K + 1):
        un = data.order(k)
        out[k + K] = un.coeff(k)
        out[-k + K] = un.coeff(-k)
    return FourierSeries(out)


# ---------------------------------------------------------------------------
# cross-method agreement


CROSSCHECK_METHODS = ("newton", "picard", "taylor0")


def crosscheck(f: FourierSeries, freq: Frequency, eps,
               methods=CROSSCHECK_METHODS,
               config: SolverConfig | None = None,
               n_taylor: int = 40,
               taylor_data: QTaylorData | None = None) -> dict:
    """Run the requested solvers at one (q, eps) and compare them pairwise.

    Methods whose preconditions fail are recorded as skipped with a notice
    (Picard on the unit circle, Taylor-at-0 outside |q| < 1); solver errors
    are recorded as failed, with their diagnostics.  A non-finite eps, an
    empty ``methods``, a name outside ``CROSSCHECK_METHODS``, a repeated
    name, or ``taylor0`` with ``n_taylor`` outside [1, ``TAYLOR_ORDER_CAP``]
    raises ``ValueError`` before any solve.  Every method returns a
    zero-mean u, so the solutions are compared as they are.  Returns a
    report dict with per-method status and pairwise sup-norm differences.
    """
    config = config or SolverConfig()
    eps = finite_scalar(eps, "eps")
    unknown = [m for m in methods if m not in CROSSCHECK_METHODS]
    if unknown or not methods:
        what = f"unknown methods {unknown}" if unknown else "no methods given"
        raise ValueError(
            f"{what}; choose from {', '.join(CROSSCHECK_METHODS)}")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ValueError(f"methods {repeated} given more than once; "
                         "each method runs once")
    if "taylor0" in methods and not 1 <= n_taylor <= TAYLOR_ORDER_CAP:
        raise ValueError(f"n_taylor must lie in [1, {TAYLOR_ORDER_CAP}], "
                         f"got {n_taylor}")
    status: dict = {}
    solutions: dict = {}

    for name in methods:
        try:
            if name == "newton":
                curve = solve_curve(f, freq, eps, config)
                solutions[name] = curve.u
                status[name] = {
                    "status": "ok",
                    "iterations": curve.report.iterations,
                    "residual": curve.report.residual_history[-1],
                    "dynamical_residual": dynamical_residual(curve, 1024),
                }
            elif name == "picard":
                u, rep = picard_solve(f, freq, eps, config)
                solutions[name] = u
                status[name] = {
                    "status": "ok",
                    "iterations": rep.iterations,
                    "beta": abs(rep.beta),
                }
            else:  # taylor0
                if freq.chart != "inner" or abs(freq.coord) >= 1.0:
                    raise ValueError(
                        "taylor0 needs |q| < 1 (inner chart, off the circle)"
                    )
                data = taylor_data
                if data is None or data.f_ref is not f or data.eps != eps:
                    data = taylor0_recursion(f, eps, N_q=n_taylor)
                solutions[name] = taylor0_eval(data, freq.coord)
                status[name] = {"status": "ok", "orders": len(data.orders)}
        except ValueError as exc:
            status[name] = {"status": "skipped", "note": str(exc)}
        except KamforgeError as exc:
            status[name] = {"status": "failed", "note": str(exc),
                            "diagnostics": exc.diagnostics}

    pairs: dict = {}
    names = [n for n in methods if n in solutions]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pairs[f"{a}_vs_{b}"] = sup_norm(solutions[a] - solutions[b])
    return {"methods": status, "pairs": pairs}


def conjugate_reflection_check(f: FourierSeries, freq: Frequency, eps,
                               config: SolverConfig | None = None) -> float:
    """Defect of the real-symmetry pairing between q and 1/conj(q).

    Solves at omega and at conj(omega) and returns
    max_k |conj(u_k(q)) - u'_{-k}(1/conj(q))| — zero for exact arithmetic
    when f is real-symmetric and eps real.
    """
    fN = f.N
    sym_defect = max(
        abs(np.conj(f.coeff(k)) - f.coeff(-k)) for k in range(fN + 1)
    )
    if sym_defect > 1e-13:
        warnings.warn("f is not real-symmetric; the pairing law need not hold",
                      RuntimeWarning, stacklevel=2)
    if abs(complex(eps).imag) > 1e-15:
        warnings.warn("eps is not real; the pairing law need not hold",
                      RuntimeWarning, stacklevel=2)
    c1 = solve_curve(f, freq, eps, config)
    c2 = solve_curve(f, reflected(freq), eps, config)
    # mode k of pair is conj(u_{-k}(q)) - u'_k(1/conj(q))
    pair = FourierSeries._of(np.conj(c1.u.coeffs[::-1])) - c2.u
    return float(np.max(np.abs(pair.coeffs)))
