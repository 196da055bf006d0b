"""Command-line interface: batch computation and data emission.

Subcommands
-----------
solve        one invariant-curve solve (newton or picard); JSON + CSV artifacts
sweep        grid of solves over frequency (and optionally eps); JSON-lines
geometry     excluded-gap geometry of a truncated Diophantine class
obstruction  formal series at a rational frequency: first obstructed order
taylor0      Taylor coefficients in q at q = 0, optional evaluation at a point
crosscheck   run several methods at one point and report pairwise gaps
verify       run the named invariant / acceptance check suites

All JSON output goes through ``jsonio``, and JSON and CSV alike print
floats as their ``repr``, so artifacts round-trip exactly and sweeps are
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import jsonio
from .continuation import crosscheck as run_crosscheck
from .continuation import (PICARD_MAX_ITERS, _picard_curve, taylor0_eval,
                           taylor0_recursion)
from .errors import KamforgeError
from .fourier import FourierSeries, _widen, sup_norm, truncate
from .frequency import (
    DiophantineClass,
    Frequency,
    SampledFamily,
    export_set_geometry,
    from_omega,
    from_q,
)
from .kam import (DIVERGENCE_FACTOR, InvariantCurve, SolverConfig,
                  dynamical_residual, omega_tangent, solve_curve)
from .obstruction import RationalFreq, obstruction_order


# ---------------------------------------------------------------------------
# arguments


def parse_series(text: str) -> FourierSeries:
    """'cos', a JSON file holding a series, or an inline JSON array."""
    if text == "cos":
        return FourierSeries.cos()
    is_path = os.path.exists(text)
    if not (is_path or text.lstrip().startswith("[")):
        raise ValueError(
            f"--f must be 'cos', an inline JSON array, or a path: {text!r}")
    try:
        obj = jsonio.load_path(text) if is_path else jsonio.loads(text)
        if isinstance(obj, dict):
            return FourierSeries.from_json_dict(obj)
        return FourierSeries(jsonio.to_complex(obj))
    except ValueError as exc:
        raise ValueError(f"--f {text!r}: {exc}") from None


def _complex_option(args, re: str, im: str) -> complex | None:
    """complex(args.<re>, args.<im>), or None without the real part, where
    an imaginary part alone belongs to no form and is refused."""
    x, y = getattr(args, re), getattr(args, im)
    if x is None and y is not None:
        raise ValueError(f"--{im.replace('_', '-')} is given without "
                         f"--{re.replace('_', '-')}")
    return None if x is None else complex(x, 0.0 if y is None else y)


def _frequency_from_args(args) -> Frequency:
    """The one frequency form given: --omega [--omega-im] or --q-re [--q-im]."""
    omega = _complex_option(args, "omega", "omega_im")
    q = _complex_option(args, "q_re", "q_im")
    if (omega is None) == (q is None):
        raise ValueError(
            "exactly one frequency form must be given: "
            "--omega [--omega-im] or --q-re [--q-im]")
    return from_q(q) if omega is None else from_omega(omega)


def _error_payload(exc: Exception) -> dict:
    err = {"type": type(exc).__name__, "message": str(exc)}
    diag = getattr(exc, "diagnostics", None)
    if diag:
        err["diagnostics"] = diag
    return {"error": err}


# ---------------------------------------------------------------------------
# solve


def _solve_with_method(f, freq, eps, cfg: SolverConfig, method: str,
                       dioph=None) -> InvariantCurve:
    if method == "picard":
        return _picard_curve(f, freq, eps, cfg)
    return solve_curve(f, freq, eps, cfg, dioph=dioph)


def _write_csv(path: str, curve: InvariantCurve, grid_n: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "x_re", "x_im", "y_re", "y_im"])
        w.writerows(curve.csv_rows(grid_n))


def cmd_solve(args) -> int:
    f = parse_series(args.f)
    freq = _frequency_from_args(args)
    dioph = None
    if args.M is not None:
        dioph = DiophantineClass(args.M, args.tau, args.mmax)
    cfg = SolverConfig(cutoff=args.modes, tol=args.tol,
                       max_iters=args.max_iters)
    t0 = time.perf_counter()
    curve = _solve_with_method(f, freq, complex(args.eps, args.eps_im),
                               cfg, args.method, dioph=dioph)
    secs = time.perf_counter() - t0
    dyn = dynamical_residual(curve, 1024)
    for i, r in enumerate(curve.report.residual_history):
        print(f"iter {i:3d}  residual {r:.6e}")
    rep = curve.report
    print(f"method={rep.method} converged={rep.converged} "
          f"iterations={rep.iterations} time={secs:.2f}s")
    print(f"beta = {rep.beta.real!r} + {rep.beta.imag!r}i")
    print(f"dynamical residual (1024-point grid) = {dyn:.6e}")
    jsonio.dump_path(curve.to_json_dict(dynamical=dyn), args.out)
    csv_path = args.csv or os.path.splitext(args.out)[0] + ".csv"
    _write_csv(csv_path, curve, args.grid_n)
    print(f"wrote {args.out} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_point(task) -> dict:
    idx, om, eps, f, modes, tol, max_iters, method = task
    freq = from_omega(om)
    rec = {
        "index": idx,
        "omega": om,
        "q": freq.q,
        "chart": freq.chart,
        "eps": eps,
    }
    cfg = SolverConfig(cutoff=modes, tol=tol, max_iters=max_iters)
    try:
        curve = _solve_with_method(f, freq, eps, cfg, method)
        dyn = dynamical_residual(curve, 512)
        rec["status"] = "converged"
        rec["iterations"] = curve.report.iterations
        rec["residual"] = curve.report.residual_history[-1]
        rec["beta"] = curve.report.beta
        rec["dynamical_residual"] = dyn
        rec["u"] = curve.u
    except (KamforgeError, ValueError) as exc:
        rec["status"] = "failed"
        rec["error"] = _error_payload(exc)["error"]
    return jsonio.encode(rec)


def _family_from_records(records) -> SampledFamily:
    """Converged u-vectors at their common cutoff N, each with du/d omega:
    ``kam.omega_tangent`` cut to N, or None where that solve raises a
    ``KamforgeError``."""
    series = [(from_omega(jsonio.to_complex([rec["omega"]])[0]),
               FourierSeries.from_json_dict(rec["u"]))
              for rec in records if rec["status"] == "converged"]
    N = max((s.N for _, s in series), default=0)
    fam = SampledFamily(points=[fr for fr, _ in series], derivs=[],
                        values=[_widen(s.coeffs, N) for _, s in series])
    for fr, u in zip(fam.points, fam.values):
        try:
            h, _ = truncate(omega_tangent(FourierSeries._of(u), fr), N)
            fam.derivs.append(h.coeffs)
        except KamforgeError:
            fam.derivs.append(None)
    return fam


def run_sweep(*, omega_re, omega_im, eps, f, modes=64, tol=1e-12,
              max_iters=30, workers=1, out_path, family_path=None,
              eps_axis=None, method="newton") -> dict:
    """Run the grid, write JSON-lines records sorted by grid index.

    ``omega_re`` / ``omega_im`` are (min, max, count) axes; ``eps_axis``
    optionally replaces the single ``eps`` by a (min, max, count) axis.
    Records are computed by a deterministic pure function per point, so the
    files are byte-identical for any worker count.
    """
    re0, re1, n_re = omega_re
    im0, im1, n_im = omega_im
    res = np.linspace(float(re0), float(re1), int(n_re))
    ims = np.linspace(float(im0), float(im1), int(n_im))
    if eps_axis is not None:
        e0, e1, n_e = eps_axis
        eps_vals = [complex(e) for e in np.linspace(float(e0), float(e1),
                                                    int(n_e))]
    else:
        eps_vals = [complex(eps)]
    tasks = []
    idx = 0
    for a in res:
        for b in ims:
            from_omega(complex(a, b))  # refuse past the cap before any solve
            for e in eps_vals:
                tasks.append((idx, complex(a, b), e, f, modes, tol,
                              max_iters, method))
                idx += 1
    workers = min(workers, len(tasks))
    if workers <= 1:
        records = [_sweep_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            records = list(ex.map(_sweep_point, tasks, chunksize=1))
    with open(out_path, "w") as fh:
        for rec in records:
            fh.write(jsonio.dumps(rec) + "\n")
    if family_path is not None:
        fam = _family_from_records(records)
        jsonio.dump_path(fam.to_json_dict(), family_path)
    n_conv = sum(r["status"] == "converged" for r in records)
    return {"total": len(records), "converged": n_conv,
            "failed": len(records) - n_conv, "out": out_path,
            "family": family_path, "workers": workers}


def cmd_sweep(args) -> int:
    f = parse_series(args.f)
    eps_axis = None
    if args.eps_n is not None:
        if args.eps_min is None or args.eps_max is None:
            raise ValueError("--eps-n requires --eps-min and --eps-max")
        eps_axis = (args.eps_min, args.eps_max, args.eps_n)
    summary = run_sweep(
        omega_re=(args.omega_min, args.omega_max, args.omega_n),
        omega_im=(args.im_min, args.im_max, args.im_n),
        eps=complex(args.eps, args.eps_im), eps_axis=eps_axis, f=f,
        modes=args.modes, tol=args.tol, max_iters=args.max_iters,
        workers=args.workers, out_path=args.out, family_path=args.family,
        method=args.method)
    print(f"sweep: {summary['converged']}/{summary['total']} points "
          f"converged ({summary['workers']} workers)")
    print(f"wrote {summary['out']}"
          + (f" and {summary['family']}" if summary["family"] else ""))
    if summary["total"] > 0 and summary["converged"] == 0:
        print("all points failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# geometry / obstruction / taylor0 / crosscheck / verify


def cmd_geometry(args) -> int:
    cls = DiophantineClass(args.M, args.tau, args.mmax)
    geo = export_set_geometry(cls, boundary_n=args.boundary_n)
    jsonio.dump_path(geo.to_json_dict(), args.out)
    bound = cls.measure_bound()
    print(f"M={args.M} tau={args.tau} m_max={args.mmax}")
    print(f"excluded measure = {geo.total_gap_measure:.10f}")
    print(f"harmonic-series bound = {bound:.10f} "
          f"(within bound: {geo.total_gap_measure <= bound})")
    print(f"components = {geo.gap_lo.size}, "
          f"first untested denominator = {geo.first_untested_denominator}")
    print(f"wrote {args.out}")
    return 0


def cmd_obstruction(args) -> int:
    f = parse_series(args.f)
    rf = RationalFreq(args.p, args.m)
    rep = obstruction_order(f, rf, max_order=args.max_order,
                            threshold=args.threshold,
                            exactness=args.exactness)
    jsonio.dump_path(jsonio.encode(rep), args.out)
    if rep.n_star is None:
        print(f"p/m = {rf.p}/{rf.m}: no obstruction through order "
              f"{rep.orders_computed}")
    else:
        print(f"p/m = {rf.p}/{rf.m}: first obstructed order n* = {rep.n_star}")
        print(f"witness norm = {rep.witness_norm:.6e} "
              f"(threshold {rep.threshold:.3e})")
        print(f"gamma(n*) engine vs oracle relative gap = "
              f"{rep.relative_gap:.3e}")
    print(f"wrote {args.out}")
    return 0


def cmd_taylor0(args) -> int:
    f = parse_series(args.f)
    q = _complex_option(args, "q_re", "q_im")
    eps = complex(args.eps, args.eps_im)
    data = taylor0_recursion(f, eps, N_q=args.orders)
    payload = {"data": jsonio.encode(data)}
    if q is not None:
        u, info = taylor0_eval(data, q, with_info=True)
        payload["eval"] = jsonio.encode({
            "q": q,
            "u": u,
            "last_term": info["last_term"],
            "term_norms": info["term_norms"],
            "root_test": info["root_test"],
        })
        print(f"order-{args.orders} evaluation at q = {q}: "
              f"sup norm {sup_norm(u):.6e}, "
              f"last term {info['last_term']:.3e}")
    order_norms = [sup_norm(un) for un in data.orders]
    print(f"computed {len(data.orders)} orders; "
          f"||u_1|| = {order_norms[0]:.3e}, "
          f"||u_{len(order_norms)}|| = {order_norms[-1]:.3e}")
    jsonio.dump_path(payload, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_crosscheck(args) -> int:
    f = parse_series(args.f)
    freq = _frequency_from_args(args)
    cfg = SolverConfig(cutoff=args.modes, tol=args.tol,
                       max_iters=args.max_iters)
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    result = run_crosscheck(f, freq, complex(args.eps, args.eps_im),
                            methods=methods, config=cfg,
                            n_taylor=args.orders)
    jsonio.dump_path(result, args.out)
    failed = False
    for name, m in result["methods"].items():
        status = m["status"]
        failed = failed or status == "failed"
        extra = ""
        if "note" in m:
            extra = f" ({m['note']})"
        print(f"{name}: {status}{extra}")
    for pair, d in sorted(result["pairs"].items()):
        print(f"{pair}: sup diff = {d:.3e}")
    print(f"wrote {args.out}")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    from .verify import format_table, run_suite

    results = run_suite(args.suite)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_freq_args(sp) -> None:
    sp.add_argument("--omega", type=float, default=None,
                    help="rotation number (real part)")
    sp.add_argument("--omega-im", type=float, default=None,
                    help="imaginary part of omega (default 0)")
    sp.add_argument("--q-re", type=float, default=None,
                    help="multiplier q = exp(2 pi i omega), real part")
    sp.add_argument("--q-im", type=float, default=None,
                    help="multiplier q, imaginary part (default 0)")


def _finite_float(text: str) -> float:
    """argparse type of the eps options and --threshold: a finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return x


def _positive_int(text: str) -> int:
    """argparse type of every count option (--workers, --grid-n, the grid
    sizes --omega-n, --im-n, --eps-n and --boundary-n): an integer >= 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_eps_args(sp) -> None:
    sp.add_argument("--eps", type=_finite_float, default=0.05,
                    help="perturbation strength (real part)")
    sp.add_argument("--eps-im", type=_finite_float, default=0.0,
                    help="imaginary part of eps")


def _add_solver_args(sp, modes=256) -> None:
    sp.add_argument("--modes", type=int, default=modes,
                    help="Fourier mode cutoff")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--max-iters", type=int, default=30,
                    help="Newton iteration budget; --method picard always "
                         f"takes up to {PICARD_MAX_ITERS} steps, stopping "
                         "early when the residual grows more than "
                         f"{DIVERGENCE_FACTOR:g}x in one step")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kamforge",
        description="Invariant curves of the standard twist-map family: "
                    "solves, sweeps, Diophantine geometry, and the rational "
                    "obstruction, as batch commands emitting JSON/CSV.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve one invariant curve")
    _add_freq_args(sp)
    _add_eps_args(sp)
    sp.add_argument("--f", default="cos",
                    help="forcing: 'cos', inline JSON array, or JSON file")
    sp.add_argument("--method", choices=("newton", "picard"),
                    default="newton")
    _add_solver_args(sp)
    sp.add_argument("--out", default="curve.json")
    sp.add_argument("--csv", default=None,
                    help="CSV sample path (default: out with .csv)")
    sp.add_argument("--grid-n", type=_positive_int, default=256,
                    help="CSV sample count")
    sp.add_argument("--M", type=float, default=None,
                    help="check omega against this Diophantine class")
    sp.add_argument("--tau", type=float, default=0.5)
    sp.add_argument("--mmax", type=int, default=2000)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="grid of solves over frequency")
    sp.add_argument("--omega-min", type=float, required=True)
    sp.add_argument("--omega-max", type=float, required=True)
    sp.add_argument("--omega-n", type=_positive_int, required=True)
    sp.add_argument("--im-min", type=float, default=0.0)
    sp.add_argument("--im-max", type=float, default=0.0)
    sp.add_argument("--im-n", type=_positive_int, default=1)
    _add_eps_args(sp)
    sp.add_argument("--eps-min", type=_finite_float, default=None)
    sp.add_argument("--eps-max", type=_finite_float, default=None)
    sp.add_argument("--eps-n", type=_positive_int, default=None,
                    help="sweep eps too, over (--eps-min, --eps-max)")
    sp.add_argument("--f", default="cos")
    sp.add_argument("--method", choices=("newton", "picard"),
                    default="newton")
    _add_solver_args(sp, modes=64)
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="process count (at most one per grid point)")
    sp.add_argument("--out", default="sweep.jsonl")
    sp.add_argument("--family", default=None,
                    help="also write the converged u-vectors as a sampled "
                         "family with their exact omega-derivatives")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("geometry",
                        help="excluded gaps of a truncated Diophantine class")
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--tau", type=float, default=0.5)
    sp.add_argument("--mmax", type=int, default=2000)
    sp.add_argument("--boundary-n", type=_positive_int, default=512)
    sp.add_argument("--out", default="geometry.json")
    sp.set_defaults(func=cmd_geometry)

    sp = sub.add_parser("obstruction",
                        help="formal obstruction at a rational frequency")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--f", default="cos")
    sp.add_argument("--max-order", type=int, default=None)
    sp.add_argument("--threshold", type=_finite_float, default=None)
    sp.add_argument("--exactness", choices=("float", "extended"),
                    default="float")
    sp.add_argument("--out", default="obstruction.json")
    sp.set_defaults(func=cmd_obstruction)

    sp = sub.add_parser("taylor0", help="Taylor-in-q data at q = 0")
    sp.add_argument("--f", default="cos")
    _add_eps_args(sp)
    sp.add_argument("--orders", type=int, default=40)
    sp.add_argument("--q-re", type=float, default=None,
                    help="evaluate the polynomial at this q")
    sp.add_argument("--q-im", type=float, default=None)
    sp.add_argument("--out", default="taylor0.json")
    sp.set_defaults(func=cmd_taylor0)

    sp = sub.add_parser("crosscheck",
                        help="pairwise method agreement at one point")
    _add_freq_args(sp)
    _add_eps_args(sp)
    sp.add_argument("--f", default="cos")
    sp.add_argument("--methods", default="newton,picard,taylor0")
    sp.add_argument("--orders", type=int, default=40)
    _add_solver_args(sp)
    sp.add_argument("--out", default="crosscheck.json")
    sp.set_defaults(func=cmd_crosscheck)

    sp = sub.add_parser("verify", help="run the named check suites")
    sp.add_argument("--suite", choices=("invariants", "acceptance", "all"),
                    default="all")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    """Exit 2 with ``error:`` on bad input or an unusable path, and 1 on a
    ``KamforgeError``, whose error JSON goes to stdout and, if it can, --out."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KamforgeError as exc:
        payload = _error_payload(exc)
        print(jsonio.dumps(payload))
        print(f"{args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        try:
            jsonio.dump_path(payload, args.out)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
