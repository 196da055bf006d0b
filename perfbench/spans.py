"""Traced runs: spans and counters around kamforge's public functions.

Every layer is measured from outside the package.  A wrapper replaces each
public function under every name that refers to it in any loaded kamforge
module: ``kam``, ``continuation``, ``cli`` and ``operators`` bind these
functions with ``from .fourier import ...`` (``cli`` even renames
``crosscheck``), so rebinding only the defining module would let those calls
bypass the wrapper.  Calls made inside the defining module (``compose_id_plus``
calling ``evaluate``) go through the module global and are caught as well.

A span is ``[name id, start, end, parent span, task id]``; spans stay in
memory and are written out once the run ends.  A layer's self time is its
span durations minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

import kamforge
from kamforge import cli, continuation, fourier, frequency, jsonio, kam
from kamforge import obstruction, operators

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("fourier.evaluate.calls", "count", "lower"),
    ("fourier.evaluate.self_s", "s", "lower"),
    ("fourier.evaluate.point_modes", "count", "lower"),
    ("fourier.evaluate.bytes_computed", "bytes", "lower"),
    ("fourier.compose_id_plus.calls", "count", "lower"),
    ("fourier.compose_id_plus.self_s", "s", "lower"),
    ("fourier.compose_id_plus.grid_points", "count", "lower"),
    ("fourier.product.calls", "count", "lower"),
    ("fourier.product.self_s", "s", "lower"),
    ("fourier.product.out_modes", "count", "lower"),
    ("fourier.product.hard_cap_hits", "count", "lower"),
    ("fourier.invert_pointwise.calls", "count", "lower"),
    ("fourier.invert_pointwise.self_s", "s", "lower"),
    ("fourier.sup_norm.calls", "count", "lower"),
    ("fourier.sup_norm.self_s", "s", "lower"),
    ("fourier.series_built", "count", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.self_s", "s", "lower"),
    ("operators.e_n.calls", "count", "lower"),
    ("operators.e_n.self_s", "s", "lower"),
    ("operators.multiplier_table.calls", "count", "lower"),
    ("operators.multiplier_table.misses", "count", "lower"),
    ("operators.multiplier_table.hit_ratio", "ratio", "higher"),
    ("operators.multiplier_table.self_s", "s", "lower"),
    ("frequency.lambda_k.calls", "count", "lower"),
    ("kam.solve_curve.calls", "count", "lower"),
    ("kam.solve_curve.self_s", "s", "lower"),
    ("kam.solve_curve.newton_iters", "count", "lower"),
    ("kam.solve_curve.failed", "count", "lower"),
    ("kam.linearized_solve.calls", "count", "lower"),
    ("kam.linearized_solve.self_s", "s", "lower"),
    ("kam.dynamical_residual.calls", "count", "lower"),
    ("kam.dynamical_residual.self_s", "s", "lower"),
    ("kam.dynamical_residual.grid_points", "count", "lower"),
    ("continuation.picard_solve.calls", "count", "lower"),
    ("continuation.picard_solve.self_s", "s", "lower"),
    ("continuation.picard_solve.iters", "count", "lower"),
    ("continuation.taylor0_recursion.calls", "count", "lower"),
    ("continuation.taylor0_recursion.self_s", "s", "lower"),
    ("continuation.taylor0_recursion.orders", "count", "lower"),
    ("continuation.crosscheck.calls", "count", "lower"),
    ("continuation.crosscheck.self_s", "s", "lower"),
    ("obstruction.obstruction_order.calls", "count", "lower"),
    ("obstruction.obstruction_order.self_s", "s", "lower"),
    ("obstruction.obstruction_order.orders", "count", "lower"),
    ("frequency.export_set_geometry.calls", "count", "lower"),
    ("frequency.export_set_geometry.self_s", "s", "lower"),
    ("frequency.export_set_geometry.components", "count", "lower"),
    ("frequency.export_set_geometry.peak_mem_mb", "MB", "lower"),
    ("frequency.membership.calls", "count", "lower"),
    ("frequency.membership.self_s", "s", "lower"),
    ("cli.run_sweep.self_s", "s", "lower"),
    ("jsonio.dumps.calls", "count", "lower"),
    ("jsonio.dumps.self_s", "s", "lower"),
    ("jsonio.dumps.bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

HARD_CAP_WARNING = "product cutoff hit hard cap"


def _tally_evaluate(tr, args, kwargs, out):
    phi, theta = args[0], args[1]
    tr.add("fourier.evaluate.point_modes", np.size(theta) * (2 * phi.N + 1))


def _tally_compose(tr, args, kwargs, out):
    u = args[1]
    # only a non-constant displacement samples f on a grid (the library's
    # general branch); the zero and constant shifts are exact shortcuts
    if np.any(np.delete(u.coeffs, u.N)):
        tr.add("fourier.compose_id_plus.grid_points", out[1].grid_size)


def _tally_product(tr, args, kwargs, out):
    tr.add("fourier.product.out_modes", out.coeffs.size)


def _tally_solve(tr, args, kwargs, out):
    tr.add("kam.solve_curve.newton_iters", out.report.iterations)


_RESIDUAL_GRID = inspect.signature(kam.dynamical_residual).parameters["grid_n"].default


def _tally_residual(tr, args, kwargs, out):
    grid_n = args[1] if len(args) > 1 else kwargs.get("grid_n", _RESIDUAL_GRID)
    tr.add("kam.dynamical_residual.grid_points", grid_n)


def _tally_picard(tr, args, kwargs, out):
    tr.add("continuation.picard_solve.iters", out[1].iterations)


def _tally_taylor(tr, args, kwargs, out):
    tr.add("continuation.taylor0_recursion.orders", len(out.orders))


def _tally_obstruction(tr, args, kwargs, out):
    tr.add("obstruction.obstruction_order.orders", out.orders_computed)


def _tally_geometry(tr, args, kwargs, out):
    tr.add("frequency.export_set_geometry.components", out.gap_lo.size)


# (module, function, span name, tally) of every traced layer boundary
_SPANS = [
    (fourier, "evaluate", "fourier.evaluate", _tally_evaluate),
    (fourier, "compose_id_plus", "fourier.compose_id_plus", _tally_compose),
    (fourier, "product", "fourier.product", _tally_product),
    (fourier, "invert_pointwise", "fourier.invert_pointwise", None),
    (fourier, "sup_norm", "fourier.sup_norm", None),
    (operators, "apply", "operators.apply", None),
    (operators, "e_n", "operators.e_n", None),
    (operators, "multiplier_table", "operators.multiplier_table", None),
    (kam, "solve_curve", "kam.solve_curve", _tally_solve),
    (kam, "linearized_solve", "kam.linearized_solve", None),
    (kam, "dynamical_residual", "kam.dynamical_residual", _tally_residual),
    (continuation, "picard_solve", "continuation.picard_solve", _tally_picard),
    (continuation, "taylor0_recursion", "continuation.taylor0_recursion",
     _tally_taylor),
    (continuation, "crosscheck", "continuation.crosscheck", None),
    (obstruction, "obstruction_order", "obstruction.obstruction_order",
     _tally_obstruction),
    (frequency, "export_set_geometry", "frequency.export_set_geometry",
     _tally_geometry),
    (frequency, "dist_to_AMR", "frequency.membership", None),
    (frequency, "in_AMC", "frequency.membership", None),
    (frequency, "dioph_real_margin", "frequency.membership", None),
    (frequency, "check_small_divisor_bound", "frequency.membership", None),
    (cli, "run_sweep", "cli.run_sweep", None),
    (jsonio, "dumps", "jsonio.dumps",
     lambda tr, args, kwargs, out: tr.add("jsonio.dumps.bytes", len(out))),
]

# functions too small for a span: only their calls are counted
_COUNTERS = [(frequency, "lambda_k", "frequency.lambda_k.calls")]


class Tracer:
    """Span recorder that is installed into kamforge for the traced rounds."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def add(self, counter: str, amount=1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _span(self, name, fn, tally):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a layer re-entered from inside itself (in_AMC -> dist_to_AMR)
            # stays one span, so calls count what callers asked for
            if stack and spans[stack[-1]][0] == nid:
                return fn(*args, **kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".failed")
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if tally is not None:
                tally(self, args, kwargs, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "kamforge" and not modname.startswith("kamforge."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        for module, func, name, tally in _SPANS:
            original = getattr(module, func)
            self._rebind(original, self._span(name, original, tally))
        for module, func, name in _COUNTERS:
            original = getattr(module, func)
            self._rebind(original, self._counter(name, original))
        init = kamforge.FourierSeries.__init__
        kamforge.FourierSeries.__init__ = self._counter("fourier.series_built", init)
        self._undo.append((kamforge.FourierSeries, "__init__", init))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=np.float64)
        nid = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        child = np.zeros(len(arr))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        calls = np.bincount(nid, minlength=len(self.names))
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: (int(calls[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans as CSV: name, start, end, parent, task."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,task\n")
            for nid, start, end, parent, task in self.spans:
                fh.write(f"{self.names[nid]},{start!r},{end!r},{parent},{task}\n")


def layer_metrics(tracer: Tracer, table_stats: tuple[int, int],
                  hard_cap_hits: int, geometry_peak_mb: float,
                  overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced round.

    ``table_stats`` is (hits, misses) of the multiplier-table cache in that
    round; ``geometry_peak_mb`` comes from the untraced memory pass.
    """
    vals: dict[str, float] = {}
    for name, (calls, own) in tracer.self_times().items():
        vals[name + ".calls"] = calls
        vals[name + ".self_s"] = own
    vals.update(tracer.counts)
    vals["fourier.evaluate.bytes_computed"] = 16 * vals.get(
        "fourier.evaluate.point_modes", 0)
    vals["fourier.product.hard_cap_hits"] = hard_cap_hits
    hits, misses = table_stats
    vals["operators.multiplier_table.misses"] = misses
    out = {name: vals.get(name, 0) for name, _, _ in PER_LAYER}
    out["operators.multiplier_table.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out["frequency.export_set_geometry.peak_mem_mb"] = geometry_peak_mb
    out["trace.overhead_s"] = overhead_s
    return out
