"""Run one benchmark workload of kamforge and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it name every metric with its unit, list the failures by
kind, and give the run's provenance.  Results and spans are also written to
``.perfbench/`` in the checkout.

A run is a single process (sweeps use ``workers=1``) with one BLAS thread.
It sets up (import, inputs, warm-up), runs a fixed number of *rounds* of
the workload untraced and times them, runs one more
round under ``tracemalloc`` for peak memory, and with ``--trace 1`` runs one
more round with spans installed.  The number of rounds is ``--seconds``
divided by the workload's nominal round time, so both commits of a
comparison run the same work.  Every round starts with kamforge's caches
cleared and repeats the same tasks.

Times are reported at reference speed (see ``calibration``): on a shared
host a run of the same code can land in a stretch where the core runs 1.9x
slower, and wall time alone spread by 20-50% between runs.  Each task's time
is the median over the rounds of its time at reference speed;
``tasks_per_s`` divides the tasks of a round by the sum of those times plus
the median time a round spent outside its passed tasks (failed tasks,
writing output).  The same figures as measured, without calibration, are
printed and written beside them.
"""

from __future__ import annotations

import time

from calibration import factor_now

_T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 4
WORKLOAD_NAMES = ("golden-march", "wide-sweep", "formal-series",
                  "diophantine-geometry")

# (name, unit) of the end-to-end metrics in the result line, in print order
END_TO_END = [
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_mem_mb", "MB"),
    ("setup_s", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="intended length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run every input at a tiny size (smoke test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must happen before numpy is imported.

    One thread keeps the run a single busy CPU, which measured steadier on a
    shared 2-CPU machine than letting BLAS use both.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> float:
    """Import kamforge from the checkout; return the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kamforge  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kamforge from {ROOT / 'src'}: {exc}")
    return time.perf_counter() - t0


def fresh_import_seconds() -> float:
    """Seconds to import kamforge in a new interpreter, at reference speed.

    The new interpreter calibrates its own import, on whichever core it runs.
    """
    code = ("import sys, time; "
            f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]; "
            "from calibration import factor_now; t0 = time.perf_counter(); "
            "import kamforge; dt = time.perf_counter() - t0; "
            "print(dt * factor_now())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def kamforge_caches() -> list:
    """Every functools cache in kamforge (the operators' multiplier tables)."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "kamforge" or name.startswith("kamforge."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def run_round(wl, caches, tables, tracer=None, track_memory: bool = False):
    """One round from empty ``caches``; ``tables`` is the multiplier-table cache."""
    from spans import HARD_CAP_WARNING
    from workloads import Round

    for cache in caches:
        cache.cache_clear()
    gc.collect()  # every round starts from the same heap, not the last one's garbage
    if tables.cache_info().currsize:
        sys.exit("perfbench: the multiplier tables were not emptied before a round")
    rnd = Round(tracer, track_memory)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        wl.round(rnd)
        rnd.wall_s = time.perf_counter() - t0 - rnd.gate_s - rnd.calib_s
    if track_memory:
        rnd.peak = max([tracemalloc.get_traced_memory()[1], *rnd.task_peak.values()])
    rnd.hard_cap_hits = sum(HARD_CAP_WARNING in str(w.message) for w in caught)
    info = tables.cache_info()
    rnd.table_stats = (info.hits, info.misses)
    return rnd


def median_task_times(rounds, attr: str) -> list:
    """Each task's median time over the rounds; None where it failed."""
    return [None if ts[0] is None else statistics.median(ts)
            for ts in zip(*(getattr(r, attr) for r in rounds))]


def rest_s(rnd, at_reference: bool) -> float:
    """Time a round spent outside its passed tasks (failed tasks, output).

    At reference speed it is scaled by the median calibration of the round's
    passed tasks.
    """
    rest = rnd.wall_s - sum(t for t in rnd.task_raw_s if t is not None)
    if at_reference:
        rest *= statistics.median(
            ref / t for ref, t in zip(rnd.task_s, rnd.task_raw_s) if t)
    return rest


def round_s(rnd) -> float:
    """A round's wall time at reference speed."""
    return sum(t for t in rnd.task_s if t is not None) + rest_s(rnd, True)


def task_metrics(rounds, at_reference: bool):
    """tasks_per_s, task_p50_s and task_tail_s, plus the tail's percentile.

    ``at_reference`` picks times at reference speed or as measured.
    """
    attr = "task_s" if at_reference else "task_raw_s"
    passed = sorted(t for t in median_task_times(rounds, attr) if t is not None)
    rest = statistics.median(rest_s(r, at_reference) for r in rounds)
    # the highest percentile with at least ten task runs beyond it, every run
    # of a task counted at that task's median time
    reps = len(rounds)
    n = reps * len(passed)
    if n > 10:
        tail, pct = passed[(n - 11) // reps], 100.0 * (n - 10) / n
    else:
        tail, pct = passed[-1], 100.0
    return {
        "tasks_per_s": len(passed) / (sum(passed) + rest),
        "task_p50_s": statistics.median(passed),
        "task_tail_s": tail,
    }, {"task_tail_pct": pct, "task_runs": n}


def end_to_end(rounds, memory, setup_s):
    """End-to-end metrics, plus the tail's percentile and sample count."""
    metrics, tail_info = task_metrics(rounds, at_reference=True)
    metrics["peak_mem_mb"] = memory.peak / 1e6
    metrics["setup_s"] = setup_s
    return metrics, tail_info


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    imports = [import_program()]
    import numpy
    import scipy

    import spans
    from kamforge import operators
    from workloads import UNION_TASK, WORKLOADS

    startup_s = time.perf_counter() - _T0 - imports[0]
    k = factor_now()
    startup_s *= k
    imports[0] *= k
    OUT.mkdir(exist_ok=True)
    tempfile.tempdir = str(OUT)  # sweep output stays inside the checkout

    # set up several times and keep the median: the import again in fresh
    # interpreters, and inputs regenerated from the seed plus a warm-up on
    # inputs outside the timed set
    imports += [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    # found before tracing, which replaces module attributes with wrappers
    caches = kamforge_caches()
    tables = operators.multiplier_table
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for cache in caches:
            cache.cache_clear()
        wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        wl.warm_up()
        setups.append((time.perf_counter() - t0) * factor_now())
    setup_s = startup_s + statistics.median(imports) + statistics.median(setups)

    n_rounds = max(1, round(args.seconds / wl.nominal_round_s))
    timed = [run_round(wl, caches, tables) for _ in range(n_rounds)]
    tracemalloc.start()
    try:
        memory = run_round(wl, caches, tables, track_memory=True)
    finally:
        tracemalloc.stop()
    # one traced round: its counts repeat exactly, and per-layer times carry
    # no regression bound
    traced = []
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = [run_round(wl, caches, tables, tracer=tracer)]
        finally:
            tracer.uninstall()

    every = timed + [memory] + traced
    outcomes = {(tuple(t is None for t in r.task_s), r.table_stats[1])
                for r in every}
    if len(outcomes) != 1:
        sys.exit("perfbench: rounds differ in which tasks passed or in "
                 "multiplier-table misses; a round did not start from the "
                 "same state")
    if not timed[0].passed:
        sys.exit("perfbench: no task passed; there is nothing to time")

    scored = traced if args.trace else timed
    attempted = sum(len(r.task_s) for r in scored)
    failed = attempted - sum(r.passed for r in scored)
    failures = sum((r.failures for r in scored), start=Counter())
    wrong = sorted({w for r in every for w in r.wrong})

    e2e, tail_info = end_to_end(timed, memory, setup_s)
    as_measured = task_metrics(timed, at_reference=False)[0]
    untraced_s = statistics.median(round_s(r) for r in timed)
    if args.trace:
        geometry_peak = max((v for k, v in memory.task_peak.items()
                             if k.startswith(UNION_TASK)), default=0) / 1e6
        overhead_s = round_s(traced[0]) - untraced_s
        metrics = spans.layer_metrics(tracer, traced[0].table_stats,
                                      traced[0].hard_cap_hits, geometry_peak,
                                      overhead_s)
        units = [(name, unit) for name, unit, _ in spans.PER_LAYER]
    else:
        metrics = e2e
        units = END_TO_END

    prov = {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workers": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": n_rounds,
        "sizes": wl.sizes(),
    }
    report = {
        "provenance": prov,
        "end_to_end": e2e,
        "end_to_end_as_measured": as_measured,
        **tail_info,
        "fail_ratio": failed / attempted,
        "failures": dict(failures.most_common()),
        "gate_failures": wrong,
        "untraced_round_s": untraced_s,
        "round_walls_s": [r.wall_s for r in timed],
        "setup_parts_s": {"startup": startup_s, "import": imports,
                          "inputs_and_warm_up": setups},
    }

    print(f"perfbench {wl.name} seed={args.seed} rounds={n_rounds} trace={args.trace}")
    for name, unit in units:
        note = ""
        if name == "task_tail_s":
            note = (f"  (p{tail_info['task_tail_pct']:.2f} of "
                    f"{tail_info['task_runs']} passed task runs)")
        print(f"{name:44s} {metrics[name]:.6g} {unit}{note}")
    print("as measured, without calibration: " + ", ".join(
        f"{name} {value:.6g}" for name, value in as_measured.items()))
    print(f"{'fail_ratio':44s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} attempted)")
    for kind, count in failures.most_common():
        print(f"failure {count:5d}x  {kind}")
    if args.trace:
        print(f"tracing overhead: traced round {round_s(traced[0]):.4f} s - "
              f"untraced round {untraced_s:.4f} s (median of {n_rounds}), "
              "both at reference speed")
        report["per_layer"] = metrics
        tracer.write(OUT / f"spans-{wl.name}.csv")
    print("provenance " + json.dumps(prov, default=str))
    with open(OUT / f"result-{wl.name}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
