"""The benchmark's four workloads, built from a seed over kamforge's public API.

A workload turns its seed into inputs, then runs them as a sequence of timed
tasks: one *round*.  Every task's output is gated at the bounds the
acceptance suite uses (A01, A03, A06, A07, A08); a task fails when it raises
anything or fails its gate, and each failure is counted by its kind.  Each
task's wall time is kept as measured and at reference speed (see
``calibration``).

Two kinds of gate differ in what a failure means.  The A01 bound on a
solve's dynamical residual is an accuracy target the solver can miss near
breakdown or resonance: missing it fails the task.  Every other gate checks
a law or a recorded value that holds exactly for these inputs (structure
laws, engine against oracle, method agreement, the gap union bit for bit):
failing one also marks the output wrong, and the run reports
``correct: false``.

Cache discipline: the runner clears every ``functools`` cache in kamforge
(the operators' multiplier tables) before each round, and the geometry
workload builds a fresh ``DiophantineClass`` (whose gap union is cached per
instance) inside each round.  Warm-ups use frequencies and classes that are
not in the timed set, so a timed round never finds its tables pre-filled.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import time
import tracemalloc
from collections import Counter

import numpy as np

import kamforge as kf
from calibration import factor, loop_seconds
from kamforge import cli, jsonio

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
UNION_TASK = "gap union"  # label prefix of the geometry build task


class Round:
    """Outcomes and timings of one pass over a workload's inputs."""

    def __init__(self, tracer=None, track_memory: bool = False):
        self.tracer = tracer
        self.track_memory = track_memory
        self.task_s: list[float | None] = []  # time per task at reference speed,
        #                                       None if failed
        self.task_raw_s: list[float | None] = []  # the same, as measured
        self.failures: Counter = Counter()    # failure kind -> count
        self.wrong: list[str] = []            # outputs that broke an exact gate
        self.task_peak: dict[str, int] = {}   # label -> tracemalloc peak bytes
        self.gate_s = 0.0                     # time spent checking outputs
        self.calib_s = 0.0                    # time spent in the calibration loop
        self.wall_s = 0.0                     # timed wall, checking excluded
        self.peak = 0                         # tracemalloc peak bytes
        self.hard_cap_hits = 0                # product hard-cap warnings
        self.table_stats = (0, 0)             # multiplier-table (hits, misses)
        self._t0 = 0.0
        self._k0 = 0.0                        # calibration loop before the task
        self._calibrated = True

    @property
    def passed(self) -> int:
        return sum(t is not None for t in self.task_s)

    def start(self, task_id: int | None = None, calibrated: bool = True) -> None:
        """Start timing a task; its id defaults to its position in the round.

        An uncalibrated task keeps its time as measured at reference speed
        too; so does every task of a round under ``tracemalloc``, whose times
        are not used.
        """
        self._calibrated = calibrated and not self.track_memory
        if calibrated:
            self._k0 = loop_seconds()
            self.calib_s += self._k0
        if self.tracer is not None:
            self.tracer.task = len(self.task_s) if task_id is None else task_id
        if self.track_memory:
            tracemalloc.reset_peak()
        self._t0 = time.perf_counter()

    def stop(self, label: str) -> tuple[float, float]:
        """Stop timing; return the task's time as measured and at reference speed."""
        dt = time.perf_counter() - self._t0
        if self.track_memory:
            self.task_peak[label] = max(self.task_peak.get(label, 0),
                                        tracemalloc.get_traced_memory()[1])
        if not self._calibrated:
            return dt, dt
        k1 = loop_seconds()
        self.calib_s += k1
        return dt, dt * factor(self._k0, k1)

    @contextlib.contextmanager
    def gating(self):
        """Time spent here is checking, not work, and leaves the timed wall."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.gate_s += time.perf_counter() - t0

    def fail(self, kind: str) -> None:
        self.task_s.append(None)
        self.task_raw_s.append(None)
        self.failures[kind[:120]] += 1

    def judge(self, timing: tuple[float, float], gate, out,
              exact: bool = True) -> bool:
        """Gate ``out``; record ``timing`` (as measured, at reference speed)."""
        with self.gating():
            reason = gate(out)
        if reason:
            if exact:
                self.wrong.append(reason)
            self.fail("gate: " + reason)
            return False
        self.task_raw_s.append(timing[0])
        self.task_s.append(timing[1])
        return True

    def run(self, label: str, fn, gate, exact: bool = True,
            calibrated: bool = True):
        """Time ``fn()`` as one task; return its output, or None if it failed."""
        self.start(calibrated=calibrated)
        try:
            out = fn()
        except Exception as exc:  # any exception is a counted, typed failure
            self.stop(label)
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        return out if self.judge(self.stop(label), gate, out, exact) else None


def _bound(value: float, limit: float, what: str) -> str | None:
    return None if value < limit else f"{what} {value:.3e} >= {limit:.0e}"


# ---------------------------------------------------------------------------
# golden-march


class GoldenMarch:
    """Warm-started eps continuation of the golden-mean curve of f = cos.

    Each schedule starts at ``step * (1 + offset)`` and steps by ``step`` to
    k = 0.95 (eps = k / 2 pi).  The offsets of the schedules are stratified
    over one step from a seeded draw, so every seed samples the whole step
    interval and the breakdown region equally.  A step after a failed step is
    never reached and counts as a failed task.

    BENCHMARK.json leaves this workload out of its timed set: where the march
    dies moves chaotically with the start offset (a shift of 1e-7 moves it by
    three steps), so its throughput and median task time spread across seeds
    by about the regression bound.  Run it with ``--workload golden-march``.
    """

    name = "golden-march"
    why = ("large-N workload: u.N grows to ~3600, one frequency so multiplier "
           "tables are reused, and the march crosses breakdown so failures show")
    nominal_round_s = 7.5

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        draw = rng.random()
        self.step, k_end, n_sched = (0.1, 0.3, 1) if tiny else (0.02, 0.95, 3)
        self.cutoff = 256 if tiny else 4096
        self.grid_n = 1024
        self.f = kf.FourierSeries.cos()
        self.freq = kf.from_omega(GOLDEN)
        self.schedules = []
        for j in range(n_sched):
            start = self.step * (1.0 + (draw + j) / n_sched)
            n = int(math.floor((k_end - start) / self.step + 1e-9)) + 1
            self.schedules.append(start + self.step * np.arange(n))
        self.max_N = 0

    def _step(self, freq, k, seed_u):
        cfg = kf.SolverConfig(cutoff=self.cutoff, seed=seed_u)
        curve = kf.solve_curve(self.f, freq, k / (2.0 * math.pi), cfg)
        return curve, kf.dynamical_residual(curve, self.grid_n)

    def _march(self, rnd: Round, freq, ks) -> None:
        seed_u = None
        for i, k in enumerate(ks):
            out = rnd.run(f"k={k:.4f}", lambda k=k, u=seed_u: self._step(freq, k, u),
                          lambda o: _bound(o[1], 1e-10, "A01 dynamical residual"),
                          exact=False)
            if out is None:
                for _ in ks[i + 1:]:
                    rnd.fail("unreached: an earlier step of the march failed")
                return
            seed_u = out[0].u
            self.max_N = max(self.max_N, seed_u.N)

    def warm_up(self) -> None:
        # another irrational frequency, so no timed table is pre-filled
        self._march(Round(), kf.from_omega(math.sqrt(2.0) - 1.0), [0.1, 0.3, 0.5])

    def round(self, rnd: Round) -> None:
        for ks in self.schedules:
            self._march(rnd, self.freq, ks)

    def sizes(self) -> dict:
        return {"max_u_N": self.max_N, "cutoff": self.cutoff,
                "residual_grid_G": self.grid_n, "step": self.step,
                "schedules": [[float(ks[0]), float(ks[-1]), len(ks)]
                              for ks in self.schedules]}


# ---------------------------------------------------------------------------
# wide-sweep


def wide_forcing(rng, N: int, decay: float) -> kf.FourierSeries:
    """Real, zero-mean forcing |c_k| = exp(-decay |k|), translated by the seed.

    The phases are one fixed random draw; the seed translates the forcing,
    x -> x + a, which turns c_k into c_k exp(i k a).  Translation is a
    symmetry of the invariance equation, so every seed poses a problem of the
    same size.  Independently seeded phases let the sweep's largest u.N range
    over 162-287 from seed to seed, and peak_mem_mb spread 0.07-0.18 over ten
    seeds.
    """
    ks = np.arange(1, N + 1)
    phases = np.random.default_rng(0).random(N) + ks * rng.random()
    c = np.exp(-decay * ks + 2j * np.pi * phases)
    full = np.zeros(2 * N + 1, dtype=np.complex128)
    full[N + 1:] = c
    full[:N] = np.conj(c[::-1])
    return kf.FourierSeries(full)


class WideSweep:
    """``cli.run_sweep`` over a box of complex omega with a wide forcing.

    The Re window [0.45, 0.55] straddles the strongest resonance, 1/2, so
    every seed meets near-resonant points (and their failures) at Im 0.002.
    The window is fixed and the seed only translates the forcing: which
    near-resonant points converge, and with it the largest u.N and the peak
    memory, turns on the window's position.  A seeded offset of up to 1e-3
    let one more point converge for offsets near 9e-4, and peak_mem_mb read
    17 or 22 MB depending on the seed.
    """

    name = "wide-sweep"
    why = ("every point is a new frequency, so every multiplier table misses "
           "(caches are cleared before each round); a 129-mode forcing makes "
           "composition dense; output goes through jsonio")
    nominal_round_s = 6.0

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.N_f = 8 if tiny else 64
        self.f = wide_forcing(rng, self.N_f, 0.3)
        n_re, n_im = (2, 2) if tiny else (10, 10)
        self.omega_re = (0.45, 0.55, n_re)
        self.omega_im = (0.002, 0.02, n_im)
        self.eps = 5e-4
        self.modes = 64 if tiny else 512
        self.max_N = 0

    def _sweep(self, rnd: Round, omega_re, omega_im) -> None:
        seconds: dict[int, tuple[float, float]] = {}
        point = cli._sweep_point

        first = len(rnd.task_s)

        def timed_point(task):
            rnd.start(first + task[0])
            rec = point(task)
            seconds[task[0]] = rnd.stop("sweep point")
            return rec

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sweep.jsonl")
            # per-point timing: run_sweep looks _sweep_point up at call time
            cli._sweep_point = timed_point
            try:
                cli.run_sweep(omega_re=omega_re, omega_im=omega_im, eps=self.eps,
                              f=self.f, modes=self.modes, workers=1,
                              out_path=path)
            finally:
                cli._sweep_point = point
            with rnd.gating(), open(path) as fh:
                records = [jsonio.loads(line) for line in fh]
        for rec in records:
            if rec["status"] != "converged":
                err = rec["error"]
                rnd.fail(f"{err['type']}: {err['message']}")
                continue
            if rnd.judge(seconds[rec["index"]], self._gate, rec, exact=False):
                self.max_N = max(self.max_N, rec["u"]["N"])

    @staticmethod
    def _gate(rec) -> str | None:
        dyn = rec.get("dynamical_residual")
        if dyn is None:
            return "A01 dynamical residual missing"
        return _bound(dyn, 1e-10, "A01 dynamical residual")

    def warm_up(self) -> None:
        # a Re window outside the timed box
        lo = self.omega_re[0] - 0.4
        self._sweep(Round(), (lo, lo + 0.1, 2), (0.002, 0.02, 1))

    def round(self, rnd: Round) -> None:
        self._sweep(rnd, self.omega_re, self.omega_im)

    def sizes(self) -> dict:
        return {"points": self.omega_re[2] * self.omega_im[2], "N_f": self.N_f,
                "modes": self.modes, "max_u_N": self.max_N,
                "residual_grid_G": 512, "omega_re": list(self.omega_re),
                "omega_im": list(self.omega_im)}


# ---------------------------------------------------------------------------
# formal-series


EPS_FORMAL = 0.05


def degree3_forcing(rng) -> kf.FourierSeries:
    """Zero-mean forcing on modes 0 < |k| <= 3 with seeded magnitudes and phases."""
    c = np.zeros(7, dtype=np.complex128)
    for k in (-3, -2, -1, 1, 2, 3):
        c[k + 3] = (rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                    * np.exp(-0.4 * abs(k)))
    return kf.FourierSeries(c)


def _taylor_gate(f):
    """A06: u_n has no modes beyond |k| = n and its extreme modes are eps f_{+-n}."""
    def gate(data) -> str | None:
        top = 0.0
        for n, un in enumerate(data.orders, start=1):
            if un.N > n and np.any(np.concatenate([un.coeffs[:un.N - n],
                                                   un.coeffs[un.N + n + 1:]])):
                return f"A06 support law broken at order {n}"
            for k in (n, -n):
                top = max(top, abs(un.coeff(k) - data.eps * f.coeff(k)))
        return _bound(top, 1e-14, "A06 top law")
    return gate


def _obstruction_gate(m: int | None):
    """A07: engine and oracle agree; for f = cos the obstruction is at order m."""
    def gate(rep) -> str | None:
        if m is not None and rep.n_star != m:
            return f"A07 n_star {rep.n_star} != {m}"
        return _bound(rep.relative_gap, 1e-12, "A07 relative gap")
    return gate


def _crosscheck_gate(rep) -> str | None:
    """A03: every method ran and all pairwise gaps are small."""
    for method, st in rep["methods"].items():
        if st["status"] != "ok":
            return f"A03 {method} {st['status']}"
    return _bound(max(rep["pairs"].values()), 1e-8, "A03 pair gap")


class FormalSeries:
    """Formal series at q = 0 and at p/m, plus a three-method cross-check."""

    name = "formal-series"
    why = ("thousands of products on series of at most ~100 modes and no large "
           "grids: Python-level construction and small np.convolve dominate")
    nominal_round_s = 3.25

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.cos = kf.FourierSeries.cos()
        self.g = degree3_forcing(rng)
        if tiny:
            self.orders = (6, 5)
            self.rationals = [(1, 7), (3, 13)]
            self.q = rng.uniform(0.02, 0.05)
        else:
            self.orders = (40, 30)
            self.rationals = [(1, 7), (3, 13), (5, 21), (13, 34), (21, 55), (34, 89)]
            self.q = rng.uniform(0.1, 0.3)

    def _run(self, rnd: Round, rationals, q, orders) -> None:
        n_cos, n_g = orders
        data = rnd.run(f"taylor0 cos {n_cos}",
                       lambda: kf.taylor0_recursion(self.cos, EPS_FORMAL, N_q=n_cos),
                       _taylor_gate(self.cos))
        rnd.run(f"taylor0 g {n_g}",
                lambda: kf.taylor0_recursion(self.g, EPS_FORMAL, N_q=n_g),
                _taylor_gate(self.g))
        for f, label in ((self.cos, "cos"), (self.g, "g")):
            for p, m in rationals:
                rnd.run(f"obstruction {label} {p}/{m}",
                        lambda f=f, p=p, m=m: kf.obstruction_order(
                            f, kf.RationalFreq(p, m)),
                        _obstruction_gate(m if f is self.cos else None))
        rnd.run("crosscheck",
                lambda: kf.crosscheck(self.cos, kf.from_q(q), EPS_FORMAL,
                                      n_taylor=n_cos, taylor_data=data),
                _crosscheck_gate)

    def warm_up(self) -> None:
        self._run(Round(), [(1, 5)], 0.01, (4, 4))

    def round(self, rnd: Round) -> None:
        self._run(rnd, self.rationals, self.q, self.orders)

    def sizes(self) -> dict:
        return {"N_q": list(self.orders), "rationals": self.rationals,
                "crosscheck_q": self.q, "eps": EPS_FORMAL}


# ---------------------------------------------------------------------------
# diophantine-geometry


# (components, measure as float.hex) of the merged gap union for (6, 0.5, m_max)
GEOMETRY_REFERENCE = {
    10_000: (13_447_899, "0x1.25fa58b4a8167p-1"),
    200: (6191, "0x1.20204883fef5bp-1"),
}


class DiophantineGeometry:
    """Gap-union build of DiophantineClass(6, 0.5, m_max) and membership queries."""

    name = "diophantine-geometry"
    why = ("the gap union is the only memory-heavy layer and shares no code "
           "with the solver workloads; its own workload keeps it from burying "
           "formal-series gains")
    nominal_round_s = 9.0
    M, TAU = 6.0, 0.5

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.m_max = 200 if tiny else 10_000
        n_batches, per_batch, n_freq = (3, 5, 2) if tiny else (40, 100, 8)
        self.batches = [self._inputs(rng, per_batch, n_freq) for _ in range(n_batches)]

    def _inputs(self, rng, per_batch: int, n_freq: int):
        xs = rng.random(per_batch)
        ys = rng.uniform(-0.05, 0.05, per_batch)
        # in-set frequencies: a real part in the truncated real set (margin >= 1,
        # exact integer arithmetic, no gap union needed) with any imaginary part
        probe = kf.DiophantineClass(self.M, self.TAU, self.m_max)
        freqs = []
        while len(freqs) < n_freq:
            x = float(rng.random())
            if kf.dioph_real_margin(x, probe)[0] >= 1.0:
                freqs.append(kf.from_omega(complex(x, rng.uniform(0.0, 0.05))))
        return xs, ys, freqs

    def _build(self, rnd: Round, m_max: int):
        def build():
            cls = kf.DiophantineClass(self.M, self.TAU, m_max=m_max)
            return cls, kf.export_set_geometry(cls)

        def gate(out) -> str | None:
            cls, geo = out
            if not geo.total_gap_measure <= cls.measure_bound():
                return "A08 measure above measure_bound()"
            want = GEOMETRY_REFERENCE.get(m_max)
            got = (geo.gap_lo.size, geo.total_gap_measure.hex())
            if want is not None and got != want:
                return f"A08 (components, measure) {got} != recorded {want}"
            return None

        # the build streams ~0.5 GB through memory, which the interpreter-bound
        # calibration loop does not track (same-code spread over 2-round
        # blocks: 8% as measured, 13% at reference speed), so it is timed as is
        out = rnd.run(f"{UNION_TASK} m_max={m_max}", build, gate,
                      calibrated=False)
        return None if out is None else out[0]

    @staticmethod
    def _query(cls, xs, ys, freqs):
        dist = [kf.dist_to_AMR(float(x), cls) for x in xs]
        inside = [kf.in_AMC(complex(x, y), cls) for x, y in zip(xs, ys)]
        margin = [kf.dioph_real_margin(float(x), cls)[0] for x in xs]
        ratios = [kf.check_small_divisor_bound(fr, cls)["max_ratio"] for fr in freqs]
        return dist, inside, margin, ratios

    @staticmethod
    def _query_gate(ys):
        def gate(out) -> str | None:
            dist, inside, margin, ratios = out
            for d, y, a, mg in zip(dist, ys, inside, margin):
                if (d > 0.0) != (mg < 1.0):
                    return f"gap union and convergent margin disagree ({d}, {mg})"
                if a != (d <= abs(y)):
                    return "in_AMC disagrees with dist_to_AMR"
            if max(ratios) > 1.0:
                return "small-divisor bound ratio above 1"
            return None
        return gate

    def _run(self, rnd: Round, m_max: int, batches) -> None:
        cls = self._build(rnd, m_max)
        for i, (xs, ys, freqs) in enumerate(batches):
            if cls is None:
                rnd.fail("unreached: the gap union was not built")
                continue
            rnd.run(f"queries {i}", lambda b=(xs, ys, freqs): self._query(cls, *b),
                    self._query_gate(ys))

    def warm_up(self) -> None:
        self._run(Round(), min(300, self.m_max // 2), self.batches[:1])

    def round(self, rnd: Round) -> None:
        self._run(rnd, self.m_max, self.batches)

    def sizes(self) -> dict:
        xs, _, freqs = self.batches[0]
        return {"m_max": self.m_max, "M": self.M, "tau": self.TAU,
                "query_batches": len(self.batches),
                "points_per_batch": len(xs), "frequencies_per_batch": len(freqs),
                "components": GEOMETRY_REFERENCE.get(self.m_max, (None,))[0]}


WORKLOADS = {w.name: w for w in (GoldenMarch, WideSweep, FormalSeries,
                                 DiophantineGeometry)}
