"""End-to-end command-line runs through subprocess."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import kamforge
from kamforge import cli, continuation, jsonio, verify
from kamforge.errors import NearSingularError, NoConvergenceError
from kamforge.fourier import FourierSeries
from kamforge.frequency import (SampledFamily, c1hol_norm_estimate,
                                from_omega, from_q)
from kamforge.kam import SolverConfig, solve_curve
from kamforge.obstruction import RationalFreq, obstruction_order

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# the directory holding the kamforge this process imported; the CLI runs in
# a temporary working directory, so a relative PYTHONPATH (such as src)
# would not find it there
PACKAGE_ROOT = str(Path(kamforge.__file__).resolve().parents[1])


def run_cli(args, cwd):
    """Run ``python -m kamforge`` in ``cwd`` on the kamforge under test."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    entries = inherited.split(os.pathsep) if inherited else []
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT, *(os.path.abspath(e) for e in entries)])
    return subprocess.run(
        [sys.executable, "-m", "kamforge", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_solve_writes_curve_and_csv(tmp_path):
    r = run_cli(["solve", "--omega", str(GOLDEN), "--eps", "0.05",
                 "--f", "cos", "--modes", "256", "--out", "curve.json",
                 "--grid-n", "256"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "converged=True" in r.stdout
    d = json.loads((tmp_path / "curve.json").read_text())
    assert d["report"]["method"] == "newton"
    assert d["report"]["converged"] is True
    assert d["report"]["iterations"] <= 8
    assert d["dynamical_residual"] < 1e-10
    assert list(d["frequency"]) == ["omega", "q"]
    assert d["frequency"]["omega"][1] >= 0.0   # |q| <= 1
    with open(tmp_path / "curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "x_re", "x_im", "y_re", "y_im"]
    assert len(rows) == 257  # header + grid-n samples
    assert float(rows[1][0]) == 0.0


def test_solve_failure_emits_machine_readable_error(tmp_path):
    r = run_cli(["solve", "--omega", "0.5", "--eps", "0.05", "--f", "cos",
                 "--out", "bad.json"], tmp_path)
    assert r.returncode == 1, r.stderr
    # an import failure also exits 1, so the error JSON proves the CLI ran
    assert (tmp_path / "bad.json").exists(), r.stderr
    d = json.loads((tmp_path / "bad.json").read_text())
    assert "error" in d
    assert d["error"]["type"] == "ResonanceError"
    assert "omega is 1/2" in d["error"]["message"]
    assert json.loads(r.stdout) == d


def test_unwritable_out_or_unreadable_f_exits_2_without_traceback(tmp_path):
    missing = tmp_path / "missing"
    for args, path in (
            (["solve", "--omega", repr(GOLDEN), "--out", str(missing / "s.json")],
             missing / "s.json"),
            (["geometry", "--M", "6", "--mmax", "50",
              "--out", str(missing / "g.json")], missing / "g.json"),
            (["solve", "--omega", repr(GOLDEN), "--f", str(tmp_path)], tmp_path),
            # a sweep opens its files before the first point is solved
            ([*SWEEP_BOX, "--out", str(missing / "s.jsonl")],
             missing / "s.jsonl"),
            ([*SWEEP_BOX, "--out", "s.jsonl", "--family",
              str(missing / "f.json")], missing / "f.json")):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and str(path) in r.stderr
        assert "Traceback" not in r.stderr


def test_a_package_error_outside_solve_writes_the_error_json(tmp_path):
    r = run_cli(["taylor0", "--eps", "1e300", "--orders", "5",
                 "--out", "t.json"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr
    d = json.loads((tmp_path / "t.json").read_text())
    assert d["error"]["type"] == "OverflowRiskError"
    assert d["error"]["diagnostics"] == {"order": 3}


def test_obstruction_overflow_exits_1_with_the_error_json(tmp_path):
    (tmp_path / "big.json").write_text("[1e200, 0, 1e200]")
    r = run_cli(["obstruction", "--p", "1", "--m", "7", "--f", "big.json"],
                tmp_path)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr
    d = json.loads(r.stdout)
    assert d["error"]["type"] == "OverflowRiskError"
    assert d["error"]["diagnostics"] == {"order": 2}


def test_an_overflowing_solve_exits_1_with_the_error_json(tmp_path):
    r = run_cli(["solve", "--omega", "0.3", "--eps", "10",
                 "--f", "[1e308, 0, 1e308]", "--out", "x.json"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr
    d = json.loads((tmp_path / "x.json").read_text())
    assert d["error"]["type"] == "OverflowRiskError"
    assert d["error"]["diagnostics"]["step"] == "eps E_q f(id + u)"


def test_exactly_one_frequency_form_is_enforced(tmp_path):
    both = run_cli(["solve", "--omega", "0.6", "--q-re", "0.3",
                    "--eps", "0.05", "--f", "cos"], tmp_path)
    assert both.returncode == 2, both.stderr
    neither = run_cli(["solve", "--eps", "0.05", "--f", "cos"], tmp_path)
    assert neither.returncode == 2, neither.stderr
    # an imaginary part without its own form was dropped without a word
    for args, part, form in (
            (["solve", "--q-re", "0.3", "--omega-im", "0.5"], "--omega-im",
             "--omega"),
            (["solve", "--omega", "0.3", "--q-im", "0.4"], "--q-im", "--q-re"),
            (["taylor0", "--q-im", "0.2"], "--q-im", "--q-re")):
        r = run_cli([*args, "--out", "x.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ")
        assert f"{part} is given without {form}" in r.stderr
        assert not (tmp_path / "x.json").exists()


SWEEP_BOX = ["sweep", "--omega-min", "0.58", "--omega-max", "0.62",
             "--omega-n", "2", "--im-min", "0.04", "--im-max", "0.04"]
AXIS = ["--eps-min", "0.01", "--eps-max", "0.03", "--eps-n", "2"]


@pytest.mark.parametrize("args,message", [
    # part of the eps axis alone names no axis, nor the single eps
    ([*SWEEP_BOX, *AXIS[:4]], "--eps-min, --eps-max given: eps is either"),
    ([*SWEEP_BOX, "--eps-max", "0.03"], "--eps-max given: eps is either"),
    # a single eps and the axis are two values for one eps
    ([*SWEEP_BOX, "--eps-im", "0.02", *AXIS],
     "--eps-im, --eps-min, --eps-max, --eps-n given: eps is either"),
    ([*SWEEP_BOX, "--eps", "0.05", *AXIS],
     "--eps, --eps-min, --eps-max, --eps-n given: eps is either"),
    # a Diophantine class's parameters check nothing without the class
    (["solve", "--omega", str(GOLDEN), "--tau", "0.9", "--mmax", "50"],
     "--tau and --mmax given without --M"),
    (["solve", "--omega", str(GOLDEN), "--tau", "0.9"],
     "--tau given without --M"),
    # crosscheck's order count feeds taylor0 alone
    (["crosscheck", "--q-re", "0.3", "--methods", "newton,picard",
      "--orders", "7"], "--orders given without taylor0 in --methods"),
    # a family is sampled in omega: an eps axis would read as omega steps
    ([*SWEEP_BOX, *AXIS, "--family", "fam.json"],
     "family_path and eps_axis given"),
], ids=["axis-ends", "axis-end", "eps-im-and-axis", "eps-and-axis",
        "tau-and-mmax", "tau", "orders-without-taylor0", "family-and-eps-axis"])
def test_an_ignored_option_is_refused_by_name(tmp_path, args, message):
    r = run_cli([*args, "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_solve_picard_method(tmp_path):
    r = run_cli(["solve", "--q-re", "0.3", "--eps", "0.05", "--f", "cos",
                 "--method", "picard", "--modes", "64",
                 "--out", "p.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / "p.json").read_text())
    assert d["report"]["method"] == "picard"
    beta = complex(*d["report"]["beta"])
    assert abs(beta) < 1e-12


def test_inline_coefficient_forcing(tmp_path):
    # [0.5, 0, 0.5] is the cosine written as an explicit centered array
    r = run_cli(["solve", "--omega", str(GOLDEN), "--eps", "0.05",
                 "--f", "[0.5, 0, 0.5]", "--modes", "128",
                 "--out", "inline.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    ref = run_cli(["solve", "--omega", str(GOLDEN), "--eps", "0.05",
                   "--f", "cos", "--modes", "128", "--out", "ref.json"],
                  tmp_path)
    assert ref.returncode == 0, ref.stderr
    a = json.loads((tmp_path / "inline.json").read_text())
    b = json.loads((tmp_path / "ref.json").read_text())
    assert a["u"] == b["u"]


@pytest.mark.parametrize("forcing", ["[[1, 2, 3]]", "[1, 2]", "[true, 0, true]",
                                     "[[1, false], 0, 1]",
                                     pytest.param(f"[1, 0, {10**400}]",
                                                  id="int-past-a-double")])
def test_malformed_inline_forcing_exits_2(tmp_path, forcing):
    r = run_cli(["solve", "--omega", str(GOLDEN), "--f", forcing,
                 "--out", "bad.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"error: --f {forcing!r}: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["solve", "sweep", "obstruction",
                                     "taylor0", "crosscheck"])
def test_every_forcing_option_says_what_it_takes(command, capsys):
    # four of the five printed a bare "--f F"
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--f F forcing: 'cos', inline JSON array, or JSON file" in text


def test_sweep_single_point_matches_solve(tmp_path):
    r = run_cli(["sweep", "--omega-min", str(GOLDEN), "--omega-max",
                 str(GOLDEN), "--omega-n", "1", "--eps", "0.05",
                 "--f", "cos", "--modes", "64", "--out", "one.jsonl"],
                tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "one.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["index"] == 0
    assert rec["status"] == "converged"
    s = run_cli(["solve", "--omega", str(GOLDEN), "--eps", "0.05",
                 "--f", "cos", "--modes", "64", "--out", "s.json"], tmp_path)
    assert s.returncode == 0, s.stderr
    solved = json.loads((tmp_path / "s.json").read_text())
    assert rec["u"] == solved["u"]


def test_sweep_is_byte_identical_across_worker_counts(tmp_path):
    args = ["sweep", "--omega-min", "0.58", "--omega-max", "0.62",
            "--omega-n", "2", "--im-min", "0.03", "--im-max", "0.03",
            "--im-n", "1", "--eps", "0.05", "--f", "cos", "--modes", "32"]
    a = run_cli(args + ["--out", "a.jsonl", "--workers", "1"], tmp_path)
    assert a.returncode == 0, a.stderr
    assert "(1 workers)" in a.stdout
    b = run_cli(args + ["--out", "b.jsonl", "--workers", "2"], tmp_path)
    assert b.returncode == 0, b.stderr
    assert "(2 workers)" in b.stdout
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.parametrize("im_min,im_max,side", [
    ("0.02", "0.06", "inner"),      # the grid of check A11, |q| < 1
    ("-0.06", "-0.02", "outer"),    # its mirror, |q| > 1
])
def test_sweep_family_carries_the_exact_omega_derivative(tmp_path, im_min,
                                                         im_max, side):
    # every converged point gets d u / d omega from the omega-tangent; a
    # central difference in omega agrees to O(d^2)
    r = run_cli(["sweep", "--omega-min", "0.58", "--omega-max", "0.62",
                 "--omega-n", "3", "--im-min", im_min, "--im-max", im_max,
                 "--im-n", "3", "--eps", "0.05", "--modes", "64",
                 "--out", "s.jsonl", "--family", "fam.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    fam = SampledFamily.from_json_dict(jsonio.load_path(tmp_path / "fam.json"))
    assert [fr.omega.imag > 0 for fr in fam.points] == [side == "inner"] * 9
    cfg, d = SolverConfig(cutoff=64, tol=1e-12), 1e-5
    for fr, deriv in zip(fam.points, fam.derivs):
        up, um = (solve_curve(FourierSeries.cos(), from_omega(fr.omega + s),
                              0.05, cfg).u for s in (d, -d))
        central = (up - um).coeffs / (2 * d)
        N = (deriv.size - 1) // 2
        assert (central.size - 1) // 2 <= N
        gap = (FourierSeries(deriv) - FourierSeries(central)).coeffs
        assert np.max(np.abs(gap)) <= 1e-6 * np.max(np.abs(central))


def test_sweep_family_across_the_real_axis_is_c1_in_omega(tmp_path):
    # a 3x3 box centred on the golden mean, both sides, compared in one
    # pass: the difference-quotient defect n2 falls linearly with the box.
    # Keep h small: golden + 1e-3 lies 1.4e-5 from 13/21
    n2 = []
    for h in (3e-4, 1e-4):
        cli.run_sweep(omega_re=(GOLDEN - h, GOLDEN + h, 3),
                      omega_im=(-h, h, 3), eps=0.1, f=FourierSeries.cos(),
                      modes=256, out_path=str(tmp_path / "s.jsonl"),
                      family_path=str(tmp_path / "fam.json"))
        fam = SampledFamily.from_json_dict(
            jsonio.load_path(tmp_path / "fam.json"))
        assert len(fam.points) == 9
        assert {fr.omega.imag >= 0 for fr in fam.points} == {True, False}
        n2.append(c1hol_norm_estimate(fam)[2])
    assert 2.5 <= n2[0] / n2[1] <= 3.6, n2


def test_a_failed_omega_tangent_leaves_a_null_deriv(tmp_path, monkeypatch):
    # the grid of check A11; the tangent solve fails at its middle point
    def family(name):
        path = tmp_path / name
        cli.run_sweep(omega_re=(0.58, 0.62, 3), omega_im=(0.02, 0.06, 3),
                      eps=0.05, f=FourierSeries.cos(), modes=64,
                      out_path=str(tmp_path / "s.jsonl"),
                      family_path=str(path))
        return path

    whole = jsonio.load_path(family("whole.json"))
    tangent = cli.omega_tangent

    def failing(u, freq):
        if abs(freq.omega - complex(0.6, 0.04)) < 1e-12:
            raise NearSingularError("tangent refused", {})
        return tangent(u, freq)

    monkeypatch.setattr(cli, "omega_tangent", failing)
    d = jsonio.load_path(family("failed.json"))
    assert d["derivs"][4] is None and whole["derivs"][4] is not None
    assert d["derivs"][:4] + d["derivs"][5:] == (
        whole["derivs"][:4] + whole["derivs"][5:])
    assert jsonio.dumps(d["values"]) == jsonio.dumps(whole["values"])
    fam = SampledFamily.from_json_dict(d)
    assert fam.derivs[4] is None and len(fam.values) == 9
    norms = c1hol_norm_estimate(fam)
    assert all(math.isfinite(n) for n in norms)
    # the failed point's deriv drops out of n1 and n2, its value stays in n0
    whole_fam = SampledFamily.from_json_dict(whole)
    assert norms[0] == c1hol_norm_estimate(whole_fam)[0]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("workers,n_points,started", [
    (64, 3, [3]),
    (2, 3, [2]),
    (5, 1, []),
])
def test_sweep_starts_at_most_one_process_per_point(
        tmp_path, monkeypatch, workers, n_points, started):
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    summary = cli.run_sweep(
        omega_re=(0.6, 0.62, n_points), omega_im=(0.03, 0.03, 1), eps=0.05,
        f=FourierSeries.cos(), modes=16, workers=workers,
        out_path=str(tmp_path / "s.jsonl"))
    assert _RecordingPool.started == started
    assert summary["workers"] == min(workers, n_points)
    assert summary["total"] == n_points


SWEEP_KNOB_REFUSALS = {
    "modes float": ({"modes": 2.5}, "modes must be an int in [1, 4096], got 2.5"),
    "modes 0": ({"modes": 0}, "modes must be an int in [1, 4096], got 0"),
    "modes past the cap": ({"modes": 4097},
                           "modes must be an int in [1, 4096], got 4097"),
    "max_iters float": ({"max_iters": 3.0},
                        "max_iters must be an int >= 0, got 3.0"),
    "max_iters -1": ({"max_iters": -1}, "max_iters must be an int >= 0, got -1"),
    "tol nan": ({"tol": math.nan}, "tol must be finite and positive, got nan"),
    "tol 0": ({"tol": 0.0}, "tol must be finite and positive, got 0.0"),
    "method": ({"method": "bogus"},
               "method must be 'newton' or 'picard', got 'bogus'"),
    # a non-finite eps or axis end, refused before np.linspace can warn
    "eps nan": ({"eps": math.nan}, "eps must be finite, got (nan+0j)"),
    "eps_axis inf": ({"eps_axis": (0.01, math.inf, 2)},
                     "eps_axis ends must be finite, got inf"),
    "omega_re inf": ({"omega_re": (0.6, math.inf, 2)},
                     "omega_re ends must be finite, got inf"),
    "omega_im nan": ({"omega_im": (math.nan, 0.03, 2)},
                     "omega_im ends must be finite, got nan"),
    "family with eps_axis": ({"eps_axis": (0.01, 0.05, 2),
                              "family_path": "fam.json"},
                             "family_path and eps_axis given: a family is "
                             "sampled in omega at a single eps"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(SWEEP_KNOB_REFUSALS))
def test_sweep_refuses_a_bad_solver_knob_by_name_before_any_task(
        tmp_path, monkeypatch, case, workers):
    kwargs, message = SWEEP_KNOB_REFUSALS[case]
    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    solved = []
    monkeypatch.setattr(cli, "_sweep_point", solved.append)
    out = tmp_path / "s.jsonl"
    with pytest.raises(ValueError) as e, warnings.catch_warnings():
        warnings.simplefilter("error")
        # Im omega = 200 is refused while the tasks are built, so the knob's
        # message shows that it was refused first
        cli.run_sweep(**{"omega_re": (0.6, 0.62, 2),
                         "omega_im": (0.03, 200.0, 2), "eps": 0.05,
                         "f": FourierSeries.cos(), "modes": 16,
                         "workers": workers, "out_path": str(out), **kwargs})
    assert str(e.value) == message
    assert (solved, _RecordingPool.started, out.exists()) == ([], [], False)


def _bulky_point(task):
    """A stand-in for ``cli._sweep_point`` whose record is about 100 kB."""
    return {"index": task[0], "status": "converged",
            "pad": str(task[0]).ljust(100_000, "x")}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_without_a_family_keeps_no_record(tmp_path, monkeypatch,
                                                workers):
    # 50 records of 100 kB: holding them all would peak past 5 MB
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli, "_sweep_point", _bulky_point)
    out = tmp_path / "s.jsonl"
    tracemalloc.start()
    try:
        summary = cli.run_sweep(
            omega_re=(0.6, 0.62, 10), omega_im=(0.03, 0.05, 5), eps=0.05,
            f=FourierSeries.cos(), workers=workers, out_path=str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert summary["converged"] == 50 and summary["workers"] == workers
    lines = out.read_text().splitlines()
    assert [json.loads(line)["index"] for line in lines] == list(range(50))


@pytest.mark.parametrize("missing", ["out_path", "family_path"])
def test_sweep_refuses_an_unwritable_path_before_any_point(
        tmp_path, monkeypatch, missing):
    solved = []
    monkeypatch.setattr(cli, "_sweep_point", solved.append)
    paths = {"out_path": str(tmp_path / "s.jsonl"),
             "family_path": str(tmp_path / "f.json"),
             missing: str(tmp_path / "missing" / "x.json")}
    with pytest.raises(OSError):
        cli.run_sweep(omega_re=(0.6, 0.62, 2), omega_im=(0.03, 0.03, 1),
                      eps=0.05, f=FourierSeries.cos(), **paths)
    assert solved == []


def test_sweep_keeps_failed_points_inline(tmp_path):
    # a grid crossing omega = 1/2 on the real axis: the resonant point
    # fails inline, the rest converge, and the exit code stays 0
    r = run_cli(["sweep", "--omega-min", "0.5", "--omega-max",
                 str(GOLDEN), "--omega-n", "2", "--eps", "0.05",
                 "--f", "cos", "--modes", "32", "--max-iters", "8",
                 "--out", "mix.jsonl"], tmp_path)
    assert r.returncode == 0, r.stderr
    recs = [json.loads(s) for s in (tmp_path / "mix.jsonl").read_text().splitlines()]
    assert len(recs) == 2
    statuses = {rec["omega"][0]: rec["status"] for rec in recs}
    assert statuses[0.5] == "failed"
    assert statuses[GOLDEN] == "converged"
    failed = next(rec for rec in recs if rec["status"] == "failed")
    assert "error" in failed and "type" in failed["error"]
    assert [rec["index"] for rec in recs] == [0, 1]


def test_sweep_failure_carries_the_solve_error_diagnostics(tmp_path):
    # a resonant point records the same error object as solve's error JSON
    from kamforge.cli import run_sweep
    out = tmp_path / "res.jsonl"
    summary = run_sweep(omega_re=(0.5, 0.5, 1), omega_im=(0.0, 0.0, 1),
                        eps=0.05, f=kamforge.FourierSeries.cos(), modes=32,
                        out_path=str(out))
    assert summary["failed"] == 1
    err = json.loads(out.read_text())["error"]
    assert err["type"] == "ResonanceError"
    diag = err["diagnostics"]
    assert list(diag) == ["k", "omega", "p", "m", "residual_history",
                          "max_divisor", "max_divisor_k", "truncation_tail"]
    assert {key: diag[key] for key in ("k", "omega", "p", "m")} == {
        "k": 2, "omega": [0.5, 0.0], "p": 1, "m": 2}
    # the divisor table cannot be read past q^2 - 1 = 0
    assert (diag["max_divisor"], diag["max_divisor_k"]) == (math.inf, 2)


def test_geometry_command(tmp_path):
    r = run_cli(["geometry", "--M", "6", "--mmax", "300",
                 "--out", "geo.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "within bound: True" in r.stdout
    d = json.loads((tmp_path / "geo.json").read_text())
    from kamforge.frequency import DiophantineClass
    assert d["total_gap_measure"] <= DiophantineClass(6.0, 0.5, 300).measure_bound()
    assert d["first_untested_denominator"] == 301
    assert len(d["gaps"]) > 0 and len(d["boundary_samples"]) > 0


def test_geometry_rejects_non_finite_M(tmp_path):
    r = run_cli(["geometry", "--M", "inf", "--mmax", "10",
                 "--out", "geo.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "M" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "geo.json").exists()


def test_obstruction_command(tmp_path):
    r = run_cli(["obstruction", "--p", "1", "--m", "3", "--f", "cos",
                 "--out", "obs.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "n* = 3" in r.stdout
    d = json.loads((tmp_path / "obs.json").read_text())
    assert d["n_star"] == 3
    assert d["relative_gap"] < 1e-12


def test_obstruction_artifact_keeps_the_sign_of_zero(tmp_path):
    r = run_cli(["obstruction", "--p", "13", "--m", "34",
                 "--exactness", "extended", "--out", "obs.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / "obs.json").read_text())
    written = jsonio.to_complex(d["gammas_oracle"], "obstruction", "gammas_oracle")
    rep = obstruction_order(FourierSeries.cos(), RationalFreq(13, 34),
                            exactness="extended")
    expect = np.asarray(rep.gammas_oracle, dtype=np.complex128)
    assert written.tobytes() == expect.tobytes()
    parts = np.concatenate([expect.real, expect.imag])
    assert np.count_nonzero((parts == 0) & np.signbit(parts)) == 16


def test_radial_picard_sweep_failure_still_writes_jsonl(tmp_path):
    # the radial probe toward q = e^{2 pi i / 3} is `sweep --method picard`
    # on Re omega = 1/3; at eps = 50 Picard diverges at r = 0.9, and the
    # point is still written, as failed; with no point converged the exit
    # code is 1
    im = -math.log(0.9) / (2 * math.pi)
    r = run_cli(["sweep", "--omega-min", str(1 / 3), "--omega-max",
                 str(1 / 3), "--omega-n", "1", "--im-min", str(im),
                 "--im-max", str(im), "--eps", "50", "--f", "cos",
                 "--modes", "256", "--method", "picard",
                 "--out", "radial.jsonl"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr == "all points failed\n"
    recs = [json.loads(s)
            for s in (tmp_path / "radial.jsonl").read_text().splitlines()]
    assert len(recs) == 1
    assert recs[0]["status"] == "failed"
    assert recs[0]["error"]["type"] == "DivergenceError"
    # the option that added the radial probe to the obstruction artifact
    # is gone
    r = run_cli(["obstruction", "--p", "1", "--m", "3", "--radial-eps",
                 "0.05", "--out", "obs.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "unrecognized arguments: --radial-eps 0.05" in r.stderr
    assert not (tmp_path / "obs.json").exists()


@pytest.mark.parametrize("cmd,flag,value,field", [
    ("solve", "--max-iters", "-1", "max_iters"),
    ("solve", "--modes", "-3", "modes"),
    ("crosscheck", "--modes", "5000", "modes"),
    ("sweep", "--max-iters", "-1", "max_iters"),
    ("sweep", "--modes", "0", "modes"),
    ("sweep", "--workers", "-4", "--workers"),
    ("sweep", "--workers", "0", "--workers"),
    ("solve", "--grid-n", "0", "--grid-n"),
    ("sweep", "--omega-n", "0", "--omega-n"),
    ("sweep", "--omega-n", "-1", "--omega-n"),
    ("sweep", "--im-n", "0", "--im-n"),
    ("sweep", "--eps-n", "0", "--eps-n"),
    ("geometry", "--boundary-n", "-5", "--boundary-n"),
    # the deleted option is refused like --radial-eps, naming it
    ("obstruction", "--threshold", "-1", "threshold"),
    ("crosscheck", "--orders", "0", "n_taylor"),
    ("crosscheck", "--orders", "100", "n_taylor"),
    ("solve", "--tol", "inf", "tol"),
    ("sweep", "--tol", "inf", "tol"),
    ("crosscheck", "--tol", "nan", "tol"),
])
def test_invalid_solver_settings_exit_2(tmp_path, cmd, flag, value, field):
    args = {"solve": ["solve", "--omega", "0.3", "--out", "x.json"],
            "obstruction": ["obstruction", "--p", "1", "--m", "3",
                            "--out", "x.json"],
            "crosscheck": ["crosscheck", "--q-re", "0.3", "--out", "x.json"],
            "sweep": ["sweep", "--omega-min", "0.3", "--omega-max", "0.4",
                      "--omega-n", "2", "--out", "x.jsonl"],
            "geometry": ["geometry", "--M", "6", "--mmax", "50",
                         "--out", "x.json"]}[cmd]
    r = run_cli([*args, flag, value], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "error: " in r.stderr and field in r.stderr
    assert "Traceback" not in r.stderr


def test_an_obstruction_witness_past_the_hard_cap_exits_2(tmp_path):
    f = json.dumps([0.5] + [0] * 99 + [0.5])    # 0.5 e_-50 + 0.5 e_50
    r = run_cli(["obstruction", "--p", "1", "--m", "97", "--f", f,
                 "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: the witness at order 97 ")
    assert "97 * 50 = 4850, past the hard cap 4096" in r.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("cmd", [["geometry"], ["solve", "--omega", "0.3"]])
def test_a_gap_union_past_its_cap_exits_2(tmp_path, cmd):
    r = run_cli([*cmd, "--M", "6", "--mmax", "10001", "--out", "x.json"],
                tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "m_max = 10001" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("content,key", [
    ({}, "N"),
    ({"coeffs": [0.5, 0, 0.5]}, "N"),
    ({"N": 1}, "coeffs"),
    ({"N": None, "coeffs": [0.5, 0, 0.5]}, "N"),
    ({"N": 1.5, "coeffs": [0.5, 0, 0.5]}, "N"),
])
def test_series_file_missing_a_key_exits_2(tmp_path, content, key):
    (tmp_path / "f.json").write_text(json.dumps(content))
    r = run_cli(["solve", "--omega", "0.3", "--f", "f.json",
                 "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and repr(key) in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args,name", [
    (["solve", "--omega", "nan"], "omega"),
    (["solve", "--omega", "inf"], "omega"),
    (["solve", "--omega", "0.3", "--omega-im", "nan"], "omega"),
    (["solve", "--q-re", "nan"], "q must"),
    (["solve", "--omega", "0.3", "--eps", "nan"], "--eps"),
    (["solve", "--omega", "0.3", "--eps-im", "inf"], "--eps-im"),
    (["sweep", "--omega-min", "0.3", "--omega-max", "0.4", "--omega-n", "2",
      "--eps-n", "2", "--eps-min", "0", "--eps-max", "-inf"], "--eps-max"),
    # the deleted radial option is refused like a non-finite value
    (["obstruction", "--p", "1", "--m", "3", "--radial-eps", "nan"],
     "--radial-eps"),
    (["crosscheck", "--q-re", "0.3", "--eps", "nan"], "--eps"),
    (["solve", "--omega", "0.3", "--f", "[NaN, 0, 0.5]"], "--f"),
    # the deleted option is refused like --radial-eps, naming it
    (["obstruction", "--p", "1", "--m", "3", "--threshold", "nan"],
     "--threshold"),
    (["obstruction", "--p", "1", "--m", "3", "--threshold", "inf"],
     "--threshold"),
    (["taylor0", "--eps-im", "nan"], "--eps-im"),
    (["sweep", "--omega-min", "0.3", "--omega-max", "inf", "--omega-n", "2"],
     "--omega-max"),
    (["sweep", "--omega-min", "0.3", "--omega-max", "0.4", "--omega-n", "2",
      "--im-min", "nan"], "--im-min"),
    # not a number at all
    (["solve", "--omega", "0.3", "--eps", "abc"], "--eps"),
])
def test_non_finite_frequency_or_eps_exits_2(tmp_path, args, name):
    r = run_cli([*args, "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "error: " in r.stderr and name in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("im", ["4", "-4", "60", "-60"])
def test_solve_far_off_the_circle_steps_from_a_cold_start(tmp_path, im):
    # the zero seed's defect is below tol there; accepting it printed
    # converged=True iterations=0 with a dynamical residual of eps
    r = run_cli(["solve", "--omega", "0.3", "--omega-im", im, "--eps", "0.01",
                 "--out", "c.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / "c.json").read_text())
    assert d["report"]["iterations"] >= 1
    assert d["dynamical_residual"] < 1e-10


def assert_exits_2_naming(r, tmp_path, out, named):
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and named in r.stderr, r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("im", ["115", "200", "-200"])
def test_solve_past_the_exponent_cap_names_it(tmp_path, im):
    # 2 pi |Im omega| > 700: no frequency is made, so nothing is solved
    r = run_cli(["solve", "--omega", "0.3", "--omega-im", im, "--eps", "0.01",
                 "--out", "c.json"], tmp_path)
    assert_exits_2_naming(r, tmp_path, "c.json",
                          f"2 pi |Im omega| <= 700, got (0.3{float(im):+g}j)")


def test_sweep_past_the_exponent_cap_exits_2_before_any_solve(tmp_path):
    r = run_cli(["sweep", "--omega-min", "0.3", "--omega-max", "0.3",
                 "--omega-n", "1", "--im-min", "0.01", "--im-max", "200",
                 "--im-n", "2", "--out", "s.jsonl"], tmp_path)
    assert_exits_2_naming(r, tmp_path, "s.jsonl",
                          "2 pi |Im omega| <= 700, got (0.3+200j)")
    assert "sweep:" not in r.stdout


def test_picard_budget_failure_keeps_its_history(monkeypatch):
    monkeypatch.setattr(continuation, "PICARD_MAX_ITERS", 2)
    with pytest.raises(NoConvergenceError) as info:
        continuation.picard_solve(FourierSeries.cos(), from_q(0.3), 0.05,
                                  SolverConfig(tol=1e-13))
    diag = cli._error_payload(info.value)["error"]["diagnostics"]
    assert list(diag) == ["q_modulus", "residual_history", "max_divisor",
                          "max_divisor_k", "truncation_tail"]
    # a budget of 2 steps records 3 defects, as Newton's max_iters does
    assert len(diag["residual_history"]) == 3


def test_a_failed_solve_writes_its_residual_history(tmp_path):
    # q = 0.9 e^{0.5i}: a cold Newton iterate's 1/(A A+) needs more modes
    # than the hard cap; the error JSON still holds the defects before it
    r = run_cli(["solve", "--q-re", "0.789824305701336", "--q-im",
                 "0.431482984743783", "--out", "c.json"], tmp_path)
    assert r.returncode == 1, r.stderr
    err = json.loads((tmp_path / "c.json").read_text())["error"]
    assert err == json.loads(r.stdout)["error"]
    assert err["type"] == "NearSingularError"
    assert len(err["diagnostics"]["residual_history"]) >= 1
    assert "Traceback" not in r.stderr


def test_taylor0_command_with_evaluation(tmp_path):
    r = run_cli(["taylor0", "--f", "cos", "--eps", "0.05", "--orders", "20",
                 "--q-re", "0.3", "--out", "t0.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / "t0.json").read_text())
    assert len(d["data"]["orders"]) == 20
    assert d["eval"]["q"] == [0.3, 0.0]
    assert len(d["eval"]["term_norms"]) == 20


def test_crosscheck_command(tmp_path):
    r = run_cli(["crosscheck", "--q-re", "0.3", "--eps", "0.05",
                 "--f", "cos", "--out", "cc.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / "cc.json").read_text())
    assert d["methods"]["newton"]["status"] == "ok"
    assert d["methods"]["picard"]["status"] == "ok"
    assert d["methods"]["taylor0"]["status"] == "ok"
    assert d["pairs"]["newton_vs_picard"] < 1e-10


@pytest.mark.parametrize("methods,named", [
    ("newton,picrd", "'picrd'"),
    ("", "no methods given"),
])
def test_crosscheck_unknown_or_no_methods_exit_2(tmp_path, methods, named):
    r = run_cli(["crosscheck", "--q-re", "0.3", "--methods", methods,
                 "--out", "cc.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and named in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "cc.json").exists()


def test_crosscheck_repeated_method_exits_2(tmp_path):
    r = run_cli(["crosscheck", "--q-re", "0.3", "--methods", "newton,newton",
                 "--out", "cc.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "['newton']" in r.stderr
    assert "newton_vs_newton" not in r.stdout
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "cc.json").exists()


@pytest.mark.parametrize("args", [["solve", "--method", "picard"],
                                  ["crosscheck"]], ids=["solve-picard",
                                                        "crosscheck"])
def test_a_chart_pole_exits_2_naming_q(tmp_path, args):
    # q = 0 has no shift multipliers: no frequency is made there
    r = run_cli([*args, "--q-re", "0", "--out", "p.json"], tmp_path)
    assert_exits_2_naming(r, tmp_path, "p.json",
                          "q must be nonzero and finite with |log |q|| <= 700, "
                          "got 0j")


def test_picard_past_the_double_range_of_q_exits_2_like_newton(tmp_path):
    # |q| = e^754 has no double: both methods meet the one refusal
    errors = {}
    for method in ("newton", "picard"):
        r = run_cli(["solve", "--omega", "0.3", "--omega-im", "-120",
                     "--method", method, "--out", f"{method}.json"], tmp_path)
        assert_exits_2_naming(r, tmp_path, f"{method}.json", "got (0.3-120j)")
        errors[method] = r.stderr
    assert errors["picard"] == errors["newton"]


def test_verify_invariants_suite(tmp_path):
    r = run_cli(["verify", "--suite", "invariants"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "[PASS]" in r.stdout
    assert "[FAIL]" not in r.stdout


def test_picard_solve_with_a_diophantine_class_writes_in_KM_first(tmp_path):
    r = run_cli(["solve", "--q-re", "0.3", "--method", "picard", "--M", "6",
                 "--out", "p.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    d = json.loads((tmp_path / "p.json").read_text())
    assert list(d["report"]["diagnostics"]) == [
        "in_KM", "q_modulus", "post_normalization_residual"]
    assert d["report"]["diagnostics"]["in_KM"] is True


def test_obstruction_past_the_order_cap_exits_2(tmp_path):
    r = run_cli(["obstruction", "--p", "1", "--m", "1000000000",
                 "--out", "obs.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: m must be an int in [1, 400], got 1000000000\n"
    assert not (tmp_path / "obs.json").exists()


def test_an_unknown_forcing_name_exits_2(tmp_path):
    r = run_cli(["solve", "--omega", str(GOLDEN), "--f", "sin",
                 "--out", "x.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr == ("error: --f must be 'cos', an inline JSON array, "
                        "or a path: 'sin'\n")
    assert list(tmp_path.iterdir()) == []


def test_obstruction_below_its_order_writes_a_null_n_star(tmp_path):
    # at 1/7 the cosine's first obstruction lies past order 3
    r = run_cli(["obstruction", "--p", "1", "--m", "7", "--max-order", "3",
                 "--out", "obs.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "p/m = 1/7: no obstruction through order 3" in r.stdout
    d = json.loads((tmp_path / "obs.json").read_text())
    assert d["n_star"] is None and d["orders_computed"] == 3


def test_taylor0_without_a_point_writes_the_orders_alone(tmp_path):
    r = run_cli(["taylor0", "--out", "t0.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("computed 40 orders; ||u_1|| = 5.000e-02, ")
    d = json.loads((tmp_path / "t0.json").read_text())
    assert list(d) == ["data"] and len(d["data"]["orders"]) == 40


def test_crosscheck_on_the_unit_circle_prints_the_skip_notes(tmp_path):
    r = run_cli(["crosscheck", "--omega", repr(GOLDEN), "--out", "cc.json"],
                tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "newton: ok"
    assert lines[1].startswith("picard: skipped (|q| = 1 is within 0.05 ")
    assert lines[2] == "taylor0: skipped (taylor0 needs |q| < 1)"


def test_an_unwritable_error_json_still_reaches_stdout(tmp_path):
    r = run_cli(["solve", "--omega", "0.5",
                 "--out", str(tmp_path / "missing" / "x.json")], tmp_path)
    assert r.returncode == 1, r.stderr
    assert json.loads(r.stdout)["error"]["type"] == "ResonanceError"
    assert r.stderr.splitlines()[-1].startswith("error: [Errno 2] ")
    assert list(tmp_path.iterdir()) == []


def test_the_suite_registry():
    assert verify._registry("acceptance") == verify.ACCEPTANCE
    assert verify._registry("all") == verify.INVARIANTS + verify.ACCEPTANCE
    with pytest.raises(ValueError, match="^unknown suite 'bogus'"):
        verify._registry("bogus")


def test_run_check_reports_a_crash_as_a_failure(monkeypatch):
    def crash():
        raise RuntimeError("no data")

    name = verify.INVARIANTS[0][0]
    monkeypatch.setattr(verify, "INVARIANTS",
                        [(name, crash), *verify.INVARIANTS[1:]])
    result = verify.run_check(name)
    assert (result.name, result.passed, result.detail) == (
        name, False, "raised RuntimeError: no data")
    with pytest.raises(KeyError):
        verify.run_check("I99-no-such-check")
