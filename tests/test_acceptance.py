"""The eleven headline criteria and the eleven invariants, one test each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-check
lines; the same checks back ``python3 -m kamforge verify``.
"""

import inspect

import numpy as np
import pytest

from kamforge import verify
from kamforge.continuation import CROSSCHECK_METHODS, crosscheck
from kamforge.fourier import FourierSeries
from kamforge.frequency import export_set_geometry, from_omega
from kamforge.verify import ACCEPTANCE, INVARIANTS, run_check


def _run(name):
    result = run_check(name)
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("name", [name for name, _ in ACCEPTANCE])
def test_acceptance(name):
    _run(name)


@pytest.mark.parametrize("name", [name for name, _ in INVARIANTS])
def test_invariant(name):
    _run(name)


def _spy_crosscheck(monkeypatch, change=None):
    """Record each call of ``verify.crosscheck`` with its bound arguments
    and the report it returned: the real one, after *change* if given."""
    calls = []

    def spy(*args, **kwargs):
        report = crosscheck(*args, **kwargs)
        if change:
            change(report)
        bound = inspect.signature(crosscheck).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments, report))
        return report

    monkeypatch.setattr(verify, "crosscheck", spy)
    return calls


def _assert_cos_at_005(arguments):
    assert np.array_equal(arguments["f"].coeffs, FourierSeries.cos().coeffs)
    assert arguments["eps"] == 0.05 and arguments["n_taylor"] == 40


def test_a03_compares_the_three_methods_through_crosscheck(monkeypatch):
    calls = _spy_crosscheck(monkeypatch)
    ok, detail = verify.check_three_method_agreement()
    assert ok, detail
    (near, near_report), (far, far_report) = calls
    for arguments in (near, far):
        _assert_cos_at_005(arguments)
    assert near["freq"].q == 0.3 and near["methods"] == CROSSCHECK_METHODS
    assert far["freq"] == from_omega(0.5 + 0.5j)
    assert far["methods"] == ("newton", "picard")
    pairs, far_pairs = near_report["pairs"], far_report["pairs"]
    assert (f"|picard-taylor0|={pairs['picard_vs_taylor0']:.2e} "
            f"(<1e-8), |picard-newton|={pairs['newton_vs_picard']:.2e} "
            f"(<1e-10); omega=1/2+i/2: |newton-picard|="
            f"{far_pairs['newton_vs_picard']:.2e} (<1e-10); ") in detail


def test_i07_compares_taylor0_and_picard_through_crosscheck(monkeypatch):
    calls = _spy_crosscheck(monkeypatch)
    ok, detail = verify.check_taylor_vs_picard()
    assert ok, detail
    ((arguments, report),) = calls
    _assert_cos_at_005(arguments)
    assert arguments["freq"].q == 0.2
    assert arguments["methods"] == ("taylor0", "picard")
    assert detail == ("taylor0(40) vs picard at q=0.2: "
                      f"{report['pairs']['taylor0_vs_picard']:.2e} (<1e-8)")


@pytest.mark.parametrize("status", ["skipped", "failed"])
@pytest.mark.parametrize("check", [verify.check_three_method_agreement,
                                   verify.check_taylor_vs_picard])
def test_a_method_without_a_curve_fails_the_check_by_status(
        monkeypatch, check, status):
    # the pairs with picard are gone; reading them ended in a KeyError
    def withhold_picard(report):
        report["methods"]["picard"] = {"status": status,
                                       "note": "withheld by the test"}
        report["pairs"] = {k: v for k, v in report["pairs"].items()
                           if "picard" not in k}

    _spy_crosscheck(monkeypatch, withhold_picard)
    ok, detail = check()
    assert not ok
    assert f"picard {status} (withheld by the test)" in detail


def test_a08_reads_the_measure_of_export_set_geometry(monkeypatch):
    measures = []

    def spy(cls, *args, **kwargs):
        geometry = export_set_geometry(cls, *args, **kwargs)
        measures.append((geometry.total_gap_measure, cls._gaps()[2]))
        return geometry

    monkeypatch.setattr(verify, "export_set_geometry", spy)
    ok, detail = verify.check_set_geometry()
    assert ok, detail
    assert len(measures) == 2
    for got, gaps in measures:
        assert np.float64(got).tobytes() == np.float64(gaps).tobytes()
        assert f"measure={got:.6f}" in detail
