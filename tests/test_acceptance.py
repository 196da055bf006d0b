"""The eleven headline criteria and the eleven invariants, one test each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-check
lines; the same checks back ``python3 -m kamforge verify``.
"""

import pytest

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
