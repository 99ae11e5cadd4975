"""The selftest registry, run by pytest: each check is written once."""

import pytest

from orthovol import selftest


@pytest.mark.parametrize(
    "check,tol", [c[1:] for c in selftest.CHECKS], ids=[c[0] for c in selftest.CHECKS]
)
def test_registry_check(check, tol):
    assert check() <= tol


def test_failures_are_counted(monkeypatch):
    # a check over its bound and a check that raises both fail, and the
    # run goes on past them
    def boom():
        raise ArithmeticError("no value")

    monkeypatch.setattr(
        selftest, "CHECKS", [("over", lambda: 0.5, 0.1), ("boom", boom, 1.0),
                             ("fine", lambda: 0.0, 0.1)],
    )
    lines = []
    assert selftest.run_selftest(write=lines.append) == 2
    assert lines[0].startswith("FAIL over: worst rel 5.00e-01")
    assert lines[1] == "FAIL boom: ArithmeticError: no value"
    assert lines[2].startswith("ok   fine")
    assert lines[3] == "1/3 checks passed"
