"""volume_kernel for n >= 3 from l = ln 2 / 2 on: the t-series for even n.

Odd n takes its closed form there (tests/test_odd_kernel.py); the table
holds both, and every test here runs on every n in it.

tests/data/series_reference.json holds F_n(l) from its hypergeometric
form at 40 digits (written by tests/gen_series_reference.py) for
n = 3..100 and l = ln 2 / 2..1e4, with log F for the points where F is
far below the smallest double.
"""

import importlib
import json
import math
import os
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthovol import volume_kernel
from orthovol.volume_kernel import _SERIES_CUT

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "series_reference.json")

with open(PATH) as fh:
    POINTS = json.load(fh)["points"]


def log_bound(n, l):
    # the log form's own rounding: a few eps times (n-1) l, its condition
    return 4.0 * EPS * max(1.0, (n - 1) * l)


@pytest.mark.parametrize("n", sorted({p["n"] for p in POINTS}))
def test_series_within_its_estimate(n):
    # |value - F| <= err_estimate + 4 ulp at every point; where F is not
    # a normal double, log_value meets log F as well
    for p in POINTS:
        if p["n"] != n:
            continue
        kv = volume_kernel(n, p["l"])
        ref = float(p["value"])
        assert abs(kv.value - ref) <= kv.err_estimate + 4.0 * math.ulp(kv.value), p
        if ref < TINY:
            log_ref = float(p["log_value"])
            assert abs(kv.log_value - log_ref) <= (
                log_bound(n, p["l"]) + 4.0 * math.ulp(log_ref)
            ), p


def test_series_estimate_is_not_loose():
    # the estimate stays within a few hundred of the error it bounds
    over = []
    for p in POINTS:
        ref = float(p["value"])
        if ref >= TINY:
            kv = volume_kernel(p["n"], p["l"])
            over.append(kv.err_estimate / (abs(kv.value - ref) + math.ulp(ref)))
    assert statistics.median(over) < 1e3


def test_series_never_integrates(monkeypatch):
    # n >= 3 reaches neither the quadrature nor the inner kernel, from
    # l = ln 2 / 2 up to the largest double and just below the cut
    def fail(*args, **kwargs):
        raise AssertionError("volume_kernel integrated")

    # the package attribute volume_kernel is the function, not the module
    module = importlib.import_module("orthovol.volume_kernel")
    monkeypatch.setattr(module, "inner_kernel", fail)
    monkeypatch.setattr(module, "adaptive_quad", fail)
    lengths = (_SERIES_CUT, 0.5, 1.0, 5.0, 50.0, 400.0, 1e4, 1e300, sys.float_info.max)
    for n in range(3, 101):
        for l in lengths:
            kv = volume_kernel(n, l)
            assert kv.value >= 0.0 and kv.err_estimate > 0.0
            assert kv.log_value < math.inf
    for n in range(3, 101):
        assert volume_kernel(n, math.nextafter(_SERIES_CUT, 0.0)).value > 0.0


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 100),
    lengths=st.tuples(st.floats(_SERIES_CUT, 1e4), st.floats(_SERIES_CUT, 1e4)),
)
def test_series_positive_and_decreasing(n, lengths):
    lo, hi = sorted(lengths)
    near, far = (volume_kernel(n, l) for l in (lo, hi))
    for kv in (near, far):
        assert math.isfinite(kv.log_value)
        # 0 only where F rounds to 0
        assert kv.value > 0.0 or kv.log_value < math.log(math.ulp(0.0))
        if kv.value >= TINY:
            assert abs(math.log(kv.value) - kv.log_value) <= (
                2.0 * EPS * max(1.0, abs(kv.log_value))
            )
    # non-increasing within the estimates: lengths an ulp apart may
    # round either way
    assert far.value <= near.value + near.err_estimate + far.err_estimate
    assert far.log_value <= near.log_value + log_bound(n, hi)
