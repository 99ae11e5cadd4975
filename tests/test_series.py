"""volume_kernel for n >= 3 from l = ln 2 / 2 on: the t-series for even n.

Even n sums Euler's form of the kernel in t = e^(-2l) there, from the
same per-dimension table as its s-series below the cut.  Odd n takes its
closed form (tests/test_odd_kernel.py); the table holds both, and every
test here runs on every n in it.

tests/data/series_reference.json holds F_n(l) from its hypergeometric
form at 40 digits (written by tests/gen_series_reference.py) for
n = 3..100, 400, 500, 1000 and 2000 and l = ln 2 / 2..1e4, with log F
for the points where F is far below the smallest double.
"""

import importlib
import json
import math
import os
import statistics
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthovol import volume_kernel
from orthovol.volume_kernel import _BUILD_TAIL, _SERIES_CUT, _s_coefficients

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


@pytest.mark.parametrize("n", (4, 6, 10, 20, 60, 100, 400, 2000))
def test_t_series_coefficients(n):
    # q_K = 2(n-2) p_K / (n-1), p_(K+1) = p_K (3-n+2K) / (n+1+2K),
    # correctly rounded; q_K e_K with e_K = c_n - delta_K within e_0 eps
    # of exact, the error the estimate allows; terms run until the last
    # at the cut is below 2^-60 of the sum there
    t_terms = _s_coefficients(n)[7]
    q = Fraction(2 * (n - 2), n - 1)
    with mp.workdps(40):
        e_0 = mp.harmonic(mp.mpf(n - 1) / 2)
        e, total = e_0, mp.mpf(0)
        for k, (r, re) in enumerate(t_terms):
            assert r == float(q)
            assert abs(re - r * e) <= abs(r) * e_0 * EPS + math.ulp(re)
            term = r * (_SERIES_CUT + e) / 2**k
            total += term
            e -= mp.mpf(n - 1) / ((k + 1) * (n + 1 + 2 * k))
            q *= Fraction(3 - n + 2 * k, n + 1 + 2 * k)
        assert abs(term) <= _BUILD_TAIL * total


@pytest.mark.parametrize("n", (500, 1000, 2000))
def test_large_even_dimensions_return(n):
    # past n = 400 the t-series' log_value stays finite, except where
    # (n-1) l itself passes the largest double; a call below the cut then
    # reads the table the first call built
    _s_coefficients.cache_clear()
    for l in (1.0, _SERIES_CUT, 1e4, 1e300, sys.float_info.max):
        kv = volume_kernel(n, l)
        assert kv.value >= 0.0 and kv.err_estimate > 0.0
        assert math.isfinite(kv.log_value) or (n - 1) * l == math.inf
    misses = _s_coefficients.cache_info().misses
    assert math.isfinite(volume_kernel(n, 1e-3).log_value)
    assert _s_coefficients.cache_info().misses == misses
