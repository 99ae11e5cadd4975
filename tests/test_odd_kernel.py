"""The closed form of volume_kernel for odd n, at every length.

tests/data/odd_reference.json holds F_n(l) for n = 3..99 odd below
l = ln 2 / 2, and tests/data/series_reference.json the odd n among
n = 3..100 from there on, both from the kernel's hypergeometric form at
40 digits or more (tests/gen_series_reference.py), with log F for the
points where F leaves the double range.
"""

import importlib
import json
import math
import os
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthovol import volume_kernel
from orthovol.volume_kernel import _SERIES_CUT, _odd_coefficients

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
HUGE = sys.float_info.max
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _points(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)["points"]


POINTS = _points("odd_reference.json") + [
    p for p in _points("series_reference.json") if p["n"] % 2
]


def log_bound(n, l, log_ref):
    # the log scale's own rounding: a few eps times the size of its terms
    return 4.0 * EPS * max(1.0, (n - 1) * l, abs(log_ref)) + 4.0 * math.ulp(log_ref)


@pytest.mark.parametrize("n", sorted({p["n"] for p in POINTS}))
def test_odd_within_its_estimate(n):
    # |value - F| <= err_estimate + 4 ulp where F is a normal double;
    # elsewhere value is 0, subnormal or inf as F is, and log_value is log F
    for p in POINTS:
        if p["n"] != n:
            continue
        kv = volume_kernel(n, p["l"])
        ref, log_ref = float(p["value"]), float(p["log_value"])
        assert abs(kv.value - ref) <= kv.err_estimate + 4.0 * math.ulp(kv.value) or (
            kv.value == ref == math.inf and kv.err_estimate == math.inf
        ), p
        if not TINY <= ref < math.inf:
            assert abs(kv.log_value - log_ref) <= log_bound(n, p["l"], log_ref), p


def test_odd_estimate_is_not_loose():
    over = []
    for p in POINTS:
        ref = float(p["value"])
        if TINY <= ref < math.inf:
            kv = volume_kernel(p["n"], p["l"])
            over.append(kv.err_estimate / (abs(kv.value - ref) + math.ulp(ref)))
    assert statistics.median(over) < 1e3


def exact_coefficients(n):
    # r_k = p_k / p_0 from p_(k+1) = p_k (m-1-k) / (2m-2-k), and
    # r_k e_k with e_k = H_(n-2) - H_k, in exact rationals
    m = (n - 1) // 2
    h = sum(Fraction(1, j) for j in range(1, n - 1))
    r = Fraction(1)
    out = []
    for k in range(m):
        out.append((r, r * h))
        h -= Fraction(1, k + 1)
        if k + 1 < m:
            r = r * (m - 1 - k) / (2 * m - 2 - k)
    return out


@pytest.mark.parametrize("n", range(3, 100, 2))
def test_odd_coefficients_correctly_rounded(n):
    *_, coefs = _odd_coefficients(n)
    exact = exact_coefficients(n)
    assert len(coefs) == (n - 1) // 2
    # cached from the top degree down
    for (r, q), (r_exact, q_exact) in zip(reversed(coefs), exact):
        assert r == float(r_exact) and q == float(q_exact)
        assert r > 0.0 and q > 0.0


def test_odd_never_integrates(monkeypatch):
    # odd n reaches neither the quadrature, the inner kernel nor the
    # t-series, from the least positive double to the largest
    def fail(*args, **kwargs):
        raise AssertionError("volume_kernel left the closed form")

    # the package attribute volume_kernel is the function, not the module
    module = importlib.import_module("orthovol.volume_kernel")
    for name in ("inner_kernel", "adaptive_quad", "volume_kernel_radial",
                 "_series_kernel"):
        monkeypatch.setattr(module, name, fail)
    lengths = (5e-324, 1e-300, 1e-12, 0.1, math.nextafter(_SERIES_CUT, 0.0),
               _SERIES_CUT, 1.0, 1e4, 1e300, HUGE)
    for n in range(3, 100, 2):
        for l in lengths:
            kv = volume_kernel(n, l)
            assert not math.isnan(kv.value + kv.err_estimate + kv.log_value)
            assert kv.value >= 0.0 and kv.err_estimate > 0.0
            if kv.value == math.inf:
                assert kv.err_estimate == math.inf and math.isfinite(kv.log_value)
            elif kv.value == 0.0:
                # -inf only where log F itself is past the double range
                assert math.isfinite(kv.log_value) or (n - 1) * l == math.inf
    with pytest.raises(AssertionError, match="left the closed form"):
        volume_kernel(4, 0.1)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 49).map(lambda k: 2 * k + 1),
    lengths=st.tuples(st.floats(1e-12, 1e4), st.floats(1e-12, 1e4)),
)
def test_odd_positive_and_decreasing(n, lengths):
    lo, hi = sorted(lengths)
    near, far = (volume_kernel(n, l) for l in (lo, hi))
    for kv in (near, far):
        assert math.isfinite(kv.log_value)
        # 0 only where F rounds to 0, inf only where it overflows
        assert kv.value > 0.0 or kv.log_value < math.log(math.ulp(0.0))
        assert kv.value < math.inf or kv.log_value > math.log(HUGE)
        if TINY <= kv.value < math.inf:
            assert abs(math.log(kv.value) - kv.log_value) <= (
                2.0 * EPS * max(1.0, abs(kv.log_value))
            )
    # non-increasing within the estimates: lengths an ulp apart may
    # round either way
    assert far.value <= near.value + near.err_estimate + far.err_estimate
    assert far.log_value <= near.log_value + log_bound(n, hi, far.log_value)
