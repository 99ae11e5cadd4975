"""The s-series of volume_kernel: odd n at every length, even n below ln 2 / 2.

tests/data/s_series_reference.json holds F_n(l) for odd and even n = 3..100
below l = ln 2 / 2, and tests/data/series_reference.json the odd n among
n = 3..100 from there on, both from the kernel's hypergeometric form at
40 digits or more (tests/gen_series_reference.py), with log F for the
points where F leaves the double range.  For odd n the series is the
closed form; for even n it has a second, log-s sum.
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
from orthovol.volume_kernel import _SERIES_CUT, _s_coefficients

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
HUGE = sys.float_info.max
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _points(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)["points"]


POINTS = _points("s_series_reference.json") + [
    p for p in _points("series_reference.json") if p["n"] % 2
]
ODD = [p for p in POINTS if p["n"] % 2]
EVEN = [p for p in POINTS if not p["n"] % 2]


def log_bound(n, l, log_ref):
    # the log scale's own rounding: a few eps times the size of its terms
    return 4.0 * EPS * max(1.0, (n - 1) * l, abs(log_ref)) + 4.0 * math.ulp(log_ref)


def check_within_estimate(points):
    # |value - F| <= err_estimate + 4 ulp where F is a normal double;
    # elsewhere value is 0, subnormal or inf as F is, and log_value is log F
    for p in points:
        n = p["n"]
        kv = volume_kernel(n, p["l"])
        ref, log_ref = float(p["value"]), float(p["log_value"])
        assert abs(kv.value - ref) <= kv.err_estimate + 4.0 * math.ulp(kv.value) or (
            kv.value == ref == math.inf and kv.err_estimate == math.inf
        ), p
        if not TINY <= ref < math.inf:
            assert abs(kv.log_value - log_ref) <= log_bound(n, p["l"], log_ref), p


def median_over_estimate(points):
    over = []
    for p in points:
        ref = float(p["value"])
        if TINY <= ref < math.inf:
            kv = volume_kernel(p["n"], p["l"])
            over.append(kv.err_estimate / (abs(kv.value - ref) + math.ulp(ref)))
    return statistics.median(over)


@pytest.mark.parametrize("n", sorted({p["n"] for p in ODD}))
def test_odd_within_its_estimate(n):
    check_within_estimate(p for p in ODD if p["n"] == n)


@pytest.mark.parametrize("n", sorted({p["n"] for p in EVEN}))
def test_even_within_its_estimate(n):
    check_within_estimate(p for p in EVEN if p["n"] == n)


def test_odd_estimate_is_not_loose():
    assert median_over_estimate(ODD) < 1e3


def test_even_estimate_is_not_loose():
    assert median_over_estimate(EVEN) < 1e3


def exact_coefficients(n):
    # r_k from r_(k+1) = r_k (n-3-2k) / (2(n-3-k)), and r_k e_k with
    # e_k = H_(n-2) - H_k, in exact rationals; r_k is 0 from
    # k = (n-1)/2 for odd n
    h = sum(Fraction(1, j) for j in range(1, n - 1))
    r = Fraction(1)
    out = []
    for k in range(n - 2):
        if not r:
            break
        out.append((r, r * h))
        h -= Fraction(1, k + 1)
        if k + 1 < n - 2:
            r = r * (n - 3 - 2 * k) / (2 * (n - 3 - k))
    return out


def check_coefficients(n):
    coefs = _s_coefficients(n)[4]
    exact = exact_coefficients(n)
    assert len(coefs) == len(exact)
    # cached from the top degree down
    for (r, q), (r_exact, q_exact) in zip(reversed(coefs), exact):
        assert r == float(r_exact) and q == float(q_exact)


@pytest.mark.parametrize("n", range(3, 100, 2))
def test_odd_coefficients_correctly_rounded(n):
    check_coefficients(n)
    assert len(_s_coefficients(n)[4]) == (n - 1) // 2
    assert all(r > 0.0 and q > 0.0 for r, q in _s_coefficients(n)[4])
    assert _s_coefficients(n)[5] == [] and _s_coefficients(n)[7] == []


@pytest.mark.parametrize("n", (401, 1000, 1001, 2000, 2001))
def test_large_dimension_coefficients_correctly_rounded(n):
    # P and Q's exact integers run to thousands of bits, and the least r_k
    # round to subnormals or 0 from n = 1000; n = 400 is checked with T below
    check_coefficients(n)


@pytest.mark.parametrize("n", (4, 20, 60, 400))
def test_even_table_evaluates_trigamma_once(n, monkeypatch):
    # psi'(n-1+k) for every term comes from one asymptotic value by the
    # recurrence psi'(j) = psi'(j+1) + 1/j^2
    module = importlib.import_module("orthovol.volume_kernel")
    trigamma, calls = module._trigamma, []
    monkeypatch.setattr(module, "_trigamma", lambda j: calls.append(j) or trigamma(j))
    _s_coefficients.cache_clear()
    assert _s_coefficients(n)[5]
    assert len(calls) == 1


@pytest.mark.parametrize("n", (4, 6, 10, 20, 60, 100, 200, 400))
def test_even_coefficients(n):
    # the first sum as for odd n, with n - 2 terms; the second sum's
    # v_k = W_k / 2^(n-2+k) correctly rounded, g_k, b_k and psi'(n-1+k)
    # within a few ulp of 40-digit values, and the bounds C_k on the rest
    # positive, each C_(k+1) + a_k with a_k from the stored psi'(n-1+k), and
    # falling strictly unless a_k is below an ulp of C_k (from n = 200, where
    # |W_k| grows by 10^30 along the table)
    check_coefficients(n)
    coefs, terms, rest_0 = _s_coefficients(n)[4:7]
    assert len(coefs) == n - 2
    rests = [rest_0] + [term[4] for term in terms]
    assert rests[-1] > 0.0
    for (v, g, b, psi, rest), prev in zip(terms, rests):
        a = abs(v) * ((_SERIES_CUT - g) * (b + math.log(2.0)) + psi)
        assert a > 0.0 and prev == rest + a
        assert prev > rest or a < math.ulp(prev)
    fact = math.factorial
    w = Fraction((-1) ** (n // 2) * fact(n) * (n - 2),
                 2 ** (2 * n - 3) * fact(n // 2) * fact(n // 2 - 1) * (n - 1))
    with mp.workdps(40):
        for k, (v, g, b, psi, _) in enumerate(terms):
            assert v == float(w / 2 ** (n - 2 + k))
            g_ref = mp.harmonic(n - 2) - mp.harmonic(n - 2 + k)
            b_ref = (2 * mp.fsum(mp.mpf(1) / j for j in range(1, n - 2 + 2 * k, 2))
                     - mp.harmonic(k) - 2 * mp.log(2))
            # b_k falls to 0 but is only ever added to log s, |log s| >= log 2
            assert abs(b - b_ref) <= 4 * EPS * max(1.0, abs(b))
            for value, ref in ((g, g_ref), (psi, mp.psi(1, n - 1 + k))):
                assert abs(value - ref) <= 4 * math.ulp(float(ref))
            w = w * (n - 1 + 2 * k) / (2 * (k + 1))


def check_sane(kv, n, l):
    assert not math.isnan(kv.value + kv.err_estimate + kv.log_value)
    assert kv.value >= 0.0 and kv.err_estimate > 0.0
    if kv.value == math.inf:
        assert kv.err_estimate == math.inf and math.isfinite(kv.log_value)
    elif kv.value == 0.0:
        # -inf only where log F itself is past the double range
        assert math.isfinite(kv.log_value) or (n - 1) * l == math.inf


LENGTHS = (5e-324, 1e-300, 1e-12, 0.1, math.nextafter(_SERIES_CUT, 0.0),
           _SERIES_CUT, 1.0, 1e4, 1e300, HUGE)


def test_odd_never_integrates(monkeypatch):
    # odd n reaches neither the quadrature, the inner kernel nor the
    # t-series, from the least positive double to the largest
    def fail(*args, **kwargs):
        raise AssertionError("volume_kernel left the closed form")

    class Unread:
        __iter__ = fail

    # the package attribute volume_kernel is the function, not the module
    module = importlib.import_module("orthovol.volume_kernel")
    for name in ("inner_kernel", "adaptive_quad", "volume_kernel_radial"):
        monkeypatch.setattr(module, name, fail)
    # every table's t-series terms raise when read
    monkeypatch.setattr(module, "_s_coefficients", lambda n: _s_coefficients(n)[:7] + (Unread(),))
    for n in range(3, 100, 2):
        for l in LENGTHS:
            check_sane(volume_kernel(n, l), n, l)
    with pytest.raises(AssertionError, match="left the closed form"):
        volume_kernel(4, 1.0)


def test_no_dimension_integrates(monkeypatch):
    # n = 3..100 reaches neither integral form, the integrator nor the
    # inner kernel at any length
    def fail(*args, **kwargs):
        raise AssertionError("volume_kernel integrated")

    module = importlib.import_module("orthovol.volume_kernel")
    for name in ("inner_kernel", "adaptive_quad", "volume_kernel_radial",
                 "volume_kernel_alt"):
        monkeypatch.setattr(module, name, fail)
    for n in range(3, 101):
        for l in LENGTHS:
            check_sane(volume_kernel(n, l), n, l)


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


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 200).map(lambda k: 2 * k),
    log_l=st.floats(math.log(1e-300), math.log(_SERIES_CUT), exclude_max=True),
)
def test_even_total_below_cut(n, log_l):
    # even n below ln 2 / 2 never raises; value is 0 or inf only where
    # log_value is past the double range, and exp(log_value) elsewhere
    l = min(math.exp(log_l), math.nextafter(_SERIES_CUT, 0.0))
    kv = volume_kernel(n, l)
    check_sane(kv, n, l)
    assert math.isfinite(kv.log_value)
    assert kv.value > 0.0 or kv.log_value < math.log(math.ulp(0.0))
    assert kv.value < math.inf or kv.log_value > math.log(HUGE)
    if TINY <= kv.value < math.inf:
        assert abs(math.log(kv.value) - kv.log_value) <= 2.0 * EPS * max(1.0, abs(kv.log_value))
        assert kv.err_estimate < 1e-10 * kv.value
