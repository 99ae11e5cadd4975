"""The s-series of volume_kernel: its values below ln(4/3) / 2, its coefficients,
and the paths it never takes.

Odd n sums the s-series in s = 1 - e^(-2l) at every length, where it is
a closed form; even n sums it below ln(4/3) / 2, with a second, log-s sum.
The rows of the 40-digit table below the cut are gated here, the rest in
tests/test_series.py.
"""

import importlib
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_checks import (ANY_LENGTH, LENGTHS, POINTS, check_sane, check_total,
                           check_within_estimate, forbid_integration, median_over_estimate)

from orthovol import volume_kernel
from orthovol.volume_kernel import _SERIES_CUT, _s_coefficients

EPS = sys.float_info.epsilon
BELOW = [p for p in POINTS if p["l"] < _SERIES_CUT]
ODD = [p for p in POINTS if p["n"] % 2]
# n = 2 takes the Rogers form, gated in tests/test_series.py
EVEN = [p for p in BELOW if p["n"] >= 4 and not p["n"] % 2]


@pytest.mark.parametrize("n", sorted({p["n"] for p in ODD}))
def test_odd_within_its_estimate(n):
    check_within_estimate(p for p in BELOW if p["n"] == n)


@pytest.mark.parametrize("n", sorted({p["n"] for p in EVEN}))
def test_even_within_its_estimate(n):
    check_within_estimate(p for p in EVEN if p["n"] == n)


def test_odd_estimate_is_not_loose():
    # the closed odd s-series, at every length
    assert median_over_estimate(ODD) < 1e3


def test_even_estimate_is_not_loose():
    # the even s-series, below the cut
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
    # positive, each C_(k+1) + a_k with a_k at s = 1/2 (l = ln 2 / 2, where
    # T's terms are bounded) from the stored psi'(n-1+k), and
    # falling strictly unless a_k is below an ulp of C_k (from n = 200, where
    # |W_k| grows by 10^30 along the table)
    check_coefficients(n)
    coefs, terms, rest_0 = _s_coefficients(n)[4:7]
    assert len(coefs) == n - 2
    rests = [rest_0] + [term[4] for term in terms]
    assert rests[-1] > 0.0
    for (v, g, b, psi, rest), prev in zip(terms, rests):
        a = abs(v) * ((0.5 * math.log(2.0) - g) * (b + math.log(2.0)) + psi)
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
    # inner kernel below the cut (tests/test_series.py: from it on)
    forbid_integration(monkeypatch)
    for n in range(3, 101):
        for l in LENGTHS:
            if l < _SERIES_CUT:
                check_sane(volume_kernel(n, l), n, l)


BELOW_CUT = st.one_of(
    st.floats(1e-12, _SERIES_CUT, exclude_max=True),
    st.floats(math.log(1e-300), math.log(_SERIES_CUT)).map(math.exp),
).map(lambda l: min(l, math.nextafter(_SERIES_CUT, 0.0)))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 999).map(lambda k: 2 * k + 1),
       lengths=st.tuples(ANY_LENGTH, ANY_LENGTH))
def test_odd_positive_and_decreasing(n, lengths):
    # odd n = 3..1999 is total on l = 1e-300..1e300 (kernel_checks.check_total)
    check_total(n, *sorted(lengths))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 1000).map(lambda k: 2 * k),
       lengths=st.tuples(BELOW_CUT, BELOW_CUT))
def test_even_total_below_cut(n, lengths):
    # even n = 4..2000 is total on l = 1e-300..ln(4/3) / 2; pairs that reach
    # the cut are drawn in tests/test_series.py
    check_total(n, *sorted(lengths))
