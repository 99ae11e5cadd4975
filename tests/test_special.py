"""Tests for the classical special-function helpers."""

import math
from fractions import Fraction

import pytest

from orthovol.special import (
    dilogarithm,
    partial_log_series,
    rogers_l,
    truncated_log,
)


def brute_tail(n, x, terms=400):
    # -sum_{k>n} x^k/k, summed small-to-large for accuracy
    total = 0.0
    for k in range(n + terms, n, -1):
        total += x**k / k
    return -total


def brute_dilog(x, terms=2000):
    total = 0.0
    for k in range(terms, 0, -1):
        total += x**k / (k * k)
    return total


def test_partial_log_series_empty_sum():
    assert partial_log_series(0, 7.3) == 0.0


def test_partial_log_series_values():
    assert partial_log_series(2, 1.0) == pytest.approx(1.5, abs=1e-15)
    assert partial_log_series(3, 0.5) == pytest.approx(
        0.5 + 0.125 + 0.5**3 / 3, abs=1e-15
    )


def test_partial_log_series_rejects_negative_order():
    with pytest.raises(ValueError):
        partial_log_series(-1, 0.5)


def test_harmonic_values():
    assert partial_log_series(0, 1.0) == 0.0
    assert partial_log_series(1, 1.0) == 1.0
    assert partial_log_series(3, 1.0) == pytest.approx(11.0 / 6.0, abs=1e-15)


def test_harmonic_equals_series_at_one():
    # The harmonic number H_n is the log series truncated at n at
    # argument one: n ascending roundings keep it within n ulp
    exact = Fraction(0)
    for n in range(1, 51):
        exact += Fraction(1, n)
        got = partial_log_series(n, 1.0)
        assert abs(Fraction(got) - exact) <= n * math.ulp(got)


def test_harmonic_recursion():
    # the powers of one stay exact, so each step adds 1/n
    for n in range(1, 51):
        assert partial_log_series(n, 1.0) == partial_log_series(n - 1, 1.0) + 1.0 / n


def test_truncated_log_full_log_branch():
    # n = 0 keeps the whole series: -log(1 - x)
    assert truncated_log(0, -1.0, math.log(2.0)) == pytest.approx(math.log(2.0), rel=1e-15)


def test_truncated_log_zero_argument():
    assert truncated_log(5, 0.0, 0.0) == 0.0


def test_truncated_log_frozen_value():
    # log(1/2) + 1/2 + 1/8, checked against the brute tail sum
    expected = -0.0681471805599453
    assert truncated_log(2, 0.5, math.log(0.5)) == pytest.approx(expected, abs=1e-15)
    assert brute_tail(2, 0.5) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
@pytest.mark.parametrize("x", [-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9])
def test_truncated_log_matches_brute_tail(n, x):
    # The implementation switches between a direct log form and the tail
    # series at |x| = 0.5; both sides of the switch must agree with the
    # brute-force tail to full precision.
    got = truncated_log(n, x, math.log(abs(1.0 - x)))
    want = brute_tail(n, x)
    assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


def test_truncated_log_pole_rejected():
    with pytest.raises(ValueError):
        truncated_log(3, 1.0, -math.inf)


def test_dilogarithm_endpoints():
    assert dilogarithm(0.0) == 0.0
    assert dilogarithm(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)


def test_dilogarithm_half():
    # Euler: Li2(1/2) = pi^2/12 - log(2)^2/2
    expected = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert dilogarithm(0.5) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5822405264650125, abs=1e-15)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5])
def test_dilogarithm_matches_brute_series(x):
    assert dilogarithm(x) == pytest.approx(brute_dilog(x), abs=1e-14)


def test_dilogarithm_domain():
    with pytest.raises(ValueError):
        dilogarithm(-0.1)
    with pytest.raises(ValueError):
        dilogarithm(1.1)


def test_rogers_l_endpoints():
    assert rogers_l(0.0) == 0.0
    assert rogers_l(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)


def test_rogers_l_half():
    assert rogers_l(0.5) == pytest.approx(math.pi**2 / 12.0, abs=1e-14)


@pytest.mark.parametrize("x", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_rogers_l_reflection(x):
    # L(x) + L(1-x) = pi^2/6; measured within 1.4e-16 relative
    total = rogers_l(x) + rogers_l(1.0 - x)
    assert total == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
