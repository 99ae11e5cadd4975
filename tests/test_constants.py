"""The kernel's gamma-function constants against 40-digit mpmath.

K_n, the decay coefficient coef_n and the radial form's shape factor
are each a rational times a power of pi, built from exact integers.
Their gamma-function forms are evaluated here in mpmath, over a range
of n that runs past where a float product of gamma values overflows
(n = 131) and past where each constant leaves the double range.
"""

import math
import sys

import mpmath as mp
import pytest

from orthovol import small_length_constant
from orthovol.volume_kernel import _coef_rational, _pi_rational, _shape_factor

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
DIMENSIONS = list(range(3, 13)) + [20, 60, 100, 130, 131, 175, 176, 200, 300, 310, 400, 1000]


def _sphere(k):
    # measure of the unit k-sphere
    return 2 * mp.pi ** (mp.mpf(k + 1) / 2) / mp.gamma(mp.mpf(k + 1) / 2)


def small_length_constant_mp(n):
    n = mp.mpf(n)
    return (
        2 * mp.pi ** ((n - 3) / 2) * mp.harmonic(n - 2) * mp.gamma(n / 2 + 1) * mp.gamma(n / 2 - 1)
        / (n * mp.gamma((n + 1) / 2) * mp.gamma(n - 1))
    )


def _large_length_mp(n):
    n = mp.mpf(n)
    return (n - 2) * mp.pi ** ((n - 2) / 2) * mp.gamma(n / 2 - 1) / mp.gamma((n + 1) / 2) ** 2


def _shape_mp(n):
    return 2 * _sphere(n - 2) * _sphere(n - 3) / _sphere(n - 1)


def _check_value(value, ref):
    # within 3e-14 where the constant is a normal double; below that
    # range it may round to a subnormal or 0, and only there to 0
    if ref >= TINY:
        assert value > 0.0
        assert abs(value - ref) <= 3e-14 * ref
    else:
        assert 0.0 <= value < TINY


def _check_log(log_value, ref):
    log_ref = mp.log(ref)
    assert abs(log_value - log_ref) <= 4 * EPS * max(1, abs(log_ref))


@pytest.mark.parametrize("n", DIMENSIONS)
def test_small_length_constant_matches_gamma_form(n):
    with mp.workdps(40):
        ref = small_length_constant_mp(n)
        value, log_value = small_length_constant(n)
        _check_value(value, ref)
        _check_log(log_value, ref)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_large_length_coefficient_matches_gamma_form(n):
    with mp.workdps(40):
        ref = _large_length_mp(n)
        value, log_value = _pi_rational(*_coef_rational(n))
        _check_value(value, ref)
        _check_log(log_value, ref)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_shape_factor_matches_sphere_measures(n):
    with mp.workdps(40):
        _check_value(_shape_factor(n), _shape_mp(n))


def test_small_length_constant_finite_where_gamma_products_overflow():
    # a float product of gamma values read 0 for 131 <= n <= 175 and
    # nan from 176; K_n is a normal double up to n = 326
    values = [small_length_constant(n)[0] for n in range(131, 327)]
    assert all(TINY <= v < 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
