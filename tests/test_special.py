"""Tests for the elementary sums: harmonic, truncated_log and rogers_l."""

import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from orthovol import (collar_volume_factor, inner_kernel, power_law_floor, small_length_constant,
                      spectrum_volume, volume_bound, volume_kernel)
from orthovol.special import _LI2_COEFFS, dimension, harmonic, rogers_l, truncated_log
from orthovol.volume_kernel import _BERNOULLI

EPS = 2.0**-52


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


def dilog(x):
    # Li_2(x) = L(x) - log(x) log(1-x) / 2
    return rogers_l(x) - 0.5 * math.log(x) * math.log(1.0 - x)


def test_partial_log_series_empty_sum():
    # order 0 adds no series term to log|1 - x|
    assert truncated_log(0, 7.3, math.log(6.3)) == math.log(6.3)


def test_partial_log_series_values():
    # log|1 - x| plus x + x^2/2 (+ x^3/3) on the direct branch
    assert truncated_log(2, -1.0, math.log(2.0)) == pytest.approx(
        math.log(2.0) - 0.5, abs=1e-15
    )
    assert truncated_log(3, 0.75, math.log(0.25)) == pytest.approx(
        math.log(0.25) + 0.75 + 0.75**2 / 2 + 0.75**3 / 3, abs=1e-15
    )


def test_partial_log_series_rejects_negative_order():
    for x in (0.3, 0.7):
        with pytest.raises(ValueError):
            truncated_log(-1, x, math.log(1.0 - x))


def test_harmonic_values():
    assert harmonic(0) == (0, 1)
    assert harmonic(1) == (1, 1)
    assert harmonic(3) == (11, 6)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_harmonic_equals_series_at_one():
    # H_k exactly, over lcm(1, ..., k), for k = 0..300
    exact = Fraction(0)
    for k in range(301):
        if k:
            exact += Fraction(1, k)
        num, den = harmonic(k)
        assert Fraction(num, den) == exact
        assert den == math.lcm(*range(1, k + 1))


def test_harmonic_recursion():
    # H_k = H_(k-1) + 1/k, cross-multiplied in the integers
    for k in range(1, 51):
        num, den = harmonic(k)
        prev_num, prev_den = harmonic(k - 1)
        assert num * prev_den * k == (prev_num * k + prev_den) * den


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
    # Li_2(x) = x + x^2/4 + ... at the small end; at the large end
    # Li_2(1 - d) = pi^2/6 + d log d - d + O(d^2 log d), the log product
    # of L taking it to pi^2/6 as d -> 0
    assert dilog(1e-9) == pytest.approx(1e-9 + 0.25e-18, rel=EPS)
    d = 2.0**-40
    assert dilog(1.0 - d) == pytest.approx(
        math.pi**2 / 6.0 + d * math.log(d) - d, rel=2 * EPS
    )


def test_dilogarithm_half():
    # Euler: Li2(1/2) = pi^2/12 - log(2)^2/2
    expected = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert dilog(0.5) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5822405264650125, abs=1e-15)


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5])
def test_dilogarithm_matches_brute_series(x):
    assert dilog(x) == pytest.approx(brute_dilog(x), abs=1e-14)


def test_dilogarithm_domain():
    for x in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            rogers_l(x)


def test_li2_coefficients_correctly_rounded():
    # B_2j / (2j+1)!, j = 1..8, and the trigamma series' B_2j, with the
    # Bernoulli numbers exact from sum_{k<=m} C(m+1, k) B_k = 0 (B_1 =
    # -1/2, the u^2/4 term)
    bernoulli = [Fraction(1)]
    for m in range(1, 17):
        bernoulli.append(-sum(math.comb(m + 1, k) * bernoulli[k] for k in range(m)) / (m + 1))
    assert bernoulli[1] == Fraction(-1, 2)
    assert len(_LI2_COEFFS) == len(_BERNOULLI) == 8
    for j, coeff in enumerate(_LI2_COEFFS, start=1):
        assert coeff == float(bernoulli[2 * j] / math.factorial(2 * j + 1)), j
        assert _BERNOULLI[j - 1] == float(bernoulli[2 * j]), j


# every public function of n, with its least dimension and valid other arguments
ENTRY_POINTS = [
    (volume_kernel, 2, (1.0,)),
    (small_length_constant, 3, ()),
    (inner_kernel, 3, (2.0,)),
    (collar_volume_factor, 2, (0.5,)),
    (spectrum_volume, 2, ([(1.0, 1)],)),
    (power_law_floor, 3, (10.0,)),
    (volume_bound, 3, (10.0,)),
]


@pytest.mark.parametrize("fn, least, args", ENTRY_POINTS,
                         ids=[fn.__name__ for fn, _, _ in ENTRY_POINTS])
def test_entry_point_checks_its_least_dimension(fn, least, args):
    with pytest.raises(ValueError, match=f"^dimension must be >= {least}$"):
        fn(least - 1, *args)
    assert fn(np.int64(least), *args) == fn(least, *args)
    with pytest.raises(ValueError, match=f"^dimension must be >= {least}$"):
        dimension(np.int64(least - 1), least)
    assert type(dimension(np.int64(least), least)) is int


def test_rogers_l_within_its_bound():
    # against 50-digit Li_2 plus the log product formed in mpmath from the
    # same double 1.0 - x, which leaves out the rounding of 1 - x (the
    # n = 2 drift): within the docstring's 3 eps on x <= 1/2 and 4.2 eps
    # through the reflection above
    rng = np.random.default_rng(31)
    xs = [5e-324, 1e-300, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
    xs += map(float, rng.uniform(0.0, 0.5, 1000))
    with mp.workdps(50):
        for x in xs:
            want = mp.polylog(2, x) + mp.log(x) * mp.log(mp.mpf(1.0 - x)) / 2
            bound = 3 * EPS if x <= 0.5 else 4.2 * EPS
            assert abs(rogers_l(x) - want) <= bound * want, x


def test_rogers_l_endpoints():
    assert rogers_l(0.0) == 0.0
    assert rogers_l(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)


def test_rogers_l_half():
    # the series and the reflection meet at 1/2, where L = pi^2/12 and
    # L' = 2 log 2: one ulp either side moves L by about 1.4 ulp
    half = rogers_l(0.5)
    assert half == pytest.approx(math.pi**2 / 12.0, abs=1e-14)
    for x in (math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)):
        assert abs(rogers_l(x) - half) <= 4 * math.ulp(half)


@pytest.mark.parametrize("x", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_rogers_l_reflection(x):
    # L(x) + L(1-x) = pi^2/6; one side is the other's reflection, so this
    # holds to the rounding of 1 - x and of the final difference
    total = rogers_l(x) + rogers_l(1.0 - x)
    assert total == pytest.approx(math.pi**2 / 6.0, rel=1e-13)


@pytest.mark.parametrize(
    "lo,hi",
    [
        pytest.param(0.0, 0.5, id="series", marks=pytest.mark.xfail(
            strict=True, reason="log(1.0 - x) rounds 1 - x (the n = 2 drift, ROADMAP item 2)")),
        pytest.param(0.5, 1.0, id="reflection"),
    ],
)
def test_rogers_l_against_mpmath(lo, hi):
    # 1000 points on each side of 1/2 against 50-digit values, the only
    # independent check of the reflection branch: within 4 eps there.
    # The series side is 64.6 eps off at worst, all of it the rounding of
    # 1 - x in the log product (1.2 eps with log1p(-x))
    rng = np.random.default_rng(20261019)
    with mp.workdps(50):
        for x in map(float, rng.uniform(lo, hi, 1000)):
            want = mp.polylog(2, x) + mp.log(x) * mp.log(1 - mp.mpf(x)) / 2
            assert abs(rogers_l(x) - want) <= 4 * EPS * want, x
