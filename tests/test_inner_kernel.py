"""Tests for the inner kernel's two branches (closed form below b = 3,
far-field series from there on), its specializations, the defining-integral
oracle and a high-precision reference."""

import json
import math
import os
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from gen_inner_reference import closed_form

from oracles import inner_kernel_3d, inner_kernel_4d, inner_kernel_integral
from orthovol import inner_kernel
from orthovol.inner_kernel import (
    _closed_form,
    _far_field,
    _far_field_coefficients,
)

REFERENCE = os.path.join(
    os.path.dirname(__file__), "data", "inner_kernel_reference.json"
)


def naive_kernel_3d(b):
    # Direct three-term arrangement; fine for moderate b, loses digits
    # near b = 1 and for large b, so only used as a mid-range reference.
    return (
        2.0 / (b * b - 1.0) * (1.0 - math.log(2.0))
        - 1.0 / (2.0 * b) * ((b - 1.0) / (b + 1.0)) * math.log(b - 1.0)
        + 1.0 / (2.0 * b) * ((b + 1.0) / (b - 1.0)) * math.log(b + 1.0)
    )


def naive_kernel_4d(b):
    # Same idea in dimension 4: four groups with prefactor 1/6.
    t1 = (3.0 + 2.0 * math.log((b + 1.0) ** 2 / (4.0 * b))) / (b - 1.0) ** 2
    t2 = (3.0 + 2.0 * math.log((b - 1.0) ** 2 / (4.0 * b))) / (b + 1.0) ** 2
    t3 = (
        math.log((b - 1.0) / (b + 1.0)) + b / (b + 1.0) - b / (b - 1.0)
    ) / (2.0 * b * b)
    t4 = (
        math.log((b - 1.0) / (b + 1.0)) + 1.0 / (b + 1.0) + 1.0 / (b - 1.0)
    ) / 2.0
    return (t1 - t2 + t3 + t4) / 6.0


def far_offset(n):
    # r_n in b^(n-1) inner_kernel(n, b) = (4/(n-1)) (log b + r_n) + ...:
    # 1 + sum of 1/j over 1 <= j <= n-1 with j = n-1 mod 2, minus log 2
    # (odd n) or 2 log 2 (even n).
    odd_part = sum(1.0 / j for j in range(1, n) if j % 2 == (n - 1) % 2)
    return 1.0 + odd_part - (2.0 if n % 2 == 0 else 1.0) * math.log(2.0)


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        inner_kernel(2, 2.0)
    with pytest.raises(ValueError):
        inner_kernel_integral(2, 2.0)


def test_rejects_bad_ratio():
    for fn in (inner_kernel_3d, inner_kernel_4d):
        with pytest.raises(ValueError):
            fn(1.0)
        with pytest.raises(ValueError):
            fn(0.5)
    with pytest.raises(ValueError):
        inner_kernel(3, 1.0)
    # all three used to return nan at an infinite ratio
    for fn in (inner_kernel_3d, inner_kernel_4d, lambda b: inner_kernel(5, b)):
        with pytest.raises(ValueError):
            fn(math.inf)


@pytest.mark.parametrize("b", [1.01, 1.1, 2.0, 10.0, 1000.0])
def test_specializations_match_general(b):
    # The dimension-3 and dimension-4 shortcuts must agree with the
    # general kernel to near machine precision across the whole
    # ratio range, including the cancellation-prone ends.
    assert inner_kernel_3d(b) == pytest.approx(inner_kernel(3, b), rel=1e-12)
    assert inner_kernel_4d(b) == pytest.approx(inner_kernel(4, b), rel=1e-12)


@pytest.mark.parametrize("b", [1.5, 2.0, 5.0, 10.0])
def test_matches_naive_arrangements_mid_range(b):
    assert inner_kernel(3, b) == pytest.approx(naive_kernel_3d(b), rel=1e-10)
    assert inner_kernel(4, b) == pytest.approx(naive_kernel_4d(b), rel=1e-10)


@pytest.mark.parametrize(
    "n,b",
    [(3, 2.0), (4, 1.5), (5, 2.0)],
)
def test_integral_oracle_matches_closed_form(n, b):
    got = inner_kernel_integral(n, b, rel_tol=1e-8)
    want = inner_kernel(n, b)
    assert got.value == pytest.approx(want, rel=1e-6)
    assert got.err_estimate <= 1e-8 * abs(got.value)


def test_positive_and_strictly_decreasing():
    # The grid crosses the switch between the branches at b = 3, once on
    # the coarse grid and at eleven points 3e-12 apart, where m_n falls
    # by about (n-1) 1e-12 relative per step.
    seam = [3.0 * (1.0 + k * 1e-12) for k in range(-5, 6)]
    grid = sorted([*np.geomspace(1.001, 1e4, 120), *seam])
    for n in range(3, 9):
        values = [inner_kernel(n, b) for b in grid]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def _reference_points():
    with open(REFERENCE) as fh:
        return json.load(fh)["points"]


# ROADMAP item 5's near-one band: the closed form's truncated logs overflow
# to nan at these reference points, which raises ArithmeticError, so the
# test pins that until the band is mended
NEAR_ONE_BAND = {(100, 1.001)}


@pytest.mark.parametrize("n", sorted({p["n"] for p in _reference_points()}))
def test_matches_high_precision_reference(n):
    """Both branches against tests/data/inner_kernel_reference.json.

    The file holds the closed form evaluated in mpmath at 40 + (n+1)
    max(1, log10 b) digits (tests/gen_inner_reference.py), on b from
    1.001 to 1e12, either side of b = 3, and at 3.005, 3.2 and 4.1, where
    the series misses by 2.6e-15 to 3.1e-15 at n = 100 unless it puts
    back the rounding of 9/b^2.  Before the far-field series the closed
    form missed it by up to 4e-5 (n = 3, b = 1e12) and raised
    OverflowError at (100, 1e3).  A non-finite value fails; NEAR_ONE_BAND
    must raise ArithmeticError, and fails once it returns.
    """
    worst = 0.0
    for p in _reference_points():
        if p["n"] == n:
            if (n, p["b"]) in NEAR_ONE_BAND:
                with pytest.raises(ArithmeticError, match="closed form gives nan"):
                    inner_kernel(n, p["b"])
                continue
            got = inner_kernel(n, p["b"])
            assert math.isfinite(got), p
            want = float(p["value"])
            worst = max(worst, abs(got - want) / want)
    assert worst <= 2e-15


# where m_n(b) is a normal double but the closed form raises: ArithmeticError
# where it gives nan (300, 1.1; 500 and 600, 1.5) or -inf (400, 1.5; 600, 2),
# OverflowError from (b + 1)^(n-2) (600, 2.5 and 2.99); ROADMAP item 5 mends them
WIDE_BAND = ((300, 1.1), (500, 1.5), (600, 1.5), (400, 1.5), (600, 2.0),
             (600, 2.5), (600, 2.99))


@pytest.mark.xfail(strict=True, reason="the closed form's defect band for large n")
@pytest.mark.parametrize("n,b", WIDE_BAND)
def test_closed_form_wide_band(n, b):
    with mpmath.workdps(int(40 + (n + 1) * max(1.0, math.log10(b)))):
        want = closed_form(n, b)
    got = inner_kernel(n, b)
    assert math.isfinite(got) and abs(got / want - 1) <= 1e-12


@pytest.mark.parametrize(
    "n,b", [(3, 1.001), (60, 8.0), (3, 1e9), (3, 1e12), (12, 1e9), (12, 1e12)]
)
def test_integral_oracle_within_its_estimate_of_reference(n, b):
    # the oracle's own error estimate bounds its error against the
    # high-precision table: at b = 1.001 the log singularities crowd
    # together, (60, 8) has the table's worst ratio of error to estimate
    # (0.91), and from b ~ 3e8 on xi - lo, formed from xi near 1, once
    # reached 0 and raised a math domain error
    (want,) = [p["value"] for p in _reference_points() if (p["n"], p["b"]) == (n, b)]
    got = inner_kernel_integral(n, b, rel_tol=1e-8)
    assert abs(Fraction(got.value) - Fraction(want)) <= got.err_estimate


def _series_coefficients(n):
    # alpha_j, beta_j of b^(n-1) m_n(b) = sum_j b^(-2j) (alpha_j log b + beta_j);
    # _far_field_coefficients stores them times 9^-j
    alpha, beta = _far_field_coefficients(n)
    return (
        [a * 9.0**j for j, a in enumerate(alpha)],
        [c * 9.0**j for j, c in enumerate(beta)],
    )


@pytest.mark.parametrize(
    "n,b",
    [(60, 1e6), (30, 1e12), (60, 1.8e5), (100, 1e3)]
    + [(3, 1e154), (3, 1e160), (3, 1e300)],
)
def test_far_field_never_overflows(n, b):
    """The closed form raised at all of these points: OverflowError from a
    power of b or b +- 1, or, for n = 3, ValueError from a truncated log
    whose argument rounds to 1.  The value is finite, and 0.0 only where
    the series sum S times b^(1-n), taken through its logarithm, is below
    half the smallest subnormal; elsewhere it meets that value to the
    rounding of a subnormal and the 1e-13 of the exp() estimate.
    """
    alpha, beta = _series_coefficients(n)
    lb = math.log(b)
    terms = zip(range(len(alpha)), alpha, beta)
    series = sum(b ** (-2 * j) * (a * lb + c) for j, a, c in terms)
    log_want = math.log(series) - (n - 1) * lb
    got = inner_kernel(n, b)
    assert math.isfinite(got) and got >= 0.0
    if log_want < -1075 * math.log(2.0):
        assert got == 0.0
    else:
        assert got == pytest.approx(math.exp(log_want), rel=1e-12, abs=2.0**-1074)


def _far_field_majorant(n, b):
    """b^(1-n) sum_j b^(-2j) alpha_j (log b + (H_((q-1)/2) + H_(j+1/2)) / 2), 40 digits.

    The series with each beta_j cut to its first term: the sum that
    beta_j subtracts from it has positive terms, so this bounds m_n(b)
    from above.  Summed from the exact c_(2j) until the terms fall
    below 1e-45 of the sum.
    """
    with mpmath.workdps(40):
        x, lb = mpmath.mpf(b) ** -2, mpmath.log(b)
        c, total, last, j = mpmath.mpf(1), mpmath.mpf(0), mpmath.inf, 0
        while True:
            q = n + 2 * j
            alpha = 4 * c / ((2 * j + 1) * (q - 1))
            h = (mpmath.harmonic(mpmath.mpf(q - 1) / 2) + mpmath.harmonic(j + 0.5)) / 2
            term = x**j * alpha * (lb + h)
            total += term
            if term < 1e-45 * total and term < last:
                return mpmath.mpf(b) ** (1 - n) * total
            last = term
            c = c * q * (q + 1) / ((2 * j + 1) * (2 * j + 2))
            j += 1


@pytest.mark.parametrize("n", [1100, 1750, 1800, 2000, 3000, 3530])
def test_far_field_at_large_n(n):
    # m_1800 returned inf at b = 5 and nan at b = 3 (the terms at b = 3,
    # which grow like (3/2)^n, overflowed); from n ~ 2000 the coefficients
    # raised OverflowError.  A finite value >= 0, and 0.0 wherever even
    # a bound on m_n(b) is below half the least subnormal, without
    # building a table: the first call at n = 1100..3530 built 490-1574
    # terms (25-301 ms) only to return 0.0
    _far_field_coefficients.cache_clear()
    for b in (3.0, 5.0, 1e300):
        got = inner_kernel(n, b)
        assert math.isfinite(got) and got >= 0.0
        bound = _far_field_majorant(n, b)
        assert bound < mpmath.mpf(2) ** -1075
        assert got == 0.0
    assert _far_field_coefficients.cache_info().misses == 0


@pytest.mark.parametrize("n", [3, 8, 60, 400, 1077, 1078])
def test_far_field_zero_bound_holds(n):
    # the bound _far_field tests before any table, 4 (log b + n/2 + 1) b /
    # ((n-1) (b-1)^n), is at least the 40-digit majorant of m_n(b); at
    # b = 3 it first passes below 2^-1075 at n = 1078
    for b in (3.0, 5.0, 1e3, 1e300):
        with mpmath.workdps(40):
            b_mp = mpmath.mpf(b)
            bound = 4 * (mpmath.log(b_mp) + mpmath.mpf(n) / 2 + 1) * b_mp
            bound /= (n - 1) * (b_mp - 1) ** n
            assert bound >= _far_field_majorant(n, b)
            if b == 3.0:
                assert (bound < mpmath.mpf(2) ** -1075) == (n >= 1078)
    misses = _far_field_coefficients.cache_info().misses
    inner_kernel(n, 3.0)
    assert _far_field_coefficients.cache_info().misses - misses <= (n < 1078)


def test_dimension_through_index():
    # np.int64 raised TypeError from ldexp in the closed form, and a float
    # n "'float' object cannot be interpreted as an integer"
    for n in (3, 5, 60):
        for b in (2.0, 7.0):
            got = inner_kernel(np.int64(n), b)
            assert got == inner_kernel(n, b)
            assert type(got) is float
    for n in (3.0, 3.5, 5.0):
        with pytest.raises(TypeError, match="dimension must be an integer"):
            inner_kernel(n, 2.0)


def test_closed_form_past_the_double_range_raises_overflow_error():
    # (b-1)^41 underflows to 0 at b = 1 + 1e-8, where m_43(b) ~ 5e325:
    # a typed error, not ZeroDivisionError
    with pytest.raises(OverflowError, match=r"inner kernel m_n\(b\) leaves"):
        inner_kernel(43, 1.0 + 1e-8)


@pytest.mark.parametrize("n", range(3, 61))
def test_branches_agree_at_the_switch(n):
    # Both branches at b = 3 (1 -+ 2^-40), just inside the closed form's
    # side and just inside the series' side.
    below, above = 3.0 * (1.0 - 2.0**-40), 3.0 * (1.0 + 2.0**-40)
    for b in (below, above):
        assert _far_field(n, b) == pytest.approx(_closed_form(n, b), rel=2e-15, abs=0)
    assert inner_kernel(n, below) == _closed_form(n, below)
    assert inner_kernel(n, 3.0) == _far_field(n, 3.0)


@pytest.mark.parametrize("n", [399, 444, 500, 513])
def test_closed_form_scales_powers_of_two_apart(n):
    # (2b)^(n-2) overflowed at b = 2.99 from n = 399 (b = 2.5 from
    # n = 444); 2^(n-2) is now applied as an exponent shift.  Both sides
    # of the switch meet the series to 4.9e-15.  From n = 515,
    # (b+1)^(n-2) still overflows just below b = 3.
    for b in (3.0 * (1.0 - 2.0**-40), 3.0 * (1.0 + 2.0**-40)):
        assert _closed_form(n, b) == pytest.approx(_far_field(n, b), rel=1e-14, abs=0)


def test_far_field_leading_coefficients():
    # alpha_0 = 4/(n-1) is the far-field log coefficient; beta_0/alpha_0 = r_n
    # is test_acceptance's C4
    for n in range(3, 9):
        alpha, _ = _series_coefficients(n)
        assert alpha[0] == pytest.approx(4.0 / (n - 1), rel=1e-15)


# log 2 to 60 digits, for the exact coefficients below
LOG2 = Fraction("0.693147180559945309417232121458176568075500134360255254120680")


def exact_series_coefficients(n, count):
    """alpha_j, and beta_j as p_j + q_j log 2, in rational arithmetic.

    Straight from the formula in _far_field_coefficients, with
    c_k = C(n+k-1, k), H_m summed exactly and
    H_(m+1/2) = 2 H_(2m+1) - H_m - 2 log 2.
    """
    harmonic = [Fraction(0)]
    for k in range(1, n + 2 * count + 2):
        harmonic.append(harmonic[-1] + Fraction(1, k))

    def h(twice_x):
        # H_x for x = twice_x / 2, as (rational part, log 2 coefficient)
        if twice_x % 2 == 0:
            return harmonic[twice_x // 2], 0
        m = twice_x // 2
        return 2 * harmonic[2 * m + 1] - harmonic[m], -2

    def c(k):
        return math.comb(n + k - 1, k)

    out = []
    for j in range(count):
        q = n + 2 * j
        alpha = Fraction(4 * c(2 * j), (2 * j + 1) * (q - 1))
        (hq, lq), (hj, lj) = h(q - 1), h(2 * j + 1)
        sub = sum(
            Fraction(c(2 * j - 2 * i), i)
            * (
                Fraction(2, (2 * j - 2 * i + 1) * (q - 1))
                + Fraction(2, (2 * j + 1) * (q - 2 * i - 1))
            )
            for i in range(1, j + 1)
        )
        out.append((alpha, alpha / 2 * (hq + hj) - sub, alpha / 2 * (lq + lj)))
    return out


def test_exact_series_coefficients_match_sympy():
    # From a sympy series of the closed form in 1/b: n = 3 has alpha_j = 2
    # and beta_j = {3, 10/3, 101/30, 709/210} - 2 log 2; n = 5 has
    # alpha_j = {1, 10/3, 7, 12} and beta_j = {7/4, 7, 78/5, 827/30}
    # - alpha_j log 2.
    F = Fraction
    assert exact_series_coefficients(3, 4) == [
        (2, r, -2) for r in (3, F(10, 3), F(101, 30), F(709, 210))
    ]
    alpha_5 = (1, F(10, 3), 7, 12)
    rational_5 = (F(7, 4), 7, F(78, 5), F(827, 30))
    assert exact_series_coefficients(5, 4) == [
        (a, r, -a) for a, r in zip(alpha_5, rational_5)
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 8, 30, 45, 60, 100])
def test_far_field_coefficients_against_exact(n):
    # Each stored alpha_j 9^-j log 3 and beta_j 9^-j within 4.5e-16 of the
    # exact value, relative to the term alpha_j log b + beta_j at b = 3,
    # where it weighs most.  That needs the rounding of the running
    # harmonic sums carried along: without it 6.9e-16 at n = 100.
    alpha, beta = _far_field_coefficients(n)
    log3 = math.log(3.0)
    for j, (a, p, q) in enumerate(exact_series_coefficients(n, len(alpha))):
        scale = Fraction(1, 9**j)
        want_alpha, want_beta = float(a * scale), float((p + q * LOG2) * scale)
        term = want_alpha * log3 + want_beta
        assert abs(alpha[j] - want_alpha) * log3 <= 4.5e-16 * term
        assert abs(beta[j] - want_beta) <= 4.5e-16 * term


def test_near_one_coefficient_via_integral():
    # The near-boundary limit (the selftest registry's near_one_limit)
    # probed through the defining integral, dimension 5:
    # (b-1)^3 inner_kernel(5, b) at b = 1 + 1e-5 should give 11/36.
    b = 1.0 + 1e-5
    got = inner_kernel_integral(5, b, rel_tol=1e-8)
    assert (b - 1.0) ** 3 * got.value == pytest.approx(11.0 / 36.0, rel=1e-3)


def test_far_limit_at_finite_ratio():
    """The 3d and 4d oracles' far field against its two-term expansion.

    b^(n-1) inner_kernel(n, b) = (4/(n-1)) (log b + r_n) + O(log b / b^2),
    with r_n from far_offset.  Dimension 3 follows by hand from
    naive_kernel_3d: 2 (1 - log 2)/(b^2 - 1) ~ (2 - 2 log 2)/b^2, and the
    two log terms give (2 log b + 1)/b^2 + O(log b / b^4), so
    b^2 inner_kernel(3, b) = 2 log b + 3 - 2 log 2 + O(log b / b^2) and
    r_3 = 3/2 - log 2.  For general n the expansion of the closed form
    in 1/b (sympy) gives the far_offset sum; the 1/b term cancels.  So
    b^(n-1)/log(b) inner_kernel(n, b) equals (4/(n-1)) (1 + r_n / log b),
    not 4/(n-1), which it misses in dimension 4 by 10.3% at b = 1e4.
    The two-term value is met to 1.0e-12 by inner_kernel_3d at b = 1e6
    and to 2.1e-8 by inner_kernel_4d at b = 1e4, the size of the next
    term there; test_acceptance's C4 holds inner_kernel itself to it.
    """
    assert 1e12 / math.log(1e6) * inner_kernel_3d(1e6) == pytest.approx(
        2.0 * (1.0 + far_offset(3) / math.log(1e6)), rel=1e-6
    )
    assert 1e12 / math.log(1e4) * inner_kernel_4d(1e4) == pytest.approx(
        4.0 / 3.0 * (1.0 + far_offset(4) / math.log(1e4)), rel=1e-6
    )


@pytest.mark.parametrize("n", [3, 5, 8])
def test_far_limit_trend(n):
    # dev(b) = |b^(n-1)/log(b) inner_kernel(n, b) / (4/(n-1)) - 1| must shrink like
    # 1/log(b): dev * log(b) stays constant to better than 1% over six
    # decades, which confirms the limiting coefficient itself.
    c = 4.0 / (n - 1)
    devs = []
    for b in (1e3, 1e6, 1e9):
        q = b ** (n - 1) / math.log(b) * inner_kernel(n, b)
        devs.append(abs(q / c - 1.0))
    assert devs[0] > devs[1] > devs[2]
    products = [d * math.log(b) for d, b in zip(devs, (1e3, 1e6, 1e9))]
    assert max(products) <= 1.01 * min(products)


def test_decay_envelope():
    # (b-1)^(n-2) inner_kernel(n, b) is bounded; fit the constant on a coarse grid
    # (2% headroom, the quantity has a mild interior bump) and hold it
    # on a much finer one.
    for n in range(3, 9):
        coarse = [
            (b - 1.0) ** (n - 2) * inner_kernel(n, b)
            for b in np.geomspace(1.0001, 1e4, 25)
        ]
        bound = 1.02 * max(coarse)
        for b in np.geomspace(1.0001, 1e4, 400):
            assert (b - 1.0) ** (n - 2) * inner_kernel(n, b) <= bound
