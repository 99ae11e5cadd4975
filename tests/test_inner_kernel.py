"""Tests for the closed-form inner kernel, its specializations, and the
defining-integral oracle."""

import math

import numpy as np
import pytest

from orthovol import (
    KernelAsymptotics,
    QuadratureConfig,
    inner_kernel,
    inner_kernel_3d,
    inner_kernel_4d,
    inner_kernel_asymptotics,
    inner_kernel_integral,
)

ORACLE_CFG = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-300)


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
    with pytest.raises(ValueError):
        inner_kernel_asymptotics(2)


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
    # general closed form to near machine precision across the whole
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
    got = inner_kernel_integral(n, b, ORACLE_CFG)
    want = inner_kernel(n, b)
    assert got.value == pytest.approx(want, rel=1e-6)
    assert got.err_estimate <= 1e-8 * abs(got.value)


def test_positive_and_strictly_decreasing():
    for n in range(3, 9):
        values = [inner_kernel(n, b) for b in np.geomspace(1.001, 1e4, 120)]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_near_one_coefficient():
    # (b-1)^(n-2) inner_kernel(n, b) -> 2 harmonic(n-2)/((n-1)(n-2)) as b -> 1
    b = 1.0 + 1e-6
    for n in range(3, 9):
        want = inner_kernel_asymptotics(n).near_one_coefficient
        got = (b - 1.0) ** (n - 2) * inner_kernel(n, b)
        assert got == pytest.approx(want, rel=1e-3)


def test_near_one_coefficient_via_integral():
    # Same limit probed through the defining integral, dimension 5:
    # (b-1)^3 inner_kernel(5, b) at b = 1 + 1e-5 should give 11/36.
    b = 1.0 + 1e-5
    got = inner_kernel_integral(5, b, ORACLE_CFG)
    assert (b - 1.0) ** 3 * got.value == pytest.approx(11.0 / 36.0, rel=1e-3)


def test_far_limit_at_finite_ratio():
    """The far field at finite ratio against its two-term expansion.

    b^(n-1) inner_kernel(n, b) = (4/(n-1)) (log b + r_n) + O(log b / b^2),
    with r_n from far_offset.  Dimension 3 follows by hand from
    naive_kernel_3d: 2 (1 - log 2)/(b^2 - 1) ~ (2 - 2 log 2)/b^2, and the
    two log terms give (2 log b + 1)/b^2 + O(log b / b^4), so
    b^2 inner_kernel(3, b) = 2 log b + 3 - 2 log 2 + O(log b / b^2) and
    r_3 = 3/2 - log 2.  For general n the expansion of the closed form
    in 1/b (sympy) gives the far_offset sum; the 1/b term cancels.  So
    b^(n-1)/log(b) inner_kernel(n, b) equals (4/(n-1)) (1 + r_n / log b),
    not 4/(n-1), which it misses by 5.8% to 9.3% at b = 1e6 and, in
    dimension 4, by 10.3% at b = 1e4.  The two-term value is met to
    6.5e-11 by inner_kernel at b = 1e6, to 1.0e-12 by inner_kernel_3d at
    b = 1e6 and to 2.1e-8 by inner_kernel_4d at b = 1e4, the size of the
    next term there.
    """
    for n in range(3, 9):
        want = 4.0 / (n - 1) * (1.0 + far_offset(n) / math.log(1e6))
        got = 1e6 ** (n - 1) / math.log(1e6) * inner_kernel(n, 1e6)
        assert got == pytest.approx(want, rel=1e-6)
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


def test_asymptotics_values():
    assert inner_kernel_asymptotics(3) == KernelAsymptotics(1.0, 2.0)
    a4 = inner_kernel_asymptotics(4)
    assert a4.near_one_coefficient == pytest.approx(0.5, abs=1e-15)
    assert a4.far_log_coefficient == pytest.approx(4.0 / 3.0, abs=1e-15)
    a5 = inner_kernel_asymptotics(5)
    assert a5.near_one_coefficient == pytest.approx(11.0 / 36.0, abs=1e-15)
    assert a5.far_log_coefficient == pytest.approx(1.0, abs=1e-15)
