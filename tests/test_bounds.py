"""Tests for the collar volume factor and the area-to-volume bound."""

import math

import mpmath
import pytest
from scipy.integrate import quad

from orthovol import (
    BoundResult,
    NonConvergenceError,
    collar_volume_factor,
    power_law_floor,
    volume_bound,
    volume_kernel,
)


def test_collar_factor_at_zero():
    for n in range(2, 9):
        assert collar_volume_factor(n, 0.0) == 0.0


def test_collar_factor_low_dimension_closed_forms():
    for r in (0.1, 0.5, 1.0, 2.0, 4.0):
        assert collar_volume_factor(2, r) == pytest.approx(math.sinh(r), rel=1e-14)
        assert collar_volume_factor(3, r) == pytest.approx(
            r / 2.0 + math.sinh(2.0 * r) / 4.0, rel=1e-14
        )


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_collar_factor_matches_quadrature(n, r):
    direct, _ = quad(lambda t: math.cosh(t) ** (n - 1), 0.0, r, epsabs=1e-14, epsrel=1e-13)
    assert collar_volume_factor(n, r) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "n,r",
    [(n, r) for n in (639, 1001, 1025, 2001) for r in (1e-3, 0.05, 0.3)] + [(639, 1.0)],
)
def test_collar_factor_past_the_double_binomials(n, r):
    # summed before dividing by 2^(n-1), the terms passed the largest
    # double at (639, 1), where the factor is 3.2e117, and 2^(n-1) itself
    # raised OverflowError from n = 1025.  A sum of positive terms,
    # measured within 1.03e-15 of the integral.
    with mpmath.workdps(30):
        want = mpmath.quad(lambda t: mpmath.cosh(t) ** (n - 1), [0, r])
        assert abs(collar_volume_factor(n, r) / want - 1) <= 2e-15


def test_collar_factor_dominates_sinh():
    for n in range(2, 9):
        for k in range(1, 41):
            r = 0.1 * k
            assert collar_volume_factor(n, r) >= math.sinh(r) * (1.0 - 1e-15)


def test_collar_factor_convex_in_width():
    # The integrand cosh^(n-1) increases, so second differences of the
    # factor on a uniform grid must be nonnegative.
    h = 0.05
    for n in range(2, 9):
        vals = [collar_volume_factor(n, h * k) for k in range(0, 61)]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c - 2.0 * b >= -1e-13 * c


def test_collar_factor_monotone_in_dimension():
    for r in (0.5, 1.0, 2.0):
        for n in range(2, 8):
            assert collar_volume_factor(n + 1, r) >= collar_volume_factor(n, r)


def test_collar_factor_validation():
    with pytest.raises(ValueError):
        collar_volume_factor(1, 1.0)
    with pytest.raises(ValueError):
        collar_volume_factor(3, -0.1)


def test_power_law_floor_values():
    # (K_3 * 4 pi / 2)^(1/2) collapses to pi exactly
    assert power_law_floor(3, 4.0 * math.pi) == pytest.approx(math.pi, rel=1e-12)
    assert power_law_floor(4, 10.0) == pytest.approx(5.0 ** (2.0 / 3.0), rel=1e-12)


def test_power_law_floor_small_area():
    assert 0.0 < power_law_floor(3, 1e-12) < 1e-5


def test_power_law_floor_validation():
    with pytest.raises(ValueError):
        power_law_floor(2, 1.0)
    with pytest.raises(ValueError):
        power_law_floor(3, 0.0)


def test_volume_bound_sphere_area():
    # Boundary area 4 pi in dimension 3
    res = volume_bound(3, 4.0 * math.pi)
    assert isinstance(res, BoundResult)
    assert res.bound == pytest.approx(2.986, rel=1e-2)
    assert res.bound == pytest.approx(2.98607822881579, rel=1e-9)
    assert res.crossing_length == pytest.approx(0.2333430965422824, rel=1e-9)


@pytest.mark.parametrize(
    "n,area",
    [
        (3, 4.0 * math.pi),
        (4, 10.0),
        (5, 100.0),
        (3, 1e-12),
        (3, 1e12),
        (12, 1.0),
        (20, 100.0),
        # crossings at 2x = 25, 31 and 48, kernel values 1e-20 to 1e-40
        (3, 1e-30),
        (3, 1e-37),
        (3, 1e-60),
    ],
)
def test_volume_bound_crossing_residual(n, area):
    # At the reported crossing the two sides of the defining equation
    # must agree to the kernel's quadrature tolerance; the root itself
    # is pinned to 1e-15 relative, far below it.
    res = volume_bound(n, area)
    left = volume_kernel(n, 2.0 * res.crossing_length).value
    right = area * collar_volume_factor(n, res.crossing_length)
    assert left == pytest.approx(right, rel=1e-8, abs=0.0)
    assert res.bound == pytest.approx(left, rel=1e-12)


@pytest.mark.parametrize("n,area", [(3, 4.0 * math.pi), (4, 10.0), (5, 100.0)])
def test_volume_bound_kernel_calls(n, area, monkeypatch):
    # False position in log-log coordinates, seeded at the small-length
    # crossing, needs about 8 kernel calls, each one new; a 60-step
    # bisection on the raw gap needed 63.
    calls = []

    def counting_kernel(dim, l):
        calls.append(l)
        return volume_kernel(dim, l)

    monkeypatch.setattr("orthovol.bounds.volume_kernel", counting_kernel)
    res = volume_bound(n, area)
    assert len(calls) <= 12
    assert len(set(calls)) == len(calls)
    assert 2.0 * res.crossing_length in calls


@pytest.mark.parametrize(
    "f,lo,hi,root,max_calls",
    [
        # nearly linear, as volume_bound's h is: 7 calls
        (lambda t: -2.0 * t - 1.0 + 0.01 * math.sin(5.0 * t), -3.0, 2.0,
         -0.5029332913066225077711686, 8),
        # curved across a wide bracket, where false position shrinks the
        # far end in steps: 34 and 38 calls
        (lambda t: 1.0 - t ** 3, 0.0, 10.0, 1.0, 36),
        (lambda t: math.exp(-t) - 0.3, -1.0, 40.0, 1.203972804325936029630180, 40),
    ],
)
def test_false_position_on_a_bracket(f, lo, hi, root, max_calls):
    # roots from 40-digit mpmath solves of the same double-precision
    # functions
    from orthovol.bounds import _T_RTOL, _T_TOL, _false_position

    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    t, converged = _false_position(counted, lo, hi, _T_TOL, _T_RTOL)
    assert converged
    assert abs(t - root) <= _T_TOL + _T_RTOL * abs(root)
    assert all(lo <= c <= hi for c in calls)
    assert len(calls) <= max_calls


@pytest.mark.parametrize("area", [1e-2, 1.0, 4.0 * math.pi, 1e4, 1e8, 1e12])
def test_volume_bound_matches_the_n3_oracle(area):
    # F_3(2x) = pi (1 + 2x) / (e^(4x) - 1) and C_3(x) = x/2 + sinh(2x)/4 are
    # elementary, so the crossing is a 40-digit root with no quadrature
    res = volume_bound(3, area)
    with mpmath.workdps(40):
        a = mpmath.mpf(area)
        x = mpmath.findroot(
            lambda x: mpmath.pi * (1 + 2 * x) / mpmath.expm1(4 * x)
            - a * (x / 2 + mpmath.sinh(2 * x) / 4),
            res.crossing_length,
        )
        bound = mpmath.pi * (1 + 2 * x) / mpmath.expm1(4 * x)
        assert abs(res.crossing_length - x) <= 1e-14 * x
        assert abs(res.bound - bound) <= 1e-14 * bound


# (n, area, crossing_length, bound) from 25-digit mpmath solves of the
# crossing equation, one per dimension
HIGH_PRECISION_BOUNDS = [
    (3, 4.04389, 3.740426249589695798350972e-1, 1.585128544328168123420149),
    (4, 9.34405, 2.75228544361136883771399e-1, 2.671778726306728733857547),
    (5, 117.88, 1.52673942278295170401668e-1, 1.828015703129154967054443e1),
    (6, 846.318, 1.149735198836249270548635e-1, 9.838530238049696380139049e1),
]


@pytest.mark.parametrize("n,area,crossing,bound", HIGH_PRECISION_BOUNDS)
def test_volume_bound_high_precision_reference(n, area, crossing, bound):
    res = volume_bound(n, area)
    assert res.crossing_length == pytest.approx(crossing, rel=1e-12)
    assert res.bound == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("n", [131, 301, 601])
@pytest.mark.parametrize("area", [1e-40, 1.0, 1e6])
def test_volume_bound_past_the_gamma_overflow(n, area):
    # The bracket's seed and the floor come from log K_n, finite where
    # K_n underflows (n >= 327).  Odd n has the closed form at every
    # length, so the crossing is solved to the kernel's own accuracy.
    res = volume_bound(n, area)
    right = area * collar_volume_factor(n, res.crossing_length)
    assert abs(res.bound / right - 1.0) <= 6e-13
    assert math.isfinite(power_law_floor(n, area))


def test_volume_bound_tiny_area_takes_no_log_of_zero():
    # At n = 3 and area 1e-40 the crossing lies at 2x = 33, where the
    # kernel is about 3e-27.  That must come out as a positive bound or
    # NonConvergenceError, never as a bound of 0 or a math-domain error
    # from log(0).
    try:
        res = volume_bound(3, 1e-40)
    except NonConvergenceError:
        return
    assert math.isfinite(res.crossing_length)
    assert res.bound > 0.0


def test_volume_bound_monotone_in_area():
    a = volume_bound(3, 4.0 * math.pi).bound
    b = volume_bound(3, 8.0 * math.pi).bound
    assert b > a


def test_volume_bound_scaling_probe():
    # bound(A)/sqrt(A) stays in a narrow band over three decades and the
    # constant fitted at A = 1 floors the whole ladder; same floor in
    # dimension 4 with exponent 2/3.
    areas = (1.0, 10.0, 100.0, 1000.0)
    r3 = [volume_bound(3, a).bound / math.sqrt(a) for a in areas]
    assert max(r3) <= 1.35 * min(r3)
    for a, r in zip(areas, r3):
        assert r >= r3[0] * (1.0 - 1e-12)
    r4 = [
        volume_bound(4, a).bound / a ** (2.0 / 3.0) for a in areas
    ]
    for r in r4:
        assert r >= r4[0] * (1.0 - 1e-12)


def test_volume_bound_scaling_exponent():
    # log H / log A approaches (n-2)/(n-1) with an O(1/log A) defect;
    # at A = 1e6 the absolute gap measures 0.009 (n=3) and 0.034 (n=4),
    # inside a 0.05 window.
    for n in (3, 4):
        res = volume_bound(n, 1e6)
        ratio = math.log(res.bound) / math.log(1e6)
        assert abs(ratio - (n - 2.0) / (n - 1.0)) <= 0.05


def test_volume_bound_validation():
    with pytest.raises(ValueError):
        volume_bound(2, 1.0)
    with pytest.raises(ValueError):
        volume_bound(3, 0.0)
    with pytest.raises(ValueError):
        volume_bound(3, -4.0)
    with pytest.raises(ValueError):
        volume_bound(3, float("nan"))


def test_volume_bound_bracket_failure():
    with pytest.raises(NonConvergenceError):
        volume_bound(3, float("inf"))

