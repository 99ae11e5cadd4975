"""Tests for the collar volume factor and the area-to-volume bound."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gen_kernel_reference import DPS, LAW_BELOW, small_length_law
from gen_kernel_reference import kernel as hypergeometric_kernel
from orthovol import (
    BoundResult,
    KernelValue,
    NonConvergenceError,
    collar_volume_factor,
    power_law_floor,
    volume_bound,
    volume_kernel,
)
from orthovol.bounds import _LOG_BRACKET_LO, _LOG_DBL_MAX, _T_RTOL, _T_TOL, _collar_weights
from orthovol.volume_kernel import small_length_constant

EPS = sys.float_info.epsilon


def test_collar_factor_at_zero():
    for n in range(2, 9):
        assert collar_volume_factor(n, 0.0)[0] == 0.0


def test_collar_factor_low_dimension_closed_forms():
    for r in (0.1, 0.5, 1.0, 2.0, 4.0):
        assert collar_volume_factor(2, r)[0] == pytest.approx(math.sinh(r), rel=1e-14)
        assert collar_volume_factor(3, r)[0] == pytest.approx(
            r / 2.0 + math.sinh(2.0 * r) / 4.0, rel=1e-14
        )


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_collar_factor_matches_quadrature(n, r):
    direct, _ = quad(lambda t: math.cosh(t) ** (n - 1), 0.0, r, epsabs=1e-14, epsrel=1e-13)
    assert collar_volume_factor(n, r)[0] == pytest.approx(direct, rel=1e-12)


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
        assert abs(collar_volume_factor(n, r)[0] / want - 1) <= 2e-15


def test_collar_factor_dominates_sinh():
    for n in range(2, 9):
        for k in range(1, 81):
            r = 0.05 * k
            assert collar_volume_factor(n, r)[0] >= math.sinh(r) * (1.0 - 1e-15)


def test_collar_factor_convex_in_width():
    # The integrand cosh^(n-1) increases, so second differences of the
    # factor on a uniform grid out to r = 4 must be nonnegative.
    h = 0.05
    for n in range(2, 9):
        vals = [collar_volume_factor(n, h * k)[0] for k in range(0, 81)]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert a + c - 2.0 * b >= -1e-13 * c


def test_collar_factor_monotone_in_dimension():
    for r in (0.5, 1.0, 2.0):
        for n in range(2, 8):
            assert collar_volume_factor(n + 1, r)[0] >= collar_volume_factor(n, r)[0]


def test_collar_factor_validation():
    with pytest.raises(ValueError):
        collar_volume_factor(1, 1.0)
    with pytest.raises(ValueError):
        collar_volume_factor(3, -0.1)
    with pytest.raises(ValueError):
        collar_volume_factor(3, math.nan)


@pytest.mark.parametrize("n", [*range(2, 13), 60, 601, 2001])
def test_collar_weights_are_correctly_rounded(n):
    # each cached weight is the double nearest C(n-1, j) / 2^(n-1), and
    # comes with its exponent n-1-2j; each cached log is log C(n-1, j)
    # from the exact integer
    m = n - 1
    weights, log_combs = _collar_weights(n)
    assert [e for _, e in weights] == [m - 2 * j for j in range(m + 1)]
    assert list(log_combs) == [math.log(math.comb(m, j)) for j in range(m + 1)]
    for j, (w, _) in enumerate(weights):
        q = Fraction(math.comb(m, j), 2 ** m)
        err = abs(Fraction(w) - q)
        assert err <= abs(Fraction(math.nextafter(w, math.inf)) - q)
        assert err <= abs(Fraction(math.nextafter(w, -math.inf)) - q)


def _collar_by_big_integers(n, r):
    # the factor as summed before its weights were cached: each weight
    # divided out of exact integers inside the sum
    m = n - 1
    den = 1 << m
    total = 0.0
    comb = 1
    for j in range(m + 1):
        e = m - 2 * j
        total += comb / den * (r if e == 0 else math.expm1(e * r) / e)
        comb = comb * (m - j) // (j + 1)
    return total


@pytest.mark.parametrize(
    "n,r",
    [(n, r) for n in range(2, 9) for r in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0)]
    + [(n, r) for n in (639, 1001, 1025, 2001) for r in (1e-3, 0.05, 0.3)]
    + [(639, 1.0)],
)
def test_collar_factor_bit_identical_to_the_big_integer_sum(n, r):
    assert collar_volume_factor(n, r)[0] == _collar_by_big_integers(n, r)


def _collar_mp(n, r):
    """The binomial sum of the collar factor in 60-digit arithmetic."""
    with mpmath.workdps(60):
        m, r = n - 1, mpmath.mpf(r)
        terms = [(mpmath.binomial(m, j), m - 2 * j) for j in range(m + 1)]
        total = sum(c * (r if e == 0 else mpmath.expm1(e * r) / e) for c, e in terms)
        return total / mpmath.mpf(2) ** m


@pytest.mark.parametrize("n", [2, 3, 4, 8, 60, 2001])
def test_collar_log_is_the_log_of_a_finite_factor(n):
    # wherever the sum is finite the log is math.log of it, so
    # volume_bound's h is the same double it was
    for r in (0.0, 1e-300, 1e-3, 0.3, 1.0, 5.0, 0.99 * _LOG_DBL_MAX / (n - 1)):
        if (n - 1) * r > _LOG_DBL_MAX:
            continue
        factor, log_factor = collar_volume_factor(n, r)
        assert factor < math.inf
        assert log_factor == (math.log(factor) if factor else -math.inf)


@pytest.mark.parametrize(
    "n,r",
    [(2, 710.0), (2, 710.5), (3, 355.0), (3, 355.8), (3, 356.0), (3, 500.0),
     (4, 237.0), (8, 200.0), (20, 50.0), (60, 1000.0), (2001, 1.0)],
)
def test_collar_log_past_the_overflow_of_its_sum(n, r):
    # expm1((n-1) r) raised OverflowError from (n-1) r = 709.78, also
    # where the factor is a double; the table's --collar column exited 2
    factor, log_factor = collar_volume_factor(n, r)
    want = _collar_mp(n, r)
    with mpmath.workdps(60):
        log_want = mpmath.log(want)
        assert abs(log_factor - log_want) <= 8 * EPS * abs(log_want)
        if log_want < _LOG_DBL_MAX:
            assert abs(factor / want - 1) <= 2 * EPS * log_want
        else:
            assert factor == math.inf


def test_collar_log_where_the_width_overflows():
    assert collar_volume_factor(3, 1e308) == (math.inf, math.inf)
    assert collar_volume_factor(3, math.inf) == (math.inf, math.inf)


def test_numpy_integer_dimension_in_bounds():
    # np.int64 lacks bit_length: each of these raised AttributeError
    with np.errstate(all="raise"):
        res = volume_bound(np.int64(4), 10.0)
        constant = small_length_constant(np.int64(30))
        floor = power_law_floor(np.int64(4), 10.0)
        collar = collar_volume_factor(np.int64(4), 1.0)
    assert res == volume_bound(4, 10.0)
    assert constant == small_length_constant(30)
    assert floor == power_law_floor(4, 10.0)
    assert collar == collar_volume_factor(4, 1.0)
    for pair in (res, constant, floor, collar):
        assert all(type(field) is float for field in pair)


def test_float_dimension_raises_type_error_in_bounds():
    small_length_constant(3)
    for fn, args in ((small_length_constant, ()), (volume_bound, (10.0,)),
                     (power_law_floor, (10.0,)), (collar_volume_factor, (1.0,))):
        with pytest.raises(TypeError, match="dimension must be an integer"):
            fn(3.0, *args)


def test_power_law_floor_values():
    # (K_3 * 4 pi / 2)^(1/2) collapses to pi exactly
    assert power_law_floor(3, 4.0 * math.pi)[0] == pytest.approx(math.pi, rel=1e-12)
    assert power_law_floor(4, 10.0)[0] == pytest.approx(5.0 ** (2.0 / 3.0), rel=1e-12)


def test_power_law_floor_small_area():
    assert 0.0 < power_law_floor(3, 1e-12)[0] < 1e-5


def test_power_law_floor_validation():
    with pytest.raises(ValueError):
        power_law_floor(2, 1.0)
    with pytest.raises(ValueError):
        power_law_floor(3, 0.0)
    with pytest.raises(ValueError):
        power_law_floor(3, math.inf)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 20])
def test_power_law_floor_is_the_bound_at_large_area(n):
    # the floor is area x0, x0 the small-length crossing, so bound / floor
    # is 1 + O(x^2): 3.4e-12 at n = 20, where x = 1.2e-6
    res = volume_bound(n, 1e100)
    floor, log_floor = power_law_floor(n, 1e100)
    assert abs(res.bound / floor - 1.0) <= 1e-11
    assert abs(res.log_bound - log_floor) <= 1e-11


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
    right = area * collar_volume_factor(n, res.crossing_length)[0]
    assert left == pytest.approx(right, rel=1e-8, abs=0.0)
    assert res.bound == pytest.approx(left, rel=1e-12)


def _counting(monkeypatch):
    """Lengths of the kernel calls volume_bound makes, in order."""
    calls = []

    def counting_kernel(dim, l):
        calls.append(l)
        return volume_kernel(dim, l)

    monkeypatch.setattr("orthovol.bounds.volume_kernel", counting_kernel)
    return calls


@pytest.mark.parametrize("n,area", [(3, 4.0 * math.pi), (4, 10.0), (5, 100.0)])
def test_volume_bound_kernel_calls(n, area, monkeypatch):
    # False position in log-log coordinates, on the bracket of the seed and
    # one step from it, stopped by the slope bound: 6, 6 and 5 calls, each
    # one new (7, 7 and 6 without the stop).
    calls = _counting(monkeypatch)
    res = volume_bound(n, area)
    assert len(calls) <= {3: 6, 4: 6, 5: 5}[n]
    assert len(set(calls)) == len(calls)
    assert 2.0 * res.crossing_length in calls


def test_volume_bound_kernel_calls_over_a_pool(monkeypatch):
    # n = 3..6 with 12 log-uniform areas on [1, 1000] each: 256 calls, 5.33
    # per solve (6.25 without the slope stop), each one new
    rng = random.Random(26)
    calls = _counting(monkeypatch)
    total = 0
    pool = [(n, math.exp(rng.uniform(0.0, math.log(1e3)))) for n in range(3, 7) for _ in range(12)]
    for n, area in pool:
        calls.clear()
        volume_bound(n, area)
        assert len(set(calls)) == len(calls)
        total += len(calls)
    assert total <= 256


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 2001),
    log_l=st.lists(st.floats(math.log(1e-12), math.log(1e3)), min_size=2, max_size=2),
)
def test_small_length_law_never_rises(n, log_l):
    # The bracket step's premise: G(l) = l^(n-2) F_n(l) is non-increasing
    # and at most its limit K_n at 0, in logs, within the kernel's relative
    # estimate plus 4 eps of the size of the logs summed
    def log_g(l):
        kv = volume_kernel(n, l)
        rel = kv.err_estimate / kv.value if sys.float_info.min <= kv.value < math.inf else 0.0
        size = max(1.0, (n - 1) * l, abs(kv.log_value), (n - 2) * abs(math.log(l)))
        return kv.log_value + (n - 2) * math.log(l), rel + 4.0 * EPS * size

    l1, l2 = sorted(math.exp(t) for t in log_l)
    g1, tol1 = log_g(l1)
    g2, tol2 = log_g(l2)
    log_k = small_length_constant(n)[1]
    assert g2 <= g1 + tol1 + tol2
    assert g1 <= log_k + tol1 + 4.0 * EPS * max(1.0, abs(log_k))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 20, 60, 100, 400])
@pytest.mark.parametrize("area", [1e-60, 1e-100, 1e-300, 5e-324])
def test_volume_bound_tiny_areas_in_high_dimension(n, area):
    # Far from the root, h falls about 3 (n-1) x per unit of log x, not
    # n-1, so a step from a seed clamped to x = 1 overshoots the root by
    # far.  It must stop short of where expm1((n-1) x) in the collar factor
    # overflows; for n <= 6 the crossing itself lies at x = 40..126.  The
    # crossing then satisfies the equation in logs to the rounding of
    # log area.
    res = volume_bound(n, area)
    x = res.crossing_length
    kv = volume_kernel(n, 2.0 * x)
    residual = kv.log_value - math.log(area) - collar_volume_factor(n, x)[1]
    assert abs(residual) <= 8.0 * EPS * abs(math.log(area))
    assert res.bound == kv.value > 0.0


def test_volume_bound_first_step_brackets(monkeypatch):
    # Every solve on the grid returns, and the seed and the one step from
    # it straddle the crossing wherever the step is not clamped to the
    # bracket's limits: width 1e-300, and a solve tolerance below the width
    # where the collar factor overflows.
    calls = _counting(monkeypatch)
    for n in (3, 4, 5, 6, 7, 8, 20, 60, 400, 2001):
        t_hi = math.log(_LOG_DBL_MAX / (n - 1.0)) - _T_TOL
        limits = (2.0 * math.exp(_LOG_BRACKET_LO), 2.0 * math.exp(t_hi))
        for k in range(-30, 31):
            calls.clear()
            res = volume_bound(n, 10.0 ** k)
            l_star = 2.0 * res.crossing_length
            assert res.bound > 0.0
            if calls[1] not in limits:
                assert (calls[0] - l_star) * (calls[1] - l_star) <= 0.0, (n, k)


@pytest.mark.parametrize(
    "f,lo,hi,root,max_calls",
    [
        # nearly linear, as volume_bound's h is: 7 calls, the ends among them
        (lambda t: -2.0 * t - 1.0 + 0.01 * math.sin(5.0 * t), -3.0, 2.0,
         -0.5029332913066225077711686, 8),
        # curved across a wide bracket, where false position shrinks the
        # far end in steps: 33 and 37 calls (1 - t^3 is 0 at t = 1.0)
        (lambda t: 1.0 - t ** 3, 0.0, 10.0, 1.0, 36),
        (lambda t: math.exp(-t) - 0.3, -1.0, 40.0, 1.203972804325936029630180, 40),
    ],
)
def test_false_position_on_a_bracket(f, lo, hi, root, max_calls):
    # roots from 40-digit mpmath solves of the same double-precision
    # functions; slope 0 turns the slope stop off, and the ends count
    from orthovol.bounds import _false_position

    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    t = _false_position(counted, lo, hi, counted(lo), counted(hi), 0.0)
    assert abs(t - root) <= _T_TOL + _T_RTOL * abs(root)
    assert all(lo <= c <= hi for c in calls)
    assert len(calls) <= max_calls


def test_false_position_stops_on_the_slope_bound():
    # f' <= -1.95 on the nearly linear case above: the first point with
    # |f| <= 1.95 delta / 2 is returned, within delta / 2 of the root, in 6
    # calls against 7 on the bracket rule alone
    from orthovol.bounds import _false_position

    root = -0.5029332913066225077711686
    calls = []

    def counted(t):
        calls.append(t)
        return -2.0 * t - 1.0 + 0.01 * math.sin(5.0 * t)

    t = _false_position(counted, -3.0, 2.0, counted(-3.0), counted(2.0), 1.95)
    assert len(calls) <= 6
    delta = (_T_TOL + _T_RTOL * abs(t)) / 2
    assert t == calls[-1]
    assert abs(counted(t)) <= 1.95 * delta / 2
    assert abs(t - root) <= delta / 2


def _kernel_mp(n, l):
    """F_n(l) as tests/gen_kernel_reference.py forms a row: the 2F1 form at
    DPS + 2 |log10 l| digits, and the small-length law from LAW_BELOW down."""
    with mpmath.workdps(DPS + 2 * max(0, math.ceil(-mpmath.log10(l)))):
        return +(small_length_law(n, l) if l <= LAW_BELOW else hypergeometric_kernel(n, l))


def _even_crossing(n, area, x):
    """log x* where F_n(2 x*) = area C_n(x*), by secant steps in log x from x at DPS digits."""
    with mpmath.workdps(DPS):
        def g(u):
            x = mpmath.exp(u)
            return mpmath.log(_kernel_mp(n, 2 * x) / (area * _collar_mp(n, x)))

        u0 = mpmath.log(x)
        u1 = u0 + mpmath.mpf(1e-9)
        g0, g1 = g(u0), g(u1)
        for _ in range(8):
            u0, g0, u1 = u1, g1, u1 - g1 * (u1 - u0) / (g1 - g0)
            if abs(u1 - u0) <= mpmath.mpf(10) ** (4 - DPS) * max(1, abs(u1)):
                return u1
            g1 = g(u1)
    raise AssertionError(f"no 40-digit crossing for n = {n}, area = {area}")


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("area", [1e-200, 1e-30, 1.0, 4.0 * math.pi, 1e30, 1e200])
def test_volume_bound_matches_an_even_oracle(n, area):
    # even n has no elementary form: the crossing is a 40-digit root of
    # the 2F1 form of F_n against the exact binomial sum of the collar.
    # The solve pins t = log x to 2 delta = _T_TOL + _T_RTOL |t|, and the
    # bound is the kernel at the returned crossing, within its estimate.
    # At A = 1e200, 2x is 2.7e-67 (n = 4) and 9.0e-41 (n = 6), below 1e-20,
    # where the oracle is the table's small-length law, off by O(l^2 log l).
    res = volume_bound(n, area)
    t_star = _even_crossing(n, area, res.crossing_length)
    assert abs(math.log(res.crossing_length) - t_star) <= _T_TOL + _T_RTOL * abs(t_star)
    kv = volume_kernel(n, 2.0 * res.crossing_length)
    assert abs(res.bound - _kernel_mp(n, 2 * mpmath.mpf(res.crossing_length))) <= kv.err_estimate


@pytest.mark.parametrize(
    "area",
    [1e-2, 1.0, 4.0 * math.pi, 1e4, 1e8, 1e12, 1e-60, 1e-70, 1e-80, 1e-90, 1e-100, 1e-110,
     1e-200, 1e-300, 5e-324],
)
def test_volume_bound_matches_the_n3_oracle(area):
    # F_3(2x) = pi (1 + 2x) / (e^(4x) - 1) and C_3(x) = x/2 + sinh(2x)/4 are
    # elementary, so the crossing is a 60-digit root with no quadrature.
    # Compared in logs: from A = 1e-60 the crossing lies at x = 24..126
    # (78.13, 116.58 and 125.53 at A = 1e-200, 1e-300 and 5e-324), the
    # bound below 1e-40.  log F_3(2x) has slope about -4x in log x, so the
    # bound's log carries 4x times the crossing's few eps.
    res = volume_bound(3, area)
    with mpmath.workdps(60):
        a = mpmath.mpf(area)
        x = mpmath.findroot(
            lambda x: mpmath.log(mpmath.pi * (1 + 2 * x) / mpmath.expm1(4 * x))
            - mpmath.log(a * (x / 2 + mpmath.sinh(2 * x) / 4)),
            res.crossing_length,
        )
        log_bound = mpmath.log(mpmath.pi * (1 + 2 * x) / mpmath.expm1(4 * x))
        assert abs(math.log(res.crossing_length) - mpmath.log(x)) <= 1e-14
        assert abs(math.log(res.bound) - log_bound) <= max(1e-14, 24.0 * EPS * x)


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
    right = area * collar_volume_factor(n, res.crossing_length)[0]
    assert abs(res.bound / right - 1.0) <= 6e-13
    assert all(map(math.isfinite, power_law_floor(n, area)))


def test_volume_bound_tiny_area_takes_no_log_of_zero():
    # At n = 3 and area 1e-40 the crossing lies at 2x = 33, where the
    # kernel is about 3e-27.  That must come out as a positive bound,
    # never as a bound of 0 or a math-domain error from log(0).
    res = volume_bound(3, 1e-40)
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
    with pytest.raises(ValueError, match="finite"):
        volume_bound(3, math.inf)


def test_bound_result_keeps_the_named_tuple_api():
    # volume_bound builds its record with tuple.__new__: still the class,
    # its fields, equality with the same record built by name, its repr
    # and _replace
    res = volume_bound(3, 4.0 * math.pi)
    assert type(res) is BoundResult
    assert res == BoundResult(res.crossing_length, res.bound, res.log_bound)
    assert res == (res.crossing_length, res.bound, res.log_bound)
    assert res.bound == res[1] == 2.9860782288158148
    assert repr(res) == (f"BoundResult(crossing_length={res.crossing_length!r}, "
                         f"bound={res.bound!r}, log_bound={res.log_bound!r})")
    moved = res._replace(bound=1.0)
    assert type(moved) is BoundResult
    assert moved == (res.crossing_length, 1.0, res.log_bound)
    assert res._asdict()["log_bound"] == res.log_bound


def test_volume_bound_bracket_failure(monkeypatch):
    # a kernel whose log gap h keeps one sign over the whole bracket: the
    # step from the seed clamps to the bracket end on the far side, so
    # the guard reads the step's value at that end and raises
    calls = []
    for log_value in (1e4, -1e4):
        calls.clear()
        kv = KernelValue(math.exp(min(log_value, 0.0)), 0.0, log_value)
        monkeypatch.setattr("orthovol.bounds.volume_kernel", lambda n, l: calls.append(l) or kv)
        with pytest.raises(NonConvergenceError, match="could not bracket"):
            volume_bound(3, 1.0)
        assert len(calls) == 2


def test_false_position_raises_past_its_step_limit():
    # a jump whose lower side is at rounding level pins the secant point
    # one least step inside the top end, so the bracket never closes
    from orthovol.bounds import _MAXITER, _false_position

    calls = []

    def jump(t):
        calls.append(t)
        return 1.0 if t < 0.3 else -1e-300

    with pytest.raises(NonConvergenceError, match="did not converge"):
        _false_position(jump, -700.0, 700.0, 1.0, -1e-300, 0.0)
    assert len(calls) == _MAXITER


@pytest.mark.parametrize("n", [3, 4, 5, 6, 60, 600, 1001, 2000])
def test_volume_bound_is_total(n):
    # every positive double area from the least to 1e308 solves, and the
    # bound is the kernel at twice the crossing: 0 only where that value
    # underflows (n = 1001 and 2000 at 5e-324)
    for area in (5e-324, 1e-300, 1e-30, 1.0, 1e30, 1e308):
        res = volume_bound(n, area)
        kv = volume_kernel(n, 2.0 * res.crossing_length)
        assert res.bound == kv.value
        assert res.bound > 0.0 or kv.log_value < math.log(math.ulp(0.0)), (n, area)

