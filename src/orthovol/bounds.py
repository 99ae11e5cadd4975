"""Volume lower bounds from boundary area via the shortest orthogeodesic.

A collar of half-width x around the boundary has volume
area * collar_volume_factor(x).  The volume kernel evaluated at
twice the half-width caps how much volume a single orthogeodesic can
certify, and the crossing point of the two curves yields a volume
bound depending only on dimension and boundary area, which tends to
the power-law floor K_n^(1/(n-1)) (A/2)^((n-2)/(n-1)) as A grows.  The
crossing is the one root of a decreasing function of log x, on one
fixed bracket of widths that the small-length crossing and one step
from it narrow, found by bracketed false position.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import NamedTuple

from .quadrature import NonConvergenceError
from .volume_kernel import KernelValue, small_length_constant, volume_kernel

__all__ = ["collar_volume_factor", "power_law_floor", "volume_bound", "BoundResult"]

_LOG2 = math.log(2.0)
# least half-width of the bracket, in t = log x; its top is where the
# collar factor's expm1((n-1) x) overflows, once (n-1) x passes this
_LOG_BRACKET_LO = math.log(1e-300)
_LOG_DBL_MAX = math.log(sys.float_info.max)
# absolute tolerance on t (relative on x) and the least rtol, 4 eps
_T_TOL = 1e-15
_T_RTOL = 8.9e-16
_MAXITER = 100


def _false_position(f, a, b):
    """Root of f on a bracket a < b with f(a) > 0 >= f(b), to _T_TOL + _T_RTOL |t|.

    False position with the Anderson-Bjorck rule (BIT 13, 1973): each
    step takes the secant point of the two ends, at least
    delta = (_T_TOL + _T_RTOL |t|) / 2 inside the bracket, so the bracket
    shrinks every step.  When a step moves the same end as the step
    before, or is the first, the end it leaves stale has its weight g
    scaled by m = 1 - f_new / f_old, or by 1/2 if m <= 0, so that end
    pulls the next secant point towards it.  Stops once the bracket is
    narrower than 2 delta and returns the end with the smaller |f|.
    After _MAXITER steps it raises NonConvergenceError with the width
    e^t of that end, t being log x in volume_bound.
    """
    fa, fb = f(a), f(b)
    ga, gb, side = fa, fb, 0
    for _ in range(_MAXITER):
        t = b - gb * (b - a) / (gb - ga)
        delta = (_T_TOL + _T_RTOL * abs(t)) / 2
        if b - a < 2 * delta:
            return a if abs(fa) < abs(fb) else b
        t = min(max(t, a + delta), b - delta)
        ft = f(t)
        if ft > 0.0:
            if side <= 0:
                m = 1.0 - ft / fa
                gb *= m if m > 0.0 else 0.5
            a, fa, ga, side = t, ft, ft, -1
        else:
            if side >= 0:
                m = 1.0 - ft / fb
                ga *= m if m > 0.0 else 0.5
            b, fb, gb, side = t, ft, ft, 1
    best = a if abs(fa) < abs(fb) else b
    raise NonConvergenceError("collar crossing did not converge", math.exp(best), math.nan)


@cache
def _collar_weights(n: int) -> tuple[tuple[float, int], ...]:
    """((C(n-1, j) / 2^(n-1), n-1-2j) for j = 0..n-1), each weight correctly rounded."""
    m = n - 1
    den = 1 << m
    weights = []
    comb = 1
    for j in range(m + 1):
        weights.append((comb / den, m - 2 * j))
        comb = comb * (m - j) // (j + 1)
    return tuple(weights)


def collar_volume_factor(n: int, r: float) -> float:
    """int_0^r cosh(t)^(n-1) dt, the volume factor of a collar of width r.

    Binomial expansion of cosh^(n-1) integrates term by term to
    2^(1-n) sum_j C(n-1, j) expm1((n-1-2j) r) / (n-1-2j), the middle
    term degenerating to r when n is odd.  Each weight C(n-1, j) / 2^(n-1)
    is one correctly rounded quotient of exact integers, built once per
    dimension, so neither C(n-1, j) nor 2^(n-1) has to be a double: the
    sum is finite wherever the factor is, except that expm1 raises
    OverflowError once (n-1) r passes 709.78.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if r < 0.0:
        raise ValueError("width must be >= 0")
    total = 0.0
    for w, e in _collar_weights(n):
        total += w * (r if e == 0 else math.expm1(e * r) / e)
    return total


def _log_small_crossing(n: int, area: float) -> float:
    """log x0, x0 = (K_n 2^(2-n) / area)^(1/(n-1)) where K_n (2x)^(2-n) meets area * x."""
    if not 0.0 < area < math.inf:
        raise ValueError("area must be positive and finite")
    return (small_length_constant(n)[1] + (2.0 - n) * _LOG2 - math.log(area)) / (n - 1.0)


def power_law_floor(n: int, area: float) -> tuple[float, float]:
    """(floor, log floor), floor = area x0 = K_n^(1/(n-1)) (area/2)^((n-2)/(n-1)).

    x0 is the small-length crossing that seeds volume_bound, so the floor
    is the bound's limit as the area grows.  log floor, from log K_n, is
    finite for every finite area > 0, also where K_n or the floor underflows.
    """
    log_floor = _log_small_crossing(n, area) + math.log(area)
    return math.exp(log_floor), log_floor


class BoundResult(NamedTuple):
    """Solution of the collar crossing equation.

    crossing_length: half-width x where kernel(2x) equals the collar
    volume area * collar_volume_factor(x).
    bound: kernel value at 2x, the paper's volume lower bound as
    computed; nothing yet certifies on which side of the true crossing x
    falls, so rounding in the solve or the kernel may put it above the
    true bound (ROADMAP item 6).
    log_bound: its log, the kernel's log_value, finite where bound
    underflows.
    power_law_floor(n, area) is the bound's limit as the area grows;
    bound >= floor does not hold for every area.
    """

    crossing_length: float
    bound: float
    log_bound: float


def volume_bound(n: int, area: float) -> BoundResult:
    """Volume lower bound for an n-manifold with boundary area given.

    Solves kernel(2x) = area * collar_volume_factor(x) in log-log
    coordinates, for the root of
    h(t) = log kernel(2 e^t) - log(area * collar_volume_factor(e^t)),
    t = log x, with log kernel read from the kernel's log_value, finite
    where the value under- or overflows.  The left side falls from +inf
    at 0 and the right side grows from 0, so h is strictly decreasing
    and the crossing is unique.

    The root lies between widths 1e-300 and a solve tolerance below
    where (n-1) x reaches log(DBL_MAX) and the collar factor overflows:
    h > 0 at the one and h < 0 at the other for every finite area > 0.
    Two points narrow this bracket, each replacing the end on its side:
    the small-length crossing x0 = (K_n 2^(2-n) / area)^(1/(n-1)), where
    K_n (2x)^(2-n) meets area * x, clamped into [1e-300, 1], and one
    step t1 = t0 + h(t0) / (n-1) from it, at least the solve tolerance
    and clamped into the bracket.  The step lands at or past the root:
    G(l) = l^(n-2) F_n(l) never increases from K_n (for n = 3 it is
    pi l (1 + l) / (e^(2l) - 1)) and x <= collar_volume_factor(x) <=
    x cosh^(n-1)(x), so h' <= -(n-1), and an unclamped seed lies at or
    above the root.  False position with the Anderson-Bjorck rule then
    keeps the bracket; about 6 kernel calls, the two points among them,
    pin t to 1e-15.  Ends that do not straddle the root raise
    NonConvergenceError.  Kernel values and h are kept, so the returned
    bound and its log are the ones computed at the returned crossing
    length.
    """
    t = min(max(_log_small_crossing(n, area), _LOG_BRACKET_LO), 0.0)
    log_area = math.log(area)
    # t -> (kernel at 2 e^t, h(t))
    memo: dict[float, tuple[KernelValue, float]] = {}

    def h(t: float) -> float:
        if t not in memo:
            x = math.exp(t)
            kv = volume_kernel(n, 2.0 * x)
            memo[t] = kv, kv.log_value - log_area - math.log(collar_volume_factor(n, x))
        return memo[t][1]

    # widest half-width: a solve tolerance inside the collar's overflow
    t_hi = math.log(_LOG_DBL_MAX / (n - 1.0)) - _T_TOL
    ht = h(t)
    tol = _T_TOL + _T_RTOL * abs(t)
    step = max(ht / (n - 1.0), tol) if ht > 0.0 else min(ht / (n - 1.0), -tol)
    lo, hi = _LOG_BRACKET_LO, t_hi
    for s in (t, min(max(t + step, _LOG_BRACKET_LO), t_hi)):
        if h(s) > 0.0:
            lo = s
        else:
            hi = s
    if not h(lo) > 0.0 >= h(hi):
        raise NonConvergenceError("could not bracket the collar crossing", math.nan, math.nan)
    t = _false_position(h, lo, hi)
    kv = memo[t][0]
    return BoundResult(math.exp(t), kv.value, kv.log_value)
