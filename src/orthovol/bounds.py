"""Volume lower bounds from boundary area via the shortest orthogeodesic.

A collar of half-width x around the boundary has volume
area * collar_volume_factor(x).  The volume kernel evaluated at
twice the half-width caps how much volume a single orthogeodesic can
certify, and the crossing point of the two curves yields a volume
bound depending only on dimension and boundary area, which tends to
the power-law floor K_n^(1/(n-1)) (A/2)^((n-2)/(n-1)) as A grows.  The
crossing is the one root of a decreasing function of log x, on one
fixed bracket of widths that the small-length crossing and one step
from it narrow, found by bracketed false position that stops where the
function's proved least slope puts the root within tolerance.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import NamedTuple

from .quadrature import NonConvergenceError
from .special import dimension
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


def _false_position(f, a, b, fa, fb, slope):
    """Root of f on a < b from fa = f(a) > 0 >= f(b) = fb, to _T_TOL + _T_RTOL |t|.

    False position with the Anderson-Bjorck rule (BIT 13, 1973): each
    step takes the secant point of the two ends, at least
    delta = (_T_TOL + _T_RTOL |t|) / 2 inside the bracket, so the bracket
    shrinks every step.  When a step moves the same end as the step
    before, or is the first, the end it leaves stale has its weight g
    scaled by m = 1 - f_new / f_old, or by 1/2 if m <= 0, so that end
    pulls the next secant point towards it.  Where f' <= -slope, a point
    t with |f(t)| <= slope delta / 2 lies within delta / 2 of the root and
    is returned (slope 0 turns this off); otherwise it stops
    once the bracket is narrower than 2 delta and returns the end with the
    smaller |f|.  After _MAXITER steps it raises NonConvergenceError with
    the width e^t of that end, t being log x in volume_bound.
    """
    ga, gb, side, stop = fa, fb, 0, slope / 2
    for _ in range(_MAXITER):
        t = b - gb * (b - a) / (gb - ga)
        delta = (_T_TOL + _T_RTOL * abs(t)) / 2
        if b - a < 2 * delta:
            return a if abs(fa) < abs(fb) else b
        t = min(max(t, a + delta), b - delta)
        ft = f(t)
        if abs(ft) <= stop * delta:
            return t
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
def _collar_weights(n: int) -> tuple[tuple[tuple[float, int], ...], tuple[float, ...]]:
    """(C(n-1, j) / 2^(n-1) correctly rounded, n-1-2j) and log C(n-1, j), j = 0..n-1: two tuples."""
    m = n - 1
    den = 1 << m
    weights, logs = [], []
    comb = 1
    for j in range(m + 1):
        weights.append((comb / den, m - 2 * j))
        logs.append(math.log(comb))
        comb = comb * (m - j) // (j + 1)
    return tuple(weights), tuple(logs)


def collar_volume_factor(n: int, r: float) -> tuple[float, float]:
    """(factor, log factor), factor = int_0^r cosh(t)^(n-1) dt for a collar of width r.

    Binomial expansion of cosh^(n-1) integrates term by term to
    2^(1-n) sum_j C(n-1, j) expm1((n-1-2j) r) / (n-1-2j), the middle
    term degenerating to r when n is odd.  Each weight C(n-1, j) / 2^(n-1)
    is one correctly rounded quotient of exact integers, built once per
    dimension, so neither C(n-1, j) nor 2^(n-1) has to be a double.
    Where that sum is finite the log is its log (-inf at r = 0).  Once
    (n-1) r passes 709.78 the sum overflows; the log is then the
    log-sum-exp of the terms' logs, with log(e^x - 1) = x + log1p(-e^-x)
    for the growing ones, and the factor its exp (within about |log|
    ulp): inf only where the factor overflows, and the log inf only where
    (n-1) r does.  n is taken through __index__.
    """
    n = dimension(n)
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not r >= 0.0:
        raise ValueError("width must be >= 0")
    return _collar(n, r, *_collar_weights(n))


def _collar(n: int, r: float, weights, log_combs) -> tuple[float, float]:
    """collar_volume_factor(n, r) for a checked n and r, on n's _collar_weights."""
    total = 0.0
    try:
        for w, e in weights:
            total += w * (r if e == 0 else math.expm1(e * r) / e)
    except OverflowError:
        total = math.inf
    if total < math.inf:
        return total, math.log(total) if total > 0.0 else -math.inf
    # the terms' logs with log C(n-1, j) from the exact integer, as the
    # end weights round to 0 from n = 1076
    logs = []
    for (_, e), log_comb in zip(weights, log_combs):
        if e > 0:
            size = e * r + math.log1p(-math.exp(-e * r)) - math.log(e)
        elif e < 0:
            size = math.log(-math.expm1(e * r) / -e)
        else:
            size = math.log(r)
        logs.append(log_comb + size)
    top = max(logs)
    if top == math.inf:
        # (n-1) r itself overflows, or r is inf
        return math.inf, math.inf
    log_total = top + math.log(math.fsum([math.exp(x - top) for x in logs])) - (n - 1) * _LOG2
    return (math.exp(log_total) if log_total <= _LOG_DBL_MAX else math.inf), log_total


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
    log_floor = _log_small_crossing(dimension(n), area) + math.log(area)
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
    underflows.  volume_bound builds it with tuple.__new__, in C.
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
    keeps the bracket and, as h' <= -(n-1), stops at a point t with
    |h(t)| <= (n-1) delta / 2, delta its half-tolerance, so within
    delta / 2 of the root: about 5.4 kernel calls, the two points among
    them, each at a new t, pin t to 1e-15.  Both rules read h as
    computed, its rounding not yet counted (ROADMAP item 6).  Ends that
    do not straddle the root raise NonConvergenceError.  The bound and
    its log are the kernel's at the returned crossing length.
    """
    n = dimension(n)
    t = min(max(_log_small_crossing(n, area), _LOG_BRACKET_LO), 0.0)
    log_area = math.log(area)
    weights, log_combs = _collar_weights(n)
    kernel: dict[float, KernelValue] = {}

    def h(t: float) -> float:
        x = math.exp(t)
        kernel[t] = kv = volume_kernel(n, 2.0 * x)
        return kv.log_value - log_area - _collar(n, x, weights, log_combs)[1]

    # widest half-width: a solve tolerance inside the collar's overflow
    t_hi = math.log(_LOG_DBL_MAX / (n - 1.0)) - _T_TOL
    ht = h(t)
    tol = _T_TOL + _T_RTOL * abs(t)
    step = max(ht / (n - 1.0), tol) if ht > 0.0 else min(ht / (n - 1.0), -tol)
    s = min(max(t + step, _LOG_BRACKET_LO), t_hi)
    (lo, h_lo), (hi, h_hi) = sorted(((t, ht), (s, h(s))))
    if h_hi > 0.0:
        lo, h_lo, hi = hi, h_hi, t_hi
        h_hi = h_lo if lo == hi else h(hi)
    elif not h_lo > 0.0:
        lo, hi, h_hi = _LOG_BRACKET_LO, lo, h_lo
        h_lo = h_hi if lo == hi else h(lo)
    if not h_lo > 0.0 >= h_hi:
        raise NonConvergenceError("could not bracket the collar crossing", math.nan, math.nan)
    t = _false_position(h, lo, hi, h_lo, h_hi, n - 1.0)
    kv = kernel[t]
    return tuple.__new__(BoundResult, (math.exp(t), kv.value, kv.log_value))
