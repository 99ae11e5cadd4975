"""Volume lower bounds from boundary area via the shortest orthogeodesic.

A collar of half-width x around the boundary has volume
area * collar_volume_factor(x).  The volume kernel evaluated at
twice the half-width caps how much volume a single orthogeodesic can
certify, and the crossing point of the two curves yields a volume
bound depending only on dimension and boundary area, with a power-law
floor A^((n-2)/(n-1)) up to a computable constant.  The crossing is the
one root of a decreasing function of log x, found by bracketed false
position.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .quadrature import KernelValue, NonConvergenceError
from .volume_kernel import _small_length_constant, volume_kernel

__all__ = ["collar_volume_factor", "power_law_floor", "volume_bound", "BoundResult"]

_LOG2 = math.log(2.0)
_LOG8 = math.log(8.0)
# seed range of the crossing and hard limits of the bracket, in t = log x
_LOG_SEED_LO = math.log(1e-6)
_LOG_BRACKET_LO = math.log(1e-300)
_LOG_BRACKET_HI = math.log(50.0)
# absolute tolerance on t (relative on x) and the least rtol, 4 eps
_T_TOL = 1e-15
_T_RTOL = 8.9e-16
_MAXITER = 100


def _false_position(f, a, b, xtol, rtol):
    """Root of f on a bracket a < b with f(a) > 0 >= f(b): (root, converged).

    False position with the Anderson-Bjorck rule (BIT 13, 1973): each
    step takes the secant point of the two ends, at least
    delta = (xtol + rtol |t|) / 2 inside the bracket, so the bracket
    shrinks every step.  When a step moves the same end as the step
    before, or is the first, the end it leaves stale has its weight g
    scaled by m = 1 - f_new / f_old, or by 1/2 if m <= 0, so that end
    pulls the next secant point towards it.  Stops once the bracket is
    narrower than 2 delta and returns the end with the smaller |f|.
    """
    fa, fb = f(a), f(b)
    ga, gb, side = fa, fb, 0
    for _ in range(_MAXITER):
        t = b - gb * (b - a) / (gb - ga)
        delta = (xtol + rtol * abs(t)) / 2
        if b - a < 2 * delta:
            return (a if abs(fa) < abs(fb) else b), True
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
    return (a if abs(fa) < abs(fb) else b), False


def collar_volume_factor(n: int, r: float) -> float:
    """int_0^r cosh(t)^(n-1) dt, the volume factor of a collar of width r.

    Binomial expansion of cosh^(n-1) integrates term by term to
    2^(1-n) sum_j C(n-1, j) expm1((n-1-2j) r) / (n-1-2j), the middle
    term degenerating to r when n is odd.  Each weight C(n-1, j) / 2^(n-1)
    is one correctly rounded quotient of exact integers, so neither
    C(n-1, j) nor 2^(n-1) has to be a double: the sum is finite wherever
    the factor is, except that expm1 raises OverflowError once (n-1) r
    passes 709.78.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if r < 0.0:
        raise ValueError("width must be >= 0")
    m = n - 1
    den = 1 << m
    total = 0.0
    comb = 1
    for j in range(m + 1):
        e = m - 2 * j
        total += comb / den * (r if e == 0 else math.expm1(e * r) / e)
        comb = comb * (m - j) // (j + 1)
    return total


def power_law_floor(n: int, area: float) -> float:
    """Power-law floor (K_n * area / 2)^((n-2)/(n-1)) on the volume.

    K_n is the small-length constant of the volume kernel.  The power is
    taken in logs, so the floor stays finite where K_n underflows; it
    reads 0 only where the floor itself does.
    """
    return math.exp(_log_power_law_floor(n, area))


def _log_power_law_floor(n: int, area: float) -> float:
    """log of power_law_floor(n, area), finite for n >= 3 and finite area > 0."""
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if not area > 0.0:
        raise ValueError("area must be positive")
    log_k = _small_length_constant(n)[1]
    return (n - 2.0) / (n - 1.0) * (log_k + math.log(area) - _LOG2)


class BoundResult(NamedTuple):
    """Solution of the collar crossing equation.

    crossing_length: half-width x where kernel(2x) equals the collar
    volume area * collar_volume_factor(x).
    bound: kernel value at 2x, the certified volume lower bound.
    power_law_floor(n, area) is the closed-form floor to compare with;
    bound >= floor does not hold for every area, only the asymptotic
    exponent matches.
    """

    crossing_length: float
    bound: float


def volume_bound(n: int, area: float) -> BoundResult:
    """Volume lower bound for an n-manifold with boundary area given.

    Solves kernel(2x) = area * collar_volume_factor(x) in log-log
    coordinates, for the root of
    h(t) = log kernel(2 e^t) - log(area * collar_volume_factor(e^t)),
    t = log x, with log kernel read from the kernel's log_value, finite
    where the value under- or overflows.  The left side falls from +inf
    at 0 and the right side grows from 0, so h is strictly decreasing
    and the crossing is unique.  Near 0 the kernel is K_n (2x)^(2-n) and
    the collar factor x, so h is almost linear with slope -(n-1), and
    the raw gap's span of hundreds of orders of magnitude, where secant
    steps on the difference overshoot, is gone.  The bracket is seeded
    at that small-length crossing, x0 = (K_n 2^(2-n) / area)^(1/(n-1))
    clamped into [1e-6, 1], as [x0/2, 2 x0], and widens by factors of 8
    down and 2 up until it straddles.  False position with the
    Anderson-Bjorck rule keeps the bracket, so no step leaves it; about
    8 kernel calls pin t to 1e-15.  Kernel values and h are kept, so the
    bracket ends found while seeding cost nothing more, and the returned
    bound is the one computed at the returned crossing length.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if not area > 0.0:
        raise ValueError("area must be positive")
    log_area = math.log(area)
    # t -> (kernel at 2 e^t, h(t))
    memo: dict[float, tuple[KernelValue, float]] = {}

    def h(t: float) -> float:
        if t not in memo:
            kv = volume_kernel(n, 2.0 * math.exp(t))
            memo[t] = kv, kv.log_value - log_area - math.log(collar_volume_factor(n, math.exp(t)))
        return memo[t][1]

    t0 = (_small_length_constant(n)[1] + (2.0 - n) * _LOG2 - log_area) / (n - 1.0)
    t0 = min(max(t0, _LOG_SEED_LO), 0.0)
    lo, hi = t0 - _LOG2, t0 + _LOG2
    while h(lo) <= 0.0:
        lo -= _LOG8
        if lo < _LOG_BRACKET_LO:
            msg = "could not bracket the collar crossing from below"
            raise NonConvergenceError(msg, math.nan, math.nan)
    while h(hi) > 0.0:
        hi += _LOG2
        if hi > _LOG_BRACKET_HI:
            msg = "could not bracket the collar crossing below width 50"
            raise NonConvergenceError(msg, math.nan, math.nan)
    t_star, converged = _false_position(h, lo, hi, _T_TOL, _T_RTOL)
    if not converged:
        raise NonConvergenceError(
            "collar crossing did not converge", math.exp(t_star), math.nan
        )
    return BoundResult(math.exp(t_star), memo[t_star][0].value)
