"""Volume lower bounds from boundary area via the shortest orthogeodesic.

A collar of half-width x around the boundary has volume
area * collar_volume_factor(x).  The volume kernel evaluated at
twice the half-width caps how much volume a single orthogeodesic can
certify, and the crossing point of the two curves yields a volume
bound depending only on dimension and boundary area, with a power-law
floor A^((n-2)/(n-1)) up to a computable constant.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .quadrature import NonConvergenceError
from .volume_kernel import _small_length_constant, volume_kernel

__all__ = [
    "collar_volume_factor",
    "power_law_floor",
    "volume_bound",
    "BoundResult",
]

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


def _brentq(f, xa, xb, xtol, rtol):
    """Brent's zero finder on a bracket [xa, xb]: (root, converged).

    Port of scipy's brentq.c (BSD licence; Brent, Algorithms for
    Minimization without Derivatives, 1973): it takes the same steps,
    so it calls f at the same points.  A zero denominator in the
    interpolation, which in C yields inf or nan and fails the step test,
    falls back to a bisection step; infinite values of f go through the
    same IEEE arithmetic as in C.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre, True
    if fcur == 0.0:
        return xcur, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (
            fpre != 0.0
            and fcur != 0.0
            and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur, False


def collar_volume_factor(n: int, r: float) -> float:
    """int_0^r cosh(t)^(n-1) dt, the volume factor of a collar of width r.

    Binomial expansion of cosh^(n-1) integrates term by term to
    2^(1-n) sum_j C(n-1, j) expm1((n-1-2j) r) / (n-1-2j), the middle
    term degenerating to r when n is odd.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if r < 0.0:
        raise ValueError("width must be >= 0")
    m = n - 1
    total = 0.0
    for j in range(m + 1):
        e = m - 2 * j
        total += math.comb(m, j) * (r if e == 0 else math.expm1(e * r) / e)
    return total / 2.0 ** m


def power_law_floor(n: int, area: float) -> float:
    """Power-law floor (K_n * area / 2)^((n-2)/(n-1)) on the volume.

    K_n is the small-length constant of the volume kernel.  The power is
    taken in logs, so the floor stays finite where K_n underflows.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if not area > 0.0:
        raise ValueError("area must be positive")
    log_k = _small_length_constant(n)[1]
    return math.exp((n - 2.0) / (n - 1.0) * (log_k + math.log(area) - _LOG2))


class BoundResult(NamedTuple):
    """Solution of the collar crossing equation.

    crossing_length: half-width x where kernel(2x) equals the collar
    volume area * collar_volume_factor(x).
    bound: kernel value at 2x, the certified volume lower bound.
    power_floor: closed-form floor for comparison; bound >= power_floor
    does not hold for every area, only the asymptotic exponent matches.
    """

    crossing_length: float
    bound: float
    power_floor: float


def volume_bound(n: int, area: float) -> BoundResult:
    """Volume lower bound for an n-manifold with boundary area given.

    Solves kernel(2x) = area * collar_volume_factor(x) in log-log
    coordinates: Brent's method finds the root of
    h(t) = log kernel(2 e^t) - log(area * collar_volume_factor(e^t)),
    t = log x.  The left side falls from +inf at 0 and the right side
    grows from 0, so h is strictly decreasing and the crossing is
    unique.  Near 0 the kernel is K_n (2x)^(2-n) and the collar factor
    x, so h is almost linear with slope -(n-1), and the raw gap's span
    of hundreds of orders of magnitude, where secant steps on the
    difference overshoot, is gone.  The bracket is seeded at that
    small-length crossing, x0 = (K_n 2^(2-n) / area)^(1/(n-1)) clamped
    into [1e-6, 1], as [x0/2, 2 x0], and widens by factors of 8 down
    and 2 up until it straddles.  Brent's method keeps a bracket, so no
    step leaves it; about 8 kernel calls pin t to 1e-15.  A kernel
    value that underflows to 0, as e^(-(n-1) 2x) does at large n and x,
    reads as h = -inf.  Kernel values are kept, so the returned bound is
    the one computed at the returned crossing length.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if not area > 0.0:
        raise ValueError("area must be positive")
    log_area = math.log(area)
    kernel_at: dict[float, float] = {}

    def kernel(t: float) -> float:
        if t not in kernel_at:
            kernel_at[t] = volume_kernel(n, 2.0 * math.exp(t)).value
        return kernel_at[t]

    def h(t: float) -> float:
        f = kernel(t)
        if f <= 0.0:
            return -math.inf
        return math.log(f) - log_area - math.log(collar_volume_factor(n, math.exp(t)))

    t0 = (_small_length_constant(n)[1] + (2.0 - n) * _LOG2 - log_area) / (n - 1.0)
    t0 = min(max(t0, _LOG_SEED_LO), 0.0)
    lo, hi = t0 - _LOG2, t0 + _LOG2
    while h(lo) <= 0.0:
        lo -= _LOG8
        if lo < _LOG_BRACKET_LO:
            raise NonConvergenceError(
                "could not bracket the collar crossing from below",
                math.nan,
                math.nan,
            )
    while h(hi) > 0.0:
        hi += _LOG2
        if hi > _LOG_BRACKET_HI:
            raise NonConvergenceError(
                "could not bracket the collar crossing below width 50",
                math.nan,
                math.nan,
            )
    t_star, converged = _brentq(h, lo, hi, _T_TOL, _T_RTOL)
    if not converged:
        raise NonConvergenceError(
            "collar crossing did not converge", math.exp(t_star), math.nan
        )
    return BoundResult(math.exp(t_star), kernel(t_star), power_law_floor(n, area))
