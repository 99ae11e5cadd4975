"""Adaptive quadrature behind the volume kernel's two parametrizations.

Global adaptive Gauss-Kronrod quadrature: QUADPACK's 21-point rule
dqk21 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK,
Springer 1983; public domain), bisecting the piece of largest error
estimate until the summed estimate meets its target.  The first rule
and its exits are those of QUADPACK's QAGS, so a call that one rule
settles returns QAGS's bits; there is no extrapolation.  Both limits
must be finite.

On top of the loop sits the policy: one error target (relative 1e-9,
with an absolute floor of 1e-12 on the caller's scaled result) and one
budget of 2000 subdivisions, a value-with-error result type, and a
single call point that turns a missed target into an exception
instead of a warning.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, NamedTuple

__all__ = ["KernelValue", "NonConvergenceError", "adaptive_quad"]

# the error target, max(_ABS_TOL, _REL_TOL |value|) on the scaled
# result, and the most pieces the loop may hold
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
# the loop stops when an interval is too narrow, relative to where it
# lies, to be bisected in floating point
_TINY_INTERVAL = 1.0 + 100.0 * _EPMACH
# A stall is QAGS's roundoff test: a bisection of resolved halves that
# keeps the piece's value to 1e-5 but cuts its error by under 1 %.  QAGS
# gives up after ten stalls or five fruitless extrapolations; four is
# the most at which no volume kernel call that misses its target
# (n = 7..41, l = 2e-9..3e-8) bisects longer than QAGS did (at five,
# one takes 67 rules against 59).
_MAX_STALLS = 4

# dqk21: Kronrod abscissae, with the 10-point Gauss nodes at the odd
# indices, the Kronrod weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077482977684583, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class KernelValue(NamedTuple):
    """Numerical kernel value, its error estimate and its logarithm.

    log_value is log(value) wherever value is a normal double.  Where the
    kernel underflows, value is a subnormal or 0, and where it overflows
    value and err_estimate are inf; log_value still holds the kernel's
    size.
    """

    value: float
    err_estimate: float
    log_value: float


class NonConvergenceError(RuntimeError):
    """Raised when an integral cannot meet its error target.

    Carries the best value and error estimate seen so callers can
    report them.
    """

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def _qk21(f, a, b):
    """dqk21 on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        fval1 = fv1[j] = f(centr - absc)
        fval2 = fv2[j] = f(centr + absc)
        fsum = fval1 + fval2
        if j & 1:
            resg += _WG[j >> 1] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(50.0 * _EPMACH * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _integrate(f, a, b, epsabs, epsrel, limit):
    """(value, err_estimate) for the integral of f over [a, b]."""
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    # QAGS's exits after the first rule, and a non-finite rule: no
    # bisection resolves an integrand that returned nan or inf
    if (
        (abserr <= errbnd and abserr != resabs)
        or abserr == 0.0
        or (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
        or not math.isfinite(result + abserr)
    ):
        return result, abserr
    # pieces as (-err, a, b, value): the heap's top is the worst piece
    pieces = [(-abserr, a, b, result)]
    area, errsum = result, abserr
    stalls = 0
    for _ in range(limit - 1):
        neg_err, a1, b2, whole = heapq.heappop(pieces)
        mid = 0.5 * (a1 + b2)
        area1, error1, _, defab1 = _qk21(f, a1, mid)
        area2, error2, _, defab2 = _qk21(f, mid, b2)
        heapq.heappush(pieces, (-error1, a1, mid, area1))
        heapq.heappush(pieces, (-error2, mid, b2, area2))
        area12 = area1 + area2
        erro12 = error1 + error2
        area += area12 - whole
        errsum += erro12 + neg_err
        if not math.isfinite(area + errsum):
            return area, errsum
        if errsum <= max(epsabs, epsrel * abs(area)):
            break
        stalls += (
            defab1 != error1
            and defab2 != error2
            and abs(whole - area12) <= 1e-5 * abs(area12)
            and erro12 >= -0.99 * neg_err
        )
        narrow = max(abs(a1), abs(b2)) <= _TINY_INTERVAL * (abs(mid) + 1000.0 * _UFLOW)
        if stalls >= _MAX_STALLS or narrow:
            break
    return math.fsum(piece[3] for piece in pieces), errsum


def adaptive_quad(
    integrand: Callable[[float], float], lo: float, hi: float, scale: float
) -> tuple[float, float]:
    """Integrate integrand over (lo, hi) for a caller that multiplies by scale.

    Both limits must be finite.  The absolute floor is divided by scale,
    so that the scaled error estimate meets the module's target.
    Returns (value, err_estimate); raises NonConvergenceError unless the
    estimate meets max(abs floor / scale, rel target * |value|), which a
    nan or infinite estimate never does.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    eps_abs = _ABS_TOL / scale
    value, err = _integrate(integrand, lo, hi, eps_abs, _REL_TOL, _MAX_SUBDIVISIONS)
    target = max(eps_abs, _REL_TOL * abs(value))
    if not err <= target:
        raise NonConvergenceError(
            f"integral error estimate {err:.3e} exceeds target {target:.3e}",
            value,
            err,
        )
    return value, err
