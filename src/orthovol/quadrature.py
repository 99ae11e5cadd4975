"""Adaptive quadrature behind the volume kernel's two parametrizations.

A pure-Python port of QUADPACK's QAGS routine dqagse (Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983;
public domain): the 21-point Gauss-Kronrod rule dqk21, bisection of
the subinterval with the largest error estimate kept in dqpsrt's
error-ordered list, and Wynn's epsilon-algorithm dqelg to extrapolate
over end-point singularities.  It evaluates the same nodes in the same
order as the Fortran original and takes the same exits.  Both limits
must be finite.

On top of the port sits the policy: a tolerance/limit config, a
value-with-error result type, and a single call point that turns a
missed error target into an exception instead of a warning.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "QuadratureConfig",
    "KernelValue",
    "NonConvergenceError",
    "DEFAULT_CONFIG",
    "adaptive_quad",
]

# Below ~50 machine epsilons QUADPACK's error estimates are rounding
# noise, and dqagse rejects such relative tolerances outright.
_MIN_REL = 1.2e-14

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# dqagse stops when an interval is too narrow, relative to where it
# lies, to be bisected in floating point
_TINY_INTERVAL = 1.0 + 100.0 * _EPMACH

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


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and subdivision budget for the adaptive integrators.

    rel_tol and abs_tol are combined as max(abs_tol, rel_tol * |value|);
    an integral whose error estimate exceeds that target raises
    NonConvergenceError rather than returning silently degraded output.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class KernelValue:
    """Numerical kernel value together with its error estimate."""

    value: float
    err_estimate: float


class NonConvergenceError(RuntimeError):
    """Raised when an integral cannot meet the requested tolerance.

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


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: file the two halves into iord (1-based, by decreasing
    error); returns (maxerr, errmax, nrmax) of the next to bisect."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        while nrmax > 1 and errmax > elist[iord[nrmax - 1]]:
            iord[nrmax] = iord[nrmax - 1]
            nrmax -= 1
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                for k in range(jbnd, i - 1, -1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon-algorithm on epstab[1..n].

    Returns (n, result, abserr, nres); epstab and res3la (1-based, the
    last three results) are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements or an irregular table: drop its tail
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3 or abs(
                (ss := 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3) * e1
            ) <= 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if n == 50:
            n = 49
        ib = 2 if num % 2 == 0 else 1
        ie = ib + 2 * newelm + 1
        epstab[ib:ie:2] = epstab[ib + 2:ie + 2:2]
        if num != n:
            epstab[1:n + 1] = epstab[num - n + 1:num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            r1, r2, r3 = res3la[1:4]
            abserr = abs(result - r3) + abs(result - r2) + abs(result - r1)
            res3la[1:4] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _list_sum(rlist):
    # in list order, as dqagse does; sum() may compensate on newer Pythons
    total = 0.0
    for r in rlist:
        total += r
    return total


def _qags(f, a, b, epsabs, epsrel, limit):
    """dqagse: (result, abserr) for the integral of f over [a, b]."""
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if (
        limit == 1
        or (abserr <= errbnd and abserr != resabs)
        or abserr == 0.0
        or (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
    ):
        return result, abserr
    # 1-based lists as in the Fortran; the first bisection allocates them
    alist, blist, rlist, elist = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr]
    columns = alist, blist, rlist, elist
    iord, res3la, rlist2 = [0, 1], [0.0] * 4, [0.0, result] + [0.0] * 51
    errmax = errsum = abserr
    area = result
    abserr = _OFLOW
    maxerr = nrmax = 1
    nres = ktmin = iroff1 = iroff2 = iroff3 = 0
    numrl2 = 2
    extrap = noext = roundoff = stop = False
    small = erlarg = ertest = correc = 0.0
    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b2 = blist[maxerr]
        b1 = a2 = 0.5 * (a1 + b2)
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if (
                abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12)
                and erro12 >= 0.99 * errmax
            ):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(epsabs, epsrel * abs(area))
        roundoff = roundoff or iroff2 >= 5
        # roundoff, the budget spent, or an interval too narrow to split
        stop = (
            iroff1 + iroff2 >= 10
            or iroff3 >= 20
            or last == limit
            or max(abs(a1), abs(b2)) <= _TINY_INTERVAL * (abs(a2) + 1000.0 * _UFLOW)
        )
        # the half with the larger error keeps the slot maxerr
        if error2 > error1:
            alist[maxerr], rlist[maxerr], elist[maxerr] = a2, area2, error2
            new = (a1, b1, area1, error1)
        else:
            blist[maxerr], rlist[maxerr], elist[maxerr] = b1, area1, error1
            new = (a2, b2, area2, error2)
        for column, value in zip(columns, new):
            column.append(value)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _list_sum(rlist), errsum
        if stop:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the smallest interval has the largest error
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not roundoff and erlarg > ertest:
            # bisect larger intervals first while their errors dominate
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            while nrmax <= jupbnd:
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    break
                nrmax += 1
            if nrmax <= jupbnd:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        # ier = 5: no gain from the extrapolation table in five tries
        stop = ktmin > 5 and abserr < 1e-3 * errsum
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if stop:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum
    # keep the extrapolated result unless the plain sum is more reliable
    if abserr == _OFLOW:
        return _list_sum(rlist), errsum
    if stop or roundoff:
        if roundoff:
            abserr += correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _list_sum(rlist), errsum
        elif abserr > errsum:
            return _list_sum(rlist), errsum
    return result, abserr


def adaptive_quad(
    integrand: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    abs_tol: float | None = None,
) -> tuple[float, float]:
    """Integrate integrand over (lo, hi) under the config's error policy.

    Both limits must be finite.  abs_tol overrides the config's
    absolute floor, for callers that scale the integral afterwards.
    Returns (value, err_estimate); raises NonConvergenceError if the
    estimate misses max(abs target, rel target * |value|).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    eps_rel = max(cfg.rel_tol, _MIN_REL)
    eps_abs = cfg.abs_tol if abs_tol is None else abs_tol
    value, err = _qags(integrand, lo, hi, eps_abs, eps_rel, cfg.max_subdivisions)
    target = max(eps_abs, eps_rel * abs(value))
    if err > target:
        raise NonConvergenceError(
            f"integral error estimate {err:.3e} exceeds target {target:.3e}",
            value,
            err,
        )
    return value, err
