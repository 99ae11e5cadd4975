"""Elementary special functions shared by the kernel modules.

Everything here is scalar float math: partial sums of the logarithm
series, which at one are the harmonic numbers, and the dilogarithm
together with its Rogers normalization.  These are small enough that
hand-rolled versions beat pulling in mpmath.

The kernel's gamma-function constants are each a rational times a power
of pi, and volume_kernel builds them from exact integers: a float product
of gamma values fails from n = 131, while K_n is normal up to n = 326.
"""

from __future__ import annotations

import math

__all__ = [
    "partial_log_series",
    "truncated_log",
    "dilogarithm",
    "rogers_l",
]


def partial_log_series(n: int, z: float) -> float:
    """Partial sum z + z^2/2 + ... + z^n/n of -log(1-z).

    n = 0 gives the empty sum; z = 1 gives the n-th harmonic number,
    summed in ascending order.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    total = 0.0
    power = 1.0
    for k in range(1, n + 1):
        power *= z
        total += power / k
    return total


def _log_tail(n: int, x: float) -> float:
    """Tail sum -(x^(n+1)/(n+1) + x^(n+2)/(n+2) + ...) for |x| <= 1/2.

    With |x| <= 1/2 the terms at least halve each step, so the partial
    sums cannot cancel below ~0.4 of the leading term and the relative
    stop test is safe.
    """
    if x == 0.0:
        return 0.0
    power = x ** n
    total = 0.0
    for k in range(n + 1, n + 81):
        power *= x
        term = power / k
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return -total


def truncated_log(n: int, x: float, log_one_minus: float) -> float:
    """log|1-x| plus the first n series terms x + x^2/2 + ... + x^n/n.

    Equals the negative series tail -sum_{k>n} x^k/k for |x| < 1, which
    is how the small-|x| branch computes it: the direct form loses all
    significant digits there because log|1-x| and the partial sum agree
    to O(x^(n+1)).  For |x| > 1/2 the direct form is fine and also valid
    for |x| >= 1 where the tail series diverges.

    log_one_minus must equal log|1-x|; callers know 1-x in closed form
    and pass its log, which avoids the rounding in computing 1-x.
    """
    if x == 1.0:
        raise ValueError("truncated_log undefined at x = 1")
    if abs(x) <= 0.5:
        return _log_tail(n, x)
    return log_one_minus + partial_log_series(n, x)


def dilogarithm(x: float) -> float:
    """Li_2(x) = sum x^k/k^2 on [0, 1].

    Series for x <= 1/2; the reflection
    Li_2(x) + Li_2(1-x) = pi^2/6 - log(x) log(1-x)
    maps the rest back into the fast-converging range.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError("dilogarithm implemented on [0, 1] only")
    if x == 1.0:
        return math.pi ** 2 / 6.0
    if x > 0.5:
        y = 1.0 - x
        return (
            math.pi ** 2 / 6.0
            - math.log(x) * math.log(y)
            - dilogarithm(y)
        )
    if x == 0.0:
        return 0.0
    total = 0.0
    power = 1.0
    for k in range(1, 201):
        power *= x
        term = power / (k * k)
        total += term
        if term < 1e-17 * total:
            break
    return total


def rogers_l(x: float) -> float:
    """Rogers dilogarithm L(x) = Li_2(x) + log(x) log(1-x) / 2 on [0, 1].

    L(0) = 0 and L(1) = pi^2/6 exactly; the log product has a removable
    limit of 0 at both ends.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError("rogers_l implemented on [0, 1] only")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return math.pi ** 2 / 6.0
    return dilogarithm(x) + 0.5 * math.log(x) * math.log(1.0 - x)
