"""The elementary sums the kernels are built from, one routine each.

harmonic gives H_k exactly as two integers, which every per-dimension
table reads (volume_kernel builds its gamma constants from exact
integers too); truncated_log is the logarithm series cut after n terms,
of which the inner kernel's closed form is made; rogers_l is the Rogers
dilogarithm of the n = 2 kernel.
"""

from __future__ import annotations

import math
from functools import cache

__all__ = ["harmonic", "truncated_log", "rogers_l"]


@cache
def harmonic(k: int) -> tuple[int, int]:
    """(num, den) with H_k = 1 + 1/2 + ... + 1/k = num / den exactly.

    den = lcm(1, ..., k), and H_0 = 0 / 1.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    den = math.lcm(*range(1, k + 1))
    return sum(den // j for j in range(1, k + 1)), den


def truncated_log(n: int, x: float, log_one_minus: float) -> float:
    """log|1-x| plus the first n series terms x + x^2/2 + ... + x^n/n.

    Equals the negative series tail -sum_{k>n} x^k/k for |x| < 1, which
    is how the small-|x| branch computes it: the direct form loses all
    significant digits there because log|1-x| and the partial sum agree
    to O(x^(n+1)).  For |x| > 1/2 the direct form is fine and also valid
    for |x| >= 1 where the tail series diverges.  At |x| <= 1/2 the
    tail's terms at least halve each step, so its partial sums cannot
    cancel below ~0.4 of the first and the relative stop test is safe.

    log_one_minus must equal log|1-x|; callers know 1-x in closed form
    and pass its log, which avoids the rounding in computing 1-x.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if x == 1.0:
        raise ValueError("truncated_log undefined at x = 1")
    total = 0.0
    if abs(x) > 0.5:
        power = 1.0
        for k in range(1, n + 1):
            power *= x
            total += power / k
        return log_one_minus + total
    if x == 0.0:
        return 0.0
    power = x ** n
    for k in range(n + 1, n + 81):
        power *= x
        term = power / k
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return -total


def rogers_l(x: float) -> float:
    """Rogers dilogarithm L(x) = Li_2(x) + log(x) log(1-x) / 2 on [0, 1].

    Li_2's series sum x^k/k^2 for x <= 1/2, and the reflection
    L(x) = pi^2/6 - L(1-x) above (Zagier, The Dilogarithm Function,
    2007), with 1 - x exact there.  L(0) = 0 and L(1) = pi^2/6 exactly;
    the log product has a removable limit of 0 at both ends.
    """
    if x < 0.0 or x > 1.0:
        raise ValueError("rogers_l implemented on [0, 1] only")
    y = min(x, 1.0 - x)
    value = 0.0
    if y > 0.0:
        power = 1.0
        for k in range(1, 201):
            power *= y
            term = power / (k * k)
            value += term
            if term < 1e-17 * value:
                break
        value += 0.5 * math.log(y) * math.log(1.0 - y)
    return value if x <= 0.5 else math.pi ** 2 / 6.0 - value
