"""Inner radial kernel of the tube volume computation.

The kernel m_n(b) takes the half-width ratio b > 1 of a spherical shell
pair (after rescaling the inner sphere to radius 1) and returns the
shell average that the volume kernel integrates over tube cross
sections.  inner_kernel evaluates it on two branches chosen by b:

* b < 3: the closed form, four groups of truncated logarithms;
* b >= 3: the far-field series b^(1-n) sum_j b^(-2j) (alpha_j log b +
  beta_j), whose coefficients are built on first use per dimension.

Both are within 1e-15 relative of a high-precision evaluation of the
closed form for n <= 100.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul

from .special import dimension, harmonic, truncated_log

__all__ = ["inner_kernel"]


def _check_ratio(b: float) -> None:
    if not 1.0 < b < math.inf:
        raise ValueError("half-width ratio must be finite and exceed 1")


def inner_kernel(n: int, b: float) -> float:
    """Inner kernel m_n(b) for dimension n >= 3 at ratio b > 1.

    The closed form below b = 3, the far-field series from there on.
    At b = 3, 2/(b-1) = 1: above it the closed form sums truncated logs
    of arguments with 1/2 < |x| < 1, whose groups cancel to
    O(b^(1-n) log b); it lost up to 4e-5 relative by b = 1e12 and
    overflowed at large n.  The series converges like 9^(-j) at b = 3,
    where it takes 18 terms for n = 3, 24 for n = 8 and 55 for n = 60;
    it sums them all at every b.  Against a 40-plus-digit mpmath
    evaluation, both branches are within 8.5e-16 relative for n <= 100.
    n is taken through special.dimension, so a float raises TypeError.
    """
    if not (type(n) is int and n >= 3):
        n = dimension(n, 3)
    _check_ratio(b)
    if b >= 3.0:
        return _far_field(n, b)
    return _closed_form(n, b)


def _closed_form(n: int, b: float) -> float:
    """Closed-form inner kernel; accurate for 1 < b <= 3.

    Four groups of truncated logarithms weighted by (b-1), (b+1), 2b
    and 2 to the power n-2, with signs alternating in the parity of n.
    Every truncated_log call passes the exact logarithm of |1 - x| for
    its argument x; letting truncated_log recompute it from the rounded
    ratio loses up to six digits near b = 1.  Where (b-1)^(n-2)
    underflows to 0 (b = 1 + 1e-8 from n = 43 on), m_n(b), which grows
    like 2 H_(n-2) / ((n-1)(n-2) (b-1)^(n-2)), is past the double range:
    that raises OverflowError, as does a result of +inf.  For large n the
    groups overflow first (nan at (100, 1.001), -inf at (600, 2)): any
    other result that is not a finite positive double raises ArithmeticError.
    """
    k = n - 2
    near = (b - 1.0) ** k
    if near == 0.0:
        raise OverflowError(f"inner kernel m_n(b) leaves the double range at n = {n}, b = {b!r}")
    m = n - 3
    sgn = -1.0 if n % 2 else 1.0
    h, d = harmonic(k)
    h2 = 2 * h / d
    lbp = math.log(b + 1.0)
    lbm = math.log(b - 1.0)
    lb = math.log(b)
    l2 = math.log(2.0)
    # |1 - (b-1)/(b+1)| = 2/(b+1), |1 - (1-b)/(b+1)| = 2b/(b+1), etc.
    g1 = (
        (2.0 * lbp - 2.0 * l2 - lb)
        + h2
        - truncated_log(m, (b - 1.0) / (b + 1.0), l2 - lbp)
        - sgn * truncated_log(m, (1.0 - b) / (b + 1.0), l2 + lb - lbp)
    )
    g2 = (
        -(2.0 * lbm - 2.0 * l2 - lb)
        - h2
        + truncated_log(m, (b + 1.0) / (b - 1.0), l2 - lbm)
        + sgn * truncated_log(m, (-b - 1.0) / (b - 1.0), l2 + lb - lbm)
    )
    g3 = (
        truncated_log(m, 2.0 * b / (b + 1.0), lbm - lbp)
        - truncated_log(m, 2.0 * b / (b - 1.0), lbp - lbm)
    )
    g4 = (
        truncated_log(m, 2.0 / (b + 1.0), lbm - lbp)
        - sgn * truncated_log(m, -2.0 / (b - 1.0), lbp - lbm)
    )
    # 2^(n-2) as an exponent shift: (2b)^(n-2) overflows near b = 3
    # from n = 399
    value = (
        g1 / near
        + g2 / (b + 1.0) ** k
        + math.ldexp(g3 / b**k, -k)
        + math.ldexp(g4, -k)
    ) / ((n - 1.0) * (n - 2.0))
    if not 0.0 < value < math.inf:
        if value == math.inf:
            raise OverflowError(f"inner kernel m_n(b) leaves the double range at n = {n}, b = {b!r}")
        raise ArithmeticError(f"inner kernel's closed form gives {value!r} at n = {n}, b = {b!r}")
    return value


@cache
def _far_field_coefficients(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients of the far-field series, as far as b = 3 needs them.

    Substituting v = b w, t = 1/b in the defining integral and expanding
    (1 - u t/w)^(-n), log(1 - t^2/w^2) and log(1 - u^2 t^2) leaves only
    even powers of t, each a Beta-type integral:

        b^(n-1) m_n(b) = sum_j b^(-2j) (alpha_j log b + beta_j),

    with q = n + 2j, c_k = C(n+k-1, k) and H_x = psi(x+1) + gamma,
        alpha_j = 4 c_(2j) / ((2j+1)(q-1)),
        beta_j = (alpha_j/2)(H_((q-1)/2) + H_(j+1/2))
                 - sum_(i=1..j) (c_(2j-2i)/i) [2/((2j-2i+1)(q-1))
                                              + 2/((2j+1)(q-2i-1))].
    Both are stored times 9^-j: the terms at b = 3, every one positive.
    Terms are added until the next one at b = 3 is below 2^-57 of the
    sum and at most half the one before; the term ratio falls with j, so
    the rest is below 2^-56.

    As the sums over i are positive and H_x <= x + 1, term j is at most
    4 c_(2j) b^(-2j) (log b + n/4 + j + 1) / (n-1); with x = 1/b <= 1/3,
    sum_j c_(2j) x^(2j) <= (1-x)^-n and sum_j 2j c_(2j) x^(2j) <= n x
    (1-x)^(-n-1) <= (n/2) (1-x)^-n give m_n(b) <= 4 (log b + n/2 + 1) b /
    ((n-1) (b-1)^n), which falls with b and passes below 2^-1075 at b = 3
    at n = 1078.  _far_field returns 0.0 there without a table, so tables
    are built only for n < 1078, where c_(2j) 9^-j <= (3/2)^n < 2^631
    keeps every sum finite.  Returns (alpha, beta).
    """
    # h = H_((n-1)/2) + H_(1/2), advanced by H_(x+1) = H_x + 1/(x+1)
    # with its rounding carried in h_err; 2 H_(2m+1) - H_m
    # = 2 (1 + 1/3 + ... + 1/(2m+1)), so H_(m+1/2) is that minus 2 log 2
    l2 = math.log(2.0)
    if n % 2:
        summands = [1.0 / k for k in range(1, (n + 1) // 2)] + [2.0, -2.0 * l2]
    else:
        summands = [2.0 / k for k in range(1, n, 2)] + [2.0, -4.0 * l2]
    h = math.fsum(summands)
    h_err = 0.0
    binom = 1  # c_(2j), exact
    nine_j = 1  # 9^j, exact
    u: list[float] = []  # c_(2k) 9^-k / (2k+1)
    v: list[float] = []  # c_(2k) 9^-k / (n+2k-1)
    w: list[float] = []  # 9^-i / i for i = 1, 2, ...
    alpha: list[float] = []
    beta: list[float] = []
    log3 = math.log(3.0)
    total = 0.0
    last = math.inf
    j = 0
    while True:
        q = n + 2 * j
        c = binom / nine_j
        a = 4.0 * c / ((2 * j + 1) * (q - 1))
        # the sums over i pair u_(j-i), v_(j-i) with 9^-i / i
        beta_j = math.fsum(
            (
                0.5 * a * (h + h_err),
                -2.0 * math.fsum(map(mul, w, reversed(u))) / (q - 1),
                -2.0 * math.fsum(map(mul, w, reversed(v))) / (2 * j + 1),
            )
        )
        term = a * log3 + beta_j
        alpha.append(a)
        beta.append(beta_j)
        total += term
        if term <= 2.0 ** -57 * total and term <= 0.5 * last:
            break
        last = term
        u.append(c / (2 * j + 1))
        v.append(c / (q - 1))
        w.append(1 / (9 ** (j + 1) * (j + 1)))
        for step in (2.0 / (q + 1), 2.0 / (2 * j + 3)):
            h, h_err = h + step, h_err + (step - ((h + step) - h))
        binom = binom * q * (q + 1) // ((2 * j + 1) * (2 * j + 2))
        nine_j *= 9
        j += 1
    return tuple(alpha), tuple(beta)


def _far_field(n: int, b: float) -> float:
    """Far-field series for b >= 3, by Horner's rule in x = 9/b^2.

    0.0, before any table, where _far_field_coefficients' bound on m_n(b)
    is below e^-745.2 < 2^-1075, half the least subnormal.  Else every
    stored term, top term first.  Horner's rule carries the rounding of x
    into term j about j times, which costs up to 3.5e-15 at n = 100 near
    b = 3, so the slope adds back the exact 9/b^2 - x, from the integer
    ratios of b and x, to first order.  b^(1-n) is then powers of b's
    mantissa, in chunks that stay normal, and an exponent shift.
    """
    lb = math.log(b)
    if math.log(4.0 * (lb + 0.5 * n + 1.0) / (n - 1)) + lb - n * math.log(b - 1.0) < -745.2:
        return 0.0
    alpha, beta = _far_field_coefficients(n)
    x = 9.0 / (b * b)
    acc = slope = 0.0
    for a, c in zip(reversed(alpha), reversed(beta)):
        slope = slope * x + acc
        acc = acc * x + (a * lb + c)
    p, q = b.as_integer_ratio()
    xp, xq = x.as_integer_ratio()
    acc += slope * ((9 * q * q * xq - xp * p * p) / (p * p * xq))
    k = n - 1
    acc, shift = math.frexp(acc)
    frac, exp = math.frexp(b)
    shift -= exp * k
    while k:
        step = min(k, 1000)
        acc, e = math.frexp(acc / frac**step)
        shift += e
        k -= step
    return math.ldexp(acc, shift)
