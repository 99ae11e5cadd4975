"""Inner radial kernel of the tube volume computation.

The kernel m_n(b) takes the half-width ratio b > 1 of a spherical shell
pair (after rescaling the inner sphere to radius 1) and returns the
shell average that the volume kernel integrates over tube cross
sections.  inner_kernel evaluates it on two branches chosen by b:

* b < 3: the closed form, four groups of truncated logarithms;
* b >= 3: the far-field series b^(1-n) sum_j b^(-2j) (alpha_j log b +
  beta_j), whose coefficients are built once per dimension.

Both are within 1e-15 relative of a high-precision evaluation of the
closed form for n <= 100.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul
from typing import NamedTuple

from .special import partial_log_series, truncated_log

__all__ = [
    "inner_kernel",
    "inner_kernel_asymptotics",
    "KernelAsymptotics",
]


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
    at b = 1e3 it takes 4 to 6, and from b = 2^29 (n = 3) or 2^34
    (n = 60) on a single term.  Against a 40-plus-digit mpmath
    evaluation at 400 random points each, both branches are within
    7.5e-16 relative for n <= 100.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
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
    that raises OverflowError.
    """
    k = n - 2
    near = (b - 1.0) ** k
    if near == 0.0:
        raise OverflowError(
            f"inner kernel m_n(b) leaves the double range at n = {n}, b = {b!r}"
        )
    m = n - 3
    sgn = -1.0 if n % 2 else 1.0
    h2 = 2.0 * partial_log_series(n - 2, 1.0)
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
    return (
        g1 / near
        + g2 / (b + 1.0) ** k
        + g3 / (2.0 * b) ** k
        + g4 / 2.0 ** k
    ) / ((n - 1.0) * (n - 2.0))


def _far_field_coefficients(n: int) -> tuple[list[float], list[float]]:
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
    Both are stored times 9^-j, so that they are the terms at b = 3 and
    stay finite where c_(2j) alone would overflow.  Every term is
    positive.  Terms are added until the next one at b = 3 is below
    2^-57 of the sum and at most half the one before; the term ratio
    falls with j, so the rest is below 2^-56.
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
    return alpha, beta


@cache
def _far_field_octaves(n: int) -> list[tuple[list[tuple[float, float]], bool]]:
    """Per frexp(b)[1], the series terms an octave of b needs.

    The octave 2^(E-1) <= b < 2^E keeps the fewest (alpha_j, beta_j)
    pairs, highest j first, whose dropped tail at its lower end
    max(3, 2^(E-1)) is below 2^-57 of the sum there.  The flag marks
    octaves whose terms there have a mean power j above 1: Horner's rule
    carries the rounding of x = 9/b^2 into term j about j times, which
    costs up to 2e-15 at n = 60 and 3.5e-15 at n = 100 near b = 3, so
    there the rounding is put back.
    """
    alpha, beta = _far_field_coefficients(n)
    pairs = list(zip(alpha, beta))
    octaves: list[tuple[list[tuple[float, float]], bool]] = [([], False)] * 2
    keep = len(pairs)
    fix_x = True
    while len(octaves) < 1025:
        lower = max(3.0, 2.0 ** (len(octaves) - 1))
        x = 9.0 / (lower * lower)
        lb = math.log(lower)
        # the count only falls with b, so the last octave's count bounds this one's
        terms = [x**j * (a * lb + c) for j, (a, c) in enumerate(pairs[:keep])]
        total = sum(terms)
        tail = 0.0
        while keep > 1 and tail + terms[keep - 1] <= 2.0 ** -57 * total:
            keep -= 1
            tail += terms[keep]
        fix_x = fix_x and sum(map(mul, range(keep), terms)) > total
        octaves.append((pairs[keep - 1 :: -1], fix_x))
        if keep == 1 and not fix_x:
            octaves += octaves[-1:] * (1025 - len(octaves))
    return octaves


def _far_field(n: int, b: float) -> float:
    """Far-field series for b >= 3, by Horner's rule in x = 9/b^2."""
    pairs, fix_x = _far_field_octaves(n)[math.frexp(b)[1]]
    lb = math.log(b)
    x = 9.0 / (b * b)
    acc = 0.0
    if fix_x:
        # with the slope, add back the exact 9/b^2 - x, from the
        # integer ratios of b and x, to first order
        slope = 0.0
        for a, c in pairs:
            slope = slope * x + acc
            acc = acc * x + (a * lb + c)
        p, q = b.as_integer_ratio()
        xp, xq = x.as_integer_ratio()
        acc += slope * ((9 * q * q * xq - xp * p * p) / (p * p * xq))
    else:
        for a, c in pairs:
            acc = acc * x + (a * lb + c)
    k = n - 1
    if k * lb < 709.0:
        return acc / b**k
    # b^k overflows: divide by the mantissa's power and shift the
    # exponent, in chunks whose powers stay normal
    acc, shift = math.frexp(acc)
    frac, exp = math.frexp(b)
    shift -= exp * k
    while k:
        step = min(k, 1000)
        acc, e = math.frexp(acc / frac**step)
        shift += e
        k -= step
    return math.ldexp(acc, shift)


class KernelAsymptotics(NamedTuple):
    """Leading coefficients of the kernel at the two ends of its range.

    near_one_coefficient: limit of the kernel as b -> 1+ after
    multiplying by (b-1)^(n-2).
    far_log_coefficient: limit of b^(n-1)/log(b) times the kernel as
    b -> inf.
    """

    near_one_coefficient: float
    far_log_coefficient: float


def inner_kernel_asymptotics(n: int) -> KernelAsymptotics:
    """Endpoint coefficients: 2 H_(n-2) / ((n-1)(n-2)) and 4/(n-1)."""
    if n < 3:
        raise ValueError("dimension must be >= 3")
    near = 2.0 * partial_log_series(n - 2, 1.0) / ((n - 1.0) * (n - 2.0))
    far = 4.0 / (n - 1.0)
    return KernelAsymptotics(near, far)
