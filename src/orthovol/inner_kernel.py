"""Inner radial kernel of the tube volume computation.

The kernel takes the half-width ratio b > 1 of a spherical shell pair
(after rescaling the inner sphere to radius 1) and returns the shell
average that the volume kernel integrates over tube cross sections.  A
closed form exists for every dimension n >= 3; dimensions 3 and 4 admit
shorter specializations that double as cross-checks.  The defining
double integral is kept as a slow oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quadrature import DEFAULT_CONFIG, KernelValue, QuadratureConfig, adaptive_quad
from .special import harmonic, truncated_log

__all__ = [
    "inner_kernel",
    "inner_kernel_3d",
    "inner_kernel_4d",
    "inner_kernel_integral",
    "inner_kernel_asymptotics",
    "KernelAsymptotics",
]


def _check_ratio(b: float) -> None:
    if not 1.0 < b < math.inf:
        raise ValueError("half-width ratio must be finite and exceed 1")


def inner_kernel(n: int, b: float) -> float:
    """Closed-form inner kernel for dimension n >= 3 at ratio b > 1.

    Four groups of truncated logarithms weighted by (b-1), (b+1), 2b
    and 2 to the power n-2, with signs alternating in the parity of n.
    Every truncated_log call passes the exact logarithm of |1 - x| for
    its argument x; letting truncated_log recompute it from the rounded
    ratio loses up to six digits near b = 1 and for large b.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    _check_ratio(b)
    k = n - 2
    m = n - 3
    sgn = -1.0 if n % 2 else 1.0
    h2 = 2.0 * harmonic(n - 2)
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
        g1 / (b - 1.0) ** k
        + g2 / (b + 1.0) ** k
        + g3 / (2.0 * b) ** k
        + g4 / 2.0 ** k
    ) / ((n - 1.0) * (n - 2.0))


def inner_kernel_3d(b: float) -> float:
    """Dimension-3 specialization.

    Rearranged so each log argument stays near 1 for large b (log1p
    forms) and the b log b growth sits in its own term; the naive
    grouping cancels nine digits at b = 1000.
    """
    _check_ratio(b)
    b2m1 = (b - 1.0) * (b + 1.0)
    main = (
        4.0 * b * math.log(b)
        + (b + 1.0) ** 2 * math.log1p(1.0 / b)
        - (b - 1.0) ** 2 * math.log1p(-1.0 / b)
    ) / (2.0 * b * b2m1)
    return 2.0 * (1.0 - math.log(2.0)) / b2m1 + main


def inner_kernel_4d(b: float) -> float:
    """Dimension-4 specialization.

    The last group is log((b-1)/(b+1)) + 1/(b+1) + 1/(b-1), which is
    O(b^-3) with O(1/b) summands; for b >= 2 it is replaced by its
    even-power series 2 sum_j (2j/(2j+1)) b^-(2j+1) to keep the
    specialization within 1e-12 of the general form out to b = 1000.
    """
    _check_ratio(b)
    log_ratio = math.log1p(-2.0 / (b + 1.0))
    t1 = (3.0 + 2.0 * (2.0 * math.log(b + 1.0) - math.log(4.0 * b))) / (b - 1.0) ** 2
    t2 = (3.0 + 2.0 * (2.0 * math.log(b - 1.0) - math.log(4.0 * b))) / (b + 1.0) ** 2
    t3 = (log_ratio + b / (b + 1.0) - b / (b - 1.0)) / (2.0 * b * b)
    if b >= 2.0:
        y = 1.0 / b
        tail = 0.0
        power = y
        for j in range(1, 60):
            power *= y * y
            term = (2.0 * j / (2.0 * j + 1.0)) * power
            tail += term
            if term < 1e-18 * tail:
                break
        t4 = 2.0 * tail
    else:
        t4 = log_ratio + 1.0 / (b + 1.0) + 1.0 / (b - 1.0)
    return (t1 - t2 + t3 + t4 / 2.0) / 6.0


def _log_cross_ratio(u: float, v: float, b: float) -> float:
    """log of the cross ratio pairing u in (-1, 1) with v > b."""
    return (
        math.log(v - 1.0)
        + math.log(v + 1.0)
        + math.log(b - u)
        + math.log(b + u)
        - math.log(v - b)
        - math.log(v + b)
        - math.log(1.0 - u)
        - math.log(1.0 + u)
    )


def inner_kernel_integral(
    n: int, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelValue:
    """Defining double integral of the kernel; the oracle for inner_kernel.

    The outer variable u in (-1, 1) is mapped to xi = (b-1)/(b-u) and the
    inner variable v in (b, inf) to v = b + (b-u) s/(1-s), so the
    (b-u)^-(n-1) end spike and the log singularity at v = b both flatten
    into mild integrable features and the overall (b-1)^-(n-2) growth
    factors out exactly.  Every integrand factor is assembled from
    products and ratios of the substituted quantities -- v - b as
    (b-u) s/(1-s), 1-u as (b-1)(1-xi)/xi, and so on -- because
    reconstructing v or u first and subtracting loses all digits once
    b - 1 drops below about 1e-5.  The kink of the log factor at u = 0
    lands at xi = (b-1)/b and is passed as a subdivision hint.  The
    relative budget is split 97/3 between the outer pass and the inner
    passes (run pure-relative), keeping the combined error estimate
    within the configured tolerance.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    _check_ratio(b)
    bm1 = b - 1.0
    lo = bm1 / (b + 1.0)

    def outer(xi: float) -> float:
        d = bm1 / xi
        a_const = (
            math.log(2.0 * b * xi - bm1)
            - math.log(1.0 - xi)
            - math.log(b + 1.0)
            - math.log(xi - lo)
        )

        def g(s: float) -> float:
            oms = 1.0 - s
            w = d * s / oms
            s_part = (
                math.log(bm1 + w)
                + math.log(b + 1.0 + w)
                - math.log(w)
                - math.log(2.0 * b + w)
            )
            return (a_const + s_part) * oms ** (n - 2)

        val, _ = adaptive_quad(g, 0.0, 1.0, cfg, rel_scale=0.03, abs_tol=0.0)
        return val * xi ** (n - 3)

    value, err = adaptive_quad(
        outer, lo, 1.0, cfg, points=[bm1 / b], rel_scale=0.97, abs_tol=0.0
    )
    scale = bm1 ** (n - 2)
    value /= scale
    err = err / scale + 0.03 * cfg.rel_tol * abs(value)
    return KernelValue(value, err)


@dataclass(frozen=True)
class KernelAsymptotics:
    """Leading coefficients of the kernel at the two ends of its range.

    near_one_coefficient: limit of the kernel as b -> 1+ after
    multiplying by (b-1)^(n-2).
    far_log_coefficient: limit of b^(n-1)/log(b) times the kernel as
    b -> inf.
    """

    near_one_coefficient: float
    far_log_coefficient: float


def inner_kernel_asymptotics(n: int) -> KernelAsymptotics:
    """Endpoint coefficients: 2 harmonic(n-2) / ((n-1)(n-2)) and 4/(n-1)."""
    if n < 3:
        raise ValueError("dimension must be >= 3")
    near = 2.0 * harmonic(n - 2) / ((n - 1.0) * (n - 2.0))
    far = 4.0 / (n - 1.0)
    return KernelAsymptotics(near, far)
