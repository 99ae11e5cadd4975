"""Test oracles: slow, independent routes to the library's quantities.

None of this is on the production path, and the library never imports
it.  The two integral oracles evaluate the defining double integrals
with scipy's QUADPACK on a pure relative target.  The library's
adaptive_quad wraps the same QUADPACK routine, so they share that engine,
but not its integrands, its error target or the inner kernel.  The Monte
Carlo sampler shares no code with any quadrature.
The chord lengths are the geometric ingredient of the kernels, and the
dimension-3 and dimension-4 specializations of the inner kernel are
shorter closed forms that the general one is checked against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from orthovol.inner_kernel import _check_ratio
from orthovol.quadrature import NonConvergenceError
from orthovol.volume_kernel import KernelValue


def _quad(f, lo, hi, rel_tol, limit, points=None):
    """scipy's quad on a pure relative target; a missed target raises."""
    value, err, *_ = quad(
        f, lo, hi, epsabs=0.0, epsrel=rel_tol, limit=limit, points=points,
        full_output=1,
    )
    if err > rel_tol * abs(value):
        raise NonConvergenceError(
            f"integral error estimate {err:.3e} exceeds target "
            f"{rel_tol * abs(value):.3e}",
            value,
            err,
        )
    return value, err


def chord_length(x: float, y: float, a: float) -> float:
    """Hyperbolic length of the chord from boundary point x to y.

    Upper half-space coordinates on a line through the origin: one
    endpoint strictly inside the unit sphere, the other strictly
    outside the concentric sphere of radius a > 1.  The length is half
    the log of the cross ratio of (x, y) with the two sphere crossings,
    here in the factored form that keeps every factor positive.
    """
    if not a > 1.0:
        raise ValueError("outer radius must exceed 1")
    if abs(x) < 1.0 and abs(y) > a:
        pass
    elif abs(y) < 1.0 and abs(x) > a:
        x, y = y, x
    else:
        raise ValueError(
            "one endpoint must lie strictly inside radius 1 and the "
            "other strictly outside radius a"
        )
    num = (y - 1.0) * (y + 1.0) * (x - a) * (x + a)
    den = (y - a) * (y + a) * (x - 1.0) * (x + 1.0)
    return 0.5 * math.log(num / den)


def chord_length_nd(n: int, x, y, a: float) -> float:
    """chord_length for endpoints anywhere in the boundary plane R^(n-1).

    Reduces to the collinear case in the chord's own coordinates: s and
    t are the signed positions along the chord direction, r the distance
    from the origin to the chord's line, and dividing through by
    sqrt(1 - r^2) rescales the two sphere crossings onto the line.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if not a > 1.0:
        raise ValueError("outer radius must exceed 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (n - 1,) or y.shape != (n - 1,):
        raise ValueError("endpoints must be vectors of length n - 1")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if not ((nx < 1.0 and ny > a) or (ny < 1.0 and nx > a)):
        raise ValueError(
            "one endpoint must lie strictly inside radius 1 and the "
            "other strictly outside radius a"
        )
    diff = y - x
    dist = float(np.linalg.norm(diff))
    u = diff / dist
    s = float(x @ u)
    perp = x - s * u
    r2 = float(perp @ perp)
    r1 = math.sqrt(1.0 - r2)
    return chord_length(s / r1, (s + dist) / r1, math.sqrt(a * a - r2) / r1)


def inner_kernel_3d(b: float) -> float:
    """Dimension-3 specialization of the inner kernel.

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
    """Dimension-4 specialization of the inner kernel.

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
    n: int, b: float, rel_tol: float = 1e-9, limit: int = 2000
) -> KernelValue:
    """Defining double integral of the inner kernel.

    The outer variable u in (-1, 1) is mapped to xi = (b-1)/(b-u) and the
    inner variable v in (b, inf) to v = b + (b-u) s/(1-s), so the
    (b-u)^-(n-1) end spike and the log singularity at v = b both flatten
    into mild integrable features and the overall (b-1)^-(n-2) growth
    factors out exactly.  Every integrand factor is assembled from
    products and ratios of the substituted quantities -- v - b as
    (b-u) s/(1-s), 1-u as (b-1)(1-xi)/xi, and so on -- because
    reconstructing v or u first and subtracting loses all digits once
    b - 1 drops below about 1e-5.  The kink of the log factor at u = 0
    lands at xi = (b-1)/b and is passed as a breakpoint.  The outer
    pass runs over y = xi - lo, lo = (b-1)/(b+1), so that the log
    singularity at xi = lo sits at y = 0, where doubles are dense: for
    b past about 3e8, xi - lo formed from xi near 1 reaches 0 inside the
    range.  1 - xi is formed as 2/(b+1) - y and 2 b xi - (b-1) as
    (b-1) lo + 2 b y.  The relative budget rel_tol is split 97/3 between
    the outer pass and the inner passes, keeping the combined error
    estimate within it.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    _check_ratio(b)
    bm1 = b - 1.0
    lo = bm1 / (b + 1.0)
    width = 2.0 / (b + 1.0)

    def outer(y: float) -> float:
        xi = lo + y
        d = bm1 / xi
        a_const = (
            math.log(bm1 * lo + 2.0 * b * y)
            - math.log(width - y)
            - math.log(b + 1.0)
            - math.log(y)
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

        val, _ = _quad(g, 0.0, 1.0, 0.03 * rel_tol, limit)
        return val * xi ** (n - 3)

    kink = bm1 / (b * (b + 1.0))
    value, err = _quad(outer, 0.0, width, 0.97 * rel_tol, limit, points=[kink])
    scale = bm1 ** (n - 2)
    value /= scale
    err = err / scale + 0.03 * rel_tol * abs(value)
    return KernelValue(value, err, math.log(value))


def surface_kernel_integral(
    l: float, rel_tol: float = 1e-9, limit: int = 2000
) -> KernelValue:
    """Double-integral form of the n = 2 kernel, volume_kernel(2, l).

    (2/pi) int_(-1)^1 int_a^inf log_cross(u, v) / (v - u)^2 dv du with
    a = e^l, the same positively-oriented log cross ratio as the inner
    kernel's integral; the two sign sectors of the chord pairing
    contribute equally, hence the factor 2.  Tail compactified by
    v = a + t/(1-t); relative budget split 97/3 between outer and inner
    passes, with a breakpoint at u = 0.
    """
    if not l > 0.0:
        raise ValueError("length must be positive")
    a = math.exp(l)

    def inner(u: float) -> float:
        def tail(t: float) -> float:
            omt = 1.0 - t
            v = a + t / omt
            return _log_cross_ratio(u, v, a) / (v - u) ** 2 / (omt * omt)

        val, _ = _quad(tail, 0.0, 1.0, 0.03 * rel_tol, limit)
        return val

    value, err = _quad(inner, -1.0, 1.0, 0.97 * rel_tol, limit, points=[0.0])
    scale = 2.0 / math.pi
    value, err = scale * value, scale * (err + 0.03 * rel_tol * abs(value))
    return KernelValue(value, err, math.log(value))


def volume_kernel_montecarlo(
    n: int,
    l: float,
    samples: int = 1_000_000,
    seed: int = 12345,
) -> KernelValue:
    """Direct Monte Carlo estimate of the volume kernel, n in {3, 4}.

    Samples chords against the shell of radius a = e^l: one endpoint
    uniform in the unit ball of the boundary plane, the other drawn
    from the power-law density (n-1) a^(n-1) rho^-n on rho > a over a
    uniform direction.  Each chord is weighted by its shell-crossing
    length times the measure ratio (rho^2 / |y - x|^2)^(n-1), and the
    mean is normalized by 4 / V(n-1).  The error estimate is one
    standard error; if it exceeds 1 percent of the estimate the run
    raises NonConvergenceError.
    """
    if n not in (3, 4):
        raise ValueError("direct sampling supported for dimensions 3 and 4")
    if not l >= 0.3:
        raise ValueError("length below 0.3 needs too many samples; use >= 0.3")
    if samples < 1:
        raise ValueError("need at least one sample")
    a = math.exp(l)
    d = n - 1
    rng = np.random.default_rng(seed)
    # measure of the unit (d-1)-sphere
    surf = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
    vol_ball = surf / d
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 1_000_000
    while done < samples:
        c = min(chunk, samples - done)
        xdir = rng.standard_normal((c, d))
        xdir /= np.linalg.norm(xdir, axis=1)[:, None]
        xrad = rng.random(c) ** (1.0 / d)
        x = xdir * xrad[:, None]
        ydir = rng.standard_normal((c, d))
        ydir /= np.linalg.norm(ydir, axis=1)[:, None]
        rho = a * rng.random(c) ** (-1.0 / (n - 1.0))
        y = ydir * rho[:, None]
        diff = y - x
        dist2 = np.einsum("ij,ij->i", diff, diff)
        dist = np.sqrt(dist2)
        s = np.einsum("ij,ij->i", x, diff) / dist
        t = np.einsum("ij,ij->i", y, diff) / dist
        r2 = np.einsum("ij,ij->i", x, x) - s * s
        r2 = np.clip(r2, 0.0, None)
        r1sq = 1.0 - r2
        rasq = a * a - r2
        length = 0.5 * np.log(
            (t * t - r1sq) * (s * s - rasq) / ((t * t - rasq) * (s * s - r1sq))
        )
        w = (
            length
            * vol_ball
            * surf
            / ((n - 1.0) * a ** (n - 1.0))
            * (rho * rho / dist2) ** (n - 1.0)
        )
        total += float(np.sum(w))
        total_sq += float(np.sum(w * w))
        done += c
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) / samples
    # 4 over the measure of the unit (n-1)-sphere
    scale = 2.0 * math.gamma(0.5 * n) / math.pi ** (0.5 * n)
    value = scale * mean
    err = scale * math.sqrt(var)
    if err > 0.01 * abs(value):
        raise NonConvergenceError(
            f"standard error {err:.3e} above 1 percent of estimate {value:.6e}",
            value,
            err,
        )
    return KernelValue(value, err, math.log(value))
