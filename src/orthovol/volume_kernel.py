"""Volume kernel: per-orthogeodesic contribution to the manifold volume.

For a hyperbolic n-manifold with totally geodesic boundary, each
orthogeodesic of length l contributes a kernel value, and the volume
is the sum of those values over the orthospectrum.  The kernel is a closed
Rogers dilogarithm expression for n = 2 and a one-dimensional integral
of the inner kernel for n >= 3, available in two independent
parametrizations plus a direct Monte Carlo estimate.  Chord lengths of
geodesics crossing a concentric spherical shell supply the geometric
ingredient and are exposed for testing.
"""

from __future__ import annotations

import math

from .inner_kernel import _log_cross_ratio, inner_kernel
from .quadrature import DEFAULT_CONFIG, KernelValue, NonConvergenceError, \
    QuadratureConfig, adaptive_quad
from .special import gamma_half_integer, harmonic, rogers_l, sphere_volume

__all__ = [
    "chord_length",
    "chord_length_nd",
    "volume_kernel",
    "volume_kernel_radial",
    "volume_kernel_alt",
    "volume_kernel_montecarlo",
    "surface_kernel",
    "surface_kernel_integral",
    "small_length_constant",
    "large_length_coefficient",
]

# Inner kernel arguments above this contribute below 1e-50 of the
# integral; capping avoids overflow in the closed form's powers.
_ARG_CAP = 1e12


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
    import numpy as np

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


def _shape_factor(n: int) -> float:
    """Cross-section constant 2 V(n-2) V(n-3) / V(n-1) in sphere volumes."""
    return 2.0 * sphere_volume(n - 2) * sphere_volume(n - 3) / sphere_volume(n - 1)


def _check_kernel_args(n: int, l: float, least_n: int = 3) -> None:
    if n < least_n:
        raise ValueError(f"dimension must be >= {least_n}")
    if not 0.0 < l < math.inf:
        raise ValueError("length must be positive and finite")


def volume_kernel_radial(
    n: int, l: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelValue:
    """Volume kernel for n >= 3 in the radial-angle parametrization.

    The cross-section radius r = sin(theta) turns the kernel into
    shape * int_0^(pi/2) tan(theta)^(n-3) inner_kernel(x(theta)) dtheta
    with x = sqrt(e^(2l) - 1 + cos^2 theta) / cos(theta).  Near
    theta = pi/2 the argument blows up and the integrand dies like
    x^(1-n) log x; past _ARG_CAP it is set to 0.
    """
    _check_kernel_args(n, l)
    a = math.exp(l)
    a2m1 = (a - 1.0) * (a + 1.0)
    shape = _shape_factor(n)

    def integrand(theta: float) -> float:
        ct = math.cos(theta)
        x = math.sqrt(a2m1 + ct * ct) / ct
        if x > _ARG_CAP:
            return 0.0
        return math.tan(theta) ** (n - 3) * inner_kernel(n, x)

    # absolute target pre-divided by the prefactor so the scaled error
    # estimate still meets the configured tolerance
    value, err = adaptive_quad(
        integrand, 0.0, 0.5 * math.pi, cfg, abs_tol=cfg.abs_tol / shape
    )
    return KernelValue(shape * value, shape * err)


def volume_kernel_alt(
    n: int, l: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelValue:
    """Volume kernel for n >= 3, parametrized by the kernel argument.

    Substituting x = e^l cosh(w) moves the integration onto the
    argument's natural range (e^l, inf):
    shape * a^(n-2) (a^2-1)^(2-n/2) *
    int_0^inf sinh(w)^(n-3) cosh(w) inner_kernel(a cosh w) / (x^2 - 1) dw.
    Independent of the radial form; the dispatcher falls back to it
    when the radial integral fails to converge.  cosh overflows past
    w = 710, and contributions beyond w = 30 are below 1e-24 of the
    total, so the integrand is cut there.
    """
    _check_kernel_args(n, l)
    a = math.exp(l)
    a2m1 = (a - 1.0) * (a + 1.0)
    prefactor = _shape_factor(n) * a ** (n - 2) / a2m1 ** (0.5 * n - 2.0)

    def integrand(w: float) -> float:
        if w > 30.0:
            return 0.0
        ch = math.cosh(w)
        x = a * ch
        if x > _ARG_CAP:
            return 0.0
        sh = math.sinh(w)
        return sh ** (n - 3) * ch * inner_kernel(n, x) / ((x - 1.0) * (x + 1.0))

    value, err = adaptive_quad(
        integrand, 0.0, math.inf, cfg, abs_tol=cfg.abs_tol / prefactor
    )
    return KernelValue(prefactor * value, prefactor * err)


def surface_kernel(l: float) -> float:
    """Closed-form kernel for n = 2: (4/pi) L(sech^2(l/2)).

    L is the Rogers dilogarithm; the value decreases from 2 pi / 3 at
    l = 0+ to 0 and gives boundary area when summed over the spectrum.
    """
    if not l > 0.0:
        raise ValueError("length must be positive")
    sech2 = 1.0 / math.cosh(0.5 * l) ** 2
    return 4.0 / math.pi * rogers_l(sech2)


def surface_kernel_integral(
    l: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelValue:
    """Double-integral oracle for surface_kernel.

    (2/pi) int_(-1)^1 int_a^inf log_cross(u, v) / (v - u)^2 dv du with
    a = e^l, the same positively-oriented log cross ratio as the inner
    kernel oracle; the two sign sectors of the chord pairing contribute
    equally, hence the factor 2.  Tail compactified by v = a + t/(1-t);
    relative budget split 97/3 between outer and inner passes.
    """
    if not l > 0.0:
        raise ValueError("length must be positive")
    a = math.exp(l)

    def inner(u: float) -> float:
        def tail(t: float) -> float:
            omt = 1.0 - t
            v = a + t / omt
            return _log_cross_ratio(u, v, a) / (v - u) ** 2 / (omt * omt)

        val, _ = adaptive_quad(tail, 0.0, 1.0, cfg, rel_scale=0.03, abs_tol=0.0)
        return val

    value, err = adaptive_quad(
        inner, -1.0, 1.0, cfg, points=[0.0], rel_scale=0.97, abs_tol=0.0
    )
    scale = 2.0 / math.pi
    return KernelValue(scale * value, scale * (err + 0.03 * cfg.rel_tol * abs(value)))


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

    Kept separate from the quadrature paths on purpose: it shares no
    code with them, so agreement is evidence about the formulas, not
    the plumbing.
    """
    if n not in (3, 4):
        raise ValueError("direct sampling supported for dimensions 3 and 4")
    if not l >= 0.3:
        raise ValueError("length below 0.3 needs too many samples; use >= 0.3")
    if samples < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    a = math.exp(l)
    d = n - 1
    rng = np.random.default_rng(seed)
    surf = sphere_volume(d - 1)
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
    scale = 4.0 / sphere_volume(n - 1)
    value = scale * mean
    err = scale * math.sqrt(var)
    if err > 0.01 * abs(value):
        raise NonConvergenceError(
            f"standard error {err:.3e} above 1 percent of estimate {value:.6e}",
            value,
            err,
        )
    return KernelValue(value, err)


def small_length_constant(n: int) -> float:
    """Coefficient of l^(2-n) in the kernel's small-length law.

    2 pi^((n-3)/2) harmonic(n-2) Gamma(n/2 + 1) Gamma(n/2 - 1) /
    (n Gamma((n+1)/2) Gamma(n-1)).
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    return (
        2.0
        * math.pi ** (0.5 * (n - 3))
        * harmonic(n - 2)
        * gamma_half_integer(0.5 * n + 1.0)
        * gamma_half_integer(0.5 * n - 1.0)
        / (n * gamma_half_integer(0.5 * (n + 1)) * gamma_half_integer(n - 1.0))
    )


def large_length_coefficient(n: int) -> float:
    """Coefficient of l e^(-(n-1) l) in the kernel's decay law.

    (n-2) pi^((n-2)/2) Gamma(n/2 - 1) / Gamma((n+1)/2)^2.
    """
    if n < 3:
        raise ValueError("dimension must be >= 3")
    return (
        (n - 2.0)
        * math.pi ** (0.5 * (n - 2))
        * gamma_half_integer(0.5 * n - 1.0)
        / gamma_half_integer(0.5 * (n + 1)) ** 2
    )


def volume_kernel(
    n: int, l: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelValue:
    """Volume kernel for any dimension n >= 2.

    n = 2 returns the closed form with zero error estimate; n >= 3 runs
    the radial quadrature and falls back to the alternative
    parametrization if that fails to converge.
    """
    _check_kernel_args(n, l, least_n=2)
    if n == 2:
        return KernelValue(surface_kernel(l), 0.0)
    try:
        return volume_kernel_radial(n, l, cfg)
    except NonConvergenceError:
        return volume_kernel_alt(n, l, cfg)
