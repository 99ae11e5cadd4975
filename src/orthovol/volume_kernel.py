"""Volume kernel: per-orthogeodesic contribution to the manifold volume.

For a hyperbolic n-manifold with totally geodesic boundary, each
orthogeodesic of length l contributes a kernel value, and the volume
is the sum of those values over the orthospectrum.  The kernel is a closed
Rogers dilogarithm expression for n = 2 and a one-dimensional integral
of the inner kernel for n >= 3, evaluated in the radial-angle
parametrization.  A second, independent parametrization is kept as the
tests' reference for the first.
"""

from __future__ import annotations

import math

from .inner_kernel import inner_kernel
from .quadrature import DEFAULT_CONFIG, KernelValue, QuadratureConfig, adaptive_quad
from .special import gamma_half_integer, harmonic, rogers_l, sphere_volume

__all__ = [
    "volume_kernel",
    "volume_kernel_radial",
    "volume_kernel_alt",
    "surface_kernel",
    "small_length_constant",
    "large_length_coefficient",
]

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
    cos^2(theta) log x.  The inner kernel is finite at every finite
    argument, so the integrand is evaluated as it stands everywhere.
    Raises OverflowError where e^(2l) leaves the double range
    (l > 354.89), and NonConvergenceError where the integral misses
    its target.
    """
    _check_kernel_args(n, l)
    a = math.exp(l)
    a2m1 = (a - 1.0) * (a + 1.0)
    if a2m1 == math.inf:
        raise OverflowError(f"e^(2l) overflows at l = {l!r}")
    shape = _shape_factor(n)

    def integrand(theta: float) -> float:
        ct = math.cos(theta)
        x = math.sqrt(a2m1 + ct * ct) / ct
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
    The integral runs over w in [0, 30]: contributions beyond w = 30
    are below 1e-24 of the total.  Independent of the radial form, it
    is the tests' reference for it; volume_kernel never calls it.
    """
    _check_kernel_args(n, l)
    a = math.exp(l)
    a2m1 = (a - 1.0) * (a + 1.0)
    prefactor = _shape_factor(n) * a ** (n - 2) / a2m1 ** (0.5 * n - 2.0)

    def integrand(w: float) -> float:
        ch = math.cosh(w)
        x = a * ch
        sh = math.sinh(w)
        return sh ** (n - 3) * ch * inner_kernel(n, x) / ((x - 1.0) * (x + 1.0))

    value, err = adaptive_quad(
        integrand, 0.0, 30.0, cfg, abs_tol=cfg.abs_tol / prefactor
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
    the radial quadrature, whose NonConvergenceError and OverflowError
    propagate.
    """
    _check_kernel_args(n, l, least_n=2)
    if n == 2:
        return KernelValue(surface_kernel(l), 0.0)
    return volume_kernel_radial(n, l, cfg)
