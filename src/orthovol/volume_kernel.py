"""Volume kernel: per-orthogeodesic contribution to the manifold volume.

For a hyperbolic n-manifold with totally geodesic boundary, each
orthogeodesic of length l contributes a kernel value, and the volume
is the sum of those values over the orthospectrum.  The kernel is a closed
Rogers dilogarithm expression for n = 2 and a one-dimensional integral
of the inner kernel for n >= 3, available in two independent
parametrizations.
"""

from __future__ import annotations

import math

from .inner_kernel import inner_kernel
from .quadrature import DEFAULT_CONFIG, KernelValue, NonConvergenceError, \
    QuadratureConfig, adaptive_quad
from .special import gamma_half_integer, harmonic, rogers_l, sphere_volume

__all__ = [
    "volume_kernel",
    "volume_kernel_radial",
    "volume_kernel_alt",
    "surface_kernel",
    "small_length_constant",
    "large_length_coefficient",
]

# The integrands read 0 for inner kernel arguments x > _ARG_CAP.  Every
# argument is at least e^l, so for l > ln 1e12 (about 27.63) that zeroes
# the whole integrand and the kernel comes out as exactly 0:
# `orthovol fn -n 3 -l 30` prints "0 0".  ROADMAP item 2 (the e^(-2l)
# series) removes the cap.
_ARG_CAP = 1e12


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
