"""Volume kernel: per-orthogeodesic contribution to the manifold volume.

For a hyperbolic n-manifold with totally geodesic boundary, each
orthogeodesic of length l contributes a kernel value, and the volume
is the sum of those values over the orthospectrum.  The kernel is a closed
Rogers dilogarithm expression for n = 2.  For n >= 3 it is a series in
t = e^(-2l) from l = ln 2 / 2 (t <= 1/2) on, and below that a
one-dimensional integral of the inner kernel, evaluated in the
radial-angle parametrization.  A second, independent parametrization is
kept as the tests' reference for the first.
"""

from __future__ import annotations

import math
import sys
from functools import cache

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

# from l = ln 2 / 2 on, t = e^(-2l) <= 1/2 and volume_kernel sums the series
_SERIES_CUT = 0.5 * math.log(2.0)
_EPS = sys.float_info.epsilon
# the series stops once its tail bound is below this share of the sum;
# its coefficients run until the bound at the cut is below the smaller
# share
_SERIES_TAIL = 2.0 ** -54
_BUILD_TAIL = 2.0 ** -60


def _log_of(value: float) -> float:
    return math.log(value) if value > 0.0 else -math.inf


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
    return KernelValue(shape * value, shape * err, _log_of(shape * value))


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
    return KernelValue(prefactor * value, prefactor * err, _log_of(prefactor * value))


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
    return math.exp(_log_large_length_coefficient(n))


def _log_large_length_coefficient(n: int) -> float:
    """log coef_n, finite for every n >= 3.

    coef_n = R pi^p with R rational: for n = 2m + 1,
    R = (n-2) (2m-2)! / (4^(m-1) (m-1)! m!^2) and p = m; for n = 2m,
    R = (n-2) (m-2)! 16^m m!^2 / (2m)!^2 and p = m - 2.  R is formed from
    exact integers and scaled into [1/2, 2] before its log is taken, so
    the result is within a few ulp of |log coef_n| + 2n.
    """
    fact = math.factorial
    if n % 2:
        m = (n - 1) // 2
        num, den, p = (n - 2) * fact(2 * m - 2), 4 ** (m - 1) * fact(m - 1) * fact(m) ** 2, m
    else:
        m = n // 2
        num, den, p = (n - 2) * fact(m - 2) * 16**m * fact(m) ** 2, fact(2 * m) ** 2, m - 2
    shift = num.bit_length() - den.bit_length()
    ratio = (num << max(-shift, 0)) / (den << max(shift, 0))
    return math.log(ratio) + shift * math.log(2.0) + p * math.log(math.pi)


@cache
def _series_coefficients(n: int) -> tuple[float, list[float], list[float]]:
    """log coef_n and the coefficients g_K and e_K of the kernel's t-series.

    With t = e^(-2l) and x = 2t, for n >= 3,

        F_n(l) = coef_n e^(-(n-1)l) sum_K x^K g_K (l + e_K),

    where g_K = a_K / (a_0 2^K), e_K = c_n + d_K, a_0 = coef_n and

        a_(K+1) = a_K (K+n-1)(2K+n-1) / ((K+1)(2K+n+1)),
        d_(K+1) = d_K + (n-3) / ((K+n-1)(2K+n+1)),   d_0 = 0,
        c_n = H_((n-1)/2): H_m for n = 2m + 1, and
              2 (1 + 1/3 + ... + 1/(n-1)) - 2 log 2 for even n.

    (This is coef_n t^((n-1)/2) [(l + c_n) 2F1(n-1, (n-1)/2; (n+1)/2; t)
    minus the derivative of 2F1(n-1+s, (n-1)/2; (n+1)/2+s; t) in s at
    s = 0], expanded in t.)  Every term is positive.  g_K, the term at
    t = 1/2 without its (l + e_K), stays finite where a_K alone would
    overflow (n >= 300); g_K is the correctly rounded ratio of two exact
    integers and e_K carries its rounding in a compensated sum, so both
    are within a few units of the last place.  Terms are built until the
    tail bound at l = ln 2 / 2 is below 2^-60 of the sum there (at most
    193 terms for n <= 60).  Every term ratio falls as l grows, and on a
    grid of 3000 lengths per n = 3..100 the sum meets its own stop test
    (2^-54 of the sum) at least 6 terms before the end.

    Past n ~ 500 the sum at the cut exceeds 2^500, where the squares in
    the stop tests could overflow, and this raises OverflowError.
    """
    if n % 2:
        summands = [1.0 / k for k in range(1, (n + 1) // 2)]
    else:
        summands = [2.0 / k for k in range(1, n, 2)] + [-2.0 * math.log(2.0)]
    e = math.fsum(summands)
    e_err = 0.0
    num = den = 1  # a_K / a_0 = num / den, exact
    gs: list[float] = []
    es: list[float] = []
    total = prev = 0.0
    k = 0
    while True:
        gs.append(num / (den << k))
        es.append(e + e_err)
        term = gs[-1] * (_SERIES_CUT + es[-1])
        total += term
        if not total < 2.0**500:
            raise OverflowError(f"t-series terms of F_{n} pass 2^500 at l = ln 2 / 2")
        if term < prev and term * term <= _BUILD_TAIL * (prev - term) * total:
            break
        prev = term
        step = (n - 3) / ((k + n - 1) * (2 * k + n + 1))
        e, e_err = e + step, e_err + (step - ((e + step) - e))
        num *= (k + n - 1) * (2 * k + n - 1)
        den *= (k + 1) * (2 * k + n + 1)
        k += 1
    return _log_large_length_coefficient(n), gs, es


def _series_kernel(n: int, l: float) -> KernelValue:
    """F_n(l) for n >= 3 and l >= ln 2 / 2 from its t-series.

    The ratio of consecutive terms falls toward t (checked in exact
    rationals for n = 3..40, 60, 100; not proved), so the rest after a
    term with ratio r < 1 to the one before is at most term r / (1 - r):
    the sum stops when that is below 2^-54 of it, and should the terms
    run out first, the bound at the last one joins the estimate.  The
    value is exp(log coef_n - (n-1) l + log sum), so log_value stays
    finite where F underflows.  The relative error estimate counts, in
    units of eps and to first order:
    - 2K for the K terms: x^K by repeated products, from x within an
      ulp, and the running sum;
    - n + |log coef_n| for log coef_n;
    - 1.5 (n-1) l + |log coef_n| + |log sum| for rounding (n-1) l,
      log sum and the two additions, each within half an ulp of its size;
    - 8 for g_K, e_K, l + e_K, the term's two products and exp;
    plus the tail bound, and an ulp of the value for subnormal results.
    The bound is at least 2.4 times the error on the reference table of
    n = 3..100, l = ln 2 / 2..1e4 (tests/data/series_reference.json).
    """
    log_coef, gs, es = _series_coefficients(n)
    x = 2.0 * math.exp(-2.0 * l)
    it = zip(gs, es)
    g, e = next(it)
    total = term = g * (l + e)
    power = 1.0
    count = 1
    for g, e in it:
        prev = term
        power *= x
        term = power * g * (l + e)
        total += term
        count += 1
        # term r <= 2^-54 (1 - r) total with r = term / prev < 1,
        # multiplied through by prev
        if term < prev and term * term <= _SERIES_TAIL * (prev - term) * total:
            break
    r = term / prev
    tail = term * r / (1.0 - r) if r < 1.0 else math.inf
    log_total = math.log(total)
    log_value = log_coef - (n - 1) * l + log_total
    value = math.exp(log_value)
    rel = _EPS * (
        2 * count + n + 1.5 * (n - 1) * l + 2.0 * abs(log_coef) + abs(log_total) + 8
    ) + tail / total
    err = math.ulp(value) + (rel * value if value else 0.0)
    return KernelValue(value, err, log_value)


def volume_kernel(
    n: int, l: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> KernelValue:
    """Volume kernel for any dimension n >= 2.

    n = 2 returns the closed form with zero error estimate.  For n >= 3,
    lengths from l = ln 2 / 2 on sum the t-series (see _series_kernel),
    whatever cfg asks: its relative error estimate is a few eps times
    the term count plus (n-1) l, value is 0 only where F underflows, and
    log_value holds F there.  Shorter lengths run the radial quadrature
    under cfg, whose NonConvergenceError and OverflowError propagate.
    """
    _check_kernel_args(n, l, least_n=2)
    if n == 2:
        value = surface_kernel(l)
        return KernelValue(value, 0.0, _log_of(value))
    if l >= _SERIES_CUT:
        return _series_kernel(n, l)
    return volume_kernel_radial(n, l, cfg)
