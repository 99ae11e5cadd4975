"""Volume kernel: per-orthogeodesic contribution to the manifold volume.

For a hyperbolic n-manifold with totally geodesic boundary, each
orthogeodesic of length l contributes a kernel value, and the volume
is the sum of those values over the orthospectrum.  The kernel is a closed
Rogers dilogarithm expression for n = 2.  For odd n >= 3 it is a closed
form in s = 1 - e^(-2l), a polynomial of degree (n-3)/2 over s^(n-2),
at every length.  For even n >= 4 it is a series in t = e^(-2l) from
l = ln 2 / 2 (t <= 1/2) on, and below that a one-dimensional integral of
the inner kernel, evaluated in the radial-angle parametrization.  A
second, independent parametrization is kept as the tests' reference for
the first.
"""

from __future__ import annotations

import math
import sys
from functools import cache

from .inner_kernel import inner_kernel
from .quadrature import KernelValue, adaptive_quad
from .special import rogers_l

__all__ = [
    "volume_kernel",
    "volume_kernel_radial",
    "volume_kernel_alt",
    "surface_kernel",
    "small_length_constant",
]

# from l = ln 2 / 2 on, t = e^(-2l) <= 1/2 and volume_kernel sums the
# series for even n
_SERIES_CUT = 0.5 * math.log(2.0)
_EPS = sys.float_info.epsilon
# the series stops once its tail bound is below this share of the sum;
# its coefficients run until the bound at the cut is below the smaller
# share
_SERIES_TAIL = 2.0 ** -54
_BUILD_TAIL = 2.0 ** -60
_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LOG_MAX = math.log(sys.float_info.max)


def _log_of(value: float) -> float:
    return math.log(value) if value > 0.0 else -math.inf


def _pi_rational(num: int, den: int, p: int) -> tuple[float, float]:
    """(num / den pi^p, its log) for integers num, den > 0 and p >= 0.

    With num / den = r 2^k, r in [1/2, 2] correctly rounded, the log is
    log r + k log 2 + p log pi and the value r (pi/4)^p 2^(k+2p), whose
    (pi/4)^p stays normal up to p ~ 2900 (pi^p overflows from p = 621).
    A normal value is within 0.36 p + 1 ulp (math.pi is 0.18 eps off);
    below that range it rounds to a subnormal or 0.
    """
    shift = num.bit_length() - den.bit_length()
    r = (num << max(-shift, 0)) / (den << max(shift, 0))
    value = math.ldexp(r * (0.25 * math.pi) ** p, shift + 2 * p)
    return value, math.log(r) + shift * _LN2 + p * _LN_PI


@cache
def _shape_factor(n: int) -> float:
    """Cross-section constant 2 V(n-2) V(n-3) / V(n-1), V(k) the k-sphere's measure.

    2 (n-2) pi^(m-1) / (m-1)! for n = 2m + 1 and 4^m (m-1) (m-1)! pi^(m-2)
    / (2m-2)! for n = 2m, from exact integers: a normal double up to
    n = 441, within 0.36 p + 1 ulp (p the power of pi); 0 from n = 459.
    """
    fact = math.factorial
    if n % 2:
        m = (n - 1) // 2
        num, den, p = 2 * (n - 2), fact(m - 1), m - 1
    else:
        m = n // 2
        num, den, p = 4**m * (m - 1) * fact(m - 1), fact(2 * m - 2), m - 2
    return _pi_rational(num, den, p)[0]


def _check_kernel_args(n: int, l: float, least_n: int = 3) -> None:
    if n < least_n:
        raise ValueError(f"dimension must be >= {least_n}")
    if not 0.0 < l < math.inf:
        raise ValueError("length must be positive and finite")


def volume_kernel_radial(n: int, l: float) -> KernelValue:
    """Volume kernel for n >= 3 in the radial-angle parametrization.

    The cross-section radius r = sin(theta) turns the kernel into
    shape * int_0^(pi/2) tan(theta)^(n-3) inner_kernel(x(theta)) dtheta
    with x = sqrt(e^(2l) - 1 + cos^2 theta) / cos(theta).  Near
    theta = pi/2 the argument blows up and the integrand dies like
    cos^2(theta) log x.  The inner kernel is finite at every finite
    argument, so the integrand is evaluated as it stands everywhere.
    e^(2l) - 1 comes from expm1: F ~ l^(2-n) carries n - 2 times its
    relative error, which (e^l - 1)(e^l + 1) would make about eps / l.
    Raises OverflowError where e^(2l) leaves the double range
    (l > 354.89), and NonConvergenceError where the integral misses
    its target.
    """
    _check_kernel_args(n, l)
    a2m1 = math.expm1(2.0 * l)
    shape = _shape_factor(n)

    def integrand(theta: float) -> float:
        ct = math.cos(theta)
        x = math.sqrt(a2m1 + ct * ct) / ct
        return math.tan(theta) ** (n - 3) * inner_kernel(n, x)

    value, err = adaptive_quad(integrand, 0.0, 0.5 * math.pi, shape)
    return KernelValue(shape * value, shape * err, _log_of(shape * value))


def volume_kernel_alt(n: int, l: float) -> KernelValue:
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
    a2m1 = math.expm1(2.0 * l)
    prefactor = _shape_factor(n) * a ** (n - 2) / a2m1 ** (0.5 * n - 2.0)

    def integrand(w: float) -> float:
        ch = math.cosh(w)
        x = a * ch
        sh = math.sinh(w)
        return sh ** (n - 3) * ch * inner_kernel(n, x) / ((x - 1.0) * (x + 1.0))

    value, err = adaptive_quad(integrand, 0.0, 30.0, prefactor)
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


@cache
def _small_length_constant(n: int) -> tuple[float, float]:
    """(K_n, log K_n) from exact integers, with H_(n-2) = h / d."""
    if n < 3:
        raise ValueError("dimension must be >= 3")
    fact = math.factorial
    d = fact(n - 2)
    h = sum(d // j for j in range(1, n - 1))
    if n % 2:
        m = (n - 1) // 2
        num = 2 * h * fact(2 * m + 2) * fact(2 * m - 2)
        den = d * 4 ** (2 * m) * fact(m + 1) * fact(m - 1) * n * fact(m) * fact(2 * m - 1)
        p = m
    else:
        m = n // 2
        num = 2 * h * fact(m) ** 2 * fact(m - 2) * 4**m
        den = d * n * fact(2 * m) * fact(2 * m - 2)
        p = m - 2
    return _pi_rational(num, den, p)


def small_length_constant(n: int) -> float:
    """Coefficient K_n of l^(2-n) in the kernel's small-length law.

    2 pi^((n-3)/2) H_(n-2) Gamma(n/2 + 1) Gamma(n/2 - 1) / (n Gamma((n+1)/2)
    Gamma(n-1)), built from exact integers: 2 H m!^2 (m-2)! 4^m pi^(m-2) /
    (n (2m)! (2m-2)!) for n = 2m and 2 H (2m+2)! (2m-2)! pi^m /
    (4^(2m) (m+1)! (m-1)! n m! (2m-1)!) for n = 2m + 1.  A normal double
    up to n = 326 (K_326 ~ 3e-308), within 0.36 p + 1 ulp (p the power of
    pi); subnormal from n = 327 and 0 from n = 340.
    """
    return _small_length_constant(n)[0]


@cache
def _large_length_coefficient(n: int) -> tuple[float, float]:
    """(coef_n, log coef_n), the log finite for every n >= 3.

    coef_n is the coefficient of l e^(-(n-1) l) in the kernel's decay
    law, (n-2) pi^((n-2)/2) Gamma(n/2 - 1) / Gamma((n+1)/2)^2, built from
    exact integers as R pi^p: R = (n-2) (2m-2)! / (4^(m-1) (m-1)! m!^2),
    p = m for n = 2m + 1 and R = (n-2) (m-2)! 16^m m!^2 / (2m)!^2,
    p = m - 2 for n = 2m.
    """
    fact = math.factorial
    if n % 2:
        m = (n - 1) // 2
        num, den, p = (n - 2) * fact(2 * m - 2), 4 ** (m - 1) * fact(m - 1) * fact(m) ** 2, m
    else:
        m = n // 2
        num, den, p = (n - 2) * fact(m - 2) * 16**m * fact(m) ** 2, fact(2 * m) ** 2, m - 2
    return _pi_rational(num, den, p)


@cache
def _series_coefficients(n: int) -> tuple[float, list[float], list[float]]:
    """log coef_n and the coefficients g_K and e_K of the kernel's t-series.

    With t = e^(-2l) and x = 2t, for even n >= 4 (odd n has the closed
    form of _odd_coefficients),

        F_n(l) = coef_n e^(-(n-1)l) sum_K x^K g_K (l + e_K),

    where g_K = a_K / (a_0 2^K), e_K = c_n + d_K, a_0 = coef_n and

        a_(K+1) = a_K (K+n-1)(2K+n-1) / ((K+1)(2K+n+1)),
        d_(K+1) = d_K + (n-3) / ((K+n-1)(2K+n+1)),   d_0 = 0,
        c_n = H_((n-1)/2) = 2 (1 + 1/3 + ... + 1/(n-1)) - 2 log 2.

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
    e = math.fsum([2.0 / k for k in range(1, n, 2)] + [-2.0 * _LN2])
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
    return _large_length_coefficient(n)[1], gs, es


def _series_kernel(n: int, l: float) -> KernelValue:
    """F_n(l) for even n >= 4 and l >= ln 2 / 2 from its t-series.

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


@cache
def _odd_coefficients(n: int) -> tuple[float, float, float, float, list]:
    """Constants and polynomial coefficients of the closed form for odd n.

    For n = 2m + 1, with s = 1 - e^(-2l) (Euler's transformation of the
    kernel's terminating 2F1),

        F_n(l) = c e^(-(n-1)l) s^(2-n) (l P(s) + Q(s)),
        c = pi^m p_0,   p_0 = C(2m-2, m-1) / (4^(m-1) m!),
        P(s) = sum_(k<m) r_k s^k,   Q(s) = sum_(k<m) r_k e_k s^k,
        r_0 = 1,   r_(k+1) = r_k (m-1-k) / (2m-2-k),
        e_k = 1/(k+1) + ... + 1/(n-2) = H_(n-2) - H_k.

    Every r_k and r_k e_k is positive and the correctly rounded ratio of
    two exact integers, built in O(n) integer steps.  c and log c come
    from p_0 in exact integers (_pi_rational); c is kept where
    log c > -300 (n <= 227) and is 0 beyond.  Returns (log c, c, l_max,
    x_max, [(r_k, r_k e_k)] from the top degree down).

    l_max and x_max bound where _odd_kernel evaluates in linear scale,
    as c (l P + Q) u x^(n-2) with u = e^(-l) and x = u / s >= u.  There
    (n-1) l < l_max (n-1) = 700 + min(log c, 0) keeps u x^(n-2) >=
    e^(-(n-1)l) above e^-700 / min(c, 1); x < x_max = e^(690/(n-2))
    keeps x^(n-2) below e^690; 1 <= l P + Q <= (350 + H_(n-2)) m and
    log c <= 1.2, and log c > -300 with l < 350 keeps c u above e^-650.
    So c, u, x^(n-2), every partial product and F itself are normal
    doubles there.  Where log c <= -300 (n >= 229) l_max is 0.
    """
    m = (n - 1) // 2
    fact = math.factorial
    c, log_c = _pi_rational(fact(2 * m - 2), fact(m - 1) ** 2 * 4 ** (m - 1) * fact(m), m)
    if log_c > -300.0:
        l_max = (700.0 + min(log_c, 0.0)) / (n - 1)
        x_max = math.exp(690.0 / (n - 2))
    else:
        c = l_max = x_max = 0.0
    # r_k = rn / rd and e_k = en / d with d = (n-2)!, all exact
    d = fact(n - 2)
    en = sum(d // j for j in range(1, n - 1))
    rn = rd = 1
    coefs = []
    for k in range(m):
        coefs.append((rn / rd, (rn * en) / (rd * d)))
        en -= d // (k + 1)
        rn *= m - 1 - k
        rd *= 2 * m - 2 - k
    coefs.reverse()
    return log_c, c, l_max, x_max, coefs


def _odd_kernel(n: int, l: float) -> KernelValue:
    """F_n(l) for odd n >= 3 and every finite l > 0, in closed form.

    Evaluates _odd_coefficients' form with s = -expm1(-2l), P and Q by
    Horner's rule; every term is positive, so nothing cancels.  Where
    the linear scale is safe (see _odd_coefficients) the value is
    c (l P + Q) u x^(n-2) with u = e^(-l) and x = u / s.  Elsewhere it
    is exp of log_value = log c - (n-1) l - (n-2) log s + log(l P + Q):
    value is 0 or subnormal where F underflows, inf with an inf
    estimate where F overflows, and log_value holds F in both (it is
    -inf only past l = max double / (n-1), where log F is too).

    The relative error estimate counts, in units of eps, to first order
    and with exp, expm1, log and pow within an ulp (n = 2m + 1):
    - linear scale, 4n + 3 >= 2.5 (n + m) + 4, from 2m + 1/2 for
      l P + Q (m - 1 Horner steps on positive terms, s within 1 raised to
      powers below m, the coefficients and the last two roundings); 1 for
      u; 2.5 (n-2) + 1 for x^(n-2), x being within 2.5 (u, s, the
      division); 0.2 m + 2 for c (pi^m from math.pi); 1.5 for the three
      products;
    - log scale, 5n + 2 + 5S, where S = |log c| + (n-1) l +
      (n-2) |log s| + |log(l P + Q)| bounds every partial sum, from
      3 |log c| + 6m + 4 for log c (its ratio, shift log 2 and m log pi);
      half of (n-1) l for that product; n - 2 plus 1.5 times its size
      for (n-2) log s; 2m + 1.5 plus 1.5 times its size for
      log(l P + Q); 1.5 S for the three additions; 1 for exp.  That sums
      to at most 5n + 0.5 + 4.5 S.
    An ulp of the value joins the estimate for subnormal results.
    """
    log_c, c, l_max, x_max, coefs = _odd_coefficients(n)
    s = -math.expm1(-2.0 * l)
    p = q = 0.0
    for r, e in coefs:
        p = p * s + r
        q = q * s + e
    if l < l_max:
        u = math.exp(-l)
        x = u / s
        if x < x_max:
            value = c * (l * p + q) * u * x ** (n - 2)
            return KernelValue(value, _EPS * (4 * n + 3) * value, math.log(value))
    log_s = math.log(s)
    # l P + Q overflows for l near the largest double, q / l for the least
    log_total = math.log(l * p + q) if l < 1.0 else math.log(l) + math.log(p + q / l)
    log_value = log_c - (n - 1) * l - (n - 2) * log_s + log_total
    if log_value > _LOG_MAX:
        return KernelValue(math.inf, math.inf, log_value)
    value = math.exp(log_value)
    size = abs(log_c) + (n - 1) * l + (n - 2) * abs(log_s) + abs(log_total)
    err = math.ulp(value) + (_EPS * (5 * n + 2 + 5.0 * size) * value if value else 0.0)
    return KernelValue(value, err, log_value)


def volume_kernel(n: int, l: float) -> KernelValue:
    """Volume kernel for any dimension n >= 2.

    n = 2 returns the closed form with zero error estimate.  Odd n >= 3
    returns its closed form in s = 1 - e^(-2l) at every length (see
    _odd_kernel).  Even n >= 4 sums the t-series from l = ln 2 / 2 on
    (see _series_kernel) and runs the radial quadrature below that,
    whose NonConvergenceError and OverflowError propagate.  The closed
    form and the series return a relative error estimate of a few eps
    times n, the term count or (n-1) l; value is 0 only where F
    underflows and inf only where it overflows, and log_value holds F
    there.
    """
    _check_kernel_args(n, l, least_n=2)
    if n == 2:
        value = surface_kernel(l)
        return KernelValue(value, 0.0, _log_of(value))
    if n % 2:
        return _odd_kernel(n, l)
    if l >= _SERIES_CUT:
        return _series_kernel(n, l)
    return volume_kernel_radial(n, l)
