"""Volume kernel: per-orthogeodesic contribution to the manifold volume.

Each orthogeodesic of length l of a hyperbolic n-manifold with totally
geodesic boundary contributes a kernel value; the volume is their sum
over the orthospectrum.  For n = 2 the kernel is a Rogers dilogarithm
expression.  For n >= 3 one table per dimension serves every length: a
series in s = 1 - e^(-2l), closed for odd n; even n sums it below l =
ln(4/3) / 2 and Euler's series in t = e^(-2l) from there on, each to a
proved rest bound, every bound below the cut derived at the cut.  The
inner kernel's integral, kept in two parametrizations as the tests'
reference, never serves volume_kernel; it runs on scipy's QUADPACK
through adaptive_quad, so only these two forms need the test extra.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import NamedTuple

from .inner_kernel import inner_kernel
from .quadrature import adaptive_quad
from .special import BERNOULLI, LOG_DBL_MAX, dimension, harmonic, rogers_l

__all__ = ["KernelValue", "volume_kernel", "small_length_constant"]

# even n sums the t-series from l = ln(4/3) / 2 (t = e^(-2l) <= 3/4) on
_SERIES_CUT = 0.5 * math.log(4.0 / 3.0)
_EPS = sys.float_info.epsilon
# a series stops once its tail bound is below this share of the sum, and
# its coefficients run until the bound at the cut is below the smaller
_SERIES_TAIL = 2.0 ** -54
_BUILD_TAIL = 2.0 ** -60
_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
_LN_PI = math.log(math.pi)
_FOUR_OVER_PI = 4.0 / math.pi


class KernelValue(NamedTuple):
    """Numerical kernel value, its error estimate and its logarithm.

    log_value is log(value) wherever value is a normal double.  Where the
    kernel underflows, value is a subnormal or 0, and where it overflows
    value and err_estimate are inf; log_value still holds the kernel's
    size.  volume_kernel builds it as tuple.__new__(KernelValue, (value,
    err_estimate, log_value)), in C: the same record as
    KernelValue(value, err_estimate, log_value), without the Python frame
    of the __new__ that NamedTuple generates.
    """

    value: float
    err_estimate: float
    log_value: float


# the record without a Python frame: _new_record(KernelValue, (v, e, log v))
_new_record = tuple.__new__


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


def _check_kernel_args(n: int, l: float, least_n: int = 3) -> int:
    """n as a Python int once n >= least_n and 0 < l < inf; else TypeError or ValueError."""
    n = dimension(n, least_n)
    if not 0.0 < l < math.inf:
        raise ValueError("length must be positive and finite")
    return n


def volume_kernel_radial(n: int, l: float) -> KernelValue:
    """Volume kernel for n >= 3 in the radial-angle parametrization.

    The tests' reference for the series: shape * int_0^(pi/2)
    tan(theta)^(n-3) inner_kernel(x) dtheta, x = sqrt(e^(2l) - 1 +
    cos^2 theta) / cos(theta), with e^(2l) - 1 from expm1.  Raises
    OverflowError past l = 354.89 and NonConvergenceError where the
    integral misses its target.
    """
    n = _check_kernel_args(n, l)
    a2m1 = math.expm1(2.0 * l)
    shape = _shape_factor(n)

    def integrand(theta: float) -> float:
        ct = math.cos(theta)
        x = math.sqrt(a2m1 + ct * ct) / ct
        return math.tan(theta) ** (n - 3) * inner_kernel(n, x)

    value, err = adaptive_quad(integrand, 0.0, 0.5 * math.pi, shape)
    return KernelValue(shape * value, shape * err, _log_of(shape * value))


def volume_kernel_alt(n: int, l: float) -> KernelValue:
    """Volume kernel for n >= 3 by the argument x = e^l cosh(w), the radial form's reference.

    shape * a^(n-2) (a^2-1)^(2-n/2) * int_0^30 sinh(w)^(n-3) cosh(w)
    inner_kernel(a cosh w) / (x^2 - 1) dw; past w = 30 is below 1e-24."""
    n = _check_kernel_args(n, l)
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


@cache
def _coef_rational(n: int) -> tuple[int, int, int]:
    """(num, den, p) with coef_n = num / den pi^p, for every n >= 3.

    coef_n, l e^(-(n-1) l)'s coefficient in the decay law, is (n-2)
    pi^((n-2)/2) Gamma(n/2 - 1) / Gamma((n+1)/2)^2: (n-2) (2m-2)! pi^m /
    (4^(m-1) (m-1)! m!^2) for n = 2m + 1, (n-2) (m-2)! 16^m m!^2 pi^(m-2)
    / (2m)!^2 for n = 2m.  n - 2 divides num and n - 1 divides 2 den."""
    fact = math.factorial
    if n % 2:
        m = (n - 1) // 2
        return (n - 2) * fact(2 * m - 2), 4 ** (m - 1) * fact(m - 1) * fact(m) ** 2, m
    m = n // 2
    return (n - 2) * fact(m - 2) * 16**m * fact(m) ** 2, fact(2 * m) ** 2, m - 2


def _c_rational(n: int) -> tuple[int, int, int]:
    """(num, den, p) of the s-series constant c = coef_n (n-1) / (2(n-2))."""
    num, den, p = _coef_rational(n)
    return num // (n - 2), 2 * den // (n - 1), p


def small_length_constant(n: int) -> tuple[float, float]:
    """(K_n, log K_n), K_n the coefficient of l^(2-n) in the kernel's small-length law.

    2 pi^((n-3)/2) H_(n-2) Gamma(n/2 + 1) Gamma(n/2 - 1) / (n Gamma((n+1)/2)
    Gamma(n-1)), the s-series' limit c H_(n-2) / 2^(n-2), H_(n-2) = h / d,
    from exact integers: K_n is normal up to n = 326 (K_326 ~ 3e-308) and
    0 from n = 340, where log K_n still holds its size.  n is taken
    through special.dimension, so a numpy integer gives the int's pair."""
    return _small_length_constant(dimension(n, 3))


@cache
def _small_length_constant(n: int) -> tuple[float, float]:
    num, den, p = _c_rational(n)
    h, d = harmonic(n - 2)
    return _pi_rational(num * h, den * d << (n - 2), p)


_BERNOULLI = tuple(a / b for a, b in BERNOULLI)


def _trigamma(j: int) -> float:
    """psi'(j) for an integer j >= 16 within a few ulp, by its asymptotic series.

    (1 + 1/(2j) + sum_(i<=8) B_2i j^(-2i)) / j, B_2i in _BERNOULLI, next
    term below 1e-20 of it; within 2.2 ulp of 40-digit values for
    j = 16..3000.  _s_coefficients calls it once per even-n table, at
    j = n - 1 + K, K its term count (j >= 29, least at n = 24 with K = 6;
    33 at n = 4), and recurs down.
    """
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = (series + b) / (j * j)
    return (1.0 + 0.5 / j + series) / j


def _stepped(rows: list, *columns: list) -> tuple[tuple, list]:
    """(rows[0], steps): step m is rows[4m+1..4m+4] flat, zero-padded, then each columns[i][m]."""
    it = iter(rows[1:] + [(0.0, 0.0)] * (-(len(rows) - 1) % 4))
    return rows[0], [(*a, *b, *c, *d, *x) for a, b, c, d, *x in zip(it, it, it, it, *columns)]


@cache
def _s_coefficients(n: int) -> tuple[float, float, float, float, list, list, float, list]:
    """Constants and coefficients of the kernel's series, for every n >= 3.

    With s = 1 - e^(-2l), u = e^(-l), L = log s and H_k the harmonic
    numbers, Euler's transformation of the kernel's 2F1, DLMF 15.8.10 and
    the parameter derivative give

        F_n(l) = c u^(n-1) s^(2-n) S,   S = l P(s) + Q(s) + s^(n-2) T(s),
        c = coef_n (n-1) / (2(n-2)),   P, Q = sum_(k<n-2) r_k s^k (1, e_k),
        r_0 = 1,   r_(k+1) = r_k (n-3-2k) / (2(n-3-k)),   e_k = H_(n-2) - H_k,
        T = sum_k W_k s^k ((l + g_k)(L + b_k) - psi'(n-1+k)),
        W_0 = (-1)^(n/2) n! (n-2) / (2^(2n-3) (n/2)! (n/2-1)! (n-1)),
        W_(k+1) = W_k (n-1+2k) / (2(k+1)),   g_k = H_(n-2) - H_(n-2+k),
        b_k = 2 (1 + 1/3 + ... + 1/(n-3+2k)) - H_k - 2 log 2.

    For odd n, r_k is 0 from k = (n-1)/2 and T is 0, so S is a polynomial
    with positive coefficients.  For even n, r_k changes sign past (n-3)/2,
    but e_k >= 0: where s <= 1/4 (below the cut) l P + Q's terms from degree
    k on are in size at most s^k (l cp_k + cq_k), (cp_k, cq_k) >= sum_(j>=k)
    |r_j| (1, e_j) 4^(k-j), summed down as |r_k| + cp_(k+1) / 4, raised two
    doubles: its three roundings (r_k or r_k e_k, the quarter if subnormal,
    the sum, no part above it) lose at most half a gap above the sum each.
    r_k, r_k e_k, c and v_k = W_k / 4^(n-2+k) are correctly rounded ratios
    of exact integers, e_k's numerators over d = lcm(1, ..., n-2), and g_k
    and b_k are compensated sums.  W_k has W_0's sign, b_k > 0 falls and
    g_k <= 0, so for s <= 1/4 term k of s^(n-2) T is at most a_k = |W_k|
    s^(n-2+k) ((l - g_k)(b_k - L) + psi'(n-1+k)) <= lam y^(n-2+k) A_k, with
    y = 4s, lam = L / -log 4 >= 1 and A_k = a_k at the cut (y = 1, l = cut),
    T's one derivation point.  There a_(k+1) / a_k <= R = (n-1+2k) / (8k)
    for k >= 1 (W's ratio over 4 times the bracket's (k+1) / k), falling
    with k; terms are built until A_k R / (1 - R) < 2^-60 S, S at the cut
    as the t-series build sums it.  C_(k+1), the A_j past term k plus that
    bound, makes lam y^(n-1+k) C_(k+1) a bound on the rest after term k.
    v_0 is normal for n <= 342, subnormal or 0 from 344 (C_0 from 372, the
    whole table 0 from 388): T is then below 2^-950 of S (lam y^(n-2) <= 1
    <= S), far inside the estimate whatever its terms hold.  A_k takes
    1/(n-2+k) > psi'(n-1+k) for psi', so it is a bound before psi' is known;
    one _trigamma value at n-1+K, K the term count, gives every psi'(n-1+k)
    by psi'(j) = psi'(j+1) + 1/j^2 (DLMF 5.15.5), summed down compensated
    (within 2.5 ulp of 40-digit values for even n = 4..400, 1000, 2000).

    For even n from the cut on, the same S is Euler's form in t = 1 - s,

        S = sum_K q_K t^K (l + e_K),   q_0 = 2(n-2) / (n-1),   e_0 = c_n,
        q_(K+1) = q_K (3-n+2K) / (n+1+2K),
        e_(K+1) = e_K - (n-1) / ((K+1)(n+1+2K)),

    c_n = H_((n-1)/2) = 2 (1 + 1/3 + ... + 1/(n-1)) - 2 log 2, the steps
    summing to c_n (partial fractions), so e_K falls to 0.  As
    |q_(K+1) / q_K| <= 1, the rest of S / l from term K on is at most
    |q_K + q_K e_K / l| t^K / (1 - t), and all |terms| at most a_0 / (1 - t),
    a_0 = q_0 (1 + e_0 / l): proved at every t < 1.  q_K is a correctly
    rounded ratio of exact integers, q_K e_K the product with a
    compensated e_K (within e_0 eps), up to the end of the first step that
    starts at or past a term at the cut (t = 3/4) below 2^-60 of the sum
    there: 93 terms at n = 4, 29 at 20, 73 at 400, 109 at 2000.

    Returns (log c, c, l_max, x_max, P and Q, [(v_k, g_k, b_k, psi'(n-1+k),
    C_(k+1))], C_0, ((q_0, q_0 e_0), [steps])), the last three empty for
    odd n, whose P and Q are [(r_k, r_k e_k)] from the top degree down.
    Even n's are ((1, e_0, cp_0, cq_0), [steps]), step m the (r_k, r_k e_k),
    k = 4m+1..4m+4 (0 past n - 3), then (cp, cq) at 4m + 1; a t-series
    step is (q_K, q_K e_K), K = 4m+1..4m+4, never padded.  Where
    (n-1) l < l_max (n-1) = 700 + min(log c, 0) and x = u / s < x_max =
    e^(690/(n-2)), every factor and partial product of c S u x^(n-2) is
    normal: l < l_max gives log c, log(c S u) > -700 (1 <= S), x < x_max
    gives x^(n-2) < e^690, and c S u < e^9 (log c <= 1.2, S <= (350 +
    H_(n-2)) n).  From n = 413 no l < l_max has x < x_max, and from n = 431
    l_max <= 0 (log c <= -700): the log scale serves every length there.
    """
    c, log_c = _pi_rational(*_c_rational(n))
    l_max = (700.0 + min(log_c, 0.0)) / (n - 1)
    x_max = math.exp(690.0 / (n - 2))
    # r_k = rn / rd and e_k = en / d with d = lcm(1, ..., n-2), all exact
    en, d = harmonic(n - 2)
    rn = rd = 1
    coefs = []
    for k in range(n - 2):
        if not rn:
            break
        coefs.append((rn / rd, (rn * en) / (rd * d)))
        en -= d // (k + 1)
        # times (n-3-2k) / (2(n-3-k)), each factor cancelled against the
        # other side first: the same rationals in far fewer bits
        num, den = n - 3 - 2 * k, 2 * (n - 3 - k)
        g, h = math.gcd(num, rd), math.gcd(den, rn)
        rn, rd = rn // h * (num // g), rd // g * (den // h)
    if n % 2:
        return log_c, c, l_max, x_max, coefs[::-1], [], 0.0, []
    after, up, cp, cq, bounds = math.nextafter, math.inf, 0.0, 0.0, []
    for r, re in reversed(coefs):
        cp = after(after(abs(r) + 0.25 * cp, up), up)
        cq = after(after(abs(re) + 0.25 * cq, up), up)
        bounds.append((cp, cq))
    head, steps = _stepped(coefs, *zip(*bounds[-2::-4]))
    # the t-series' q_K = num / den and q_K e_K; its sum at t = 3/4 is S at the cut
    num, den = 2 * (n - 2), n - 1
    e = math.fsum([2.0 / j for j in range(1, n, 2)] + [-2.0 * _LN2])
    e_err = total = 0.0
    t_terms, k, stop = [], 0, math.inf
    while k < stop:
        q, ek = num / den, e + e_err
        t_terms.append((q, q * ek))
        term = q * (_SERIES_CUT + ek) * 0.75**k
        total += term
        if abs(term) <= _BUILD_TAIL * total:
            stop = min(stop, k + (1 - k) % 4 + 4)
        step = (1 - n) / ((k + 1) * (n + 1 + 2 * k))
        e, e_err = e + step, e_err + (step - ((e + step) - e))
        num *= 3 - n + 2 * k
        den *= n + 1 + 2 * k
        k += 1
    # the terms of T at the cut (s = 1/4, L = -log 4) until below 2^-60 of S
    fact = math.factorial
    num = (-1) ** (n // 2) * fact(n) * (n - 2)
    den = fact(n // 2) * fact(n // 2 - 1) * (n - 1) << 4 * n - 7
    g = g_err = b_err = 0.0
    b = math.fsum([2.0 / j for j in range(1, n - 2, 2)] + [-2.0 * _LN2])
    terms, k = [], 0
    while True:
        # psi'(n-1+k) < 1/(n-2+k) keeps A_k a bound before psi' is known
        v, gk, bk, psi = num / den, g + g_err, b + b_err, 1.0 / (n - 2 + k)
        a = abs(v) * ((_SERIES_CUT - gk) * (bk + _LN4) + psi)
        terms.append([v, gk, bk, psi, a])
        r = (n - 1 + 2 * k) / (8 * k) if k else 1.0
        if r < 1.0 and a * r <= _BUILD_TAIL * (1.0 - r) * total:
            break
        step = -1.0 / (n - 1 + k)
        g, g_err = g + step, g_err + (step - ((g + step) - g))
        step = (3 - n) / ((k + 1) * (n - 1 + 2 * k))
        b, b_err = b + step, b_err + (step - ((b + step) - b))
        num *= n - 1 + 2 * k
        den *= 8 * (k + 1)
        k += 1
    # psi'(j) = psi'(j+1) + 1/j^2 down from one asymptotic value
    j = n - 1 + len(terms)
    psi, psi_err = _trigamma(j), 0.0
    for term in reversed(terms):
        j -= 1
        step = 1.0 / (j * j)
        psi, psi_err = psi + step, psi_err + (step - ((psi + step) - psi))
        term[3] = psi + psi_err
    # each term's C_(k+1), then C_0
    rest = terms[-1][4] * r / (1.0 - r)
    for term in reversed(terms):
        term[4], rest = rest, rest + term[4]
    terms = [tuple(term) for term in terms]
    return log_c, c, l_max, x_max, ((*head, cp, cq), steps), terms, rest, _stepped(t_terms)


def _s_kernel(n: int, l: float) -> KernelValue:
    """F_n(l) = c u^(n-1) s^(2-n) S for n >= 3 from _s_coefficients' table.

    Odd n sums S = l P + Q, s = -expm1(-2l), by Horner's rule.  Even n sums
    l P + Q from degree 0 up below ln(4/3) / 2, then T term by term in
    y = 4s, and from the cut on S / l = sum_K t^K (q_K + q_K e_K / l),
    t = e^(-2l): each by its first term, then steps of four by Horner's rule
    times s^k or t^K, k or K a step's first term, while the rest bound
    s^k (l cp_k + cq_k) or |q_K + q_K e_K / l| t^K / s is above 2^-54 of the
    sum (1 to 6 steps below the cut for every n <= 4000; past the t-table
    the bound still holds), and T until its rest bound is; each bound joins
    the estimate.  Off the linear scale the value is exp(log c - (n-1) l -
    (n-2) log s + log S), 0 or inf only where F under- or overflows;
    log_value holds F (-inf only past l = max double / (n-1)).

    Relative error estimate, in eps, to first order (exp, expm1, log, pow
    within an ulp, so s and t within 1; roundings within half of one):
    - odd n, poly = n: its p = (n-1)/2 positive terms within 2p - 1/2 (p - 1
      Horner steps, s in powers below p, coefficients, the last two sums);
    - s-series, poly = ((6.5M + 3 + K) A + (n + 3K + 10) B) / S, M steps
      read, K terms of T, A = l cp_0 + cq_0 >= sum |terms| of l P + Q and
      B = lam y^(n-2) C_0 >= sum a_k: the first term within 1.5, term
      4m - 3 + i within 6m + 3 (4m for s; 2m - 2 for s^(4m-3), m - 1
      products by s^4 of three; 1.5 for l r_k + r_k e_k, of like signs; 3
      for the step's products and additions; 1/2 times s^(4m-3)), the step
      additions within M/2 of A; T's K additions within K/2 of A + B, term
      k within n + 1.5k + 8 of a_k (n - 1 + 1.5k for y^(n-2+k), pow then k
      products; 1.5 for l + g_k; 4 for L + b_k, |L| >= log 4; 1 for their
      product; 2.5 for psi' and the difference; 1 for v_k and its product);
    - t-series, poly = (7M + 6 + q_0 e_0 / l) a_0 / (s S / l), M steps
      read, a_0 / s >= A = sum |terms|: term K = 4m + 1 + i within
      1.5K + 5.5 (K for t^K; 2m <= K/2 for t^4, of three, and m products;
      3 for the step's products and additions; 1/2 times t^K; 2 for
      q_K + q_K e_K / l), plus q_0 e_0 / l from e_K; M step additions
      within M/2 of A and l times S / l within 1/2, (6.5M + 6) A in all;
    - linear scale, 3n + 3 + poly: 1 for u, 2.5 (n-2) + 1 for x^(n-2) (x
      within 2.5), 0.1 n + 2 for c (pi^p, p < n/2), 1.5 for the products;
    - log scale, 4n + 2 + poly + 5S', S' = |log c| + (n-1) l +
      (n-2) |log s| + |log S| bounding every partial sum: 3 |log c| + 3n + 4
      for log c, half its size for (n-1) l, n - 2 plus 1.5 times its size
      for (n-2) log s, 1 plus 1.5 times its size for log S, 1.5 S' for the
      three additions, 1 for exp;
    plus the tail bound over S, and an ulp for subnormal results.
    """
    log_c, c, l_max, x_max, coefs, terms, rest_0, t_series = _s_coefficients(n)
    s = -math.expm1(-2.0 * l)
    if l >= _SERIES_CUT and not n % 2:
        # S / l stands as P with Q = 0, which the log scale reads past l = 1
        t = math.exp(-2.0 * l)
        t4 = t * t * t * t
        il = 1.0 / l
        (r, e), steps = t_series
        p = a_0 = r + e * il
        limit, q, t_k = _SERIES_TAIL * s, 0.0, t
        for count, (r1, e1, r2, e2, r3, e3, r4, e4) in enumerate(steps, 1):
            first = r1 + e1 * il
            if abs(first) * t_k <= limit * p:
                break
            p += t_k * (first + t * (r2 + e2 * il + t * (r3 + e3 * il + t * (r4 + e4 * il))))
            t_k *= t4
        total = l * p
        w = a_0 / (s * p)
        tail = abs(first) * t_k / (s * p)
        poly = (7 * count + 6 + e * il) * w
    elif terms:
        (r, e, cp, cq), steps = coefs
        total, first = l * r + e, l * cp + cq
        s4, s_k, rest_s = s * s * s * s, s, 0.0
        for m, (r1, e1, r2, e2, r3, e3, r4, e4, cp, cq) in enumerate(steps, 1):
            if (bound := s_k * (l * cp + cq)) <= _SERIES_TAIL * total:
                rest_s = bound
                break
            total += s_k * (l * r1 + e1 + s * (l * r2 + e2 + s * (l * r3 + e3 + s * (l * r4 + e4))))
            s_k *= s4
        log_s = math.log(s)
        lam = log_s / -_LN4
        y = 4.0 * s
        power = y ** (n - 2)
        second = lam * power * rest_0
        limit = _SERIES_TAIL * total / lam
        for count, (v, g, b, psi, rest) in enumerate(terms, 1):
            total += v * power * ((l + g) * (log_s + b) - psi)
            power *= y
            if power * rest <= limit:
                break
        tail = (rest_s + lam * power * rest) / total
        poly = ((6.5 * m + 3 + count) * first + (n + 3 * count + 10) * second) / total
    else:
        p = q = 0.0
        for r, e in coefs:
            p = p * s + r
            q = q * s + e
        total = l * p + q
        poly, tail = n, 0.0
    if l < l_max:
        u = math.exp(-l)
        x = u / s
        if x < x_max:
            value = c * total * u * x ** (n - 2)
            err = (_EPS * (3 * n + 3 + poly) + tail) * value
            return _new_record(KernelValue, (value, err, math.log(value)))
    log_s = math.log(s)
    # l P + Q overflows for l near the largest double, q / l for the least
    log_total = math.log(total) if l < 1.0 else math.log(l) + math.log(p + q / l)
    log_value = log_c - (n - 1) * l - (n - 2) * log_s + log_total
    if log_value > LOG_DBL_MAX:
        return _new_record(KernelValue, (math.inf, math.inf, log_value))
    value = math.exp(log_value)
    size = abs(log_c) + (n - 1) * l + (n - 2) * abs(log_s) + abs(log_total)
    rel = _EPS * (4 * n + 2 + poly + 5.0 * size) + tail
    err = math.ulp(value) + (rel * value if value else 0.0)
    return _new_record(KernelValue, (value, err, log_value))


def volume_kernel(n: int, l: float) -> KernelValue:
    """Volume kernel for any dimension n >= 2.

    n = 2 is the closed form (4/pi) L(sech^2(l/2)), L the Rogers
    dilogarithm, with zero error estimate; it falls from 2 pi / 3 at
    l = 0+ and sums to the boundary area over the spectrum.  Every n >= 3
    sums its dimension's one table (_s_kernel): odd n the s-series at
    every length, even n the s-series below l = ln(4/3) / 2 and the
    t-series from there on, with a relative estimate of a few eps times
    n, the term count or (n-1) l; value is 0 or inf only where F under-
    or overflows, and log_value holds F there.

    A Python int n >= 2 with 0 < l < inf passes one comparison; anything
    else goes to the check, which takes n through __index__ (a numpy
    integer gives the int's record, a float raises TypeError) and raises
    ValueError for n < 2 or a length that is not positive and finite,
    nan among them."""
    if not (type(n) is int and n >= 2 and 0.0 < l < math.inf):
        n = _check_kernel_args(n, l, least_n=2)
    if n == 2:
        value = _FOUR_OVER_PI * rogers_l(1.0 / math.cosh(0.5 * l) ** 2)
        log_value = math.log(value) if value > 0.0 else -math.inf
        return _new_record(KernelValue, (value, 0.0, log_value))
    return _s_kernel(n, l)
