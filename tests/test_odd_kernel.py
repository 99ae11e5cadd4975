"""The s-series of volume_kernel: its values below ln(4/3) / 2, its coefficients,
and the paths it never takes.

Odd n sums the s-series in s = 1 - e^(-2l) at every length, where it is
a closed form; even n sums it below ln(4/3) / 2, with a second, log-s sum.
The rows of the 40-digit table below the cut are gated here, the rest in
tests/test_series.py.
"""

import importlib
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_checks import (ANY_LENGTH, LENGTHS, NO_ULP_MATH, POINTS, TINY, Counted, check_sane,
                           check_total, check_within_estimate, forbid_integration,
                           median_over_estimate)

from orthovol import volume_kernel
from orthovol.special import harmonic
from orthovol.volume_kernel import _SERIES_CUT, _SERIES_TAIL, _s_coefficients

EPS = sys.float_info.epsilon
BELOW = [p for p in POINTS if p["l"] < _SERIES_CUT]
ODD = [p for p in POINTS if p["n"] % 2]
# n = 2 takes the Rogers form, gated in tests/test_series.py
EVEN = [p for p in BELOW if p["n"] >= 4 and not p["n"] % 2]


@pytest.mark.parametrize("n", sorted({p["n"] for p in ODD}))
def test_odd_within_its_estimate(n):
    check_within_estimate(p for p in BELOW if p["n"] == n)


@pytest.mark.parametrize("n", sorted({p["n"] for p in EVEN}))
def test_even_within_its_estimate(n):
    check_within_estimate(p for p in EVEN if p["n"] == n)


def test_odd_estimate_is_not_loose():
    # the closed odd s-series, at every length
    assert median_over_estimate(ODD) < 1e3


def test_even_estimate_is_not_loose():
    # the even s-series, below the cut
    assert median_over_estimate(EVEN) < 1e3


@pytest.mark.parametrize("n, l", [(400, 0.1), (229, 1.0)])
def test_linear_scale_past_n_228(n, l):
    # log c is -635 at n = 400 and -302 at n = 229: l < l_max and x < x_max
    # alone keep every partial product normal, so the linear scale serves
    # both, with its smaller estimate (the log scale's reads 1.9e-12, 8.8e-13)
    (row,) = [p for p in POINTS if (p["n"], p["l"]) == (n, l)]
    kv = volume_kernel(n, l)
    assert kv.err_estimate <= 5e-13 * kv.value
    assert abs(mp.mpf(row["value"]) - kv.value) <= kv.err_estimate


def exact_coefficients(n):
    # r_k from r_(k+1) = r_k (n-3-2k) / (2(n-3-k)), and r_k e_k with
    # e_k = H_(n-2) - H_k, in exact rationals; r_k is 0 from
    # k = (n-1)/2 for odd n
    h = sum(Fraction(1, j) for j in range(1, n - 1))
    r = Fraction(1)
    out = []
    for k in range(n - 2):
        if not r:
            break
        out.append((r, r * h))
        h -= Fraction(1, k + 1)
        if k + 1 < n - 2:
            r = r * (n - 3 - 2 * k) / (2 * (n - 3 - k))
    return out


def check_coefficients(n):
    exact = exact_coefficients(n)
    if n % 2:
        # cached from the top degree down
        coefs = _s_coefficients(n)[4]
        assert len(coefs) == len(exact)
        for (r, q), (r_exact, q_exact) in zip(reversed(coefs), exact):
            assert r == float(r_exact) and q == float(q_exact)
        return
    # even n rises from degree 0: its pair apart, then steps of four pairs
    # from degree 1, the last padded past degree n - 3 with exact zeros
    (r_0, q_0, _, _), steps = _s_coefficients(n)[4]
    assert len(steps) == math.ceil((n - 3) / 4)
    pairs = [(r_0, q_0)] + [step[j:j + 2] for step in steps for j in range(0, 8, 2)]
    for (r, q), (r_exact, q_exact) in zip(pairs, exact):
        assert r == float(r_exact) and q == float(q_exact)
    assert all(x == 0.0 for pair in pairs[len(exact):] for x in pair)


@pytest.mark.parametrize("n", range(3, 100, 2))
def test_odd_coefficients_correctly_rounded(n):
    check_coefficients(n)
    assert len(_s_coefficients(n)[4]) == (n - 1) // 2
    assert all(r > 0.0 and q > 0.0 for r, q in _s_coefficients(n)[4])
    assert _s_coefficients(n)[5] == [] and _s_coefficients(n)[7] == []


@pytest.mark.parametrize("n", (401, 1000, 1001, 2000, 2001))
def test_large_dimension_coefficients_correctly_rounded(n):
    # P and Q's exact integers run to thousands of bits, and the least r_k
    # round to subnormals or 0 from n = 1000; n = 400 is checked with T below
    check_coefficients(n)


@pytest.mark.parametrize("n", (4, 20, 60, 400))
def test_even_table_evaluates_trigamma_once(n, monkeypatch):
    # psi'(n-1+k) for every term comes from one asymptotic value by the
    # recurrence psi'(j) = psi'(j+1) + 1/j^2
    module = importlib.import_module("orthovol.volume_kernel")
    trigamma, calls = module._trigamma, []
    monkeypatch.setattr(module, "_trigamma", lambda j: calls.append(j) or trigamma(j))
    _s_coefficients.cache_clear()
    assert _s_coefficients(n)[5]
    assert len(calls) == 1


@pytest.mark.parametrize("n", (4, 6, 10, 20, 60, 100, 200, 400))
def test_even_coefficients(n):
    # the first sum's n - 2 terms in rising steps; the second sum's
    # v_k = W_k / 4^(n-2+k) correctly rounded, g_k, b_k and psi'(n-1+k)
    # within a few ulp of 40-digit values, and the bounds C_k on the rest,
    # each C_(k+1) + a_k with a_k at the cut (s = 1/4, l = ln(4/3) / 2, where
    # T's terms are bounded), 1/(n-2+k) > psi'(n-1+k) in psi's place, and
    # positive and falling strictly unless a_k is below an ulp of C_k (from
    # n = 200, where |W_k| grows by 10^30 along the table).  From n = 388
    # (past the normal range from 344) every v_k, a_k and C_k is 0
    check_coefficients(n)
    terms, rest_0 = _s_coefficients(n)[5:7]
    rests = [rest_0] + [term[4] for term in terms]
    assert rests[-1] > 0.0 or n >= 388
    for k, ((v, g, b, psi, rest), prev) in enumerate(zip(terms, rests)):
        a = abs(v) * ((_SERIES_CUT - g) * (b + math.log(4.0)) + 1.0 / (n - 2 + k))
        assert psi < 1.0 / (n - 2 + k) and prev == rest + a
        if n <= 342:
            assert a > 0.0
        elif n >= 388:
            assert v == a == prev == 0.0
        assert prev > rest or a < math.ulp(prev)
    with mp.workdps(40):
        for (v, g, b, psi, _), (w, g_ref, b_ref, psi_ref) in zip(terms, exact_t_terms(n)):
            assert v == float(w)
            # b_k falls to 0 but is only ever added to log s, |log s| >= log 4
            assert abs(b - b_ref) <= 4 * EPS * max(1.0, abs(b))
            for value, ref in ((g, g_ref), (psi, psi_ref)):
                assert abs(value - ref) <= 4 * math.ulp(float(ref))


def exact_t_terms(n):
    # (v_k, g_k, b_k, psi'(n-1+k)) for k = 0, 1, ...: v_k = W_k / 4^(n-2+k)
    # exact, the rest from their definitions in the working precision
    fact = math.factorial
    w = Fraction((-1) ** (n // 2) * fact(n) * (n - 2),
                 2 ** (2 * n - 3) * fact(n // 2) * fact(n // 2 - 1) * (n - 1))
    k = 0
    while True:
        g = mp.harmonic(n - 2) - mp.harmonic(n - 2 + k)
        b = (2 * mp.fsum(mp.mpf(1) / j for j in range(1, n - 2 + 2 * k, 2))
             - mp.harmonic(k) - 2 * mp.log(2))
        yield w / 4 ** (n - 2 + k), g, b, mp.psi(1, n - 1 + k)
        w = w * (n - 1 + 2 * k) / (2 * (k + 1))
        k += 1


def exact_step_bounds(n):
    # {k: (a, b, c)} for k = 0, 1, 5, 9, ...: sum_(j>=k) |r_j| (1, e_j)
    # 4^(k-j) = (a, b / d) / c exactly, d = lcm(1, ..., n-2), e_j = h_j / d
    # and c = D 4^(n-3-k), D the product of the recurrence's n - 3
    # denominators.  x_j = |r_j| D is an integer, x_0 = D and x_(j+1) =
    # x_j |n-3-2j| / (2(n-3-j)), so each sum is a Horner sum of integers
    # from the top degree down.  Also [(r_j, e_j)] in the working precision
    top = n - 3
    h, d = harmonic(n - 2)
    x = big = math.prod(2 * (n - 3 - j) for j in range(top))
    r = mp.mpf(1)
    exact, terms = [], []
    for j in range(top + 1):
        exact.append((x, h))
        terms.append((r, mp.mpf(h) / d))
        if j < top:
            h -= d // (j + 1)
            x = x * abs(n - 3 - 2 * j) // (2 * (n - 3 - j))
            r = r * (n - 3 - 2 * j) / (2 * (n - 3 - j))
    a = b = 0
    sums = {}
    for k in range(top, -1, -1):
        x, h = exact[k]
        a += x << 2 * (top - k)
        b += x * h << 2 * (top - k)
        if k % 4 == 1 or k == 0:
            sums[k] = (a, b, big << 2 * (top - k))
    return sums, terms, d


def at_least(x, num, den):
    # the double x >= num / den, for integers num >= 0 and den > 0
    a, b = x.as_integer_ratio()
    return a * den >= num * b


@pytest.mark.parametrize("n", (4, 6, 8, 20, 60, 400, 2000, 4000))
def test_s_series_rest_bound(n, monkeypatch):
    # below the cut even n sums P and Q from degree 0 up, and stops before
    # the step whose first term k has s^k (l cp_k + cq_k) <= 2^-54 of the
    # sum, (cp_k, cq_k) bounds on sum_(j>=k) |r_j| (1, e_j) 4^(k-j), so on
    # the rest wherever s <= 1/4.  Each stored bound, the first pair's too,
    # is at least its exact sum.  At five lengths to the cut, with T's
    # terms zeroed (S = l P + Q, T reports no tail), _EPS = 0, math.ulp 0
    # and log c shifted so that F reads about 1, the relative estimate is
    # the tail the kernel reports: s^k (l cp_k + cq_k) over the terms
    # summed, at most 2^-54, and at least the exact rest past them, from
    # exact r_j, e_j and the kernel's s in 40 digits.  A call reads at most
    # 6 steps, 1 at l = 1e-300 and 6 just below the cut from n = 400 on
    module = importlib.import_module("orthovol.volume_kernel")
    table = _s_coefficients(n)
    (_, _, cp_0, cq_0), steps = table[4]
    with mp.workdps(40):
        sums, terms, d = exact_step_bounds(n)
    bounds = {0: (cp_0, cq_0)} | {4 * m + 1: step[8:] for m, step in enumerate(steps)}
    assert bounds.keys() == sums.keys()
    for k, (cp, cq) in bounds.items():
        a, b, c = sums[k]
        assert at_least(cp, a, c) and at_least(cq, b, c * d), k
    steps = Counted(steps)
    zero_t = [(0.0, *term[1:4], 0.0) for term in table[5]]
    reads = []
    for l in (1e-300, 1e-8, 1e-3, 0.05, math.nextafter(_SERIES_CUT, 0.0)):
        log_f = volume_kernel(n, l).log_value
        with monkeypatch.context() as patch:
            patch.setattr(module, "_EPS", 0.0)
            patch.setattr(module, "math", NO_ULP_MATH)
            patch.setattr(module, "_s_coefficients", lambda m: (
                table[0] - log_f, 0.0, 0.0, 0.0, (table[4][0], steps), zero_t, *table[6:]))
            steps.read, steps.done = 0, False
            kv = volume_kernel(n, l)
        tail = kv.err_estimate / kv.value
        reads.append(steps.read)
        summed = n - 2 if steps.done else 4 * steps.read - 3
        s = -math.expm1(-2.0 * l)
        assert s <= 0.25
        with mp.workdps(40):
            s, power = mp.mpf(s), mp.mpf(1)
            part, rest = mp.mpf(0), mp.mpf(0)
            for k, (r, e) in enumerate(terms):
                term = r * power * (l + e)
                power *= s
                part, rest = (part + term, rest) if k < summed else (part, rest + term)
            # the bound from the stored floats, exactly; what the kernel
            # reports is that bound rounded
            cp, cq = bounds[summed] if summed < n - 2 else (0.0, 0.0)
            bound = s**summed * (l * mp.mpf(cp) + mp.mpf(cq))
            assert abs(rest) <= bound, (l, rest, bound)
            assert tail == pytest.approx(float(bound / part), rel=1e-12, abs=0.0), l
            assert tail <= _SERIES_TAIL
    assert max(reads) <= 6 and reads[0] == 1
    assert reads[-1] == 6 or n < 400


def mp_of(x):
    return mp.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("n", (4, 6, 8, 20, 60, 342))
def test_t_part_rest_bound(n, monkeypatch):
    # T's bounds are taken at the cut, s = 1/4 and l = ln(4/3) / 2: each A_k
    # as the build forms it, and each stored C_k, is at least its 40-digit
    # value there, C_k the sum of the A_j from k on.  At four lengths below
    # the cut, with P and Q summed whole (their step bounds inf, so they
    # report no tail), _EPS = 0, math.ulp 0 and log c shifted so that F
    # reads about 1, the relative estimate is T's share of the tail,
    # lam (4s)^(n-1+k) C_(k+1) over S, k the last term summed and
    # lam = log s / -log 4: at most 2^-54 and at least the exact rest of
    # s^(n-2) T past term k, from exact W_k and the kernel's s in 40 digits.
    # Where that bound is below the normal range (n = 342 off the cut), the
    # share is too
    module = importlib.import_module("orthovol.volume_kernel")
    table = _s_coefficients(n)
    terms, rest_0 = table[5:7]
    stored = [rest_0] + [term[4] for term in terms]
    with mp.workdps(40):
        cut, exact = mp.mpf(_SERIES_CUT), []
        for w, g, b, psi in exact_t_terms(n):
            exact.append(abs(mp_of(w)) * ((cut - g) * (b + mp.log(4)) + psi))
            if len(exact) > len(terms) and exact[-1] < mp.mpf(10) ** -45 * sum(exact):
                break
        for k, (v, g, b, psi, _) in enumerate(terms):
            a = abs(v) * ((_SERIES_CUT - g) * (b + math.log(4.0)) + 1.0 / (n - 2 + k))
            assert a >= exact[k] and stored[k] >= mp.fsum(exact[k:]), k
        assert stored[-1] >= mp.fsum(exact[len(terms):])
    (head, steps), terms = table[4], Counted(terms)
    with mp.workdps(40):
        p_and_q = exact_step_bounds(n)[1]
    unbounded = [(*step[:8], math.inf, math.inf) for step in steps]
    for l in (1e-3, 0.05, 0.1, math.nextafter(_SERIES_CUT, 0.0)):
        log_f = volume_kernel(n, l).log_value
        with monkeypatch.context() as patch:
            patch.setattr(module, "_EPS", 0.0)
            patch.setattr(module, "math", NO_ULP_MATH)
            patch.setattr(module, "_s_coefficients", lambda m: (
                table[0] - log_f, 0.0, 0.0, 0.0, (head, unbounded), terms, *table[6:]))
            terms.read, terms.done = 0, False
            kv = volume_kernel(n, l)
        share = kv.err_estimate / kv.value
        k = terms.read - 1
        with mp.workdps(40):
            s = mp.mpf(-math.expm1(-2.0 * l))
            log_s = mp.log(s)
            total = mp.fsum(r * s**j * (l + e) for j, (r, e) in enumerate(p_and_q))
            rest = mp.mpf(0)
            for j, (w, g, b, psi) in enumerate(exact_t_terms(n)):
                term = mp_of(w) * (4 * s) ** (n - 2 + j) * ((l + g) * (log_s + b) - psi)
                total += term
                rest += term if j > k else 0
                if j > max(k, len(exact)) and abs(term) < mp.mpf(10) ** -45 * abs(rest):
                    break
            bound = log_s / -mp.log(4) * (4 * s) ** (n - 1 + k) * stored[k + 1] / total
        if bound < TINY:
            assert share < TINY
            continue
        assert share <= _SERIES_TAIL
        assert share >= abs(rest / total), (l, share, rest / total)
        assert share == pytest.approx(float(bound), rel=1e-12, abs=0.0), l


def test_odd_never_integrates(monkeypatch):
    # odd n reaches neither the quadrature, the inner kernel nor the
    # t-series, from the least positive double to the largest
    def fail(*args, **kwargs):
        raise AssertionError("volume_kernel left the closed form")

    class Unread:
        __iter__ = fail

    # the package attribute volume_kernel is the function, not the module
    module = importlib.import_module("orthovol.volume_kernel")
    for name in ("inner_kernel", "adaptive_quad", "volume_kernel_radial"):
        monkeypatch.setattr(module, name, fail)
    # every table's t-series terms raise when read
    monkeypatch.setattr(module, "_s_coefficients", lambda n: _s_coefficients(n)[:7] + (Unread(),))
    for n in range(3, 100, 2):
        for l in LENGTHS:
            check_sane(volume_kernel(n, l), n, l)
    with pytest.raises(AssertionError, match="left the closed form"):
        volume_kernel(4, 1.0)


def test_no_dimension_integrates(monkeypatch):
    # n = 3..100 reaches neither integral form, the integrator nor the
    # inner kernel below the cut (tests/test_series.py: from it on)
    forbid_integration(monkeypatch)
    for n in range(3, 101):
        for l in LENGTHS:
            if l < _SERIES_CUT:
                check_sane(volume_kernel(n, l), n, l)


BELOW_CUT = st.one_of(
    st.floats(1e-12, _SERIES_CUT, exclude_max=True),
    st.floats(math.log(1e-300), math.log(_SERIES_CUT)).map(math.exp),
).map(lambda l: min(l, math.nextafter(_SERIES_CUT, 0.0)))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 999).map(lambda k: 2 * k + 1),
       lengths=st.tuples(ANY_LENGTH, ANY_LENGTH))
def test_odd_positive_and_decreasing(n, lengths):
    # odd n = 3..1999 is total on l = 1e-300..1e300 (kernel_checks.check_total)
    check_total(n, *sorted(lengths))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 1000).map(lambda k: 2 * k),
       lengths=st.tuples(BELOW_CUT, BELOW_CUT))
def test_even_total_below_cut(n, lengths):
    # even n = 4..2000 is total on l = 1e-300..ln(4/3) / 2; pairs that reach
    # the cut are drawn in tests/test_series.py
    check_total(n, *sorted(lengths))
