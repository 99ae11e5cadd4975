"""volume_kernel from l = ln(4/3) / 2 on against the 40-digit table, and the t-series' terms.

Odd n sums its closed s-series at every length (tests/test_odd_kernel.py);
even n sums Euler's t-series in t = e^(-2l) from the cut on, from the
same per-dimension table as its s-series below it.  The table's rows
from the cut on are gated here, and every row of n = 2.
"""

import importlib
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from gen_kernel_reference import DIMENSIONS, grid
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_checks import (ANY_LENGTH, LENGTHS, POINTS, check_sane, check_total,
                           check_within_estimate, forbid_integration, median_over_estimate)

from orthovol import volume_kernel
from orthovol.volume_kernel import _BUILD_TAIL, _SERIES_CUT, _s_coefficients

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
HUGE = sys.float_info.max


def test_reference_table_is_the_generators_grid():
    # exactly the generator's grid, in its order, and every row
    # self-consistent: value is exp(log_value) within 1e-15 where that is
    # a normal double, subnormal between, and 0 or inf exactly where
    # log_value leaves the double range
    assert [(p["n"], p["l"]) for p in POINTS] == grid()
    for p in POINTS:
        value, log_value = float(p["value"]), float(p["log_value"])
        if log_value > math.log(HUGE):
            assert value == math.inf, p
        elif log_value < math.log(math.ulp(0.0)) - math.log(2.0):
            assert value == 0.0, p
        elif value >= TINY:
            with mp.workdps(30):
                assert abs(mp.exp(mp.mpf(p["log_value"])) / mp.mpf(p["value"]) - 1) <= 1e-15, p
        else:
            assert 0.0 < value < TINY, p


N2_DRIFTS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the n = 2 Rogers form drifts from l ~ 8 (152 ulp "
    "there, -96 % at 50) with err_estimate 0, and raises OverflowError from l ~ 710",
)


@pytest.mark.parametrize("n", [pytest.param(2, marks=N2_DRIFTS), *DIMENSIONS[1:]])
def test_series_within_its_estimate(n):
    check_within_estimate(p for p in POINTS if p["n"] == n and (n == 2 or p["l"] >= _SERIES_CUT))


def test_series_estimate_is_not_loose():
    # the even t-series, from the cut on
    assert median_over_estimate(
        p for p in POINTS if p["n"] >= 4 and not p["n"] % 2 and p["l"] >= _SERIES_CUT
    ) < 1e3


def test_series_never_integrates(monkeypatch):
    # n = 3..100 reaches neither integral form, the integrator nor the
    # inner kernel from the cut on (tests/test_odd_kernel.py: below it),
    # and F just below the cut is positive
    forbid_integration(monkeypatch)
    for n in range(3, 101):
        for l in LENGTHS:
            if l >= _SERIES_CUT:
                check_sane(volume_kernel(n, l), n, l)
        assert volume_kernel(n, math.nextafter(_SERIES_CUT, 0.0)).value > 0.0


FROM_CUT = st.one_of(
    st.floats(_SERIES_CUT, 1e4),
    st.floats(math.log(_SERIES_CUT), math.log(1e300)).map(math.exp),
).map(lambda l: max(l, _SERIES_CUT))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 1000).map(lambda k: 2 * k), lengths=st.tuples(ANY_LENGTH, FROM_CUT))
def test_series_positive_and_decreasing(n, lengths):
    # even n = 4..2000 is total on l = 1e-300..1e300 for pairs that reach
    # the cut (kernel_checks.check_total); odd n and pairs below the cut
    # are drawn in tests/test_odd_kernel.py
    check_total(n, *sorted(lengths))


@pytest.mark.parametrize("n", (4, 6, 10, 20, 60, 100, 400, 2000))
def test_t_series_coefficients(n):
    # the first term's (q_0, q_0 e_0), then steps of four (q_K, q_K e_K):
    # q_K = 2(n-2) p_K / (n-1), p_(K+1) = p_K (3-n+2K) / (n+1+2K),
    # correctly rounded; q_K e_K with e_K = c_n - delta_K within e_0 eps
    # of exact, the error the estimate allows; terms run until one at the
    # cut, q_K (cut + e_K) (3/4)^K, is below 2^-60 of the sum there, and
    # on to the end of the first step that starts there or later
    q_0, qe_0, steps = _s_coefficients(n)[7]
    pairs = [(q_0, qe_0)] + [step[j:j + 2] for step in steps for j in range(0, 8, 2)]
    q = Fraction(2 * (n - 2), n - 1)
    with mp.workdps(40):
        e_0 = mp.harmonic(mp.mpf(n - 1) / 2)
        e, total, stops = e_0, mp.mpf(0), []
        for k, (r, re) in enumerate(pairs):
            assert r == float(q)
            assert abs(re - r * e) <= abs(r) * e_0 * EPS + math.ulp(re)
            term = r * (_SERIES_CUT + e) * mp.mpf(0.75) ** k
            total += term
            stops.append(abs(term) <= _BUILD_TAIL * total)
            e -= mp.mpf(n - 1) / ((k + 1) * (n + 1 + 2 * k))
            q *= Fraction(3 - n + 2 * k, n + 1 + 2 * k)
    first = stops.index(True)
    assert 4 * len(steps) - 3 >= first > 4 * len(steps) - 7


class Counted(list):
    """A list that counts the items its iterators hand out."""

    read = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.read += 1
            yield item


@pytest.mark.parametrize("n", (4, 6, 8, 20, 60, 400, 2000))
def test_t_series_rest_bound(n, monkeypatch):
    # each step opens with |q_K / q_0| of its first term K, correctly
    # rounded, and no step is padded: every q_K is a term.  With the
    # rounding part of the estimate off (_EPS = 0) and log c shifted so
    # that F reads about 1 on the log scale, the estimate less an ulp is
    # the tail the kernel reports: at most 2^-54 of S, at least the exact
    # rest of S past the terms it summed, from exact q_K and 40-digit e_K,
    # and the bound its docstring proves, a_0 |q_K / q_0| t^K / (1 - t)
    # over S / l, K the first term of the step it stopped before
    module = importlib.import_module("orthovol.volume_kernel")
    table = _s_coefficients(n)
    q_0, qe_0, steps = table[7]
    steps = Counted(steps)
    q_exact = [Fraction(2 * (n - 2), n - 1)]
    for k in range(4 * len(steps)):
        q_exact.append(q_exact[-1] * Fraction(3 - n + 2 * k, n + 1 + 2 * k))
    assert q_0 == float(q_exact[0])
    for j, step in enumerate(steps):
        assert [step[i] for i in range(0, 8, 2)] == [float(q) for q in q_exact[4 * j + 1:4 * j + 5]]
        assert step[8] == float(abs(q_exact[4 * j + 1] / q_exact[0]))
    for l in (_SERIES_CUT, 0.2, 0.5, 2.0):
        log_f = volume_kernel(n, l).log_value
        with monkeypatch.context() as patch:
            patch.setattr(module, "_EPS", 0.0)
            patch.setattr(module, "_s_coefficients",
                          lambda m: (table[0] - log_f, 0.0, 0.0, 0.0, *table[4:7], (q_0, qe_0, steps)))
            steps.read = 0
            kv = volume_kernel(n, l)
        tail = (kv.err_estimate - math.ulp(kv.value)) / kv.value
        assert 0.0 < tail <= module._SERIES_TAIL
        summed = 1 + 4 * (steps.read - 1)
        with mp.workdps(40):
            t = mp.exp(-2 * mp.mpf(l))
            e = mp.harmonic(mp.mpf(n - 1) / 2)
            a_0 = q_exact[0] * (1 + e / l)
            whole, rest, k, q = mp.mpf(0), mp.mpf(0), 0, q_exact[0]
            while k < summed or abs(term) > mp.mpf(10) ** -45 * abs(whole):
                term = q * t**k * (l + e)
                whole += term
                rest += term if k >= summed else 0
                e -= mp.mpf(n - 1) / ((k + 1) * (n + 1 + 2 * k))
                q *= Fraction(3 - n + 2 * k, n + 1 + 2 * k)
                k += 1
            assert tail >= abs(rest / whole), (l, tail, rest / whole)
            # the bound exceeds the rest by 1.5 to 21 times at these points
            bound = a_0 * abs(q_exact[summed] / q_exact[0]) * t**summed / ((1 - t) * whole / l)
            assert tail == pytest.approx(float(bound), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", (500, 1000, 2000))
def test_large_even_dimensions_return(n):
    # past n = 400 the t-series' log_value stays finite, except where
    # (n-1) l itself passes the largest double; a call below the cut then
    # reads the table the first call built
    _s_coefficients.cache_clear()
    for l in (1.0, _SERIES_CUT, 1e4, 1e300, sys.float_info.max):
        kv = volume_kernel(n, l)
        assert kv.value >= 0.0 and kv.err_estimate > 0.0
        assert math.isfinite(kv.log_value) or (n - 1) * l == math.inf
    misses = _s_coefficients.cache_info().misses
    assert math.isfinite(volume_kernel(n, 1e-3).log_value)
    assert _s_coefficients.cache_info().misses == misses
