"""Acceptance suite: the headline checks for this package.

Each test pins one advertised behavior end to end, at the tolerance the
behavior is advertised with, and no other test repeats it.  The two
asymptotic laws (the far-field inner kernel and the large-length volume
kernel) are checked against their exact two-term expansions at finite
probe points, with the second-term constants tabulated below and derived
in the test docstrings; the companion trend tests pin the approach rates.
The rest of the ten headline checks live where their stricter form is:
the sphere-area bound (C2) in test_bounds.test_volume_bound_sphere_area,
the surface kernel against its integral (C6) in
test_volume_kernel.test_surface_kernel_matches_integral, the small-length
law (C7) in the selftest registry's small_length_law and the 40-digit
kernel table, and the collar factor's domination and convexity (the
third C10) in test_bounds.  The near-boundary limit of the inner kernel
and the small-length limit of the surface kernel are checks of the
selftest registry, which tests/test_selftest.py runs.
"""

import math

import mpmath as mp
import pytest

from oracles import inner_kernel_integral, volume_kernel_montecarlo
from orthovol import (
    inner_kernel,
    small_length_constant,
    volume_bound,
    volume_kernel,
)
from orthovol.inner_kernel import _far_field_coefficients
from orthovol.volume_kernel import (
    _coef_rational,
    _pi_rational,
    volume_kernel_alt,
    volume_kernel_radial,
)

# K_n = num / den pi^p, the closed forms kn prints for n <= 12
SMALL_LENGTH_TABLE = [
    (3, 1, 2, 1),
    (4, 1, 1, 0),
    (5, 11, 192, 2),
    (6, 5, 54, 1),
    (7, 137, 30720, 3),
    (8, 7, 1125, 2),
    (9, 121, 458752, 4),
    (10, 761, 2315250, 3),
    (11, 7129, 566231040, 5),
    (12, 1342, 93767625, 4),
]


# r_n in b^(n-1) inner_kernel(n, b) = (4/(n-1)) (log b + r_n) + O(log b / b^2)
FAR_FIELD_OFFSET_TABLE = [
    (3, 1.5 - math.log(2.0)),
    (4, 7.0 / 3.0 - 2.0 * math.log(2.0)),
    (5, 7.0 / 4.0 - math.log(2.0)),
    (6, 38.0 / 15.0 - 2.0 * math.log(2.0)),
    (7, 23.0 / 12.0 - math.log(2.0)),
    (8, 281.0 / 105.0 - 2.0 * math.log(2.0)),
]

# c_n in volume_kernel(n, l) = coef_n (l + c_n) e^(-(n-1) l) (1 + O(e^(-2l)))
LARGE_LENGTH_OFFSET_TABLE = [
    (3, 1.0),
    (4, 8.0 / 3.0 - 2.0 * math.log(2.0)),
    (5, 1.5),
]


def test_c01_small_length_constant_table():
    # the range kn prints by default, within 3 ulp of each closed form
    with mp.workdps(40):
        for n, num, den, p in SMALL_LENGTH_TABLE:
            want = mp.mpf(num) / den * mp.pi**p
            assert abs(small_length_constant(n)[0] - want) <= 3 * math.ulp(float(want))


@pytest.mark.parametrize("n", range(3, 9))
def test_c03_inner_kernel_oracle_grid(n):
    for b in (1.1, 1.5, 2.0, 5.0, 10.0, 100.0):
        closed = inner_kernel(n, b)
        oracle = inner_kernel_integral(n, b, rel_tol=1e-8)
        assert oracle.value == pytest.approx(closed, rel=1e-6)


def test_c04_inner_kernel_far_field_asymptote():
    """The log-scaled far field at b = 1e6 against its two-term expansion.

    Expanding the closed form in t = 1/b (sympy, with log(b +- 1) =
    log b + log(1 +- t)) gives
    b^(n-1) inner_kernel(n, b) = (4/(n-1)) (log b + r_n) + O(log b / b^2);
    the 1/b term cancels.  In general
    r_n = 1 + sum(1/j : 1 <= j <= n-1, j = n-1 mod 2) - e_n log 2 with
    e_n = 2 for even n and 1 for odd n, tabulated in
    FAR_FIELD_OFFSET_TABLE.  So b^(n-1)/log(b) inner_kernel(n, b) equals
    (4/(n-1)) (1 + r_n / log b), not the limit 4/(n-1), which it misses
    by 5.8% to 9.3% at b = 1e6 for n = 3..8.  inner_kernel (there the
    far-field series) meets the two-term value to 1.0e-12 to 9.6e-12,
    the size of the next term; the closed form missed it by up to 6.5e-11
    there, most of it rounding.  A 1% error in 4/(n-1) or in r_n moves
    the value by at least 5e-4.  The series' own leading coefficients
    give the same offset, r_n = beta_0 / alpha_0 (stored times 9^-j, which
    is 1 at j = 0).
    """
    for n, r in FAR_FIELD_OFFSET_TABLE:
        want = 4.0 / (n - 1) * (1.0 + r / math.log(1e6))
        got = 1e6 ** (n - 1) / math.log(1e6) * inner_kernel(n, 1e6)
        assert got == pytest.approx(want, rel=1e-6)
        alpha, beta = _far_field_coefficients(n)
        assert beta[0] / alpha[0] == pytest.approx(r, rel=1e-15)


@pytest.mark.parametrize("n", range(3, 9))
def test_c05_representation_equivalence(n):
    for l in (0.1, 0.5, 1.0, 2.0, 4.0):
        radial = volume_kernel_radial(n, l)
        shell = volume_kernel_alt(n, l)
        assert radial.value == pytest.approx(shell.value, rel=1e-8)


def test_c08_large_length_law():
    """The exponential decay at l = 8 against its two-term law.

    For large l the radial argument is x = e^l sec(theta) (1 + O(e^(-2l))),
    and the far-field expansion of the inner kernel (see
    FAR_FIELD_OFFSET_TABLE) with log x = l - log cos(theta) turns the
    radial integral into
    volume_kernel(n, l) = coef_n (l + c_n) e^(-(n-1) l) (1 + O(e^(-2l))),
    coef_n = shape_n (4/(n-1)) I_n, c_n = r_n + J_n / I_n, where
    I_n = int_0^(pi/2) sin^(n-3) cos^2 and
    J_n = -int_0^(pi/2) sin^(n-3) cos^2 log cos.  Both are Beta-function
    integrals, J_n / I_n = (psi((n+1)/2) - psi(3/2)) / 2, which gives the
    LARGE_LENGTH_OFFSET_TABLE values c_3 = 1, c_4 = 8/3 - 2 log 2 and
    c_5 = 3/2.  So e^((n-1)l)/l volume_kernel(n, l) equals
    coef_n (1 + c_n / l), not coef_n, which it misses by 12.5%, 16.0% and
    18.8% at l = 8.  The quadrature meets the two-term value to 1.1e-7,
    2.0e-7 and 3.0e-7, the size of the next term e^(-16).  A 1% error in
    coef_n or c_n moves the value by at least 1.1e-3.
    """
    for n, c in LARGE_LENGTH_OFFSET_TABLE:
        kv = volume_kernel(n, 8.0)
        scaled = math.exp((n - 1) * 8.0) / 8.0 * kv.value
        want = _pi_rational(*_coef_rational(n))[0] * (1.0 + c / 8.0)
        assert scaled == pytest.approx(want, rel=1e-5)


def test_c08_large_length_trend():
    # dev(l) = |scaled/coef - 1| behaves as c_n/l: doubling l halves it
    # to five decimal places.
    for n in (3, 4, 5):
        coef = _pi_rational(*_coef_rational(n))[0]
        devs = []
        for l in (8.0, 16.0):
            kv = volume_kernel(n, l)
            scaled = math.exp((n - 1) * l) / l * kv.value
            devs.append(abs(scaled / coef - 1.0))
        assert devs[1] == pytest.approx(0.5 * devs[0], rel=1e-3)


def test_c09_montecarlo_oracle():
    for l, seed in ((1.0, 20260801), (2.0, 20260802)):
        mc = volume_kernel_montecarlo(3, l, samples=10_000_000, seed=seed)
        ref = volume_kernel_radial(3, l)
        assert abs(mc.value - ref.value) <= 3.0 * mc.err_estimate
        assert mc.err_estimate <= 0.01 * ref.value


def test_c10_kernel_strictly_decreasing():
    for n in range(3, 7):
        values = [
            volume_kernel(n, 0.05 * k).value for k in range(1, 101)
        ]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_c10_bound_strictly_increasing():
    for n in (3, 4, 5):
        areas = [2.0**k for k in range(0, 11)]
        bounds = [volume_bound(n, a).bound for a in areas]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
