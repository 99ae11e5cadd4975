"""Tests for adaptive_quad, scipy's QUADPACK behind the tests' reference integrals.

adaptive_quad is scipy's quad with the module's targets, read at each
call: both limits finite, the absolute floor divided by the caller's
scale, and a missed target raised with the partial value and its
estimate.  volume_kernel itself integrates nothing.
"""

import math

import pytest
from scipy.integrate import quad

from orthovol import NonConvergenceError, inner_kernel, quadrature, volume_kernel
from orthovol.quadrature import (
    _ABS_TOL,
    _MAX_SUBDIVISIONS,
    _REL_TOL,
    adaptive_quad,
)
from orthovol.volume_kernel import _shape_factor, volume_kernel_radial


class Counting:
    """Integrand wrapper that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def radial_integrand(n, l):
    # the integrand of volume_kernel_radial, restated
    a2m1 = math.expm1(2.0 * l)

    def integrand(theta):
        ct = math.cos(theta)
        x = math.sqrt(a2m1 + ct * ct) / ct
        return math.tan(theta) ** (n - 3) * inner_kernel(n, x)

    return integrand


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("l", [1e-3, 0.1, 1.0, 3.0, 12.0])
def test_matches_quadpack_on_the_radial_kernel(n, l):
    # the radial reference is QUADPACK on the restated integrand, with
    # the absolute floor divided by the shape factor it multiplies by
    shape = _shape_factor(n)
    value, err = quad(
        radial_integrand(n, l), 0.0, 0.5 * math.pi, epsabs=_ABS_TOL / shape,
        epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS, full_output=1,
    )[:2]
    kv = volume_kernel_radial(n, l)
    assert (kv.value, kv.err_estimate) == (shape * value, shape * err)


@pytest.mark.parametrize("n", [3, 5])
def test_matches_quadpack_on_the_far_radial_kernel(monkeypatch, n):
    # F_n(20) is below the absolute floor; with a pure relative target,
    # read at the call, the radial integral meets the series within the
    # two estimates
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-12)
    shape = _shape_factor(n)
    value, err = adaptive_quad(radial_integrand(n, 20.0), 0.0, 0.5 * math.pi, shape)
    kv = volume_kernel(n, 20.0)
    assert err <= 1e-12 * abs(value)
    assert abs(shape * value - kv.value) <= shape * err + kv.err_estimate


# int_0^1 |x - c|^alpha (1 + sin(w x)) dx to 20 digits, from mpmath at
# 40 digits after u = |x - c|^(alpha + 1) on either side of c, which
# leaves a smooth integrand
SINGULAR_EXACT = {
    (-0.5, 0.0, 1.0): 2.6205366034467622036,
    (-0.9, 0.37, 25.0): 21.007409401968597917,
    (0.3, 0.71, 40.0): 0.68195907628280380066,
    (-0.7, 0.5, 3.0): 10.099406292620196958,
    (1.5, 0.123, 30.0): 0.2860324427105116938,
    (-0.3, 1.0, 10.0): 1.6578693995462140667,
    (-0.7567, 0.01317, 33.66): 7.2113222065349156779,
}
# where QAGS's extrapolated value misses SINGULAR_EXACT by more than its
# own estimate (5.5e-3 against 7.1e-4)
QAGS_MISSES = {(-0.7567, 0.01317, 33.66)}


@pytest.mark.parametrize(
    "alpha,c,w,rel_tol,limit",
    [
        (-0.5, 0.0, 1.0, 1e-10, 2000),
        (-0.9, 0.37, 25.0, 1e-12, 2000),
        (0.3, 0.71, 40.0, 1e-13, 2000),
        (-0.7, 0.5, 3.0, 1e-8, 10),
        (1.5, 0.123, 30.0, 1.2e-14, 50),
        (-0.3, 1.0, 10.0, 1e-12, 7),
        (-0.7567, 0.01317, 33.66, 9.2e-12, 2000),
    ],
)
def test_matches_quadpack_on_singular_integrands(monkeypatch, alpha, c, w, rel_tol, limit):
    # |x - c|^alpha (1 + sin(w x)) on [0, 1] under the targets and
    # subdivision budgets given: a met target returns an estimate within
    # it, a missed one raises with a finite value, and either way the
    # estimate bounds the true error
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quadrature, "_REL_TOL", rel_tol)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", limit)

    def f(x):
        return abs(x - c) ** alpha * (1.0 + math.sin(w * x)) if x != c else 0.0

    try:
        value, err = adaptive_quad(f, 0.0, 1.0, 1.0)
        assert err <= rel_tol * abs(value)
    except NonConvergenceError as exc:
        value, err = exc.value, exc.err_estimate
        assert math.isfinite(value) and err > rel_tol * abs(value)
    if (alpha, c, w) not in QAGS_MISSES:
        assert abs(value - SINGULAR_EXACT[alpha, c, w]) <= err


@pytest.mark.parametrize("n,l", [(3, 12.0), (8, 3.0)])
def test_first_rule_exit_is_the_rule_itself(n, l):
    # one 21-point rule meets the target: 21 integrand calls
    f = Counting(radial_integrand(n, l))
    shape = _shape_factor(n)
    value, err = adaptive_quad(f, 0.0, 0.5 * math.pi, shape)
    assert f.calls == 21
    assert err <= max(_ABS_TOL / shape, _REL_TOL * value)


@pytest.mark.parametrize(
    "f,exact",
    [(math.log, -1.0), (lambda x: x ** -0.5, 2.0)],
    ids=["log", "inverse_sqrt"],
)
def test_end_point_singularities_converge(f, exact):
    value, err = adaptive_quad(f, 0.0, 1.0, 1.0)
    assert abs(value - exact) <= err <= _REL_TOL * abs(value)


def test_non_convergence_gives_up_early():
    # the radial integral of F_13 at l = 7.3e-9 (volume_kernel takes the
    # closed form there): the integrand is rounding noise near theta = 0,
    # and the missed target raises
    with pytest.raises(NonConvergenceError):
        volume_kernel_radial(13, 7.30963e-9)


# F_n(l) at the two points, from the 60-digit hypergeometric form of
# tests/gen_kernel_reference.py; the benchmark's reference table
# matches both to 1.2e-16
NAN_BAND_KERNEL = {
    (39, 3.21403e-9): "1.6068761201788042585e+295",
    (41, 8.24944e-9): "6.5176490438167504898e+294",
}


@pytest.mark.parametrize("n,l", NAN_BAND_KERNEL)
def test_non_finite_rule_raises_at_once(n, l):
    # the inner kernel's closed form overflows to nan in a band of b - 1
    # for n >= 38, which raises ArithmeticError: it leaves the radial
    # integrand through scipy's quad at once, where it used to turn the
    # estimate nan.  volume_kernel takes the s-series there, within its
    # estimate of F.
    with pytest.raises(ArithmeticError, match="closed form gives nan"):
        volume_kernel_radial(n, l)
    kv = volume_kernel(n, l)
    assert abs(kv.value - float(NAN_BAND_KERNEL[n, l])) <= kv.err_estimate


def test_non_finite_piece_raises_at_once():
    # nan only past x = 0.999, which the first rule does not sample: the
    # bisection toward the singularity at 1 meets it
    with pytest.raises(NonConvergenceError, match="nan"):
        adaptive_quad(lambda x: math.nan if x > 0.999 else (1.0 - x) ** -0.5, 0.0, 1.0, 1.0)


def test_infinite_limits_raise():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            adaptive_quad(lambda x: math.exp(-abs(x)), lo, hi, 1.0)


@pytest.mark.parametrize(
    "f,budget",
    [(lambda x: 1.0 / x, _MAX_SUBDIVISIONS), (math.log, 1)],
    ids=["divergent", "one_subdivision"],
)
def test_missed_target_raises_with_a_finite_value(monkeypatch, f, budget):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", budget)
    with pytest.raises(NonConvergenceError) as exc_info:
        adaptive_quad(f, 0.0, 1.0, 1.0)
    assert math.isfinite(exc_info.value.value)
    assert exc_info.value.err_estimate > 0.0
