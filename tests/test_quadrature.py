"""Tests for the QUADPACK QAGS port behind adaptive_quad.

scipy's quad wraps the original QUADPACK, so on a finite range it must
make the same integrand calls and return the same numbers.  The
closed-form cases need the epsilon extrapolation (end-point
singularities).  Both limits must be finite.
"""

import math

import pytest
from scipy.integrate import quad

from orthovol import NonConvergenceError, QuadratureConfig, inner_kernel
from orthovol.quadrature import DEFAULT_CONFIG, adaptive_quad
from orthovol.volume_kernel import _shape_factor


class Counting:
    """Integrand wrapper that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def radial_integrand(n, l):
    # the integrand of volume_kernel_radial, restated
    a2m1 = math.expm1(2.0 * l)

    def integrand(theta):
        ct = math.cos(theta)
        x = math.sqrt(a2m1 + ct * ct) / ct
        return math.tan(theta) ** (n - 3) * inner_kernel(n, x)

    return integrand


def assert_matches_quadpack(f, lo, hi, abs_tol, rel_tol, limit):
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=1.0, max_subdivisions=limit)
    ours = Counting(f)
    try:
        value, err = adaptive_quad(ours, lo, hi, cfg, abs_tol=abs_tol)
    except NonConvergenceError as exc:
        value, err = exc.value, exc.err_estimate
    theirs = Counting(f)
    ref, ref_err, info = quad(
        theirs, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1
    )[:3]
    assert ours.calls == theirs.calls == info["neval"]
    assert value == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert err == pytest.approx(ref_err, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("l", [1e-3, 0.1, 1.0, 3.0, 12.0])
def test_matches_quadpack_on_the_radial_kernel(n, l):
    cfg = DEFAULT_CONFIG
    assert_matches_quadpack(
        radial_integrand(n, l), 0.0, 0.5 * math.pi,
        cfg.abs_tol / _shape_factor(n), cfg.rel_tol, cfg.max_subdivisions,
    )


@pytest.mark.parametrize("n", [3, 5])
def test_matches_quadpack_on_the_far_radial_kernel(n):
    # pure relative target at l = 20: hundreds of evaluations with the
    # extrapolation working down the error-ordered list
    assert_matches_quadpack(
        radial_integrand(n, 20.0), 0.0, 0.5 * math.pi, 1e-300, 1e-12, 2000
    )


@pytest.mark.parametrize(
    "alpha,c,w,rel_tol,limit",
    [
        (-0.5, 0.0, 1.0, 1e-10, 2000),
        (-0.9, 0.37, 25.0, 1e-12, 2000),
        (0.3, 0.71, 40.0, 1e-13, 2000),
        (-0.7, 0.5, 3.0, 1e-8, 10),
        (1.5, 0.123, 30.0, 1.2e-14, 50),
        (-0.3, 1.0, 10.0, 1e-12, 7),
        # more than 48 extrapolation steps: the epsilon table wraps
        (-0.7567, 0.01317, 33.66, 9.2e-12, 2000),
    ],
)
def test_matches_quadpack_on_singular_integrands(alpha, c, w, rel_tol, limit):
    # |x - c|^alpha (1 + sin(w x)) on [0, 1]: end-point and interior
    # singularities, oscillation, and small subdivision budgets reach the
    # extrapolation, the roundoff counters and the limit exit
    def f(x):
        return abs(x - c) ** alpha * (1.0 + math.sin(w * x)) if x != c else 0.0

    assert_matches_quadpack(f, 0.0, 1.0, 1e-300, rel_tol, limit)


@pytest.mark.parametrize(
    "f,exact",
    [(math.log, -1.0), (lambda x: x ** -0.5, 2.0)],
    ids=["log", "inverse_sqrt"],
)
def test_end_point_singularities_extrapolate(f, exact):
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)
    ours = Counting(f)
    value, err = adaptive_quad(ours, 0.0, 1.0, cfg)
    assert abs(value - exact) <= 1e-12
    assert err <= 1e-12
    # without the extrapolation both take hundreds of subintervals
    _, _, info = quad(f, 0.0, 1.0, epsabs=1e-300, epsrel=1e-12, full_output=1)
    assert ours.calls == info["neval"] < 1000


def test_infinite_limits_raise():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            adaptive_quad(lambda x: math.exp(-abs(x)), lo, hi)


@pytest.mark.parametrize(
    "f,cfg",
    [
        (lambda x: 1.0 / x, DEFAULT_CONFIG),
        (math.log, QuadratureConfig(max_subdivisions=1)),
    ],
    ids=["divergent", "one_subdivision"],
)
def test_missed_target_raises_with_a_finite_value(f, cfg):
    with pytest.raises(NonConvergenceError) as exc_info:
        adaptive_quad(f, 0.0, 1.0, cfg)
    assert math.isfinite(exc_info.value.value)
    assert exc_info.value.err_estimate > 0.0
