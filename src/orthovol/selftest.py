"""Built-in consistency checks, runnable from the command line.

Two suites: the fast one exercises closed forms against frozen values
and cheap identities, the full one adds the slow integral and Monte
Carlo oracles.  Each check returns a short detail string; any raised
exception marks the check failed.  These guard against a broken build
or numerics regression, not against misuse.
"""

from __future__ import annotations

import math
from typing import Callable

from .bounds import collar_volume_factor, volume_bound
from .inner_kernel import (
    inner_kernel,
    inner_kernel_3d,
    inner_kernel_4d,
    inner_kernel_asymptotics,
    inner_kernel_integral,
)
from .quadrature import QuadratureConfig, adaptive_quad
from .special import gamma_half_integer, rogers_l
from .volume_kernel import (
    chord_length,
    chord_length_nd,
    small_length_constant,
    surface_kernel,
    surface_kernel_integral,
    volume_kernel_alt,
    volume_kernel_montecarlo,
    volume_kernel_radial,
)

__all__ = ["run_selftest"]


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def check_gamma_values() -> str:
    worst = 0.0
    x = 0.5
    while x <= 12.0:
        worst = max(worst, _rel(gamma_half_integer(x), math.gamma(x)))
        x += 0.5
    assert worst < 1e-13, f"gamma mismatch {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_small_length_constants() -> str:
    # the two dimensions whose constants reduce by hand: pi/2 and 1
    assert _rel(small_length_constant(3), math.pi / 2.0) < 1e-14
    assert _rel(small_length_constant(4), 1.0) < 1e-14
    return "dims 3, 4 exact"


def check_specializations() -> str:
    worst = 0.0
    for b in (1.01, 1.1, 2.0, 10.0, 1000.0):
        worst = max(worst, _rel(inner_kernel(3, b), inner_kernel_3d(b)))
        worst = max(worst, _rel(inner_kernel(4, b), inner_kernel_4d(b)))
    assert worst < 1e-12, f"specialization drift {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_near_one_limit() -> str:
    worst = 0.0
    b = 1.0 + 1e-6
    for n in range(3, 9):
        target = inner_kernel_asymptotics(n).near_one_coefficient
        got = (b - 1.0) ** (n - 2) * inner_kernel(n, b)
        worst = max(worst, _rel(got, target))
    assert worst < 1e-3, f"near-boundary deviation {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_collar_factor() -> str:
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-14)
    worst = 0.0
    for n in range(2, 9):
        for r in (0.1, 1.0, 4.0):
            direct, _ = adaptive_quad(lambda t: math.cosh(t) ** (n - 1), 0.0, r, cfg)
            worst = max(worst, _rel(collar_volume_factor(n, r), direct))
    assert worst < 1e-12, f"collar factor drift {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_surface_anchors() -> str:
    limit_dev = _rel(surface_kernel(1e-4), 2.0 * math.pi / 3.0)
    assert limit_dev < 1e-3, f"small-length limit off by {limit_dev:.2e}"
    worst = 0.0
    for x in (0.1, 0.3, 0.5, 0.7, 0.9):
        s = rogers_l(x) + rogers_l(1.0 - x)
        worst = max(worst, _rel(s, math.pi ** 2 / 6.0))
    assert worst < 1e-13, f"reflection identity off by {worst:.2e}"
    return f"limit dev {limit_dev:.1e}, reflection {worst:.1e}"


def check_representations() -> str:
    # pure relative target: the kernel at large n and l drops below any
    # fixed absolute floor and the comparison is relative
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-300)
    worst = 0.0
    for n, l in ((3, 1.0), (5, 2.0), (8, 0.1)):
        vr = volume_kernel_radial(n, l, cfg)
        va = volume_kernel_alt(n, l, cfg)
        worst = max(worst, _rel(vr.value, va.value))
    assert worst < 1e-8, f"representations disagree {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_chords() -> str:
    v = chord_length(0.5, 3.0, 2.0)
    assert _rel(v, 0.5 * math.log(8.0)) < 1e-12
    w = chord_length_nd(3, [0.5, 0.0], [3.0, 0.0], 2.0)
    assert _rel(v, w) < 1e-12, "collinear reduction drifted"
    return f"value {v:.12g}"


def check_crossing_residual() -> str:
    area = 4.0 * math.pi
    res = volume_bound(3, area)
    gap = res.bound - area * collar_volume_factor(3, res.crossing_length)
    assert abs(gap) <= 1e-8 * res.bound, f"crossing residual {gap:.2e}"
    return f"bound {res.bound:.6f}, residual {gap:.1e}"


def check_small_length_law() -> str:
    worst = 0.0
    l = 1e-3
    for n in (3, 4):
        got = volume_kernel_radial(n, l).value * l ** (n - 2)
        worst = max(worst, _rel(got, small_length_constant(n)))
    assert worst < 5e-3, f"small-length law off by {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_kernel_oracle() -> str:
    cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-300)
    worst = 0.0
    for n in (3, 5, 8):
        for b in (1.1, 2.0, 10.0):
            kv = inner_kernel_integral(n, b, cfg)
            worst = max(worst, _rel(kv.value, inner_kernel(n, b)))
    assert worst < 1e-6, f"kernel oracle disagrees {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_surface_oracle() -> str:
    cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-300)
    worst = 0.0
    for l in (0.1, 1.0, 3.0):
        kv = surface_kernel_integral(l, cfg)
        worst = max(worst, _rel(kv.value, surface_kernel(l)))
    assert worst < 1e-6, f"surface oracle disagrees {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_montecarlo() -> str:
    kv = volume_kernel_montecarlo(3, 1.0, samples=2_000_000, seed=7)
    truth = volume_kernel_radial(3, 1.0).value
    z = (kv.value - truth) / kv.err_estimate
    assert abs(z) < 4.0, f"sampling estimate off by {z:.1f} standard errors"
    return f"z {z:+.2f}"


def check_representation_grid() -> str:
    cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-300)
    worst = 0.0
    for n in range(3, 9):
        for l in (0.1, 0.5, 1.0, 2.0, 4.0):
            vr = volume_kernel_radial(n, l, cfg)
            va = volume_kernel_alt(n, l, cfg)
            worst = max(worst, _rel(vr.value, va.value))
    assert worst < 1e-8, f"representations disagree {worst:.2e}"
    return f"worst rel {worst:.1e}"


def check_bound_ladder() -> str:
    values = [volume_bound(3, a).bound for a in (1.0, 4.0, 16.0, 64.0)]
    for small, large in zip(values, values[1:]):
        assert large > small, "bound not increasing in area"
    return f"bound(1) {values[0]:.4f} .. bound(64) {values[-1]:.4f}"


_FAST: list[tuple[str, Callable[[], str]]] = [
    ("gamma_values", check_gamma_values),
    ("small_length_constants", check_small_length_constants),
    ("specializations", check_specializations),
    ("near_one_limit", check_near_one_limit),
    ("collar_factor", check_collar_factor),
    ("surface_anchors", check_surface_anchors),
    ("representations", check_representations),
    ("chords", check_chords),
    ("crossing_residual", check_crossing_residual),
    ("small_length_law", check_small_length_law),
]

_FULL: list[tuple[str, Callable[[], str]]] = [
    ("kernel_oracle", check_kernel_oracle),
    ("surface_oracle", check_surface_oracle),
    ("montecarlo", check_montecarlo),
    ("representation_grid", check_representation_grid),
    ("bound_ladder", check_bound_ladder),
]


def run_selftest(full: bool = False, write=print) -> int:
    """Run the checks, print one line each, return the failure count."""
    checks = _FAST + _FULL if full else _FAST
    failures = 0
    for name, fn in checks:
        try:
            detail = fn()
        except Exception as exc:
            failures += 1
            write(f"FAIL {name}: {exc}")
        else:
            write(f"ok   {name} ({detail})")
    write(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures
