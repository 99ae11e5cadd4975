"""Built-in consistency checks, runnable as `orthovol selftest`.

Each check evaluates production code at a few points, compares it with
a value known in closed form, and returns the worst relative deviation;
the registry pairs it with the tolerance that deviation must meet.  A
raised exception also fails the check.  pytest runs the same registry,
so each check is written once.  These guard against a broken build or
numerics regression, not against misuse.
"""

from __future__ import annotations

import math
from typing import Callable

from .bounds import volume_bound
from .inner_kernel import inner_kernel
from .special import harmonic
from .volume_kernel import small_length_constant, volume_kernel

__all__ = ["CHECKS", "run_selftest"]


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def check_small_length_constants() -> float:
    # the two dimensions whose constants reduce by hand: pi/2 and 1
    return max(
        _rel(small_length_constant(3)[0], math.pi / 2.0),
        _rel(small_length_constant(4)[0], 1.0),
    )


def check_small_length_logs() -> float:
    # log(l^(n-2) F_n(l)) at l = 1e-12 against log K_n for n = 3..228, from
    # log_value: past n ~ 35, F_n(1e-12) overflows
    l = 1e-12
    return max(
        abs(volume_kernel(n, l).log_value + (n - 2) * math.log(l) - small_length_constant(n)[1])
        for n in range(3, 229)
    )


def check_near_one_limit() -> float:
    # (b-1)^(n-2) m_n(b) at b = 1 + 1e-6 against its limit as b -> 1,
    # 2 H_(n-2) / ((n-1)(n-2)), rounded once
    b = 1.0 + 1e-6
    worst = 0.0
    for n in range(3, 9):
        h, d = harmonic(n - 2)
        limit = 2 * h / (d * (n - 1) * (n - 2))
        worst = max(worst, _rel((b - 1.0) ** (n - 2) * inner_kernel(n, b), limit))
    return worst


def check_surface_limit() -> float:
    # the n = 2 kernel tends to 2 pi / 3 as l -> 0
    return _rel(volume_kernel(2, 1e-4).value, 2.0 * math.pi / 3.0)


def check_small_length_law() -> float:
    # l^(n-2) F_n(l) at l = 1e-3 against the small-length constant, from
    # the s-series for n = 3, 4, 5
    l = 1e-3
    return max(
        _rel(volume_kernel(n, l).value * l ** (n - 2), small_length_constant(n)[0])
        for n in (3, 4, 5)
    )


def check_bound_crossing() -> float:
    # the solved crossing for n = 3 at area 4 pi (a genus-2 boundary) in
    # the elementary equation pi (1 + 2x) / (e^(4x) - 1) = A (x/2 + sinh(2x)/4)
    area = 4.0 * math.pi
    x = volume_bound(3, area).crossing_length
    return _rel(
        math.pi * (1.0 + 2.0 * x) / math.expm1(4.0 * x),
        area * (0.5 * x + 0.25 * math.sinh(2.0 * x)),
    )


# (name, check, bound on the worst relative deviation it returns).  Each
# limit check is bounded by twice the first term its limit drops at the
# probe point:
# - near_one_limit: (b-1)^(n-2) m_n(b) over its limit is 1 + O((b-1)^2),
#   with no (b-1) term.  For n = 3 the term is (1/4)(b-1)^2 log(1/(b-1))
#   plus 0.048 (b-1)^2, 3.5e-12 at b - 1 = 1e-6; for n = 4..8 it is
#   c_n (b-1)^2 with c_n <= 1/4 (80-digit mpmath).
# - surface_limit: 2 pi/3 - F_2(l) = (4/pi) L(y) with y = tanh^2(l/2), and
#   L(y) = y (1 - log(y)/2) + O(y^2 log y): 1.66e-8 of 2 pi/3 at l = 1e-4.
# - small_length_law: l^(n-2) F_n(l) / K_n = 1 - c_n l^2 + o(l^2), with
#   c_3 = 2/3 from F_3 = pi (1 + l)/(e^(2l) - 1), c_4 = pi^2/9 - 1/3
#   (identified to 1e-9 from 30-digit radial integrals at l <= 1e-4) and
#   c_5 = 10/11 (to 1e-8 from 60-digit hypergeometric values at
#   l <= 1e-4): 9.1e-7 at l = 1e-3, 1.65 times of which is the bound.
# - small_length_logs: c_n l^2 < 1e-18 at l = 1e-12, so rounding bounds
#   it: log_value within eps (6n + 3 + 5 S') of log F, S' <= 6,400 (7.4e-12
#   at n = 228); (n-2) log l within 1.5 ulp of 6,245 (1.4e-12); log K_n
#   within 4 eps |log K_n| (4.1e-13).
# bound_crossing: the solve pins t = log x to within
# 1e-15 + 8.9e-16 |t| = 2.3e-15 at x = 0.233, where h(t) has slope -2.26,
# so the equation's log residual is at most 5.2e-15; the kernel's own
# estimate there is 3.3e-15 and the rounding of both sides a few eps.
CHECKS: list[tuple[str, Callable[[], float], float]] = [
    ("small_length_constants", check_small_length_constants, 1e-14),
    ("small_length_logs", check_small_length_logs, 1e-11),
    ("near_one_limit", check_near_one_limit, 7e-12),
    ("surface_limit", check_surface_limit, 3.3e-8),
    ("small_length_law", check_small_length_law, 1.5e-6),
    ("bound_crossing", check_bound_crossing, 1e-14),
]


def run_selftest(write=print) -> int:
    """Run the checks, print one line each, return the failure count."""
    failures = 0
    for name, check, tol in CHECKS:
        try:
            worst = check()
        except Exception as exc:
            failures += 1
            write(f"FAIL {name}: {type(exc).__name__}: {exc}")
            continue
        if worst <= tol:
            write(f"ok   {name} (worst rel {worst:.1e} <= {tol:.1e})")
        else:
            failures += 1
            write(f"FAIL {name}: worst rel {worst:.2e} > {tol:.1e}")
    write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
