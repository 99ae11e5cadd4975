"""The solvers' error type, and the adaptive quadrature behind the tests' references.

volume_kernel sums series and integrates nothing; the inner kernel's
integral, kept in two parametrizations as the series' reference, runs
on scipy's QUADPACK (QAGS: Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, QUADPACK, Springer 1983).  scipy belongs to the test extra and
is imported only when an integral is taken, so importing the package
and every CLI command stay on the standard library.

adaptive_quad adds the policy: one error target (relative 1e-9, with
an absolute floor of 1e-12 on the caller's scaled result), one budget
of 2000 subdivisions, finite limits only, and a missed target raised
as an exception instead of a warning.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["NonConvergenceError", "adaptive_quad"]

# the error target, max(_ABS_TOL, _REL_TOL |value|) on the scaled
# result, and the most pieces QUADPACK may hold
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_SUBDIVISIONS = 2000


class NonConvergenceError(RuntimeError):
    """Raised when a numerical solve cannot meet its target.

    adaptive_quad raises it when an integral misses its error target,
    and volume_bound when it cannot bracket the collar crossing or false
    position does not converge on it.  Carries the best value and error
    estimate seen (nan where there is none) so callers can report them.
    """

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def adaptive_quad(
    integrand: Callable[[float], float], lo: float, hi: float, scale: float
) -> tuple[float, float]:
    """Integrate integrand over (lo, hi) for a caller that multiplies by scale.

    Both limits must be finite.  The absolute floor is divided by scale,
    so that the scaled error estimate meets the module's target.
    Returns (value, err_estimate); raises NonConvergenceError unless the
    estimate meets max(abs floor / scale, rel target * |value|), which a
    nan or infinite estimate never does.
    """
    from scipy.integrate import quad

    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    eps_abs = _ABS_TOL / scale
    value, err = quad(
        integrand, lo, hi, epsabs=eps_abs, epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS, full_output=1,
    )[:2]
    target = max(eps_abs, _REL_TOL * abs(value))
    if not err <= target:
        raise NonConvergenceError(
            f"integral error estimate {err:.3e} exceeds target {target:.3e}",
            value,
            err,
        )
    return value, err
