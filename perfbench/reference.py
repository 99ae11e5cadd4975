"""Frozen reference values and the rule that classifies each operation.

``reference.json`` is written by ``gen_reference.py`` (mpmath); this module
only reads it.  Spectrum lengths get their reference from the per-dimension
Chebyshev interpolant, evaluated in extended precision so that forming ln l
and the e^((n-1) l) scale costs no digits at l = 12.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Double rounding in the library's last operations and the reference's own
# certified error (interpolant checks below 1e-15, mpmath at 25 digits) are
# both far below this floor; it only spares exact-looking results such as
# the n = 2 closed form, whose err_estimate is 0, from failing on an ulp.
REL_FLOOR = 32 * 2.0 ** -52

# accuracy_digits is capped here: a double carries about 16 digits
MAX_DIGITS = 16.0

OK = "ok"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class SpectrumReference:
    """F_n(l) for l in the spectrum range, from the frozen interpolant."""

    def __init__(self, section: dict):
        self._panels = {}
        for n, entry in section.items():
            self._panels[int(n)] = [
                (np.longdouble(p["s_lo"]), np.longdouble(p["s_hi"]),
                 np.array([np.longdouble(c) for c in p["coeffs"]]))
                for p in entry["panels"]
            ]

    @property
    def dims(self) -> list[int]:
        return sorted(self._panels)

    def values(self, n: int, lengths) -> np.ndarray:
        """Reference kernel values (float64) at the given lengths."""
        l = np.asarray(lengths, dtype=np.longdouble)
        s = np.log(l)
        g = np.empty_like(s)
        done = np.zeros(s.shape, dtype=bool)
        for lo, hi, coeffs in self._panels[n]:
            sel = (s >= lo - 1e-12) & (s <= hi + 1e-12) & ~done
            t = (2 * s[sel] - lo - hi) / (hi - lo)
            g[sel] = np.polynomial.chebyshev.chebval(t, coeffs)
            done |= sel
        if not done.all():
            raise ValueError("length outside the reference range")
        # g = log(F l^(n-2) e^((n-1) l) / (1+l)^(n-1))
        logf = g - (n - 2) * s - (n - 1) * l + (n - 1) * np.log1p(l)
        return np.exp(logf).astype(np.float64)


def classify(value, err, ref) -> str:
    """Status of one kernel-valued output against its reference.

    An operation fails when it returned a non-finite or non-positive value,
    or missed the reference by more than the error it reported (a call that
    raised is classified by the workload before it gets here).  ref may be
    None when the reference could not be computed: then only the first two
    tests apply.  Past the double range ref is 0 or inf.
    """
    if not math.isfinite(value):
        return "nonfinite"
    if not value > 0.0:
        return "nonpositive"
    if ref is None:
        return OK
    # a reference past the double range (inf) is missed by every double
    if math.isinf(ref) or abs(value - ref) > err + REL_FLOOR * abs(ref):
        return "miss"
    return OK


def digits(value: float, ref: float) -> float:
    """-log10 of the relative error, capped at MAX_DIGITS."""
    rel = abs(value - ref) / abs(ref)
    if rel <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(rel))
