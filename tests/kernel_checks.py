"""The 40-digit reference table of F_n(l) and the rules the kernel tests share.

tests/data/kernel_reference.json (written by tests/gen_kernel_reference.py)
holds F_n(l) and log F_n(l) to 20 digits for n = 2..2001 and
l = 1e-300..1e300.  tests/test_odd_kernel.py gates its rows below
l = ln(4/3) / 2, tests/test_series.py those from there on and every row of
n = 2, each row once and all by one rule.
"""

import importlib
import json
import math
import os
import statistics
import sys

from hypothesis import strategies as st

from orthovol import volume_kernel
from orthovol.volume_kernel import _SERIES_CUT

EPS = sys.float_info.epsilon
TINY = sys.float_info.min
HUGE = sys.float_info.max
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "kernel_reference.json")

with open(PATH) as fh:
    POINTS = json.load(fh)["points"]

LENGTHS = (5e-324, 1e-300, 1e-12, 0.1, math.nextafter(_SERIES_CUT, 0.0),
           _SERIES_CUT, 0.5, 1.0, 5.0, 50.0, 400.0, 1e4, 1e300, HUGE)

# from 1e-12..1e4, or log-uniform on 1e-300..1e300
ANY_LENGTH = st.one_of(
    st.floats(1e-12, 1e4),
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
)


def log_bound(n, l, log_ref):
    # the log scale's own rounding: a few eps times the size of its terms
    return 4.0 * EPS * max(1.0, (n - 1) * l, abs(log_ref)) + 4.0 * math.ulp(log_ref)


def check_within_estimate(rows):
    # |value - F| <= err_estimate + 4 ulp at every row (inf only with an
    # inf estimate); where F is not a normal double, log_value is log F
    # within the log scale's rounding as well
    for p in rows:
        n = p["n"]
        kv = volume_kernel(n, p["l"])
        ref, log_ref = float(p["value"]), float(p["log_value"])
        assert abs(kv.value - ref) <= kv.err_estimate + 4.0 * math.ulp(kv.value) or (
            kv.value == ref == math.inf and kv.err_estimate == math.inf
        ), p
        if not TINY <= ref < math.inf:
            assert abs(kv.log_value - log_ref) <= log_bound(n, p["l"], log_ref), p


def median_over_estimate(rows):
    # the median, over the rows where F is a normal double, of the
    # estimate over the error it bounds
    over = []
    for p in rows:
        ref = float(p["value"])
        if TINY <= ref < math.inf:
            kv = volume_kernel(p["n"], p["l"])
            over.append(kv.err_estimate / (abs(kv.value - ref) + math.ulp(ref)))
    return statistics.median(over)


def check_total(n, lo, hi):
    # a finite log_value, a positive estimate, 0 or inf only where log F
    # leaves the double range (inf with an inf estimate), exp(log_value)
    # and a relative estimate below 1e-10 elsewhere, and non-increasing
    # from lo to hi within the estimates
    near, far = (volume_kernel(n, l) for l in (lo, hi))
    for kv in (near, far):
        assert kv.value >= 0.0 and kv.err_estimate > 0.0
        assert math.isfinite(kv.log_value)
        assert kv.value > 0.0 or kv.log_value < math.log(math.ulp(0.0))
        assert kv.value < math.inf or (
            kv.log_value > math.log(HUGE) and kv.err_estimate == math.inf
        )
        if TINY <= kv.value < math.inf:
            assert abs(math.log(kv.value) - kv.log_value) <= (
                2.0 * EPS * max(1.0, abs(kv.log_value))
            )
            assert kv.err_estimate < 1e-10 * kv.value
    # lengths an ulp apart may round either way
    assert far.value <= near.value + near.err_estimate + far.err_estimate
    assert far.log_value <= near.log_value + log_bound(n, hi, far.log_value)


def check_sane(kv, n, l):
    assert not math.isnan(kv.value + kv.err_estimate + kv.log_value)
    assert kv.value >= 0.0 and kv.err_estimate > 0.0 and kv.log_value < math.inf
    if kv.value == math.inf:
        assert kv.err_estimate == math.inf and math.isfinite(kv.log_value)
    elif kv.value == 0.0:
        # -inf only where log F itself is past the double range
        assert math.isfinite(kv.log_value) or (n - 1) * l == math.inf


def forbid_integration(monkeypatch):
    # any call of an integral form, the integrator or the inner kernel raises
    def fail(*args, **kwargs):
        raise AssertionError("volume_kernel integrated")

    # the package attribute volume_kernel is the function, not the module
    module = importlib.import_module("orthovol.volume_kernel")
    for name in ("inner_kernel", "adaptive_quad", "volume_kernel_radial",
                 "volume_kernel_alt"):
        monkeypatch.setattr(module, name, fail)
