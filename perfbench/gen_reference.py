"""Generate the frozen high-precision reference used by the benchmark.

Run from the repository root:

    python3 perfbench/gen_reference.py [--point-seconds 30] [--sections LIST]

It needs mpmath and writes ``perfbench/reference.json``.  Progress is kept in
``perfbench/.reference-cache.jsonl`` so an interrupted run resumes where it
stopped; delete that file to recompute from scratch.

The reference is independent of ``orthovol``: the volume kernel is computed
from the closed-form inner kernel in the w-parametrization

    F_n(l) = shape_n a^(n-2) (a^2-1)^(2-n/2)
             int_0^W sinh(w)^(n-3) cosh(w) m_n(a cosh w) / (x^2 - 1) dw,

with a = e^l, x = a cosh w and the tail cut at W = 30, where the integrand is
about w e^(-3w) relative to its peak.  The inner kernel m_n is evaluated at a
working precision that grows with log10(b) and |log10(b - 1)|, and every
truncated logarithm with |x| <= 1/2 is summed as its series tail, so no digits
cancel there.  mpmath's quadrature stops on an absolute error, so the
integrand is divided by its value near the peak before integrating.

Sections (all by default):

* ``spectrum``: per dimension, a Chebyshev interpolant of the scaled log
  kernel g(s) = log(F_n(l) l^(n-2) e^((n-1) l) / (1+l)^(n-1)), s = ln l, on
  two panels covering [0.1, 12]; every spectrum length the benchmark can draw
  has a reference from it.  Off-node points certify it.
* ``bound``: per dimension and pool area A, the root x of F_n(2x) = A C_n(x)
  with C_n(x) = int_0^x cosh(t)^(n-1) dt, and the bound F_n(2x).
* ``domain``: a stratified pool of (n, l) points over n in [2, 60] and
  ln l in [-20, 7].  Points whose value lies outside the double range, or that
  the time cap per point cannot reach, are stored without a value.
* ``inner``: closed-form inner kernel values for the CLI's ``mn`` command.
* ``constants``: the small-length constants K_n, n = 3..12, for ``kn``.
* ``known``: which domain points orthovol fails on when the file is frozen
  (the only section that runs orthovol).
* ``checks``: self-checks of the generator against the n = 2 Rogers closed
  form (by the defining double integral), the small-length law at
  l = 1e-6, and orthovol's volume_kernel(3, 1) to 1e-13.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import sys
import time

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_PATH = os.path.join(HERE, "reference.json")
CACHE_PATH = os.path.join(HERE, ".reference-cache.jsonl")

BASE_DPS = 25
W_CUT = 30

SPECTRUM_DIMS = (2, 3, 4, 5, 8)
SPECTRUM_RANGE = (0.1, 12.0)
SPECTRUM_PANEL_BREAKS = (math.log(0.1), 0.0, math.log(12.0))
SPECTRUM_DEGREE = 40
SPECTRUM_CHECKS_PER_PANEL = 5

BOUND_DIMS = (3, 4, 5, 6)
BOUND_AREAS_PER_DIM = 12
BOUND_LOG10_AREA = (0.0, 3.0)

DOMAIN_N = (2, 60)
DOMAIN_LOG_L = (-20.0, 7.0)
DOMAIN_N_BINS = 12
DOMAIN_L_BINS = 18
DOMAIN_PER_CELL = 2
# a double holds magnitudes in about [1e-308, 1e308]; values estimated
# beyond this margin are not computed
DOUBLE_LOG10_LIMIT = 300.0

INNER_DIMS = (3, 12)
INNER_POINTS = 40
INNER_LOG10_BM1 = (-3.0, 3.0)

POOL_SEED = 10021905


class PointTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise PointTimeout()


# ---------------------------------------------------------------- kernel


def _truncated_log(m, x, eps):
    """log|1-x| + sum_{j<=m} x^j/j; the series tail when |x| <= 1/2."""
    if abs(x) <= 0.5:
        if x == 0:
            return mp.mpf(0)
        p = x ** m
        s = mp.mpf(0)
        j = m
        while True:
            j += 1
            p *= x
            t = p / j
            s += t
            if abs(t) <= eps * abs(s):
                return -s
    s = mp.mpf(0)
    p = mp.mpf(1)
    for j in range(1, m + 1):
        p *= x
        s += p / j
    return mp.log(abs(1 - x)) + s


def inner_kernel_mp(n, bm1):
    """Closed-form inner kernel m_n(b) at b = 1 + bm1, n >= 3.

    The caller sets the working precision; see _inner_dps.
    """
    b = 1 + bm1
    k = n - 2
    m = n - 3
    sgn = -1 if n % 2 else 1
    eps = mp.mpf(2) ** (-mp.mp.prec)
    h2 = 2 * mp.harmonic(n - 2)
    l2 = mp.log(2)
    lb = mp.log(b)
    lbp = mp.log(b + 1)
    lbm = mp.log(bm1)
    t = _truncated_log
    g1 = (2 * lbp - 2 * l2 - lb) + h2 - t(m, bm1 / (b + 1), eps) \
        - sgn * t(m, -bm1 / (b + 1), eps)
    g2 = -(2 * lbm - 2 * l2 - lb) - h2 + t(m, (b + 1) / bm1, eps) \
        + sgn * t(m, -(b + 1) / bm1, eps)
    g3 = t(m, 2 * b / (b + 1), eps) - t(m, 2 * b / bm1, eps)
    g4 = t(m, 2 / (b + 1), eps) - sgn * t(m, -2 / bm1, eps)
    return (g1 / bm1 ** k + g2 / (b + 1) ** k + g3 / (2 * b) ** k
            + g4 / 2 ** k) / ((n - 1) * (n - 2))


def _inner_dps(bm1):
    """Digits lost by the closed form: about 2 log10(b) + |log10(b-1)|."""
    lg_b = max(0.0, float(mp.log10(1 + bm1)))
    lg_bm1 = max(0.0, -float(mp.log10(bm1)))
    return int(2 * lg_b + lg_bm1) + 10


def _sphere_volume(k):
    h = mp.mpf(k + 1) / 2
    return 2 * mp.pi ** h / mp.gamma(h)


def surface_kernel_mp(l):
    """n = 2 closed form (4/pi) L(sech^2(l/2)), L the Rogers dilogarithm."""
    x = 1 / mp.cosh(l / 2) ** 2
    return 4 / mp.pi * (mp.polylog(2, x) + mp.log(x) * mp.log(1 - x) / 2)


def surface_kernel_integral_mp(l):
    """Defining double integral of the n = 2 kernel (slow, self-check only)."""
    a = mp.exp(l)

    def log_cross(u, v):
        return (mp.log(v - 1) + mp.log(v + 1) + mp.log(a - u) + mp.log(a + u)
                - mp.log(v - a) - mp.log(v + a) - mp.log(1 - u) - mp.log(1 + u))

    def inner(u):
        return mp.quad(lambda v: log_cross(u, v) / (v - u) ** 2, [a, 2 * a, mp.inf])

    return 2 / mp.pi * mp.quad(inner, [-1, 0, 1])


def volume_kernel_mp(n, l):
    """(value, relative error estimate) of F_n(l) at BASE_DPS digits."""
    with mp.workdps(BASE_DPS + 10):
        l = mp.mpf(l)
        if n == 2:
            return surface_kernel_mp(l), mp.mpf(10) ** (-BASE_DPS)
        a = mp.exp(l)
        am1 = mp.expm1(l)
        a2m1 = mp.expm1(2 * l)
        shape = 2 * _sphere_volume(n - 2) * _sphere_volume(n - 3) / _sphere_volume(n - 1)
        pref = shape * a ** (n - 2) / a2m1 ** (mp.mpf(n) / 2 - 2)

        def raw(w):
            ch = mp.cosh(w)
            x = a * ch
            # x - 1 = (a - 1) + 2 a sinh(w/2)^2, free of cancellation
            xm1 = am1 + 2 * a * mp.sinh(w / 2) ** 2
            with mp.workdps(mp.mp.dps + _inner_dps(xm1)):
                m = inner_kernel_mp(n, xm1)
                val = mp.sinh(w) ** (n - 3) * ch * m / (xm1 * (x + 1))
            return +val

        # the integrand peaks near w ~ sqrt(l) for small l and w ~ 1 otherwise
        s = mp.sqrt(l) if l < 1 else mp.mpf(1)
        pts = [mp.mpf(0)]
        p = s / 16
        while p < W_CUT:
            pts.append(p)
            p *= 4
        pts.append(mp.mpf(W_CUT))
        scale = max(abs(raw(q)) for q in pts[1:-1])
        v, e = mp.quad(lambda w: raw(w) / scale, pts, error=True)
        return pref * scale * v, abs(e / v)


def small_length_constant_mp(n):
    return (2 * mp.pi ** (mp.mpf(n - 3) / 2) * mp.harmonic(n - 2)
            * mp.gamma(mp.mpf(n) / 2 + 1) * mp.gamma(mp.mpf(n) / 2 - 1)
            / (n * mp.gamma(mp.mpf(n + 1) / 2) * mp.gamma(n - 1)))


def large_length_coefficient_mp(n):
    return ((n - 2) * mp.pi ** (mp.mpf(n - 2) / 2) * mp.gamma(mp.mpf(n) / 2 - 1)
            / mp.gamma(mp.mpf(n + 1) / 2) ** 2)


def estimated_log10(n, l):
    """Rough log10 F_n(l) from the small- or large-length law."""
    if n == 2:
        with mp.workdps(BASE_DPS):
            return float(mp.log10(surface_kernel_mp(mp.mpf(l))))
    if l < 1:
        return float(mp.log10(small_length_constant_mp(n))) + (2 - n) * math.log10(l)
    return (float(mp.log10(large_length_coefficient_mp(n))) + math.log10(l + 1)
            - (n - 1) * l / math.log(10))


# ---------------------------------------------------------------- helpers


def _fmt(x):
    return mp.nstr(x, BASE_DPS, min_fixed=1, max_fixed=0)


class Cache:
    """Append-only store of finished items, so reruns resume."""

    def __init__(self, path):
        self.path = path
        self.items = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.items[rec["key"]] = rec["value"]

    def get(self, key):
        return self.items.get(key)

    def put(self, key, value):
        self.items[key] = value
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": key, "value": value}) + "\n")


def _timed(fn, seconds):
    """Run fn() under a wall-clock cap; None when the cap is reached."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    except PointTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- sections


def _cheb_nodes(lo, hi, count):
    return [(lo + hi) / 2 + (hi - lo) / 2 * mp.cos(mp.pi * (j + mp.mpf(1) / 2) / count)
            for j in range(count)]


def _cheb_coeffs(values):
    count = len(values)
    coeffs = []
    for k in range(count):
        c = sum(values[j] * mp.cos(mp.pi * k * (j + mp.mpf(1) / 2) / count)
                for j in range(count)) * 2 / count
        coeffs.append(c / 2 if k == 0 else c)
    return coeffs


def _scaled_log(n, s, value):
    l = mp.exp(s)
    return mp.log(value) + (n - 2) * s + (n - 1) * l - (n - 1) * mp.log1p(l)


def build_spectrum(cache):
    out = {}
    rng = random.Random(POOL_SEED + 1)
    for n in SPECTRUM_DIMS:
        panels = []
        worst_check = mp.mpf(0)
        worst_quad = mp.mpf(0)
        for lo, hi in zip(SPECTRUM_PANEL_BREAKS[:-1], SPECTRUM_PANEL_BREAKS[1:]):
            with mp.workdps(BASE_DPS + 10):
                lo_mp, hi_mp = mp.mpf(lo), mp.mpf(hi)
                gvals = []
                for s in _cheb_nodes(lo_mp, hi_mp, SPECTRUM_DEGREE + 1):
                    val, rel = _kernel_cached(cache, n, mp.exp(s), None)
                    worst_quad = max(worst_quad, rel)
                    gvals.append(_scaled_log(n, s, val))
                coeffs = _cheb_coeffs(gvals)
                for _ in range(SPECTRUM_CHECKS_PER_PANEL):
                    s = mp.mpf(rng.uniform(lo, hi))
                    val, rel = _kernel_cached(cache, n, mp.exp(s), None)
                    t = (2 * s - lo_mp - hi_mp) / (hi_mp - lo_mp)
                    g = mp.fsum(c * mp.chebyt(k, t) for k, c in enumerate(coeffs))
                    worst_check = max(worst_check, abs(mp.expm1(g - _scaled_log(n, s, val))))
            panels.append({"s_lo": lo, "s_hi": hi,
                           "coeffs": [mp.nstr(c, 22) for c in coeffs]})
        out[str(n)] = {
            "panels": panels,
            "check_max_rel_err": float(worst_check),
            "node_quad_max_rel_err": float(worst_quad),
        }
        _log(f"spectrum n={n}: interpolant check {float(worst_check):.2e}")
    return out


def _kernel_cached(cache, n, l, point_seconds):
    key = f"F {n} {_fmt(l)}"
    hit = cache.get(key)
    if hit is None:
        t0 = time.perf_counter()
        if point_seconds is None:
            val, rel = volume_kernel_mp(n, l)
            hit = [_fmt(val), float(rel)]
        else:
            res = _timed(lambda: volume_kernel_mp(n, l), point_seconds)
            hit = None if res is None else [_fmt(res[0]), float(res[1])]
            if hit is None:
                cache.put(key, "timeout")
                return None
        cache.put(key, hit)
        _log(f"  F({n}, {float(l):.6g}) in {time.perf_counter() - t0:.1f}s")
    if hit == "timeout":
        return None
    return mp.mpf(hit[0]), mp.mpf(hit[1])


def _collar_mp(n, x):
    return mp.quad(lambda t: mp.cosh(t) ** (n - 1), [0, x])


def bound_pool():
    rng = random.Random(POOL_SEED + 2)
    pool = []
    for n in BOUND_DIMS:
        lo, hi = BOUND_LOG10_AREA
        width = (hi - lo) / BOUND_AREAS_PER_DIM
        for k in range(BOUND_AREAS_PER_DIM):
            log10_area = lo + width * (k + rng.random())
            pool.append((n, float(f"{10 ** log10_area:.6g}")))
    return pool


def build_bound(cache):
    out = []
    for n, area in bound_pool():
        key = f"B {n} {area!r}"
        hit = cache.get(key)
        if hit is None:
            t0 = time.perf_counter()
            with mp.workdps(BASE_DPS + 10):
                kn = small_length_constant_mp(n)
                x0 = (kn * mp.mpf(2) ** (2 - n) / area) ** (mp.mpf(1) / (n - 1))

                def h(y):
                    x = mp.exp(y)
                    val, _ = volume_kernel_mp(n, 2 * x)
                    return mp.log(val) - mp.log(area * _collar_mp(n, x))

                y = mp.findroot(h, (mp.log(x0), mp.log(x0) + mp.mpf("0.05")),
                                solver="secant", tol=mp.mpf(10) ** (-BASE_DPS))
                x = mp.exp(y)
                bound, rel = volume_kernel_mp(n, 2 * x)
            hit = {"n": n, "area": area, "crossing_length": _fmt(x),
                   "bound": _fmt(bound), "rel_err": float(rel)}
            cache.put(key, hit)
            _log(f"bound n={n} A={area}: x={float(x):.6g} in {time.perf_counter() - t0:.1f}s")
        out.append(hit)
    return out


def domain_pool():
    rng = random.Random(POOL_SEED + 3)
    n_lo, n_hi = DOMAIN_N
    edges = [n_lo + (n_hi + 1 - n_lo) * i // DOMAIN_N_BINS for i in range(DOMAIN_N_BINS + 1)]
    l_lo, l_hi = DOMAIN_LOG_L
    width = (l_hi - l_lo) / DOMAIN_L_BINS
    pool = []
    for i in range(DOMAIN_N_BINS):
        for j in range(DOMAIN_L_BINS):
            for _ in range(DOMAIN_PER_CELL):
                n = rng.randrange(edges[i], edges[i + 1])
                l = float(f"{math.exp(l_lo + width * (j + rng.random())):.6g}")
                pool.append({"id": len(pool), "cell": [i, j], "n": n, "l": l})
    return pool


def build_domain(cache, point_seconds):
    pool = domain_pool()
    # cheap points first, so a time-capped run references as many as it can
    order = sorted(pool, key=lambda p: (abs(math.log(p["l"])) * p["n"], p["id"]))
    done = 0
    for p in order:
        n, l = p["n"], p["l"]
        est = estimated_log10(n, l)
        p["log10_estimate"] = round(est, 3)
        if abs(est) > DOUBLE_LOG10_LIMIT + 20:
            p["value"] = None
            p["status"] = "outside double range"
            continue
        res = _kernel_cached(cache, n, mp.mpf(l), point_seconds)
        if res is None:
            p["value"] = None
            p["status"] = f"not reached within {point_seconds:g}s"
            continue
        val, rel = res
        if abs(float(mp.log10(val))) > DOUBLE_LOG10_LIMIT + 8:
            p["value"] = None
            p["status"] = "outside double range"
            p["log10_value"] = float(mp.log10(val))
            continue
        p["value"] = _fmt(val)
        p["rel_err"] = float(rel)
        p["status"] = "referenced"
        done += 1
    _log(f"domain: {done} of {len(pool)} points referenced")
    return pool


def inner_pool():
    rng = random.Random(POOL_SEED + 4)
    lo, hi = INNER_LOG10_BM1
    return [(rng.randint(*INNER_DIMS), float(f"{1 + 10 ** rng.uniform(lo, hi):.6g}"))
            for _ in range(INNER_POINTS)]


def build_inner():
    out = []
    for n, b in inner_pool():
        with mp.workdps(BASE_DPS + 10):
            bm1 = mp.mpf(b) - 1
            with mp.workdps(mp.mp.dps + _inner_dps(bm1)):
                value = inner_kernel_mp(n, bm1)
            out.append({"n": n, "b": b, "value": _fmt(value)})
    return out


def build_constants():
    with mp.workdps(BASE_DPS + 10):
        return {"small_length": {str(n): _fmt(small_length_constant_mp(n))
                                 for n in range(3, 13)}}


def build_known_failures(ref):
    """Library failures on the domain pool at the commit that froze this file.

    The benchmark still counts them as failed; a failure elsewhere makes a
    run incorrect.
    """
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from orthovol import volume_kernel
    from reference import OK, classify
    from workloads import KernelDomain

    out = []
    for p in ref["domain"]:
        try:
            kv = volume_kernel(p["n"], p["l"])
            status = classify(kv.value, kv.err_estimate, KernelDomain.point_reference(p))
        except Exception as exc:  # each raise is recorded by type
            status = f"raised:{type(exc).__name__}"
        if status != OK:
            out.append({"id": p["id"], "n": p["n"], "l": p["l"], "status": status})
    _log(f"known failures: {len(out)} of {len(ref['domain'])} domain points")
    return out


# ---------------------------------------------------------------- self-checks


def self_checks(cache):
    checks = []
    with mp.workdps(BASE_DPS + 10):
        for l in ("0.5", "2"):
            closed = surface_kernel_mp(mp.mpf(l))
            res = _timed(lambda: surface_kernel_integral_mp(mp.mpf(l)), 240)
            # a check the time cap cut short counts as failed
            rel = math.inf if res is None else float(abs(res / closed - 1))
            checks.append({"check": f"n=2 Rogers closed form vs defining integral, l={l}",
                           "rel_diff": rel, "limit": 1e-15, "ok": rel < 1e-15})
        for n in (3, 5, 8):
            l = mp.mpf("1e-6")
            val, _ = _kernel_cached(cache, n, l, None)
            law = small_length_constant_mp(n) * l ** (2 - n)
            rel = abs(val / law - 1)
            checks.append({"check": f"small-length law K_n l^(2-n), n={n}, l=1e-6",
                           "rel_diff": float(rel), "limit": 1e-9, "ok": bool(rel < 1e-9)})
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from orthovol import volume_kernel

    val, _ = _kernel_cached(cache, 3, mp.mpf(1), None)
    lib = volume_kernel(3, 1.0).value
    rel = abs(lib / float(val) - 1)
    checks.append({"check": "orthovol volume_kernel(3, 1)", "rel_diff": rel,
                   "limit": 1e-13, "ok": bool(rel < 1e-13)})
    for c in checks:
        _log(f"self-check {'ok  ' if c['ok'] else 'FAIL'} {c['check']}: {c['rel_diff']:.2e}")
    return checks


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--point-seconds", type=float, default=30.0,
                    help="time cap per domain point")
    ap.add_argument("--sections",
                    default="checks,spectrum,bound,domain,inner,constants,known")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    cache = Cache(CACHE_PATH)
    sections = args.sections.split(",")
    ref = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
    ref["meta"] = {
        "generator": "perfbench/gen_reference.py",
        "mpmath": mp.__version__,
        "base_dps": BASE_DPS,
        "w_cut": W_CUT,
        "domain_point_seconds": args.point_seconds,
        "spectrum_range": list(SPECTRUM_RANGE),
        "spectrum_degree": SPECTRUM_DEGREE,
    }
    if "checks" in sections:
        ref["self_checks"] = self_checks(cache)
    if "spectrum" in sections:
        ref["spectrum"] = build_spectrum(cache)
    if "bound" in sections:
        ref["bound"] = build_bound(cache)
    if "domain" in sections:
        ref["domain"] = build_domain(cache, args.point_seconds)
    if "inner" in sections:
        ref["inner"] = build_inner()
    if "constants" in sections:
        ref["constants"] = build_constants()
    if "known" in sections:
        ref["known_failures"] = build_known_failures(ref)
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    failed = [c for c in ref.get("self_checks", []) if not c["ok"]]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
