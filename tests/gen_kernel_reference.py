"""One high-precision reference table of the volume kernel F_n, n = 2..2001.

Every row is F_n(l) from the Gauss hypergeometric form of the kernel,
evaluated in mpmath with exact coefficients:

    F_n(l) = coef_n t^b [(l + c_n) 2F1(a, b; c; t) - d/ds 2F1(a+s, b; c+s; t)],

at s = 0, where t = e^(-2l), a = n - 1, b = (n-1)/2, c = (n+1)/2,
coef_n = 2 Gamma(n/2) pi^((n-2)/2) / Gamma((n+1)/2)^2 and
c_n = H_((n-1)/2) = psi((n+1)/2) + Euler's gamma.  The derivative is
mpmath's numerical ``diff``.  Written with Gamma(n/2) rather than
(n-2) Gamma(n/2 - 1), coef_n is the same number for n >= 3 and has no
pole at n = 2 (coef_2 = 8/pi), so one function serves every dimension.
The form loses about |log10 l| digits as t -> 1, so lengths below 1 run
at dps = 40 + 2 |log10 l|, the others at 40.  At l <= 1e-20, where
``hyp2f1`` slows down, a row is the small-length law K_n l^(2-n), whose
relative error is O(l^2 log l).

The generator stops on any of these mismatches:
- the law against the hypergeometric form at l = 1e-20, every n;
- n = 3 against its closed form pi (1 + l) / (e^(2l) - 1);
- n = 2 against the Rogers form (4/pi) L(sech^2(l/2)), its logs taken
  from u = e^(-l) (1 - x itself rounds to 1 once x is below the working
  precision, and log(1 - x) to 0);
- a few small-length points against mpmath's ``quad`` of the radial
  integral, on the inner kernel's closed form from ``gen_inner_reference.py``;
- any row of the file it replaces that moved by more than 1e-18 relative,
  on the value where F is a normal double and on log F elsewhere.

Each row stores F and log F to 20 digits; F leaves the double range at
large l and, for large n, at small l, and the tests compare logs there.
The grid is DIMENSIONS x LENGTHS, plus the benchmark's n = 2 lengths read
from ``perfbench/reference.json``.  Writes ``tests/data/kernel_reference.json``.

    python tests/gen_kernel_reference.py           # write the file
    python tests/gen_kernel_reference.py --check   # recompute and diff

Needs mpmath (the ``test`` extra).  A run takes about fifty seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath as mp

from gen_inner_reference import closed_form as inner_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "data", "kernel_reference.json")
BENCH_REFERENCE = os.path.join(HERE, os.pardir, "perfbench", "reference.json")
DIMENSIONS = (*range(2, 11), 13, 16, 20, 21, 25, 30, 39, 40, 41, 50, 51, 59, 60,
              80, 99, 100, 101, 200, 201, 400, 401, 500, 600, 601, 1000, 1001,
              2000, 2001)
# ln(4/3) / 2, where even n switches from the s-series to the t-series,
# and the double below it; ln 2 / 2, the cut before it, stays a length
CUT = 0.5 * math.log(4.0 / 3.0)
HALF_S = 0.5 * math.log(2.0)
LENGTHS = (1e-300, 1e-100, 1e-12, 1e-9, 3.2e-9, 1e-6, 1e-3, 0.1,
           math.nextafter(CUT, 0.0), CUT, 0.2, 0.25, 0.3,
           math.nextafter(HALF_S, 0.0), HALF_S, 0.35, 0.4, 0.5, 0.7, 1.0, 1.5,
           2.0, 3.0, 5.0, 8.0, 10.0, 12.0, 20.0, 30.0, 50.0, 100.0, 200.0,
           354.0, 400.0, 700.0, 1000.0, 3000.0, 1e4, 1e100, 1e300)
# at and below this length a row is the small-length law
LAW_BELOW = 1e-20
# (n, l) checked against the radial integral, a few seconds each
QUAD_POINTS = ((4, 1e-3), (4, 0.1), (4, 0.3), (5, 1e-3), (5, 0.1), (5, 0.3),
               (9, 1e-3), (9, 0.1), (9, 0.3), (10, 0.1))
DPS = 40
DIGITS = 20


def grid():
    """Sorted (n, l) of the table: DIMENSIONS x LENGTHS and the benchmark's n = 2 lengths."""
    with open(BENCH_REFERENCE) as fh:
        domain = json.load(fh)["domain"]
    bench = {(2, p["l"]) for p in domain if p["n"] == 2}
    return sorted({(n, l) for n in DIMENSIONS for l in LENGTHS} | bench)


def coef(n):
    """coef_n = 2 Gamma(n/2) pi^((n-2)/2) / Gamma((n+1)/2)^2, 8/pi at n = 2."""
    return 2 * mp.gamma(mp.mpf(n) / 2) * mp.pi ** (mp.mpf(n - 2) / 2) \
        / mp.gamma(mp.mpf(n + 1) / 2) ** 2


def kernel(n, l):
    """F_n(l) from the hypergeometric form at the current mpmath precision."""
    l = mp.mpf(l)
    a = mp.mpf(n - 1)
    b = a / 2
    c = mp.mpf(n + 1) / 2
    t = mp.exp(-2 * l)
    # near t = 3/4 the series of n = 2000 runs past mpmath's default term limit
    series = mp.hyp2f1(a, b, c, t, maxterms=10**6)
    slope = mp.diff(lambda s: mp.hyp2f1(a + s, b, c + s, t, maxterms=10**6), 0)
    return coef(n) * t ** b * ((l + mp.harmonic(b)) * series - slope)


def small_length_law(n, l):
    """K_n l^(2-n), K_n = coef_n (n-1) H_(n-2) / ((n-2) 2^(n-1)); H_x / x -> zeta(2) at n = 2."""
    ratio = mp.zeta(2) if n == 2 else mp.harmonic(n - 2) / (n - 2)
    return coef(n) * (n - 1) * ratio / 2 ** (n - 1) * mp.mpf(l) ** (2 - n)


def rogers_kernel(l):
    """F_2(l) = (4/pi) (Li2(x) + log x log(1 - x) / 2), x = sech^2(l/2), from u = e^(-l).

    log x = log 4 - l - 2 log1p(u) and log(1 - x) = 2 (log(1 - u) - log1p(u)),
    with log(1 - u) = log(-expm1(-l)) below l = 0.7 and log1p(-u) above.
    """
    l = mp.mpf(l)
    u = mp.exp(-l)
    log_x = mp.log(4) - l - 2 * mp.log1p(u)
    log_1mu = mp.log(-mp.expm1(-l)) if l < 0.7 else mp.log1p(-u)
    log_1mx = 2 * (log_1mu - mp.log1p(u))
    return 4 / mp.pi * (mp.polylog(2, mp.exp(log_x)) + log_x * log_1mx / 2)


def sphere_volume(k):
    h = mp.mpf(k + 1) / 2
    return 2 * mp.pi ** h / mp.gamma(h)


def radial_kernel(n, l):
    """F_n(l) as mpmath's quad of the radial-angle integral.

    shape * int_0^(pi/2) tan(theta)^(n-3) m_n(x) dtheta with
    x = sqrt(e^(2l) - 1 + cos^2 theta) / cos(theta), the parametrization of
    ``orthovol.volume_kernel.volume_kernel_radial``.
    """
    l = mp.mpf(l)
    dps = mp.mp.dps
    a2m1 = mp.expm1(2 * l)
    shape = 2 * sphere_volume(n - 2) * sphere_volume(n - 3) / sphere_volume(n - 1)

    def integrand(theta):
        # quad's nodes may pass pi / 2 by a rounding: |cos| keeps x real
        ct = abs(mp.cos(theta))
        x = mp.sqrt(a2m1 + ct * ct) / ct
        # the inner kernel's closed form cancels about (n+1) log10 x digits
        with mp.workdps(dps + 10 + int((n + 1) * max(1, float(mp.log10(x))))):
            value = (mp.sin(theta) / ct) ** (n - 3) * inner_kernel(n, x)
        return +value

    # the integrand peaks within a few sqrt(l) of theta = 0
    w = mp.sqrt(l)
    inside = [p for p in (w / 4, w, 4 * w) if p < mp.pi / 2]
    return shape * mp.quad(integrand, [0] + inside + [mp.pi / 2])


def _agree(n, l, value, other, what, digits):
    if abs(value / other - 1) > mp.mpf(10) ** -digits:
        raise SystemExit(f"F_{n}({l!r}) = {value} misses {what} {other}")


def row(n, l):
    """{"n", "l", "value", "log_value"} for F_n(l), after the checks that apply."""
    with mp.workdps(DPS + 2 * max(0, math.ceil(-math.log10(l)))):
        value = small_length_law(n, l) if l <= LAW_BELOW else kernel(n, l)
        if n == 3:
            exact = mp.pi * (1 + mp.mpf(l)) / mp.expm1(2 * mp.mpf(l))
            _agree(n, l, value, exact, "the closed form", DPS - 4)
        if n == 2:
            _agree(n, l, value, rogers_kernel(l), "the Rogers form", DPS - 4)
        if (n, l) in QUAD_POINTS:
            _agree(n, l, value, radial_kernel(n, l), "the radial integral", DPS - 10)
        return {"n": n, "l": l, "value": mp.nstr(value, DIGITS),
                "log_value": mp.nstr(mp.log(value), DIGITS)}


def table():
    """Every row of grid(), once the law has been checked where hyp2f1 still runs."""
    with mp.workdps(DPS + 2 * 20):
        for n in DIMENSIONS:
            _agree(n, LAW_BELOW, small_length_law(n, LAW_BELOW), kernel(n, LAW_BELOW),
                   "the hypergeometric form", DIGITS + 4)
    return [row(n, l) for n, l in grid()]


def check_stored(stored, rows):
    """Stop if a stored row moved by more than 1e-18 relative (log F where F is not normal)."""
    new = {(p["n"], p["l"]): p for p in rows}
    for old in stored:
        p = new.get((old["n"], old["l"]))
        if p is None:
            raise SystemExit(f"row n={old['n']} l={old['l']!r} left the grid")
        key = "value" if sys.float_info.min <= float(old["value"]) < math.inf else "log_value"
        with mp.workdps(DPS):
            _agree(p["n"], p["l"], mp.mpf(p[key]), mp.mpf(old[key]), "its stored " + key, 18)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute and compare with the file instead of writing it")
    args = ap.parse_args(argv)
    rows = table()
    stored = []
    if os.path.exists(PATH):
        with open(PATH) as fh:
            stored = json.load(fh)["points"]
    if args.check:
        if stored == rows:
            print(f"{PATH}: {len(rows)} rows match")
            return 0
        keys = {(p["n"], p["l"]): p for p in stored}
        for p in rows:
            if keys.get((p["n"], p["l"])) != p:
                print(f"differs: n={p['n']} l={p['l']!r}: file "
                      f"{keys.get((p['n'], p['l']))}, now {p}")
        print(f"file has {len(stored)} rows, now {len(rows)}")
        return 1
    check_stored(stored, rows)
    with open(PATH, "w") as fh:
        fh.write('{"digits": %d, "points": [\n' % DIGITS)
        fh.write(",\n".join(json.dumps(p) for p in rows))
        fh.write("\n]}\n")
    print(f"wrote {len(rows)} rows to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
