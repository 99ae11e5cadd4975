"""High-precision reference values of the volume kernel F_n for l >= ln 2 / 2.

Evaluates the Gauss hypergeometric form of the kernel in mpmath at dps = 40,
with exact coefficients:

    F_n(l) = coef_n t^b [(l + c_n) 2F1(a, b; c; t) - d/ds 2F1(a+s, b; c+s; t)],

at s = 0, where t = e^(-2l), a = n - 1, b = (n-1)/2, c = (n+1)/2,
coef_n = (n-2) pi^((n-2)/2) Gamma(n/2 - 1) / Gamma((n+1)/2)^2 and
c_n = H_((n-1)/2) = psi((n+1)/2) + Euler's gamma.  The derivative is
mpmath's numerical ``diff``.  Each n = 3 value is checked against the closed
form pi (1 + l) / (e^(2l) - 1), and a mismatch stops the generator.  Every
point stores the natural log of F as well as F, because at large l F is far
below the smallest double, and the log is what the tests compare there.
Writes ``tests/data/series_reference.json``.

    python tests/gen_series_reference.py           # write the file
    python tests/gen_series_reference.py --check   # recompute and diff

Needs mpmath (the ``test`` extra).  A run takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath as mp

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "series_reference.json")
DIMENSIONS = (3, 4, 5, 6, 7, 8, 10, 13, 16, 20, 25, 30, 40, 50, 60, 80, 100)
# the first length is the double nearest ln 2 / 2, where the series starts
LENGTHS = (0.5 * math.log(2.0), 0.35, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0,
           8.0, 12.0, 20.0, 30.0, 50.0, 100.0, 200.0, 354.0, 400.0, 700.0,
           1000.0, 3000.0, 1e4)
DPS = 40
DIGITS = 20


def kernel(n, l):
    """F_n(l) from the hypergeometric form at the current mpmath precision."""
    l = mp.mpf(l)
    a = mp.mpf(n - 1)
    b = a / 2
    c = mp.mpf(n + 1) / 2
    t = mp.exp(-2 * l)
    coef = (n - 2) * mp.pi ** (mp.mpf(n - 2) / 2) * mp.gamma(mp.mpf(n) / 2 - 1) \
        / mp.gamma(c) ** 2
    c_n = mp.harmonic(b)
    series = mp.hyp2f1(a, b, c, t)
    slope = mp.diff(lambda s: mp.hyp2f1(a + s, b, c + s, t), 0)
    return coef * t ** b * ((l + c_n) * series - slope)


def reference_points():
    points = []
    with mp.workdps(DPS):
        for n in DIMENSIONS:
            for l in LENGTHS:
                value = kernel(n, l)
                if n == 3:
                    exact = mp.pi * (1 + mp.mpf(l)) / mp.expm1(2 * mp.mpf(l))
                    if abs(value / exact - 1) > mp.mpf(10) ** (4 - DPS):
                        raise SystemExit(f"F_3({l!r}) = {value} misses the "
                                         f"closed form {exact}")
                points.append({
                    "n": n,
                    "l": l,
                    "value": mp.nstr(value, DIGITS),
                    "log_value": mp.nstr(mp.log(value), DIGITS),
                })
    return points


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute and compare with the file instead of writing it")
    args = ap.parse_args(argv)
    points = reference_points()
    if not args.check:
        os.makedirs(os.path.dirname(PATH), exist_ok=True)
        with open(PATH, "w") as fh:
            fh.write('{"digits": %d, "points": [\n' % DIGITS)
            fh.write(",\n".join(json.dumps(p) for p in points))
            fh.write("\n]}\n")
        print(f"wrote {len(points)} points to {PATH}")
        return 0
    with open(PATH) as fh:
        stored = json.load(fh)["points"]
    if stored == points:
        print(f"{len(points)} points match")
        return 0
    keys = {(p["n"], p["l"]): p for p in stored}
    for p in points:
        if keys.get((p["n"], p["l"])) != p:
            print(f"differs: n={p['n']} l={p['l']!r}: file "
                  f"{keys.get((p['n'], p['l']))}, now {p}")
    if len(stored) != len(points):
        print(f"file has {len(stored)} points, now {len(points)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
