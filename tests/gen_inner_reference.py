"""High-precision reference values of the inner kernel m_n(b).

Evaluates the closed form of ``orthovol.inner_kernel`` (the four groups of
truncated logarithms) in mpmath at dps = 40 + (n+1) max(1, log10 b), enough
to absorb the b^(n-1) cancellation between the groups at large b, and writes
the values as decimal strings to ``tests/data/inner_kernel_reference.json``.
Truncated logs with |x| <= 1/2 are summed as their series tail, so the small
arguments near b = 1 and at large b lose nothing either.  Points whose value
is below the smallest normal double are left out.

    python tests/gen_inner_reference.py           # write the file
    python tests/gen_inner_reference.py --check   # recompute and diff

Needs mpmath (the ``test`` extra).  A run takes about ten seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath as mp

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "inner_kernel_reference.json")
DIMENSIONS = (3, 4, 5, 6, 8, 12, 20, 30, 45, 60, 100)
# 3.005, 3.2 and 4.1: where the rounding of 9/b^2 in the series' Horner
# sum costs most at large n (2.6e-15 to 3.1e-15 at n = 100 uncorrected)
RATIOS = (1.001, 1.5, 2.0, 2.9, 3.0 * (1.0 - 1e-12), 3.0 * (1.0 + 1e-12), 3.005,
          3.2, 3.5, 4.0, 4.1, 5.0, 8.0, 30.0, 1e2, 1e3, 1e4, 1e6, 1e9, 1e12)
DIGITS = 30
SMALLEST_NORMAL = mp.mpf(2) ** -1022


def truncated_log(m, x):
    """log|1-x| + x + x^2/2 + ... + x^m/m; the series tail for |x| <= 1/2."""
    eps = mp.mpf(2) ** (-mp.mp.prec)
    if abs(x) <= 0.5:
        power = x ** m
        total = mp.mpf(0)
        k = m
        while True:
            k += 1
            power *= x
            term = power / k
            total += term
            if abs(term) <= eps * abs(total):
                return -total
    partial = mp.mpf(0)
    power = mp.mpf(1)
    for k in range(1, m + 1):
        power *= x
        partial += power / k
    return mp.log(abs(1 - x)) + partial


def closed_form(n, b):
    """The closed form of inner_kernel at the current mpmath precision."""
    b = mp.mpf(b)
    k = n - 2
    m = n - 3
    sgn = -1 if n % 2 else 1
    t = truncated_log
    h2 = 2 * mp.harmonic(n - 2)
    l2 = mp.log(2)
    lb = mp.log(b)
    lbp = mp.log(b + 1)
    lbm = mp.log(b - 1)
    g1 = (2 * lbp - 2 * l2 - lb) + h2 - t(m, (b - 1) / (b + 1)) \
        - sgn * t(m, (1 - b) / (b + 1))
    g2 = -(2 * lbm - 2 * l2 - lb) - h2 + t(m, (b + 1) / (b - 1)) \
        + sgn * t(m, -(b + 1) / (b - 1))
    g3 = t(m, 2 * b / (b + 1)) - t(m, 2 * b / (b - 1))
    g4 = t(m, 2 / (b + 1)) - sgn * t(m, -2 / (b - 1))
    return (g1 / (b - 1) ** k + g2 / (b + 1) ** k + g3 / (2 * b) ** k
            + g4 / 2 ** k) / ((n - 1) * (n - 2))


def reference_points():
    points = []
    for n in DIMENSIONS:
        for b in RATIOS:
            with mp.workdps(int(40 + (n + 1) * max(1.0, math.log10(b)))):
                value = closed_form(n, b)
                if value < SMALLEST_NORMAL:
                    continue
                points.append({"n": n, "b": b, "value": mp.nstr(value, DIGITS)})
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
    keys = {(p["n"], p["b"]): p["value"] for p in stored}
    for p in points:
        if keys.get((p["n"], p["b"])) != p["value"]:
            print(f"differs: n={p['n']} b={p['b']!r}: file "
                  f"{keys.get((p['n'], p['b']))}, now {p['value']}")
    if len(stored) != len(points):
        print(f"file has {len(stored)} points, now {len(points)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
