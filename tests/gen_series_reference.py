"""High-precision reference values of the volume kernel F_n.

Two tables: n = 3..100, 400, 500, 1000 and 2000 for l >= ln 2 / 2 (where
even n sums the t-series), and odd and even n below ln 2 / 2 (where every n sums the
s-series in s = 1 - e^(-2l)).  Both evaluate the
Gauss hypergeometric form of the kernel in mpmath, with exact coefficients:

    F_n(l) = coef_n t^b [(l + c_n) 2F1(a, b; c; t) - d/ds 2F1(a+s, b; c+s; t)],

at s = 0, where t = e^(-2l), a = n - 1, b = (n-1)/2, c = (n+1)/2,
coef_n = (n-2) pi^((n-2)/2) Gamma(n/2 - 1) / Gamma((n+1)/2)^2 and
c_n = H_((n-1)/2) = psi((n+1)/2) + Euler's gamma.  The derivative is
mpmath's numerical ``diff``.  The form loses about |log10 l| digits as
t -> 1, so lengths below 1 run at dps = 40 + 2 |log10 l|, and the others at
40.  Each n = 3 value is checked against the closed form
pi (1 + l) / (e^(2l) - 1), and a few small-length points against mpmath's
``quad`` of the radial integral (the inner kernel's closed form from
``gen_inner_reference.py``), of either parity; a mismatch stops the
generator.  Every point
stores the natural log of F as well as F, because F leaves the double range
at large l and, for large n, at small l; the log is what the tests compare
there.  Writes ``tests/data/series_reference.json`` and
``tests/data/s_series_reference.json``.

    python tests/gen_series_reference.py           # write the files
    python tests/gen_series_reference.py --check   # recompute and diff

Needs mpmath (the ``test`` extra).  A run takes about forty seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath as mp

from gen_inner_reference import closed_form as inner_kernel

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PATH = os.path.join(DATA, "series_reference.json")
S_PATH = os.path.join(DATA, "s_series_reference.json")
DIMENSIONS = (3, 4, 5, 6, 7, 8, 10, 13, 16, 20, 25, 30, 40, 50, 60, 80, 100,
              400, 500, 1000, 2000)
# the first length is the double nearest ln 2 / 2, where the series starts
LENGTHS = (0.5 * math.log(2.0), 0.35, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0,
           8.0, 12.0, 20.0, 30.0, 50.0, 100.0, 200.0, 354.0, 400.0, 700.0,
           1000.0, 3000.0, 1e4)
S_DIMENSIONS = (3, 4, 5, 6, 7, 8, 9, 10, 13, 20, 21, 39, 40, 41, 59, 60, 99, 100)
# the last length is the double below ln 2 / 2, where the t-series takes
# over for even n
S_LENGTHS = (1e-12, 1e-9, 3.2e-9, 1e-6, 1e-3, 0.1, 0.3,
             math.nextafter(0.5 * math.log(2.0), 0.0))
# (n, l) checked against the radial integral, a few seconds each
QUAD_POINTS = ((4, 1e-3), (4, 0.1), (4, 0.3), (5, 1e-3), (5, 0.1), (5, 0.3),
               (9, 1e-3), (9, 0.1), (9, 0.3), (10, 0.1))
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


def table(dimensions, lengths, quad_points=()):
    points = []
    for n in dimensions:
        for l in lengths:
            with mp.workdps(DPS + 2 * max(0, math.ceil(-math.log10(l)))):
                value = kernel(n, l)
                if n == 3:
                    exact = mp.pi * (1 + mp.mpf(l)) / mp.expm1(2 * mp.mpf(l))
                    if abs(value / exact - 1) > mp.mpf(10) ** (4 - DPS):
                        raise SystemExit(f"F_3({l!r}) = {value} misses the "
                                         f"closed form {exact}")
                if (n, l) in quad_points:
                    radial = radial_kernel(n, l)
                    if abs(value / radial - 1) > mp.mpf(10) ** (10 - DPS):
                        raise SystemExit(f"F_{n}({l!r}) = {value} misses the "
                                         f"radial integral {radial}")
                points.append({
                    "n": n,
                    "l": l,
                    "value": mp.nstr(value, DIGITS),
                    "log_value": mp.nstr(mp.log(value), DIGITS),
                })
    return points


def tables():
    """{path: points} for the two tables."""
    return {
        PATH: table(DIMENSIONS, LENGTHS),
        S_PATH: table(S_DIMENSIONS, S_LENGTHS, QUAD_POINTS),
    }


def check(path, points):
    """True when the file at path holds points; prints what differs."""
    with open(path) as fh:
        stored = json.load(fh)["points"]
    if stored == points:
        print(f"{path}: {len(points)} points match")
        return True
    keys = {(p["n"], p["l"]): p for p in stored}
    for p in points:
        if keys.get((p["n"], p["l"])) != p:
            print(f"differs: n={p['n']} l={p['l']!r}: file "
                  f"{keys.get((p['n'], p['l']))}, now {p}")
    if len(stored) != len(points):
        print(f"{path} has {len(stored)} points, now {len(points)}")
    return False


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute and compare with the files instead of writing them")
    args = ap.parse_args(argv)
    computed = tables()
    if args.check:
        matches = [check(path, points) for path, points in computed.items()]
        return 0 if all(matches) else 1
    os.makedirs(DATA, exist_ok=True)
    for path, points in computed.items():
        with open(path, "w") as fh:
            fh.write('{"digits": %d, "points": [\n' % DIGITS)
            fh.write(",\n".join(json.dumps(p) for p in points))
            fh.write("\n]}\n")
        print(f"wrote {len(points)} points to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
