"""Command-line interface.

Subcommands mirror the library surface: kernel values, inner kernel
values, small-length constants, volume bounds, spectrum sums, kernel
tables, and the selftest checks.  Numbers print with 17 significant
digits by default so they re-parse to the same double.

Exit codes: 0 success, 1 selftest failures, 2 bad arguments or input
format, 3 a bound whose crossing is not found, 4 file I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from .bounds import collar_volume_factor, power_law_floor, volume_bound
from .inner_kernel import inner_kernel
from .quadrature import NonConvergenceError
from .spectrum import parse_spectrum, spectrum_volume
from .volume_kernel import small_length_constant, volume_kernel

__all__ = ["build_parser", "main"]


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _fmt_log(value: float, log_value: float, digits: int) -> str:
    """A positive quantity given with its log; off the normal range, from the log.

    A kernel value, constant or floor that under- or overflows then
    prints as its size, not as 0, inf or a subnormal with few digits.
    """
    if sys.float_info.min <= value < math.inf or not math.isfinite(log_value):
        return _fmt(value, digits)
    exponent = math.floor(log_value / math.log(10.0))
    mantissa = _fmt(math.exp(log_value - exponent * math.log(10.0)), digits)
    if float(mantissa) >= 10.0:
        exponent += 1
        mantissa = _fmt(float(mantissa) / 10.0, digits)
    return f"{mantissa}e{exponent:+03d}"


def cmd_fn(args: argparse.Namespace) -> int:
    kv = volume_kernel(args.dim, args.length)
    print(_fmt_log(kv.value, kv.log_value, args.digits), _fmt(kv.err_estimate, args.digits))
    return 0


def cmd_mn(args: argparse.Namespace) -> int:
    print(_fmt(inner_kernel(args.dim, args.ratio), args.digits))
    return 0


def cmd_kn(args: argparse.Namespace) -> int:
    if args.dim is not None:
        print(_fmt_log(*small_length_constant(args.dim), args.digits))
    else:
        for n in range(3, 13):
            print(n, _fmt_log(*small_length_constant(n), args.digits))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    res = volume_bound(args.dim, args.area)
    print("crossing_length", _fmt(res.crossing_length, args.digits))
    print("bound", _fmt_log(res.bound, res.log_bound, args.digits))
    print("power_floor", _fmt_log(*power_law_floor(args.dim, args.area), args.digits))
    return 0


def cmd_sum(args: argparse.Namespace) -> int:
    if args.cutoff is not None and not args.cutoff > 0.0:
        raise ValueError("cutoff must be positive")
    with open(args.spectrum, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = parse_spectrum(text)
    if args.cutoff is not None:
        entries = [(length, mult) for length, mult in entries if length <= args.cutoff]
    total, total_err, rows = spectrum_volume(args.dim, entries)
    if args.per_term:
        for length, mult, value, err in rows:
            print(
                _fmt(length, args.digits),
                mult,
                _fmt(value, args.digits),
                _fmt(err, args.digits),
            )
    print(_fmt(total, args.digits), _fmt(total_err, args.digits))
    return 0


def _length_grid(lmin: float, lmax: float, steps: int, scale: str) -> list[float]:
    """steps points from lmin to lmax, both exact, evenly spaced in l or log l.

    The linear grid is numpy's linspace bit for bit.  The log grid is
    within 2 ulp of numpy's geomspace, whose log10 and power are numpy's
    own routines rather than the C library's.
    """
    if scale == "log":
        lo = math.log10(lmin)
        step = (math.log10(lmax) - lo) / (steps - 1)
        grid = [10.0 ** (lo + i * step) for i in range(steps)]
        grid[0] = lmin
    else:
        step = (lmax - lmin) / (steps - 1)
        grid = [lmin + i * step for i in range(steps)]
    grid[-1] = lmax
    return grid


def cmd_table(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("need at least 2 steps")
    if not 0.0 < args.lmin < args.lmax:
        raise ValueError("need 0 < lmin < lmax")
    if args.collar is not None and not 0.0 < args.collar < math.inf:
        raise ValueError("area must be positive and finite")
    grid = _length_grid(args.lmin, args.lmax, args.steps, args.scale)
    header = ["l", "kernel", "err_estimate"]
    if args.floor:
        header.append("small_length_approx")
    if args.collar is not None:
        header.append("collar_volume")
    rows = [header]
    for l in grid:
        kv = volume_kernel(args.dim, l)
        row = [
            _fmt(l, args.digits),
            _fmt_log(kv.value, kv.log_value, args.digits),
            _fmt(kv.err_estimate, args.digits),
        ]
        if args.floor:
            # K_n l^(2-n) from its log, as l^(n-2) over- or underflows
            log_floor = small_length_constant(args.dim)[1] - (args.dim - 2) * math.log(l)
            floor = math.exp(log_floor) if log_floor < 709.0 else math.inf
            row.append(_fmt_log(floor, log_floor, args.digits))
        if args.collar is not None:
            factor, log_factor = collar_volume_factor(args.dim, 0.5 * l)
            log_collar = math.log(args.collar) + log_factor
            row.append(_fmt_log(args.collar * factor, log_collar, args.digits))
        rows.append(row)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    failures = run_selftest()
    return 1 if failures else 0


def _digits(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # --digits for every subcommand that prints numbers; -n for all but kn
    printing = argparse.ArgumentParser(add_help=False)
    printing.add_argument("--digits", type=_digits, default=17,
                          help="significant digits in output")
    dim = argparse.ArgumentParser(add_help=False, parents=[printing])
    dim.add_argument("-n", "--dim", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="orthovol",
        description="Hyperbolic manifold volumes from orthospectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fn", parents=[dim],
                       help="volume kernel at a given length")
    p.add_argument("-l", "--length", type=float, required=True)
    p.set_defaults(func=cmd_fn)

    p = sub.add_parser("mn", parents=[dim],
                       help="inner kernel at a given ratio")
    p.add_argument("-b", "--ratio", type=float, required=True)
    p.set_defaults(func=cmd_mn)

    p = sub.add_parser("kn", parents=[printing],
                       help="small-length kernel constants")
    p.add_argument("-n", "--dim", type=int)
    p.set_defaults(func=cmd_kn)

    p = sub.add_parser("bound", parents=[dim],
                       help="volume lower bound from boundary area")
    p.add_argument("-A", "--area", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sum", parents=[dim],
                       help="volume from an orthospectrum file")
    p.add_argument("spectrum", help="file of 'length [multiplicity]' lines")
    p.add_argument("--per-term", action="store_true")
    p.add_argument("--cutoff", type=float,
                   help="ignore entries with length above this")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("table", parents=[dim],
                       help="CSV table of kernel values over a length grid")
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("-o", "--out", help="write CSV here instead of stdout")
    p.add_argument("--floor", action="store_true",
                   help="add the small-length power-law column")
    p.add_argument("--collar", type=float, metavar="AREA",
                   help="add the collar volume column for this boundary area")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
