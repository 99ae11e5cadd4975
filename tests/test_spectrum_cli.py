"""Tests for spectrum file parsing, the identity sum, and the CLI."""

import math
import os
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from gen_kernel_reference import kernel as series_kernel_mp
from test_constants import small_length_constant_mp

from orthovol import (
    KernelValue,
    SpectrumFormatError,
    collar_volume_factor,
    inner_kernel,
    parse_spectrum,
    small_length_constant,
    spectrum_volume,
    volume_kernel,
)
from orthovol.cli import _fmt_log, _length_grid, main
from orthovol.volume_kernel import _SERIES_CUT

SAMPLE = """\
# toy spectrum
0.5 2

1.0
2.0 3   # trailing comment
"""


def test_parse_spectrum_basic():
    entries = parse_spectrum(SAMPLE)
    assert entries == [(0.5, 2), (1.0, 1), (2.0, 3)]


def test_parse_spectrum_empty():
    assert parse_spectrum("") == []
    assert parse_spectrum("# only comments\n\n") == []


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("1.0\n2.0 3 4\n", 2),
        ("abc\n", 1),
        ("1.0 x\n", 1),
        ("1.0 0\n", 1),
        ("-2.0\n", 1),
        ("inf\n", 1),
        ("0\n", 1),
    ],
)
def test_parse_spectrum_errors_carry_line_numbers(text, line_no):
    with pytest.raises(SpectrumFormatError) as exc_info:
        parse_spectrum(text)
    assert exc_info.value.line_no == line_no
    assert f"line {line_no}:" in str(exc_info.value)


def test_spectrum_volume_empty():
    total, err, rows = spectrum_volume(3, [])
    assert total == 0.0
    assert err == 0.0
    assert rows == []
    # n is checked without entries too: these gave (0.0, 0.0, [])
    with pytest.raises(ValueError, match="^dimension must be >= 2$"):
        spectrum_volume(1, [])
    with pytest.raises(TypeError, match="dimension must be an integer"):
        spectrum_volume(3.5, [])


def test_spectrum_volume_multiplicity():
    total, _, rows = spectrum_volume(3, [(1.0, 2)])
    single = volume_kernel(3, 1.0).value
    assert total == pytest.approx(2.0 * single, rel=1e-14)
    assert rows == [(1.0, 2, single, volume_kernel(3, 1.0).err_estimate)]


def test_spectrum_volume_compositional():
    entries = parse_spectrum(SAMPLE)
    total, _, _ = spectrum_volume(3, entries)
    want = sum(
        mult * volume_kernel(3, length).value
        for length, mult in entries
    )
    assert total == pytest.approx(want, rel=1e-12)


def test_spectrum_volume_total_within_its_estimate():
    # 100 entries of F_3 = pi (1 + l) / (e^(2l) - 1) on the t-series,
    # whose terms carry errors near 1e-15 relative: the total must be
    # within its estimate of the exact sum, rounding included
    rng = random.Random(16)
    entries = [(rng.uniform(_SERIES_CUT, 40.0), rng.randint(1, 1000)) for _ in range(100)]
    total, total_err, _ = spectrum_volume(3, entries)
    with mpmath.workdps(40):
        exact = mpmath.fsum(
            mult * mpmath.pi * (1 + mpmath.mpf(l)) / mpmath.expm1(2 * mpmath.mpf(l))
            for l, mult in entries
        )
        assert abs(total - exact) <= total_err


def test_cli_fn_round_trip(capsys):
    assert main(["fn", "-n", "3", "-l", "1"]) == 0
    value_token, err_token = capsys.readouterr().out.split()
    kv = volume_kernel(3, 1.0)
    # 17 significant digits must re-parse to the identical double
    assert float(value_token) == kv.value
    assert float(err_token) == kv.err_estimate


def test_cli_fn_dimension_two_exact(capsys):
    assert main(["fn", "-n", "2", "-l", "1"]) == 0
    _, err_token = capsys.readouterr().out.split()
    assert float(err_token) == 0.0


def test_cli_mn_closed_and_oracle(capsys):
    # mn prints the closed form; its integral oracle is no longer a CLI
    # option (tests/oracles.py holds it)
    assert main(["mn", "-n", "3", "-b", "2"]) == 0
    assert float(capsys.readouterr().out) == inner_kernel(3, 2.0)
    with pytest.raises(SystemExit) as exc_info:
        main(["mn", "-n", "3", "-b", "2", "--oracle"])
    assert exc_info.value.code == 2


def test_cli_mn_far_field_below_subnormal(capsys):
    # m_60(1e6) ~ 1e-354: b^59 overflows, which used to exit 2 with
    # "error: (34, 'Numerical result out of range')"
    assert main(["mn", "-n", "60", "-b", "1e6"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_cli_mn_past_the_double_range_exits_two(capsys):
    # m_60(1 + 1e-8) overflows: it used to exit 2 with "float division by zero"
    assert main(["mn", "-n", "60", "-b", "1.00000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: inner kernel m_n(b) leaves the double range" in captured.err


@pytest.mark.parametrize("n,b", [("100", "1.001"), ("600", "2.0")])
def test_cli_mn_lost_closed_form_exits_two(capsys, n, b):
    # the closed form's terms overflow before m_n(b) does: these printed
    # nan and -inf and exited 0
    assert main(["mn", "-n", n, "-b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: inner kernel's closed form gives")


def test_cli_kn_single(capsys):
    assert main(["kn", "-n", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == small_length_constant(5)[0]


def test_cli_kn_past_the_gamma_overflow(capsys):
    # K_180 ~ 1.8e-147: a float product of gamma values printed nan
    assert main(["kn", "-n", "180"]) == 0
    out = float(capsys.readouterr().out)
    with mpmath.workdps(40):
        want = small_length_constant_mp(180)
        assert abs(out - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [330, 340])
def test_cli_kn_below_the_normal_range(n, capsys):
    # K_330 is subnormal and K_340 rounds to 0 as a double; both used to
    # print as such (7.3564284590216069e-313 and 0) and now print from
    # log K_n, whose rounding of about |log K_n| ulp bounds the error
    assert main(["kn", "-n", str(n)]) == 0
    out = capsys.readouterr().out.strip()
    with mpmath.workdps(40):
        want = small_length_constant_mp(n)
        assert abs(mpmath.mpf(out) - want) <= 1e-12 * want


def test_cli_bound_floor_below_the_normal_range(capsys):
    # K_401 ~ 1e-398 underflows, but the floor K_401^(1/400) (1/2)^(399/400)
    # ~ 0.0512, the bound's limit as the area grows, is formed in logs and
    # prints below the bound, 0.0616
    assert main(["bound", "-n", "401", "-A", "1"]) == 0
    fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
    with mpmath.workdps(40):
        want = (small_length_constant_mp(401) / mpmath.mpf(2) ** 399) ** (mpmath.mpf(1) / 400)
        assert abs(mpmath.mpf(fields["power_floor"]) - want) <= 1e-12 * want
    assert want < float(fields["bound"])


def test_cli_bound_below_the_normal_range(capsys):
    # the kernel at 2x underflows, so the bound prints from its log, not
    # as 0 (or, at n = 400, as a subnormal with few digits)
    assert main(["bound", "-n", "2001", "-A", "5e-324"]) == 0
    fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
    x = float(fields["crossing_length"])
    log_value = volume_kernel(2001, 2.0 * x).log_value
    printed = mpmath.mpf(fields["bound"])
    assert printed > 0
    assert abs(mpmath.log(printed) - log_value) <= 4 * sys.float_info.epsilon * abs(log_value)


@pytest.mark.parametrize("argv", [
    # K_340 l^-338 is below the smallest double at l = 1: the column
    # printed 0 in both rows
    ["-n", "340", "--lmin", "0.5", "--lmax", "1"],
    # l^98 overflows at l = 1e4: the table exited 2 with "Numerical result
    # out of range"
    ["-n", "100", "--lmin", "1", "--lmax", "1e4"],
])
def test_cli_table_floor_off_the_normal_range(argv, capsys):
    assert main(["table", *argv, "--steps", "2", "--floor"]) == 0
    rows = capsys.readouterr().out.split()[1:]
    n = int(argv[1])
    with mpmath.workdps(40):
        for row in rows:
            l, _, _, floor = row.split(",")
            want = small_length_constant_mp(n) * mpmath.mpf(l) ** (2 - n)
            # from log K_n - (n-2) log l, whose rounding of about its size
            # in ulp bounds the error
            assert abs(mpmath.mpf(floor) - want) <= 1e-12 * want


def test_cli_kn_rejects_dimension_below_three(capsys):
    assert main(["kn", "-n", "2"]) == 2
    assert "dimension must be >= 3" in capsys.readouterr().err


def test_cli_bound_past_the_gamma_overflow(capsys):
    # K_131 used to read 0, and the bracket's seed log(K_n) exited 2 with
    # "math domain error"
    assert main(["bound", "-n", "131", "-A", "10"]) == 0
    fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(fields["bound"]) > 0.0
    assert float(fields["power_floor"]) > 0.0


def test_cli_kn_default_table(capsys):
    assert main(["kn"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    first_dim, first_val = lines[0].split()
    assert first_dim == "3"
    assert float(first_val) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_cli_bound_past_the_double_binomials(capsys):
    # the collar factor raised OverflowError from n = 1025, which exited 2
    assert main(["bound", "-n", "2001", "-A", "1"]) == 0
    fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
    x = float(fields["crossing_length"])
    assert x == pytest.approx(0.023035667718509258, rel=1e-12)
    assert float(fields["bound"]) == pytest.approx(collar_volume_factor(2001, x)[0], rel=1e-12)


def test_cli_bound_labels(capsys):
    assert main(["bound", "-n", "3", "-A", str(4.0 * math.pi)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    fields = dict(line.split() for line in lines)
    assert set(fields) == {"crossing_length", "bound", "power_floor"}
    assert float(fields["bound"]) == pytest.approx(2.986, rel=1e-2)
    assert float(fields["power_floor"]) == pytest.approx(math.pi, rel=1e-12)


def test_cli_sum(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(SAMPLE)
    assert main(["sum", "-n", "3", str(spectrum)]) == 0
    total_token, _ = capsys.readouterr().out.split()
    want = sum(
        mult * volume_kernel(3, length).value
        for length, mult in parse_spectrum(SAMPLE)
    )
    assert float(total_token) == pytest.approx(want, rel=1e-12)


def test_cli_sum_per_term_and_cutoff(tmp_path, capsys):
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(SAMPLE)
    assert main(["sum", "-n", "3", str(spectrum), "--per-term", "--cutoff", "1.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # two surviving entries plus the total line
    assert len(lines) == 3
    total_token = lines[-1].split()[0]
    want = (
        2.0 * volume_kernel(3, 0.5).value
        + volume_kernel(3, 1.0).value
    )
    assert float(total_token) == pytest.approx(want, rel=1e-12)


def test_cli_sum_empty_file(tmp_path, capsys):
    spectrum = tmp_path / "empty.txt"
    spectrum.write_text("# nothing\n")
    assert main(["sum", "-n", "3", str(spectrum)]) == 0
    total_token, err_token = capsys.readouterr().out.split()
    assert float(total_token) == 0.0
    assert float(err_token) == 0.0


@pytest.mark.parametrize(
    "text,argv", [("# nothing\n", []), (SAMPLE, ["--cutoff", "0.1"])], ids=["empty", "cutoff"]
)
def test_cli_sum_rejects_dimension_below_two_without_entries(text, argv, tmp_path, capsys):
    # an empty file, or one the cutoff empties, printed 0 0 and exited 0
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(text)
    assert main(["sum", "-n", "1", str(spectrum), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension must be >= 2" in captured.err


def test_cli_table_log_grid(capsys):
    assert main(
        ["table", "-n", "3", "--lmin", "0.1", "--lmax", "5", "--steps", "50",
         "--scale", "log"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["l", "kernel", "err_estimate"]
    assert len(lines) == 51
    kernel_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(kernel_col, kernel_col[1:]))


def test_cli_table_endpoints_and_round_trip(capsys):
    assert main(
        ["table", "-n", "4", "--lmin", "0.5", "--lmax", "2", "--steps", "2"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line, l in zip(lines[1:], (0.5, 2.0)):
        l_token, value_token, _ = line.split(",")
        assert float(l_token) == l
        assert float(value_token) == volume_kernel(4, l).value


def test_cli_table_dimension_two_errors_are_zero(capsys):
    assert main(
        ["table", "-n", "2", "--lmin", "0.5", "--lmax", "2", "--steps", "4"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[2]) == 0.0


def test_cli_table_optional_columns(tmp_path):
    out = tmp_path / "table.csv"
    assert main(
        ["table", "-n", "3", "--lmin", "0.5", "--lmax", "1", "--steps", "3",
         "--floor", "--collar", "4.0", "-o", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["l", "kernel", "err_estimate", "small_length_approx",
                      "collar_volume"]
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(
        small_length_constant(3)[0] / 0.5, rel=1e-14
    )


def test_cli_exit_code_bad_values(capsys):
    assert main(["fn", "-n", "3", "-l", "-1"]) == 2
    assert main(["fn", "-n", "1", "-l", "1"]) == 2
    assert main(["bound", "-n", "3", "-A", "0"]) == 2
    assert main(["fn", "-n", "3", "-l", "inf"]) == 2
    assert main(["mn", "-n", "3", "-b", "inf"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["bound", "-n", "3", "-A", "inf"]) == 2
    assert "area must be positive and finite" in capsys.readouterr().err


def test_cli_table_collar_past_the_overflow(capsys):
    # collar_volume_factor(3, 500) overflowed in expm1: the table exited 2
    # with "math range error"; the column now prints from the factor's log
    argv = ["table", "-n", "3", "--lmin", "1", "--lmax", "1000", "--steps", "2"]
    assert main(argv + ["--collar", "1"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.split()[1:]]
    assert float(rows[0][3]) == collar_volume_factor(3, 0.5)[0]
    with mpmath.workdps(40):
        want = mpmath.mpf(250) + mpmath.sinh(1000) / 4
        assert abs(mpmath.mpf(rows[1][3]) / want - 1) <= 1e-13


@pytest.mark.parametrize("collar", ["nan", "inf", "-1", "0"])
def test_cli_table_rejects_collar_area_out_of_range(collar, capsys):
    # the collar column takes the bound's area rule; it printed nan, inf
    # or negative volumes
    argv = ["table", "-n", "3", "--lmin", "0.1", "--lmax", "1", "--steps", "2"]
    assert main(argv + ["--collar", collar]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "area must be positive and finite" in captured.err


@pytest.mark.parametrize("grid", [
    ["--lmin", "0.1", "--lmax", "1", "--steps", "1"],
    ["--lmin", "1", "--lmax", "1"],
    ["--lmin", "2", "--lmax", "1"],
])
def test_cli_table_rejects_bad_grid(grid, capsys):
    assert main(["table", "-n", "3", *grid]) == 2
    assert "error: need" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["nan", "0", "-1"])
def test_cli_sum_rejects_cutoff_out_of_range(cutoff, tmp_path, capsys):
    # such a cutoff dropped every entry and printed 0 0
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text(SAMPLE)
    assert main(["sum", "-n", "3", str(spectrum), "--cutoff", cutoff]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cutoff must be positive" in captured.err


def test_fmt_log_carries_a_rounded_mantissa():
    # 9.999e-400 rounds to 10 at 3 digits: the exponent takes the carry
    log_value = math.log(9.999) - 400.0 * math.log(10.0)
    assert _fmt_log(0.0, log_value, 3) == "1e-399"


def test_cli_fn_underflowing_kernel_prints_log_value(capsys):
    # F_3(400) = pi 401 e^(-800) / (1 - e^(-800)) ~ 4.6e-345 is below the
    # smallest double: fn prints it from log_value, not as 0, and the
    # error estimate, an ulp of 0, still bounds the value's distance from 0
    assert main(["fn", "-n", "3", "-l", "400"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    value_token, err_token = captured.out.split()
    mantissa, exponent = value_token.split("e")
    assert int(exponent) == -345 and 1.0 <= float(mantissa) < 10.0
    log_f = math.log(math.pi * 401.0) - 800.0 - math.log1p(-math.exp(-800.0))
    printed = math.log(float(mantissa)) + int(exponent) * math.log(10.0)
    assert printed == pytest.approx(log_f, rel=1e-14)
    assert float(err_token) == math.ulp(0.0)


def test_cli_fn_overflowing_kernel_prints_log_value(capsys):
    # F_59(1e-9) ~ 1e479 is past the largest double: fn prints it from
    # log_value, not as inf, next to an inf error estimate
    assert main(["fn", "-n", "59", "-l", "1e-9"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    value_token, err_token = captured.out.split()
    mantissa, exponent = value_token.split("e")
    assert int(exponent) == 479 and 1.0 <= float(mantissa) < 10.0
    with mpmath.workdps(60):
        log_f = mpmath.log(series_kernel_mp(59, mpmath.mpf("1e-9")))
        printed = mpmath.log(mpmath.mpf(mantissa)) + int(exponent) * mpmath.log(10)
        # F to 1e-12 relative
        assert abs(printed - log_f) <= 1e-12
    assert float(err_token) == math.inf


QUADRATURE_FLAGS = [["--rtol", "1e-5"], ["--atol", "1e-3"], ["--maxsub", "10"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["mn", "-n", "3", "-b", "2", "--rtol", "1e-5"],
        ["mn", "-n", "3", "-b", "2", "--maxsub", "0"],
        ["kn", "-n", "3", "--atol", "1e-3"],
        ["selftest", "--rtol", "1e-5"],
        ["selftest", "--digits", "3"],
    ]
    + [
        command + flag
        for command in (
            ["fn", "-n", "4", "-l", "0.3"],
            ["bound", "-n", "3", "-A", "10"],
            ["sum", "-n", "3", "spectrum.txt"],
            ["table", "-n", "4", "--lmin", "0.1", "--lmax", "1"],
        )
        for flag in QUADRATURE_FLAGS
    ],
)
def test_cli_rejects_flags_a_subcommand_ignores(argv):
    # no subcommand takes quadrature tolerances, and --digits is only on
    # those that print numbers
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


def test_cli_rejects_negative_digits(capsys):
    # it used to reach the format string: "Format specifier missing precision"
    with pytest.raises(SystemExit) as exc_info:
        main(["fn", "-n", "3", "-l", "1", "--digits", "-1"])
    assert exc_info.value.code == 2
    assert "argument --digits" in capsys.readouterr().err
    assert main(["fn", "-n", "3", "-l", "1", "--digits", "0"]) == 0


def test_cli_exit_code_non_convergence(capsys, monkeypatch):
    # no kernel value integrates and every finite area brackets; a kernel
    # whose log gap never changes sign leaves the crossing unbracketed
    kv = KernelValue(math.inf, math.inf, 1e4)
    monkeypatch.setattr("orthovol.bounds.volume_kernel", lambda n, l: kv)
    assert main(["bound", "-n", "3", "-A", "1"]) == 3
    assert "could not bracket" in capsys.readouterr().err


def test_cli_bound_tiny_area_exits_zero(capsys):
    # the crossing for n = 3 lies at x = 39.6 for A = 1e-100 and at 116.6
    # for A = 1e-300
    for area, crossing in (("1e-100", 39.6447198045869), ("1e-300", 116.57594488868963)):
        assert main(["bound", "-n", "3", "-A", area]) == 0
        fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(fields["crossing_length"]) == pytest.approx(crossing, rel=1e-13)
        assert float(fields["bound"]) > 0.0


def test_cli_exit_code_missing_file(capsys):
    assert main(["sum", "-n", "3", "/no/such/file.txt"]) == 4
    assert "error:" in capsys.readouterr().err


def test_cli_exit_code_unwritable_output(tmp_path, capsys):
    target = tmp_path / "not-a-dir" / "out.csv"
    assert main(
        ["table", "-n", "3", "--lmin", "0.5", "--lmax", "1", "--steps", "2",
         "-o", str(target)]
    ) == 4
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_spectrum_reports_line(tmp_path, capsys):
    spectrum = tmp_path / "bad.txt"
    spectrum.write_text("1.0\nnot-a-number\n")
    assert main(["sum", "-n", "3", str(spectrum)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_cli_selftest_fast(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    # the slow oracle suite moved to pytest
    with pytest.raises(SystemExit) as exc_info:
        main(["selftest", "--full"])
    assert exc_info.value.code == 2


def test_console_script_installed():
    # src/ first on the path, so that an uninstalled checkout runs too
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "orthovol.cli", "kn", "-n", "3"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_cli_runs_without_scipy_or_numpy(tmp_path):
    # the package has no runtime dependency: a fresh process that imports
    # it and its CLI, then runs every command but --help, must not have
    # imported scipy or numpy at any point
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("0.5 2\n1.5\n")
    script = (
        "import os, sys\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')]\n"
        "import orthovol, orthovol.cli\n"
        "print('import', loaded())\n"
        "from orthovol.cli import main\n"
        "assert main(['fn', '-n', '3', '-l', '1']) == 0\n"
        "assert main(['fn', '-n', '2', '-l', '1']) == 0\n"
        "assert main(['mn', '-n', '4', '-b', '2']) == 0\n"
        "assert main(['kn']) == 0\n"
        f"assert main(['sum', '-n', '4', {str(spectrum)!r}]) == 0\n"
        "assert main(['bound', '-n', '3', '-A', '4']) == 0\n"
        "assert main(['table', '-n', '3', '--lmin', '0.1', '--lmax', '5',\n"
        "             '--scale', 'log', '-o', os.devnull]) == 0\n"
        "assert main(['selftest']) == 0\n"
        "print('commands', loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "import []" in lines
    assert lines[-1] == "commands []"


def test_table_grid_matches_numpy():
    # The grid is built without numpy.  The linear one is linspace bit for
    # bit.  The log one is within 2 ulp of geomspace wherever math.log10
    # and numpy's log10 agree at both ends (1 ulp measured; numpy's power
    # differs from the C library's).  Where they differ by an ulp, every
    # exponent moves by up to about 3 ulp of the largest |log10 l|, and
    # 10**x by ln(10) times that, relative: 37 ulp measured near l = 1e-8.
    rng = random.Random(20261018)
    for _ in range(500):
        lmin = 10.0 ** rng.uniform(-8.0, 1.0)
        lmax = lmin * 10.0 ** rng.uniform(1e-3, 4.0)
        steps = rng.randint(2, 200)
        linear = _length_grid(lmin, lmax, steps, "linear")
        assert linear == np.linspace(lmin, lmax, steps).tolist()
        log = _length_grid(lmin, lmax, steps, "log")
        want = np.geomspace(lmin, lmax, steps).tolist()
        assert (log[0], log[-1]) == (lmin, lmax) == (want[0], want[-1])
        lo, hi = math.log10(lmin), math.log10(lmax)
        shift = 0.0
        if (lo, hi) != (np.log10(lmin), np.log10(lmax)):
            shift = 3.0 * math.log(10.0) * math.ulp(max(abs(lo), abs(hi)))
        assert all(abs(a - b) <= 2.0 * math.ulp(b) + shift * b for a, b in zip(log, want))
