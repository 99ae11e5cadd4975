"""orthovol benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload spectrum_sum --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each run starts fresh worker processes, one at a time and single-threaded:

* ``--trace 0``: six set-up-only workers and the measuring worker.  setup_s
  is the median, over the seven, of the time from spawning the process to
  its first timed operation (import, reference and inputs, one warm-up call
  per dimension).  The measuring worker then runs a closed loop of whole
  passes, as many as take about ``--seconds`` at the parent commit (a fixed
  number for given ``--seconds``; the workload's fixed requests first), and
  checks every output against ``perfbench/reference.json``.  op_p50_ms and
  op_tail_ms come from one latency sample per operation; on spectrum_sum
  that is each volume_kernel call spectrum_volume makes, one per entry.
* ``--trace 1``: one worker replays the workload's fixed requests untraced,
  then again with every layer's public functions rebound to timing wrappers
  (see ``tracer.py``), and reports per-layer counts and self times.  The
  spans are written to ``.perfbench-out/``.

End-to-end metrics come only from untraced runs.  The last line of output is
``{"correct", "attempted", "failed", "metrics"}``: failed counts every failed
operation; correct is false when a failure lies outside the known defects
listed in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 7
# A run whose fixed amount of work has taken this long already stops at the
# next whole pass, so that it ends within the contract's three minutes
# (notes.requests then falls short of notes.planned_requests).
MAX_MEASURE_S = 120.0
TAIL_MIN_BEYOND = 10
# one thread per process: numerical libraries may not start worker pools
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "accuracy_digits": "digits",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "special.truncated_log.calls": "count",
    "special.truncated_log.self_s": "s",
    "special.rogers_l.calls": "count",
    "special.rogers_l.self_s": "s",
    "inner_kernel.inner_kernel.calls": "count",
    "inner_kernel.inner_kernel.self_s": "s",
    "inner_kernel.inner_kernel.us_per_call": "us",
    "quadrature.adaptive_quad.calls": "count",
    "quadrature.adaptive_quad.self_s": "s",
    "quadrature.adaptive_quad.nonconvergence": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.evals_per_kernel": "count",
    "volume_kernel.volume_kernel.calls": "count",
    "volume_kernel.volume_kernel.self_s": "s",
    "volume_kernel.fallback_alt": "count",
    "volume_kernel.radial_nonconvergence": "count",
    "bounds.volume_bound.calls": "count",
    "bounds.volume_bound.self_s": "s",
    "bounds.kernel_calls_per_solve": "count",
    "bounds.kernel_near_repeat_frac": "frac",
    "spectrum.parse_spectrum.self_s": "s",
    "spectrum.spectrum_volume.self_s": "s",
    "cli.invocations": "count",
    "cli.import_s": "s",
    **{f"cli.{sub}.wall_s": "s" for sub in ("kn", "mn", "fn", "bound", "sum", "help")},
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------- host speed

# The host is shared, and its speed swings by a third and more within
# seconds: a fixed loop's time varied with an interquartile range of 35-45%
# of its median inside one 10-s run, and so did the library's.  More work per
# run does not average that out.  So every timed request is bracketed by a
# fixed calibration loop, and every time is reported at a reference speed:
# multiplied by CAL_REF_S over the loop's time around it.  The loop is plain
# Python float arithmetic, like the library's integrands, and calls no
# library code, so a change to the library does not move it.
CAL_ITERS = 8000
# about the loop's fastest time on the machine in baseline.json's environment
CAL_REF_S = 1.7e-3
# a request that takes longer gets one more loop per this many seconds
CAL_EVERY_S = 0.04
CAL_MAX_SLICES = 30
# loops run at the start and at the end of set-up
SETUP_CAL_SLICES = 10


def calibrate(slices):
    """Median time of `slices` runs of the calibration loop, in seconds."""
    times = []
    for _ in range(slices):
        t0 = time.perf_counter()
        x, acc = 1e-3, 0.0
        for _ in range(CAL_ITERS):
            x = x * 1.0001 + 1e-4
            acc += math.log1p(math.exp(-x)) * math.atanh(1.0 / (1.0 + x)) + math.sqrt(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------- worker


def _import_library():
    """Import orthovol from the checkout; returns the import time in seconds."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import orthovol.cli  # noqa: F401  (pulls in every layer)
    return time.perf_counter() - t0


def _make_workload(name, seed):
    from reference import load_reference
    from workloads import CliCold, WORKLOADS, api_namespace

    ref = load_reference()
    api = api_namespace()
    if name == CliCold.name:
        return CliCold(seed, ref, api, ROOT, OUT_DIR)
    return WORKLOADS[name](seed, ref, api)


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _tail(samples):
    """(value, percentile) at the highest whole percentile with at least
    TAIL_MIN_BEYOND samples above it; the median when there are too few."""
    count = len(samples)
    pct = math.floor(100 * (count - TAIL_MIN_BEYOND) / count)
    if pct <= 50:
        return statistics.median(samples), 50
    xs = sorted(samples)
    return xs[math.ceil(pct / 100 * count) - 1], pct


class Tally:
    """Failure counts and worst accuracy over checked operations."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.unknown = 0
        self.by_status: dict[str, int] = {}
        self.worst_digits = None

    def add(self, checks):
        for status, d, known in checks:
            self.ops += 1
            self.by_status[status] = self.by_status.get(status, 0) + 1
            if status != "ok":
                self.failed += 1
                self.unknown += not known
            if d is not None:
                self.worst_digits = d if self.worst_digits is None else min(self.worst_digits, d)


def _request_key(req):
    """What makes two requests the same call, for the repeat share."""
    return hash(tuple(getattr(req, "argv", None) or [getattr(req, "text", None)])
                + (getattr(req, "n", None), getattr(req, "l", None), getattr(req, "area", None)))


def worker_measure(args, cal_start, cal_start_s):
    wl = _make_workload(args.workload, args.seed)
    wl.warm_up()
    print("READY", flush=True)
    cal_before = calibrate(SETUP_CAL_SLICES)
    # the parent takes the loop's own time out of set-up and scales the rest
    print(f"CAL {cal_start} {cal_before} {cal_start_s}", flush=True)
    if args.setup_only:
        return 0
    # each request is checked, untimed, right after its call and then
    # dropped, so memory does not grow with the number of requests
    everything, fixed = Tally(), Tally()
    per_op_ms: list[float] = []
    self_timed = wl.time_operations(per_op_ms)
    requests = 0
    busy = busy_raw = 0.0
    speeds = []
    seen = set()
    repeats = 0
    total = wl.run_requests(args.seconds)
    t_cut = time.perf_counter() + MAX_MEASURE_S
    while requests < total and (requests % wl.pass_requests or requests < wl.fixed_requests
                                or time.perf_counter() < t_cut):
        req = wl.next_request()
        first = len(per_op_ms)
        t0 = time.perf_counter()
        wl.run(req)
        seconds = time.perf_counter() - t0
        cal_after = calibrate(min(CAL_MAX_SLICES, 1 + int(seconds / CAL_EVERY_S)))
        scale = 2.0 * CAL_REF_S / (cal_before + cal_after)
        cal_before = cal_after
        checks = wl.check(req)
        everything.add(checks)
        if requests < wl.fixed_requests:
            fixed.add(checks)
        key = _request_key(req)
        repeats += key in seen
        seen.add(key)
        busy_raw += seconds
        busy += seconds * scale
        speeds.append(scale)
        requests += 1
        if self_timed:
            for i in range(first, len(per_op_ms)):
                per_op_ms[i] *= scale
        else:
            per_op_ms.extend([1e3 * seconds * scale / req.ops] * req.ops)
    tail, pct = _tail(per_op_ms)
    result = {
        "attempted": everything.ops,
        "failed": everything.failed,
        "unknown_failures": everything.unknown,
        "status_counts": everything.by_status,
        "metrics": {
            "ops_per_s": everything.ops / busy,
            "op_p50_ms": statistics.median(per_op_ms),
            "op_tail_ms": tail,
            "accuracy_digits": fixed.worst_digits if fixed.worst_digits is not None else 0.0,
            "ok_frac": 1.0 - fixed.failed / fixed.ops,
            "peak_rss_mb": _peak_rss_mb(),
        },
        "notes": {
            "requests": requests,
            "ops_per_request": everything.ops / requests,
            "busy_s": busy,
            "busy_raw_s": busy_raw,
            "host_speed_p25_p50_p75": statistics.quantiles(speeds, n=4),
            "tail_percentile": pct,
            "latency_samples": len(per_op_ms),
            "fixed_requests": wl.fixed_requests,
            "planned_requests": total,
            "fixed_status_counts": fixed.by_status,
            "repeat_frac": repeats / requests,
            **wl.properties(),
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def worker_trace(args, import_s):
    from tracer import Tracer, merge_counters

    wl = _make_workload(args.workload, args.seed)
    wl.warm_up()
    reqs = [wl.next_request() for _ in range(wl.fixed_requests)]

    t0 = time.perf_counter()
    for req in reqs:
        wl.run(req)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    counters: dict = {}
    cli_runs: list[tuple[str, float, dict]] = []
    if args.workload == "cli_cold":
        traced_runner = _traced_cli_runner(wl, cli_runs)
        wl.runner = traced_runner
    else:
        tracer.install(wl.api)
    kernel_args = []
    if args.workload == "bound_solve":
        _record_kernel_args(tracer, kernel_args)
    t0 = time.perf_counter()
    for i, req in enumerate(reqs):
        tracer.op_id = i
        wl.run(req)
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    tally = Tally()
    for req in reqs:
        tally.add(wl.check(req))
    merge_counters(counters, tracer.counters())
    import_samples = [import_s]
    for sub, _, part in cli_runs:
        import_samples.append(part.pop("cli.import_s"))
        merge_counters(counters, part)

    metrics = _layer_metrics(counters, reqs, kernel_args, cli_runs, import_samples)
    metrics["trace.overhead_s"] = traced_s - plain_s
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "counters": counters})
    print(json.dumps({"attempted": tally.ops, "failed": tally.failed,
                      "unknown_failures": tally.unknown, "status_counts": tally.by_status,
                      "metrics": metrics,
                      "notes": {"plain_s": plain_s, "traced_s": traced_s,
                                **wl.properties()}}), flush=True)
    return 0


def _record_kernel_args(tracer, out):
    """Also log the lengths bounds passes to volume_kernel (for near repeats)."""
    bounds = sys.modules["orthovol.bounds"]
    wrapped = bounds.volume_kernel

    def logging_kernel(n, l, *rest):
        out.append((n, l))
        return wrapped(n, l, *rest)

    tracer.rebind(bounds, "volume_kernel", logging_kernel)


def _near_repeat_frac(calls, rel=1e-3):
    """Share of calls within rel (relative length) of an earlier call."""
    seen: dict[int, list[float]] = {}
    near = 0
    for n, l in calls:
        prev = seen.setdefault(n, [])
        near += any(abs(l - p) <= rel * p for p in prev)
        prev.append(l)
    return near / len(calls) if calls else 0.0


def _traced_cli_runner(wl, sink):
    script = os.path.join(HERE, "cli_traced.py")

    def runner(argv):
        stats_path = os.path.join(OUT_DIR, f"cli-stats-{os.getpid()}.json")
        t0 = time.perf_counter()
        proc = subprocess.run([wl.python, script, stats_path, *argv], capture_output=True,
                              text=True, env=wl.env, cwd=wl.root, timeout=120)
        wall = time.perf_counter() - t0
        with open(stats_path, encoding="utf-8") as fh:
            part = json.load(fh)
        os.remove(stats_path)
        sink.append((argv[0].lstrip("-"), wall, part))
        return proc

    return runner


def _layer_metrics(c, reqs, kernel_args, cli_runs, import_samples):
    get = lambda key: c.get(key, 0)  # noqa: E731
    kernel_calls = get("volume_kernel.volume_kernel.calls")
    inner_calls = get("inner_kernel.inner_kernel.calls")
    solves = get("bounds.volume_bound.calls")
    evals = get("volume_kernel.integrand.calls")
    m = {
        "special.truncated_log.calls": get("special.truncated_log.calls"),
        "special.truncated_log.self_s": get("special.truncated_log.self_s"),
        "special.rogers_l.calls": get("special.rogers_l.calls"),
        "inner_kernel.inner_kernel.calls": inner_calls,
        "inner_kernel.inner_kernel.self_s": get("inner_kernel.inner_kernel.self_s"),
        "inner_kernel.inner_kernel.us_per_call":
            1e6 * get("inner_kernel.inner_kernel.wall_s") / max(1, inner_calls),
        "quadrature.adaptive_quad.calls": get("quadrature.adaptive_quad.calls"),
        "quadrature.adaptive_quad.self_s": get("quadrature.adaptive_quad.self_s"),
        "quadrature.adaptive_quad.nonconvergence":
            get("quadrature.adaptive_quad.nonconvergence"),
        "quadrature.integrand_evals": evals,
        # per n >= 3 kernel call: each runs the radial parametrization once
        "quadrature.evals_per_kernel":
            evals / max(1, get("volume_kernel.volume_kernel_radial.calls")),
        "volume_kernel.volume_kernel.calls": kernel_calls,
        # the module's own code: dispatcher, both parametrizations, integrands
        "volume_kernel.volume_kernel.self_s": sum(
            get(f"volume_kernel.{f}.self_s") for f in
            ("volume_kernel", "volume_kernel_radial", "volume_kernel_alt", "integrand")),
        "volume_kernel.fallback_alt": get("volume_kernel.fallback_alt"),
        "volume_kernel.radial_nonconvergence":
            get("volume_kernel.volume_kernel_radial.nonconvergence"),
        "bounds.volume_bound.calls": solves,
        "bounds.kernel_calls_per_solve": len(kernel_args) / solves if solves else 0.0,
        "bounds.kernel_near_repeat_frac": _near_repeat_frac(kernel_args),
        "cli.invocations": len(cli_runs),
        "cli.import_s": statistics.median(import_samples),
    }
    for key in ("special.rogers_l.self_s", "bounds.volume_bound.self_s",
                "spectrum.parse_spectrum.self_s", "spectrum.spectrum_volume.self_s"):
        m[key] = get(key)
    walls: dict[str, list[float]] = {}
    for sub, wall, _ in cli_runs:
        walls.setdefault(sub, []).append(wall)
    for key in PER_LAYER_UNITS:
        if key.startswith("cli.") and key.endswith(".wall_s"):
            m[key] = statistics.median(walls.get(key.split(".")[1], [0.0]))
    return m


def worker_main(args):
    if args.trace:
        import_s = _import_library()
        sys.path.insert(0, HERE)
        os.makedirs(OUT_DIR, exist_ok=True)
        return worker_trace(args, import_s)
    t0 = time.perf_counter()
    cal_start = calibrate(SETUP_CAL_SLICES)
    cal_start_s = time.perf_counter() - t0
    _import_library()
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    return worker_measure(args, cal_start, cal_start_s)


# ---------------------------------------------------------------- parent


def _spawn(args, extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=dict(os.environ, **SINGLE_THREAD_ENV))
    ready = None
    cal = None
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("CAL ") and cal is None:
                cal = [float(w) for w in line.split()[1:]]
            else:
                lines.append(line)
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    if cal is not None:
        # set-up at the reference speed, without the worker's first loops
        cal_start, cal_end, cal_start_s = cal
        ready = (ready - cal_start_s) * 2.0 * CAL_REF_S / (cal_start + cal_end)
    return ready, lines


def _result(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("worker printed no result")


def _print_table(title, metrics, units):
    print(title)
    for key, value in metrics.items():
        print(f"  {key:45s} {value:>16.6g} {units.get(key, 's')}")


def parent_main(args):
    for need in (os.path.join(ROOT, "src", "orthovol", "__init__.py"),
                 os.path.join(HERE, "reference.json")):
        if not os.path.exists(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run from the "
                  "root of an orthovol checkout", file=sys.stderr)
            return 2
    if args.trace:
        _, lines = _spawn(args, [])
        res = _result(lines)
        units = PER_LAYER_UNITS
        metrics = {k: res["metrics"][k] for k in PER_LAYER_UNITS}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            ready, _ = _spawn(args, ["--setup-only"])
            setups.append(ready)
        ready, lines = _spawn(args, [])
        setups.append(ready)
        res = _result(lines)
        units = END_TO_END_UNITS
        metrics = {"setup_s": statistics.median(setups), **res["metrics"]}
        res["notes"]["setup_samples_s"] = setups
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    _print_table("metrics:", metrics, units)
    print("notes: " + json.dumps(res["notes"], sort_keys=True))
    print("status counts: " + json.dumps(res["status_counts"], sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "attempted": res["attempted"], "failed": res["failed"],
               "metrics": metrics, "notes": res["notes"]}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({
        "correct": res["unknown_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="orthovol benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("spectrum_sum", "bound_solve", "kernel_domain", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker_main(args)
    return parent_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
