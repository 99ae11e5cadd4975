"""The four workloads: seeded inputs, the timed call, and the output check.

Every workload is a closed loop with one caller: the next request starts when
the previous one returns.  A request is what one call into the library (or
one CLI invocation) processes; it holds one or more operations.  Inputs come
only from the seed and the frozen reference pools; the library sees nothing
but the generated arguments.

Why each workload exists, and which layers it leaves idle, is recorded in
``BENCHMARK.json`` and ``perfbench/baseline.json``.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

from reference import OK, SpectrumReference, classify, digits

# ---------------------------------------------------------------- helpers


class Request(SimpleNamespace):
    """One timed call: its arguments, its operation count, and its outcome."""


def api_namespace():
    """The library entry points the benchmark calls; the tracer rebinds them."""
    bounds = sys.modules["orthovol.bounds"]
    spectrum = sys.modules["orthovol.spectrum"]
    kernel = sys.modules["orthovol.volume_kernel"]
    return SimpleNamespace(
        volume_kernel=kernel.volume_kernel,
        volume_bound=bounds.volume_bound,
        parse_spectrum=spectrum.parse_spectrum,
        spectrum_volume=spectrum.spectrum_volume,
    )


def _check_bound(entry, x, bound):
    """(status, digits) of a volume_bound result against its pool entry.

    The tolerances come from the kernel's own error estimate err at 2x: with
    g(x) = F(2x) - A C(x), |g'| >= A cosh(x)^(n-1), so err moves the root by
    at most err / (A cosh(x)^(n-1)) and the bound F(2x) by at most 2 err.
    """
    n, area = entry["n"], entry["area"]
    x_ref, b_ref = float(entry["crossing_length"]), float(entry["bound"])
    if not (math.isfinite(x) and x > 0.0):
        return classify(x, 0.0, x_ref), None
    kernel = sys.modules["orthovol.volume_kernel"].volume_kernel
    err = kernel(n, 2.0 * x).err_estimate
    status = classify(bound, 2.0 * err, b_ref)
    if status == OK:
        status = classify(x, err / (area * math.cosh(x) ** (n - 1)), x_ref)
    if status not in (OK, "miss"):
        return status, None
    return status, min(digits(x, x_ref), digits(bound, b_ref))


# Known defects at the commit that froze the reference.  A failure they
# cover still counts as failed; only a failure outside them makes the run
# incorrect.
# K1: the n = 2 closed form reports err_estimate 0 but drifts up to about
#     2e-12 relative as l grows (log(1 - x) at x = sech^2(l/2) near 0).
K1_REL = 1e-11


def _known_n2_drift(n, value, ref):
    return n == 2 and ref > 0.0 and abs(value - ref) <= K1_REL * ref


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: subclasses generate requests, run one, and check the outcome."""

    name = ""
    # The seed's first fixed_requests requests: the timed loop always runs at
    # least these, ok_frac and accuracy_digits are taken over them (so they
    # repeat exactly for a seed), and the traced run replays them.
    fixed_requests = 0
    # The timed loop runs whole passes of this many requests, so every run
    # sees the same mix of dimensions, points or subcommands.
    pass_requests = 1
    # About the wall time of one pass, checks and speed calibration included,
    # at the parent commit on the machine in baseline.json.  A run makes
    # round(seconds / pass_wall_s) passes: a fixed amount of work, so that
    # attempted and failed depend only on the seed and --seconds, never on
    # how fast the shared host happened to be.
    pass_wall_s = 1.0

    def __init__(self, seed: int, ref: dict, api):
        self.rng = random.Random(seed)
        self.seed = seed
        self.ref = ref
        self.api = api
        self.made = 0

    def run_requests(self, seconds: float) -> int:
        """Requests one timed run makes: whole passes, the fixed ones first."""
        passes = max(-(-self.fixed_requests // self.pass_requests),
                     round(seconds / self.pass_wall_s))
        return passes * self.pass_requests

    def next_request(self) -> Request:
        req = self.make_request(self.made)
        self.made += 1
        return req

    def make_request(self, index: int) -> Request:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request) -> list[tuple[str, float | None, bool]]:
        """Per operation: (status, accuracy digits or None, known defect)."""
        raise NotImplementedError

    def properties(self) -> dict:
        """Input properties of the requests made so far."""
        return {}

    def time_operations(self, sink: list) -> bool:
        """From now on append each operation's latency in ms to sink, if the
        workload can time its operations one by one.  Returns whether it can;
        if not, a request's latency is shared evenly by its operations."""
        return False


def _call(fn, *args):
    """Run fn, returning (result, None) or (None, exception type name)."""
    try:
        return fn(*args), None
    except Exception as exc:  # every exception is a counted failure
        return None, type(exc).__name__


class SpectrumSum(Workload):
    """parse_spectrum + spectrum_volume over seeded synthetic orthospectra."""

    name = "spectrum_sum"
    dims = (2, 3, 4, 5, 8)
    l_min = 0.1
    # Lengths are drawn from the counting density e^(delta_n l): orthospectrum
    # counts grow like e^(delta l), delta the critical exponent of the
    # manifold's group (Parkkonen-Paulin, counting common perpendiculars).
    # For a compact hyperbolic n-manifold with totally geodesic boundary,
    # delta < n - 1 (Sullivan: convex cocompact, not a lattice), and for
    # n >= 3 delta >= n - 2, since it contains the boundary groups, which are
    # cocompact in H^(n-1) and have exponent n - 2.  No measured value is at
    # hand, so delta_n is assumed at the middle of that range: n - 3/2, and
    # 1/2 for n = 2 (range (0, 1)).  Real spectra (ROADMAP item 4) should
    # replace these synthetic ones.
    deltas = {2: 0.5, 3: 1.5, 4: 2.5, 5: 3.5, 8: 6.5}
    # A spectrum file lists the orthogeodesics up to some cut-off length, so
    # at these exponents its entries crowd just below the cut-off.  Requests
    # take the cut-offs in turn, each with every dimension, so that every
    # pass covers the expensive bulk (l < bulk_below) and the cheap tail in
    # the same proportions; bulk_frac records that share.
    cutoffs = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
    entries = 100
    bulk_below = 5.0
    fixed_requests = pass_requests = len(dims) * len(cutoffs)
    pass_wall_s = 5.0

    def __init__(self, seed, ref, api):
        super().__init__(seed, ref, api)
        self.sref = SpectrumReference(ref["spectrum"])
        self.lengths_made = 0
        self.bulk_made = 0

    def _length(self, n, hi, u):
        # inverse CDF of e^(d l) on [l_min, hi], written from hi down so that
        # e^(d (hi - l_min)) stays in range for every d
        d = self.deltas[n]
        return hi + math.log1p(-u * -math.expm1(-d * (hi - self.l_min))) / d

    def make_request(self, index):
        n = self.dims[index % len(self.dims)]
        cutoff = self.cutoffs[index // len(self.dims) % len(self.cutoffs)]
        # one draw in each of `entries` equal slices of probability, so every
        # spectrum of a given n and cut-off has nearly the same mix of costs
        # and a run's slowest entries do not hinge on a few lucky draws
        us = [(k + self.rng.random()) / self.entries for k in range(self.entries)]
        lengths = set()
        while len(lengths) < self.entries:
            u = us.pop() if us else self.rng.random()
            lengths.add(float(f"{self._length(n, cutoff, u):.12g}"))
        lengths = sorted(lengths)
        self.lengths_made += len(lengths)
        self.bulk_made += sum(l < self.bulk_below for l in lengths)
        mults = [self.rng.choice((1, 1, 1, 2, 3)) for _ in lengths]
        lines = [f"# synthetic orthospectrum, n = {n}, lengths up to {cutoff}"]
        lines += [f"{l!r} {m}" if m > 1 else repr(l) for l, m in zip(lengths, mults)]
        return Request(n=n, text="\n".join(lines) + "\n", lengths=lengths,
                       mults=mults, ops=len(lengths))

    def warm_up(self):
        for n in self.dims:
            self.api.volume_kernel(n, 1.0)

    def run(self, req):
        def op():
            entries = self.api.parse_spectrum(req.text)
            return self.api.spectrum_volume(req.n, entries)
        req.out, req.raised = _call(op)

    def check(self, req):
        if req.raised is not None:
            return [(f"raised:{req.raised}", None, False)] * req.ops
        _, _, rows = req.out
        refs = self.sref.values(req.n, req.lengths)
        res = []
        for (length, mult, value, err), l, m, ref in zip(rows, req.lengths, req.mults, refs):
            if length != l or mult != m:
                res.append(("parse", None, False))
                continue
            status = classify(value, err, float(ref))
            d = digits(value, float(ref)) if status in (OK, "miss") else None
            known = status == "miss" and _known_n2_drift(req.n, value, float(ref))
            res.append((status, d, known))
        if len(rows) != req.ops:
            res += [("parse", None, False)] * (req.ops - len(rows))
        return res

    def time_operations(self, sink):
        # spectrum_volume makes one volume_kernel call per entry: time those
        spectrum = sys.modules["orthovol.spectrum"]
        kernel = spectrum.volume_kernel
        clock = time.perf_counter

        def timed_kernel(*args):
            t0 = clock()
            try:
                return kernel(*args)
            finally:
                sink.append(1e3 * (clock() - t0))

        spectrum.volume_kernel = timed_kernel
        return True

    def properties(self):
        return {
            "entries_per_spectrum": self.entries,
            "bulk_frac": self.bulk_made / max(1, self.lengths_made),
            "bulk_below_l": self.bulk_below,
        }


class BoundSolve(Workload):
    """volume_bound over the frozen pool of (n, area) pairs."""

    name = "bound_solve"
    fixed_requests = 8
    pass_wall_s = 1.1

    def __init__(self, seed, ref, api):
        super().__init__(seed, ref, api)
        self.pool = {}
        for entry in ref["bound"]:
            self.pool.setdefault(entry["n"], []).append(entry)
        self.dims = sorted(self.pool)
        self.pass_requests = len(self.dims)
        self._queues = {n: [] for n in self.dims}

    def make_request(self, index):
        # dimensions in turn; areas in a fresh seeded order each pass
        n = self.dims[index % len(self.dims)]
        queue = self._queues[n]
        if not queue:
            queue.extend(self.pool[n])
            self.rng.shuffle(queue)
        entry = queue.pop()
        return Request(n=n, area=entry["area"], entry=entry, ops=1)

    def warm_up(self):
        for n in self.dims:
            self.api.volume_kernel(n, 1.0)

    def run(self, req):
        req.out, req.raised = _call(self.api.volume_bound, req.n, req.area)

    def check(self, req):
        if req.raised is not None:
            return [(f"raised:{req.raised}", None, False)]
        status, d = _check_bound(req.entry, req.out.crossing_length, req.out.bound)
        return [(status, d, False)]


class KernelDomain(Workload):
    """Single volume_kernel calls over the stratified (n, l) pool."""

    name = "kernel_domain"
    # ROADMAP's baseline defect list: non-convergence from l ~ 19, zeros from
    # l ~ 27.6 and overflow from l ~ 710 for n >= 3; failures at l = 1e-8 for
    # n = 40 and n = 60.
    defect_l_above = 19.0
    defect_small_l = 1e-8
    defect_small_n = 40
    pass_wall_s = 4.0

    def __init__(self, seed, ref, api):
        super().__init__(seed, ref, api)
        # The whole stratified pool, in a fresh seeded order per pass.  A
        # seeded subset would make the minimum in accuracy_digits and the
        # few slow points that set op_tail_ms depend on the seed more than on
        # the library.
        self.points = ref["domain"]
        self.known = {p["id"] for p in ref.get("known_failures", [])}
        self.fixed_requests = self.pass_requests = len(self.points)
        self._queue: list = []

    def make_request(self, index):
        if not self._queue:
            self._queue = list(self.points)
            self.rng.shuffle(self._queue)
        p = self._queue.pop()
        return Request(n=p["n"], l=p["l"], point=p, ops=1)

    def warm_up(self):
        for n in sorted({p["n"] for p in self.points}):
            self.api.volume_kernel(n, 1.0)

    def run(self, req):
        req.out, req.raised = _call(self.api.volume_kernel, req.n, req.l)

    @staticmethod
    def point_reference(p):
        """Reference value; 0 or inf past the double range; None if unknown."""
        if p.get("value") is not None:
            return float(p["value"])
        log10 = p.get("log10_value", p.get("log10_estimate"))
        if p["status"] == "outside double range":
            return 0.0 if log10 < 0 else math.inf
        return None

    def check(self, req):
        p = req.point
        known = p["id"] in self.known
        if req.raised is not None:
            return [(f"raised:{req.raised}", None, known)]
        ref = self.point_reference(p)
        value, err = req.out.value, req.out.err_estimate
        status = classify(value, err, ref)
        d = None
        if status in (OK, "miss") and p.get("value") is not None:
            d = digits(value, ref)
        return [(status, d, known and status != OK)]

    def in_defect_region(self, p):
        return p["n"] >= 3 and (p["l"] >= self.defect_l_above or (
            p["n"] >= self.defect_small_n and p["l"] <= self.defect_small_l))

    def properties(self):
        pts = self.points
        return {
            "points": len(pts),
            "defect_region_frac": sum(map(self.in_defect_region, pts)) / len(pts),
            "outside_double_range_frac":
                sum(p["status"] == "outside double range" for p in pts) / len(pts),
            "unreferenced_frac": sum(p["value"] is None for p in pts) / len(pts),
        }


class CliCold(Workload):
    """Fresh `python -m orthovol.cli` processes, one at a time."""

    name = "cli_cold"
    subcommands = ("kn", "mn", "fn", "bound", "sum", "--help")
    pass_requests = len(subcommands)
    fixed_requests = 2 * pass_requests
    pass_wall_s = 5.0
    # fn asks for lengths at the long end of the spectrum range, where the
    # kernel is least accurate (about 11 digits for n = 3, and the n = 2
    # drift of K1), so that accuracy_digits reads the CLI's worst case.  A
    # length drawn over the whole range made the minimum, and whether n = 2
    # failed, follow the seed: 11.0 to 13.4 digits over twenty seeds.
    fn_l_min = 11.0
    # outputs printed without an error estimate (kn, mn) are held to the
    # CLI's default relative tolerance
    default_rtol = 1e-9

    def __init__(self, seed, ref, api, root, out_dir):
        super().__init__(seed, ref, api)
        # spectrum files for `sum`: 20 entries, dimension set per request
        self.spectra = SpectrumSum(seed + 1, ref, api)
        self.spectra.entries = 20
        self.sref = self.spectra.sref
        self.bound_pool = ref["bound"]
        self.inner_pool = ref["inner"]
        self.kn_ref = {int(k): float(v) for k, v in ref["constants"]["small_length"].items()}
        self.root = root
        self.out_dir = out_dir
        self.python = sys.executable
        # runner(argv) -> CompletedProcess; the traced run swaps it
        self.runner = self.run_plain
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run_plain(self, argv):
        return subprocess.run([self.python, "-m", "orthovol.cli", *argv],
                              capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120)

    def make_request(self, index):
        sub = self.subcommands[index % len(self.subcommands)]
        rng = self.rng
        # fn and sum take the spectrum dimensions in turn, one per pass
        dims = self.sref.dims
        turn = index // len(self.subcommands)
        req = Request(sub=sub, ops=1)
        if sub == "kn":
            req.n = rng.randint(3, 12)
            req.argv = ["kn", "-n", str(req.n)]
        elif sub == "mn":
            req.point = rng.choice(self.inner_pool)
            req.argv = ["mn", "-n", str(req.point["n"]), "-b", repr(req.point["b"])]
        elif sub == "fn":
            req.n = dims[turn % len(dims)]
            req.l = float(f"{rng.uniform(self.fn_l_min, SpectrumSum.cutoffs[-1]):.12g}")
            req.argv = ["fn", "-n", str(req.n), "-l", repr(req.l)]
        elif sub == "bound":
            req.entry = rng.choice(self.bound_pool)
            req.argv = ["bound", "-n", str(req.entry["n"]), "-A", repr(req.entry["area"])]
        elif sub == "sum":
            # one spectrum per round, dimension and cut-off in turn
            req.spectrum = self.spectra.make_request(
                turn * len(dims) + (turn + 2) % len(dims))
            path = os.path.join(self.out_dir, f"cli-sum-{self.seed}-{index}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(req.spectrum.text)
            req.argv = ["sum", "-n", str(req.spectrum.n), path]
        else:
            req.argv = ["--help"]
        return req

    def warm_up(self):
        # one cold start brings the interpreter and scipy into the page cache
        self.runner(["--help"])

    def run(self, req):
        try:
            req.out = self.runner(req.argv)
            req.raised = None
        except subprocess.TimeoutExpired:
            req.out, req.raised = None, "TimeoutExpired"

    def check(self, req):
        if req.raised is not None:
            return [(f"raised:{req.raised}", None, False)]
        proc = req.out
        if proc.returncode != 0:
            return [(f"exit:{proc.returncode}", None, False)]
        try:
            return [self._check_output(req, proc.stdout.split())]
        except (ValueError, IndexError):
            return [("unparsed", None, False)]

    def _check_output(self, req, words):
        sub = req.sub
        if sub == "--help":
            return (OK if words[:1] == ["usage:"] else "unparsed", None, False)
        if sub in ("kn", "mn"):
            value = float(words[0])
            ref = self.kn_ref[req.n] if sub == "kn" else float(req.point["value"])
            status = classify(value, self.default_rtol * abs(ref), ref)
            return status, digits(value, ref) if status in (OK, "miss") else None, False
        if sub == "fn":
            value, err = float(words[0]), float(words[1])
            ref = float(self.sref.values(req.n, [req.l])[0])
            status = classify(value, err, ref)
            d = digits(value, ref) if status in (OK, "miss") else None
            return status, d, status == "miss" and _known_n2_drift(req.n, value, ref)
        if sub == "bound":
            fields = dict(zip(words[0::2], map(float, words[1::2])))
            status, d = _check_bound(req.entry, fields["crossing_length"], fields["bound"])
            return status, d, False
        # sum: total and its error on the last line
        spec = req.spectrum
        total, err = float(words[-2]), float(words[-1])
        refs = self.sref.values(spec.n, spec.lengths)
        ref = math.fsum(m * float(r) for m, r in zip(spec.mults, refs))
        status = classify(total, err, ref)
        d = digits(total, ref) if status in (OK, "miss") else None
        return status, d, status == "miss" and _known_n2_drift(spec.n, total, ref)

    def properties(self):
        return {"subcommands": list(self.subcommands)}


WORKLOADS = {w.name: w for w in (SpectrumSum, BoundSolve, KernelDomain, CliCold)}
