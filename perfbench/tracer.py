"""Outside-in tracing of orthovol's layers.

Each traced function is rebound, in the namespace of every module that calls
it, to one wrapper that times the call.  The submodules are reached through
``sys.modules``, because the package attribute ``orthovol.volume_kernel`` is
the function of that name and shadows the submodule.

Every call updates per-layer totals (calls, wall time, self time = wall time
minus the time of traced calls made inside it).  Full spans -- name, start,
end, parent span and operation id -- are kept in memory for the coarse layers
only; the fine layers (integrands, inner kernel, truncated log, Rogers
dilogarithm) run hundreds of times per kernel call and are aggregated into
their parent's span.  Integrands passed to ``adaptive_quad`` are wrapped too,
which counts integrand evaluations and bills their own work to the
volume_kernel layer instead of to quadrature.  ``dump`` writes the spans when
the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from orthovol.quadrature import NonConvergenceError

# (module, function): modules whose namespace calls it, and whether its spans
# are kept individually.
TRACED = {
    ("special", "truncated_log"): (("inner_kernel",), False),
    ("special", "rogers_l"): (("volume_kernel",), False),
    ("inner_kernel", "inner_kernel"): (("volume_kernel", "cli"), False),
    ("quadrature", "adaptive_quad"): (("volume_kernel",), True),
    ("volume_kernel", "volume_kernel_radial"): (("volume_kernel",), True),
    ("volume_kernel", "volume_kernel_alt"): (("volume_kernel",), True),
    ("volume_kernel", "volume_kernel"): (("bounds", "spectrum", "cli"), True),
    ("bounds", "volume_bound"): (("cli",), True),
    ("spectrum", "parse_spectrum"): (("cli",), True),
    ("spectrum", "spectrum_volume"): (("cli",), True),
}


class LayerStats:
    __slots__ = ("calls", "wall_s", "self_s", "raised", "nonconvergence")

    def __init__(self):
        self.calls = 0
        self.wall_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.nonconvergence = 0


class Tracer:
    """Records spans and per-layer totals for the calls it wraps."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self.fallback_alt = 0
        self.op_id = -1
        # stack of [span id, child time, layer name]
        self._stack: list[list] = []
        self._wrappers: dict[int, object] = {}
        self._rebound: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, keep_spans: bool):
        """The one wrapper of a module-level function (cached by identity)."""
        known = self._wrappers.get(id(fn))
        if known is None:
            known = self._wrappers[id(fn)] = self._timed(name, fn, keep_spans)
        return known

    def _timed(self, name: str, fn, keep_spans: bool):
        stats = self.stats.setdefault(name, LayerStats())
        stack = self._stack
        spans = self.spans
        tracer = self
        is_quad = name == "quadrature.adaptive_quad"
        is_alt = name == "volume_kernel.volume_kernel_alt"

        def traced(*args, **kwargs):
            if is_quad:
                # the integrand is volume_kernel code: time it as that layer
                args = (tracer._timed("volume_kernel.integrand", args[0], False),) + args[1:]
            if is_alt and stack and stack[-1][2] == "volume_kernel.volume_kernel":
                tracer.fallback_alt += 1
            parent = stack[-1][0] if stack else -1
            span_id = len(spans) if keep_spans else parent
            if keep_spans:
                spans.append(None)
            frame = [span_id, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except NonConvergenceError:
                stats.raised += 1
                stats.nonconvergence += 1
                raise
            except Exception:
                stats.raised += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                wall = t1 - t0
                stats.calls += 1
                stats.wall_s += wall
                stats.self_s += wall - frame[1]
                if stack:
                    stack[-1][1] += wall
                if keep_spans:
                    spans[span_id] = (name, t0, t1, parent, tracer.op_id)

        traced.__wrapped__ = fn
        return traced

    def install(self, api) -> None:
        """Rebind every traced function in its callers' namespaces and in api.

        api is the namespace through which the benchmark itself calls the
        library; its attributes are named after the functions.
        """
        for (mod_name, fn_name), (callers, keep) in TRACED.items():
            mod = sys.modules[f"orthovol.{mod_name}"]
            fn = getattr(mod, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", fn, keep)
            targets = [sys.modules.get(f"orthovol.{caller}") for caller in callers]
            for target in targets + [api]:
                if target is not None and getattr(target, fn_name, None) is fn:
                    self.rebind(target, fn_name, wrapper)

    def rebind(self, target, fn_name: str, replacement) -> None:
        """Set target.fn_name to replacement until uninstall()."""
        self._rebound.append((target, fn_name, getattr(target, fn_name)))
        setattr(target, fn_name, replacement)

    def uninstall(self) -> None:
        for target, fn_name, fn in reversed(self._rebound):
            setattr(target, fn_name, fn)
        self._rebound.clear()

    # -- results ------------------------------------------------------------

    def counters(self) -> dict:
        """Per-layer totals as plain numbers, keyed by metric name."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.wall_s"] = st.wall_s
            out[f"{name}.raised"] = st.raised
            out[f"{name}.nonconvergence"] = st.nonconvergence
        out["volume_kernel.fallback_alt"] = self.fallback_alt
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, **extra}, fh)


def merge_counters(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
