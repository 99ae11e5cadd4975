"""The benchmark's tracer names library functions; they must still exist.

perfbench/tracer.py rebinds every (module, function) in its TRACED table
in the namespaces of the modules that call it.  A renamed or deleted
function, or a caller that stops importing it, would make
`perfbench/run.py --trace 1` fail or count nothing, so this test reads
the table, without changing it, and checks each entry against the
package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_names_resolve_in_orthovol():
    traced = load_traced()
    assert traced
    for (mod_name, fn_name), (callers, _) in traced.items():
        # modules by import path: the package attribute volume_kernel is
        # the function of that name, not the submodule
        fn = getattr(importlib.import_module(f"orthovol.{mod_name}"), fn_name)
        assert callable(fn), (mod_name, fn_name)
        for caller in callers:
            module = importlib.import_module(f"orthovol.{caller}")
            assert getattr(module, fn_name, None) is fn, (caller, fn_name)
