"""Tests of the benchmark itself: failure classifier, metric names, repeatability.

    python3 -m pytest -q perfbench/check_bench.py

(The file name keeps these out of the library's tier-1 collection; they run
the benchmark, which takes about a minute.)
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from orthovol import volume_kernel  # noqa: E402
from reference import OK, classify, load_reference  # noqa: E402
from workloads import KernelDomain, Request, api_namespace  # noqa: E402

# mpmath value of F_3(30), from gen_reference.volume_kernel_mp
F_3_30 = 8.5279108637818771374e-25


def _bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _domain_check(point):
    """Run one kernel_domain request at a pool-style point; its checks."""
    wl = KernelDomain(0, load_reference(), api_namespace())
    req = Request(n=point["n"], l=point["l"], point=point, ops=1)
    wl.run(req)
    return wl.check(req)


def test_zero_kernel_value_counts_as_failed():
    point = {"id": -1, "n": 3, "l": 30.0, "value": repr(F_3_30), "status": "referenced"}
    [(status, digits, known)] = _domain_check(point)
    assert status == "nonpositive" and digits is None and not known


def test_overflow_counts_as_failed():
    point = {"id": -2, "n": 40, "l": 12.6, "value": None, "status": "unreferenced"}
    [(status, digits, known)] = _domain_check(point)
    assert status == "raised:OverflowError" and digits is None and not known


def test_known_defect_still_counts_as_failed():
    ref = load_reference()
    known = ref["known_failures"][0]
    point = next(p for p in ref["domain"] if p["id"] == known["id"])
    [(status, _, is_known)] = _domain_check(point)
    assert status != OK and is_known


def test_classifier_passes_value_within_its_error():
    kv = volume_kernel(3, 1.0)
    assert classify(kv.value, kv.err_estimate, 0.98342935323908275) == OK
    assert classify(kv.value * (1 + 1e-6), kv.err_estimate, 0.98342935323908275) == "miss"


def test_unreferenced_point_still_fails_on_raise_and_zero():
    assert classify(0.0, 0.0, None) == "nonpositive"
    assert classify(float("nan"), 0.0, None) == "nonfinite"
    assert classify(1.0, 0.0, None) == OK


def test_out_of_range_reference():
    below = {"status": "outside double range", "value": None, "log10_estimate": -400.0}
    above = {"status": "outside double range", "value": None, "log10_estimate": 400.0}
    assert KernelDomain.point_reference(below) == 0.0
    assert classify(1e300, 1e-12, KernelDomain.point_reference(above)) == "miss"


def test_reference_self_checks_passed():
    ref = load_reference()
    assert ref["self_checks"] and all(c["ok"] for c in ref["self_checks"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported_with_its_unit(trace):
    declared = _declared()["per_layer" if trace else "end_to_end"]
    out = _bench("bound_solve", 3, 1, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat_for_a_seed():
    units = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    first = _bench("bound_solve", 5, 1, 1)["metrics"]
    second = _bench("bound_solve", 5, 1, 1)["metrics"]
    counts = [k for k, u in units.items() if u in ("count", "frac")]
    assert first["bounds.kernel_calls_per_solve"]["value"] > 60
    for key in counts:
        assert first[key] == second[key], key


def test_attempted_and_failed_repeat_for_a_seed():
    # a run makes a fixed number of passes for its --seconds, whatever the
    # host's speed, so two runs of one seed count the same operations
    first = _bench("kernel_domain", 2, 9, 0)
    second = _bench("kernel_domain", 2, 9, 0)
    assert first["attempted"] == second["attempted"] == 2 * 432
    assert first["failed"] == second["failed"] > 0
    for key in ("accuracy_digits", "ok_frac"):
        assert first["metrics"][key] == second["metrics"][key], key
