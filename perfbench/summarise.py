"""Summarise benchmark runs: median and quartile spread per workload and metric.

    python3 perfbench/summarise.py [DIR [DIR2]] [--write-baseline]

Reads the ``result-*-trace0.json`` files that ``run.py`` leaves in DIR
(default ``.perfbench-out/``; one per workload and seed) and prints, for
every end-to-end metric, the median over seeds and the distance between the
first and third quartile as a share of the median, next to the metric's
bound from ``BENCHMARK.json``; a spread above a third of its bound is
flagged.  With a second set DIR2 of the same seeds it also prints how far
the second median moved from the first, flagged when it is worse by more
than the bound, and lists every same-seed value of attempted, failed,
accuracy_digits and ok_frac that did not repeat exactly.
``--write-baseline`` stores the medians and quartiles (and the comparison)
in ``perfbench/baseline.json`` under "baseline".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
BASELINE_PATH = os.path.join(HERE, "baseline.json")
# metrics that must repeat exactly for a seed, as do attempted and failed
EXACT = ("accuracy_digits", "ok_frac")


def collect(out_dir):
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "result-*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        runs.setdefault(res["workload"], {})[res["seed"]] = res
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise_set(runs, bench):
    """Per workload and metric: median and quartiles; the worst spread/bound."""
    table = {}
    worst = 0.0
    for workload, by_seed in sorted(runs.items()):
        print(f"{workload}: {len(by_seed)} runs, seeds {sorted(by_seed)}")
        table[workload] = {"runs": len(by_seed), "seeds": sorted(by_seed)}
        for m in bench["end_to_end"]:
            values = [by_seed[s]["metrics"][m["name"]] for s in sorted(by_seed)]
            if len(values) < 2:
                continue
            q1, med, q3 = spread(values)
            rel = (q3 - q1) / med if med else float("inf")
            worst = max(worst, rel / m["bound"])
            flag = "  over bound/3" if rel > m["bound"] / 3 else ""
            print(f"  {m['name']:16s} median {med:12.6g} {m['unit']:7s} "
                  f"IQR/median {rel:7.4f}  bound {m['bound']}{flag}")
            table[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                          "unit": m["unit"], "by_seed": values}
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return table


def _exact(res):
    """The values of one run that must repeat exactly for its seed."""
    return {"attempted": res["attempted"], "failed": res["failed"],
            **{name: res["metrics"][name] for name in EXACT}}


def compare_sets(first, second, bench):
    """Second set's medians against the first's, and same-seed exact repeats."""
    out = {}
    print("second set against the first:")
    for workload in sorted(set(first) & set(second)):
        seeds = sorted(set(first[workload]) & set(second[workload]))
        row = {"seeds": seeds}
        for m in bench["end_to_end"]:
            name = m["name"]
            a = statistics.median(first[workload][s]["metrics"][name] for s in seeds)
            b = statistics.median(second[workload][s]["metrics"][name] for s in seeds)
            change = (b - a) / a if a else 0.0
            worse = -change if m["better"] == "higher" else change
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            print(f"  {workload:14s} {name:16s} {a:12.6g} -> {b:12.6g}  "
                  f"change {change:+.4f}  bound {m['bound']}{flag}")
            row[name] = {"first_median": a, "second_median": b, "change": change}
        mismatches = [
            (s, name) for s in seeds
            for name, value in _exact(first[workload][s]).items()
            if _exact(second[workload][s])[name] != value]
        for s, name in mismatches:
            print(f"  {workload}: seed {s} {name} did not repeat exactly")
        row["exact_repeats"] = not mismatches
        out[workload] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="*", default=[OUT_DIR], metavar="DIR")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    if len(args.dirs) > 2:
        ap.error("at most two sets of runs")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sets = [collect(d) for d in args.dirs]
    tables = []
    for d, runs in zip(args.dirs, sets):
        print(f"== {d}")
        tables.append(summarise_set(runs, bench))
    comparison = compare_sets(*sets, bench) if len(sets) == 2 else None
    if args.write_baseline:
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["baseline"]["end_to_end"] = tables[0]
        if comparison is not None:
            doc["baseline"]["second_set"] = tables[1]
            doc["baseline"]["same_seed_comparison"] = comparison
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
