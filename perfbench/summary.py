#!/usr/bin/env python3
"""Summarise result files written by ``run.py --out`` and compare them.

    python3 perfbench/summary.py RESULT.json... [--write SUMMARY.json]
    python3 perfbench/summary.py RESULT.json... --against perfbench/baseline.json

For each workload and metric it prints the median of the runs and the
spread (distance between the first and third quartile, as a share of the
median).  With ``--against`` it also prints the change of each median
against the summary given, marks an end-to-end metric that is worse by more
than its bound in BENCHMARK.json, and flags a comparison whose runs used
another rational backend, Python version or core count than the baseline:
such numbers are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("rat_backend", "python", "nproc")


def summarise(paths):
    runs = [r for p in paths for r in json.loads(Path(p).read_text(encoding="utf8"))]
    stamps = {tuple(r["stamp"][k] for k in STAMP_KEYS) for r in runs}
    if len(stamps) != 1:
        raise SystemExit(f"runs mix environments {sorted(stamps)}; summarise them apart")
    workloads = {}
    for r in runs:
        entry = workloads.setdefault(f"{r['workload']} trace {r['trace']}", {})
        entry.setdefault("seeds", []).append(r["seed"])
        entry["failed"] = entry.get("failed", 0) + r["failed"]
        entry["attempted"] = entry.get("attempted", 0) + r["attempted"]
        for name, m in r["metrics"].items():
            entry.setdefault("metrics", {}).setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for entry in workloads.values():
        for m in entry["metrics"].values():
            values = m["values"]
            m["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m["spread"] = (q3 - q1) / m["median"] if m["median"] else 0.0
    return {"stamp": dict(zip(STAMP_KEYS, stamps.pop())), "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--write", help="save the summary as JSON")
    parser.add_argument("--against", help="a summary to compare with")
    args = parser.parse_args(argv)
    summary = summarise(args.results)
    base = None
    if args.against:
        base = json.loads(Path(args.against).read_text(encoding="utf8"))
        for key in STAMP_KEYS:
            if base["stamp"][key] != summary["stamp"][key]:
                print(f"WARNING: {key} differs: baseline {base['stamp'][key]}, "
                      f"runs {summary['stamp'][key]}; the two are not comparable")
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf8"))["end_to_end"]}
    worse = 0
    for workload, entry in summary["workloads"].items():
        print(f"# {workload}: {len(entry['seeds'])} runs, "
              f"{entry['failed']} of {entry['attempted']} jobs failed")
        for name, m in entry["metrics"].items():
            line = f"{name} {m['median']:.6g} {m['unit']}"
            if "spread" in m:
                line += f" spread {m['spread']:.3f}"
            old = base and base["workloads"].get(workload, {}).get("metrics", {}).get(name)
            if old and old["median"]:
                change = m["median"] / old["median"] - 1
                line += f" change {change:+.3f}"
                if name in bounds and change > bounds[name]:
                    line += f" WORSE than bound {bounds[name]}"
                    worse += 1
            print(line)
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf8")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
