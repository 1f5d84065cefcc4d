"""Steadiness record: run the benchmark repeatedly and summarise the spread.

    python3 perfbench/steady.py --runs 10 --seconds 40 --out perfbench/steadiness.json \\
        paper_cold tenants_cold rerun_warm

Runs ``run.py`` once per seed (seeds 1..runs, or ``--first-seed`` on), one
after another, and records each end-to-end value with the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median.  Next to the reported metrics it keeps
``raw_wall_s``: the median wall time as measured, before scaling to the
reference speed, read from what ``run.py`` prints on standard error.
Appends to ``--out`` if it exists.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", default="")
    args = parser.parse_args()
    record = json.loads(args.out.read_text()) if args.out.exists() else []
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            raw = re.findall(rf"^{workload}: wall ([0-9.]+) s as measured", completed.stderr, re.M)
            result["metrics"]["raw_wall_s"] = {"value": statistics.median(map(float, raw)),
                                               "unit": "s"}
            print(workload, seed, json.dumps(result), flush=True)
            results.append(result)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        record.append({
            "label": args.label, "workload": workload, "seconds": args.seconds,
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        })
        for name, summary in metrics.items():
            print(f"  {workload} {name}: median {summary['median']:.4g} "
                  f"IQR/median {summary['iqr_share']:.3f}", flush=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
