"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (distance between the first and third quartiles over
the median), next to the bound BENCHMARK.json sets.

    python3 perfbench/spread.py [--first-seed N] [--out FILE]

Each workload of BENCHMARK.json runs on ten seeds, ``--first-seed`` and
the nine after it.  ``--out`` writes every value and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [*bench["command"], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "spread": (q3 - q1) / med,
                             "bound": bounds[name], "values": vals}
            print(f"  {workload:15s} {name:12s} median {med:10.4f}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bounds[name]}")
        report[workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
