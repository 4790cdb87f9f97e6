"""Smoke test of the benchmark itself; takes well under a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its smallest scale point, untraced
and traced, and fails unless each run passes its correctness gate and
prints exactly the metric names and units BENCHMARK.json declares.  Then
checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"


def run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def check_run(workload, trace, declared) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: gate failed, {result['failed']} of "
                        f"{result['attempted']} operations\n{proc.stderr}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metrics {got} != declared {declared}")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the run must fail, printing no
    result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "saddle-surgery", 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run without sources did not fail cleanly:\n" + proc.stdout]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(w["name"], trace, declared[trace])
            print(f"{w['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare_directory()
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
