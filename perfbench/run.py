"""Run one workload of the cubiclab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each run starts fresh processes, one
after another, with BLAS and OpenMP pinned to one thread: one that sets up
(imports and builds the inputs) and then measures, with three before it and
three after it that only set up, so that the set-up samples span the
measuring window.  ``setup_s`` is the median over the seven of the time from
process start to inputs ready.  ``wall_s`` is the time of one pass of the
workload, from inputs ready to all results computed: passes repeat for
``--seconds``, every pass does the same work, and ``wall_s`` sums each
operation's median time over the passes.  The checks of each pass's results
run after it, untimed.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from spans recorded around cubiclab's public
calls (see spans.py).  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from worker import ROOT, WORKLOADS

SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170.0  # all processes of one run together
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def start_worker(args, env, deadline, *extra):
    """Run worker.py to completion; return (seconds to ready, its report)."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *(["--smoke"] if args.smoke else []), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - spawned, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest scale point of each workload")
    args = ap.parse_args(argv)

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in SINGLE_THREAD})
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        only = 0 if args.trace else SETUP_SAMPLES - 1

        def setup_only(count):
            return [start_worker(args, env, deadline, "--setup-only")[0]
                    for _ in range(count)]

        setup = setup_only(only // 2)
        ready_s, report = start_worker(args, env, deadline)
        setup += [ready_s] + setup_only(only - only // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, IndexError) as err:
        print(f"perfbench: {args.workload} failed: {err}", file=sys.stderr)
        return 1

    passes = report["pass_s"]
    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  trace {args.trace}")
    print(f"system {json.dumps(report['system'])}")
    print(f"pass_s {' '.join(f'{t:.4f}' for t in passes)}")
    print(f"setup samples {' '.join(f'{t:.4f}' for t in setup)}")
    if args.trace:
        metrics = {k: (report["layers"][k], u) for k, u in PER_LAYER}
    else:
        metrics = {
            "wall_s": (report["wall_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
    metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:14.6g} {unit}")
    print(f"{'failed_frac':30s} {failed / max(attempted, 1):14.6g} ratio  "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
