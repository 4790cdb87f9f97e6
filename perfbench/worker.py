"""One benchmark run of one workload, in a fresh process started by run.py.

It imports cubiclab from the checkout's ``src/``, builds the inputs from
the seed, reports when they are ready, then repeats passes of the workload
for the given number of seconds.  With tracing on it makes untraced passes
for half the time and traced passes over the same inputs for the other
half.  Each pass is checked right after it, outside its timing.  The last
line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
# workload name -> "module:class"; the module is imported only when needed
WORKLOADS = {
    "wang-zcubic": "pde:WangZcubic",
    "decay-ray": "pde:DecayRay",
    "flat-spectrum": "flat:FlatSpectrum",
    "saddle-surgery": "flat:SaddleSurgery",
}
MAX_PASSES = 1000


def run_pass(workload, k):
    """Run pass k; an operation that raises yields None and a traceback.

    Returns the time of each operation, their results and the tracebacks.
    """
    ops = workload.ops(k)
    op_s, done, errors = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            done.append(op(done))
        except Exception:  # noqa: BLE001 - counted as a failed operation
            errors.append(traceback.format_exc())
            done.append(None)
        op_s.append(time.perf_counter() - t0)
    return op_s, done, errors


def measure(workload, seconds, tracer=None):
    """Passes 0, 1, ... until another pass would overrun ``seconds``.

    Each pass is checked as soon as it ends, outside its timing, and its
    results are dropped, so peak memory does not grow with the number of
    passes.  Returns the operation times of each pass, verdicts, errors
    and, when traced, the per-layer metrics of each pass.
    """
    times, verdicts, errors, layers = [], [], [], []
    while True:
        k = len(times)
        op_s, done, errs = run_pass(workload, k)
        times.append(op_s)
        errors += errs
        if tracer is not None:
            layers.append(spans.layer_metrics(tracer.take()))
        verdicts += workload.check(k, done)
        if tracer is not None:
            tracer.discard()  # spans of the checks' own calls
        pass_s = [sum(t) for t in times]
        if len(times) >= MAX_PASSES or \
                sum(pass_s) + statistics.median(pass_s) > seconds:
            return times, verdicts, errors, layers


def pass_time(times) -> float:
    """Time of one pass: the sum over operations of each one's median time
    over the passes.  All passes of a run do the same work, so this stands
    for the median pass time, with a burst of a shared host's load filtered
    out operation by operation rather than pass by pass; with one pass it
    is that pass's time."""
    return sum(statistics.median(col) for col in zip(*times))


def system_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cubiclab" / "__init__.py").is_file():
        print(f"perfbench: no cubiclab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    modname, _, classname = WORKLOADS[args.workload].partition(":")
    workload = getattr(importlib.import_module(modname), classname)(
        args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out = {"ready": ready}
    if args.trace:
        half = args.seconds / 2.0
        times, verdicts, errors, _ = measure(workload, half)
        tracer = spans.Tracer()
        with tracer.installed():
            ttimes, tverdicts, terrors, layers = measure(workload, half,
                                                         tracer)
        layers = spans.median_metrics(layers)
        layers["trace.overhead_frac"] = \
            pass_time(ttimes) / pass_time(times) - 1.0
        dump = ROOT / ".perfbench" / \
            f"trace-{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps(tracer.dump()))
        out.update(layers=layers, traced_pass_s=[sum(t) for t in ttimes])
        verdicts += tverdicts
        errors += terrors
    else:
        times, verdicts, errors, _ = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for err in errors:
        print(err, file=sys.stderr)
    out.update(pass_s=[sum(t) for t in times], wall_s=pass_time(times),
               peak_rss_mb=peak_rss_mb,
               attempted=len(verdicts), failed=sum(not ok for ok in verdicts),
               system=system_info())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
