"""Measured loop of one workload, in a process that runs nothing else.

    python3 perfbench/worker.py --workload NAME --inputs DIR --out DIR \
        --seconds S --trace 0|1 --spans FILE --result FILE

Runs whole rounds of operations until `--seconds` have passed (at least
MIN_ROUNDS). A round is one untraced operation on each of the workload's
inputs (`--inputs`/in0, in1, ...); with `--trace 1` each untraced
operation is followed by a traced one on the same input, so the traced run
measures its own overhead. Writes per-operation times, exit codes and the
process's peak RSS to `--result`, and the spans to `--spans`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    from cohortpolicy import cli

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    ops = []
    start = time.perf_counter()
    rounds = 0
    schedule = [(i, traced) for i in range(workload.inputs_per_round)
                for traced in ((False, True) if args.trace else (False,))]
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for i, traced in schedule:
            k = len(ops)
            op_dir = args.out / f"op{k:03d}"
            gc.collect()
            if traced:
                tracer.install(k)
            record = {"dir": str(op_dir), "input": i, "traced": traced,
                      "error": None}
            try:
                with open(os.devnull, "w") as sink, \
                        contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    record["seconds"], record["codes"] = workload.run_op(
                        cli, args.inputs / f"in{i}", op_dir)
            except Exception:  # one failed operation must not end the run
                record["error"] = traceback.format_exc()
                print(record["error"], file=sys.stderr)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                record["layers"] = tracer.layer_metrics(k)
            ops.append(record)
        rounds += 1

    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
