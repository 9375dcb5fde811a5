"""Outside-in layer tracing: wrap the program's public functions where their
callers resolve them, record spans in memory, derive per-layer metrics.

A span is (name, start, end, parent index, operation). A function is
patched in every `cohortpolicy` module whose globals bind it, because
`from .search import evaluate_policies` gives the caller its own name for
it. Nothing under `src/` changes; `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# (module, attribute, span name) for functions; (module, class, method, span
# name) for methods. Span names are the per-layer metric prefixes.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("pipeline", "govern_pipeline", "pipeline.govern"),
    ("pipeline", "write_run_artifacts", "pipeline.write_artifacts"),
    ("ingest", "ingest", "ingest.ingest"),
    ("synth", "generate_experiment", "synth.generate_experiment"),
    ("synth", "generate_snapshots", "synth.generate_snapshots"),
    ("experiment", "segment_hte", "experiment.segment_hte"),
    ("segmentation", "materialize", "segmentation.materialize"),
    ("search", "enumerate_policies", "search.enumerate_policies"),
    ("search", "evaluate_policies", "search.evaluate_policies"),
    ("search", "evaluate_policy_pinned", "search.evaluate_policy_pinned"),
    ("search", "collect_candidates", "search.collect_candidates"),
    ("frontier", "tolerance_filter", "frontier.tolerance_filter"),
    ("governance", "shift_ratio", "governance.shift_ratio"),
    ("governance", "robustness_check", "governance.robustness_check"),
    ("governance", "run_backtest", "governance.run_backtest"),
    ("governance", "load_snapshots", "governance.load_snapshots"),
    ("evaluation", "ground_truth_oracle", "evaluation.ground_truth_oracle"),
    ("evaluation", "evaluate_selector", "evaluation.evaluate_selector"),
)
METHODS = (
    ("experiment", "ExperimentDataset", "__init__", "experiment.dataset_build"),
    ("experiment", "ExperimentDataset", "daily_slices", "experiment.daily_slices"),
)

# Self-time metrics, one per span: "<span>_s".
TIMES = {f"{span}_s": span for *_, span in (*FUNCTIONS, *METHODS)}
# Call-count metrics: metric name -> span name.
CALLS = {
    "experiment.dataset_builds": "experiment.dataset_build",
    "experiment.segment_hte_calls": "experiment.segment_hte",
    "segmentation.materialize_calls": "segmentation.materialize",
    "search.pinned_evaluations": "search.evaluate_policy_pinned",
    "governance.shift_ratio_calls": "governance.shift_ratio",
    "evaluation.oracle_calls": "evaluation.ground_truth_oracle",
}
# Work counted from a call's bound arguments and result: span name ->
# (metric name, count).
WORK = {
    "search.enumerate_policies": ("search.policies_enumerated",
                                  lambda args, result: len(result)),
    "search.evaluate_policies": ("search.policies_evaluated",
                                 lambda args, result: len(args["policies"])),
    "search.collect_candidates": ("search.candidates",
                                  lambda args, result: len(result.policy_ids)),
    "frontier.tolerance_filter": ("frontier.admitted",
                                  lambda args, result: len(result.admitted)),
    "ingest.ingest": ("ingest.rows", lambda args, result: result.n_users),
    "pipeline.govern": ("pipeline.iterations", lambda args, result: result.iterations),
}

UNITS = {**{m: "s" for m in TIMES}, **{m: "count" for m in CALLS},
         **{m: "count" for m, _ in WORK.values()},
         "search.distinct_eval_ratio": "ratio", "trace.overhead_s": "s"}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.work: dict[int, Counter] = {}
        self.distinct: dict[int, set] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn) if name in WORK else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.op])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
            if signature is not None:
                tracer._count(name, signature.bind(*args, **kwargs).arguments,
                              result)
            return result
        return traced

    def _count(self, span: str, args: dict, result) -> None:
        metric, count = WORK[span]
        self.work[self.op][metric] += count(args, result)
        if span == "search.evaluate_policies":
            self.distinct[self.op].update((args["ds"].experiment_id, p.policy_id)
                                          for p in args["policies"])

    def install(self, op: int) -> None:
        """Start operation `op` and patch every binding of every target."""
        self.op = op
        self.work[op] = Counter()
        self.distinct[op] = set()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cohortpolicy" or name.startswith("cohortpolicy.")]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"cohortpolicy.{module_name}"], attr)
            wrapped = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"cohortpolicy.{module_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def layer_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one traced operation: self times in seconds
        (a span's duration minus its direct children's), and counts."""
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for idx, (name, start, end, parent, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            calls[name] += 1
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        out = {metric: float(self_time[span]) for metric, span in TIMES.items()}
        out.update({metric: float(calls[span]) for metric, span in CALLS.items()})
        work = self.work.get(op, Counter())
        out.update({metric: float(work[metric]) for metric, _ in WORK.values()})
        evaluated = work["search.policies_evaluated"]
        out["search.distinct_eval_ratio"] = (
            len(self.distinct.get(op, ())) / evaluated if evaluated else 0.0)
        return out
