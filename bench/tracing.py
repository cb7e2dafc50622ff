"""Span recorder and call-site wrappers for the benchmark's traced passes.

The program itself is not instrumented.  ``install`` replaces the public
functions of each layer, where the calling module looks them up, with
wrappers that record one span per call: name, start, end, the span that
caused it, and the indicator being processed.  Spans stay in memory until
the pass ends.  A wrapper may also count outcomes from the value it returns
(a failed gate, a rejected indicator, a workflow trace), so ratios are
measured where the work happens.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from pathlib import Path

# Per-layer metrics a traced pass reports; the names match BENCHMARK.json.
SELF_TIME_METRICS = {
    "knowledge.load_s": "knowledge.load",
    "normalize.make_record_s": "normalize.make_record",
    "capture.annotate_s": "capture.annotate",
    "generation.backend_s": "generation.backend",
    "generation.prompt_s": "generation.prompt",
    "generation.workflow_s": "generation.workflow",
    "generation.debug_s": "generation.debug",
    "generation.noncapture_s": "generation.noncapture",
    "generation.overgen_s": "generation.overgen",
    "generation.probe_s": "generation.probe",
    "dialect.tokenize_s": "dialect.tokenize",
    "dialect.compile_s": "dialect.compile",
    "grading.grade_s": "grading.grade",
    "grading.select_best_s": "grading.select_best",
    "evaluation.load_truths_s": "evaluation.load_truths",
    "evaluation.hit_rate_s": "evaluation.hit_rate",
    "evaluation.fpr_s": "evaluation.fpr",
    "evaluation.similarity_s": "evaluation.similarity",
}
# Spans whose self time is pipeline orchestration and JSON I/O.
PIPELINE_SPANS = ("pipeline.run", "pipeline.ioc", "pipeline.make_backend")


class Recorder:
    """Collects spans and outcome counts in memory."""

    def __init__(self):
        # (id, parent id or -1, name, indicator id, start, seconds, self seconds)
        self.spans: list[tuple[int, int, str, str, float, float, float]] = []
        self.counts: Counter = Counter()
        # [span id, seconds covered by children, seconds paused]
        self._stack: list[list] = []
        self._next_id = 0
        self._ioc = ""

    def wrap(self, name: str, fn, observe=None, ioc_arg: int | None = None):
        """Return ``fn`` recording a span per call.  ``observe(counts, result,
        args)`` counts outcomes; ``ioc_arg`` names the positional argument
        that identifies the indicator the call's subtree works on."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ioc_arg is not None:
                self._ioc = str(args[ioc_arg])
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start - frame[2]
                self._stack.pop()
                if parent is not None:
                    parent[1] += duration
                self.spans.append((
                    frame[0], parent[0] if parent else -1, name, self._ioc,
                    start, duration, duration - frame[1],
                ))
            if observe is not None:
                observe(self.counts, result, args)
            return result

        return traced

    def pause(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the program out of the open spans."""
        for frame in self._stack:
            frame[2] += seconds

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines."""
        keys = ("id", "parent", "name", "ioc", "start", "duration_s", "self_s")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions at the places they are called."""
    from ioc2regex import dialect, evaluation, generation, grading, pipeline

    def patch(module, attr: str, name: str, observe=None, ioc_arg=None) -> None:
        setattr(module, attr, rec.wrap(name, getattr(module, attr), observe, ioc_arg))

    def gate(stage: str):
        def observe(counts, result, _args):
            counts[stage + "_fail"] += not result.ok
        return observe

    def workflow(counts, result, _args):
        pattern, trace = result
        counts["workflow_yield"] += pattern is not None
        counts["workflow_restarts"] += trace.restarts

    def fpr(counts, result, args):  # args: pattern, source groups, truths
        counts["pairs"] += len(args[2])
        counts["pairs_matched"] += len(result.matched_indices)

    patch(pipeline, "_process_one", "pipeline.ioc", ioc_arg=1)
    patch(pipeline, "default_store", "knowledge.load")
    patch(pipeline, "make_record", "normalize.make_record",
          lambda counts, record, _args: counts.update(other=record.kind.value == "other"))
    patch(pipeline, "annotate", "capture.annotate",
          lambda counts, ann, _args: counts.update(no_capture=not ann.has_capture_groups))
    patch(pipeline, "select_best", "grading.select_best")

    make_backend = pipeline.make_backend

    def traced_backend(config):
        backend = make_backend(config)
        backend.propose = rec.wrap("generation.backend", backend.propose)
        return backend

    pipeline.make_backend = rec.wrap("pipeline.make_backend", traced_backend)

    patch(generation, "generate", "generation.workflow", workflow)
    patch(generation, "debug_check", "generation.debug", gate("debug"))
    patch(generation, "noncapture_check", "generation.noncapture", gate("noncapture"))
    patch(generation, "overgen_check", "generation.overgen", gate("overgen"))
    patch(generation, "random_probe_strings", "generation.probe")
    patch(generation, "build_prompt", "generation.prompt")
    patch(dialect, "tokenize", "dialect.tokenize")
    patch(dialect, "compile_pattern", "dialect.compile")
    patch(grading, "grade", "grading.grade")
    patch(evaluation, "load_truths", "evaluation.load_truths")
    patch(evaluation, "hit_rate", "evaluation.hit_rate")
    patch(evaluation, "fpr", "evaluation.fpr", fpr)
    patch(evaluation, "similarity", "evaluation.similarity")


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer self times (seconds in the pass) and counts for one pass."""
    own: Counter = Counter()
    calls: Counter = Counter()
    for _id, _parent, name, _ioc, _start, _duration, self_s in rec.spans:
        own[name] += self_s
        calls[name] += 1
    c = rec.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {metric: own[span] for metric, span in SELF_TIME_METRICS.items()}
    iocs = calls["grading.select_best"]
    metrics.update({
        "pipeline.self_s": sum(own[span] for span in PIPELINE_SPANS),
        "capture.reject_frac": ratio(c["other"] + c["no_capture"],
                                     calls["normalize.make_record"]),
        "generation.backend_calls_per_ioc": ratio(calls["generation.backend"], iocs),
        "generation.restarts_per_workflow": ratio(c["workflow_restarts"],
                                                  calls["generation.workflow"]),
        "generation.pattern_yield": ratio(c["workflow_yield"], calls["generation.workflow"]),
        "dialect.tokenize_calls_per_candidate": ratio(calls["dialect.tokenize"],
                                                      calls["generation.backend"]),
        "grading.candidates_per_ioc": ratio(calls["grading.grade"], iocs),
        "evaluation.pair_match_frac": ratio(c["pairs_matched"], c["pairs"]),
    })
    for stage in ("debug", "noncapture", "overgen"):
        checks = calls["generation." + stage]
        metrics[f"generation.{stage}_checks"] = checks
        metrics[f"generation.{stage}_fail_frac"] = ratio(c[stage + "_fail"], checks)
    return metrics


def ioc_times_ms(rec: Recorder) -> list[float]:
    """Wall time of each indicator's pass through the pipeline."""
    return [duration * 1000 for _i, _p, name, _c, _start, duration, _s in rec.spans
            if name == "pipeline.ioc"]
