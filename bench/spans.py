"""Outside-in tracing: wrappers installed around each layer's public functions.

The wrappers replace module attributes where the callers look them up
(`boxvote.cli.evaluate`, `boxvote.consensus.knowledge_vote`, ...), so the
program's source is not touched. Each call records a span (name, start, end,
parent span, job id) in memory; `self_times` turns spans into per-layer self
time, which is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

from boxvote import cli, consensus, data_io, evaluation, fusion, synth


def _count_read(counts, parent, args, result):
    counts["data_io.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, parent, args, result):
    # write_metrics and the like call write_json: count the file once
    if parent is None or parent[1] != "data_io.write":
        counts["data_io.bytes_written"] += os.path.getsize(args[-1])


def _count_quality(counts, parent, args, result):
    counts["consensus.quality_calls"] += 1
    counts[("subset", tuple(s.source_id for s in args[0]))] += 1


def _count_image_fusion(counts, parent, args, result):
    counts["consensus.image_fusions"] += 1


def _count_evaluate(counts, parent, args, result):
    counts["evaluation.detections"] += sum(len(v) for v in args[0].values())
    counts["evaluation.gt_boxes"] += sum(len(v) for v in args[1].entries.values())


def _count_generated(counts, parent, args, result):
    gt, domains = result
    counts["synth.boxes"] += sum(len(v) for v in gt.entries.values()) + sum(
        len(ds.boxes) for d in domains for ds in d.detections.values()
    )


def traced_functions():
    """(module, attribute, span name, counting hook) for every wrapped function."""
    table = [
        (synth, "generate", "synth.generate", _count_generated),
        (cli, "nms", "fusion.nms", None),
        (cli, "soft_nms", "fusion.soft_nms", None),
        (cli, "wbf", "fusion.wbf", None),
        (cli, "knowledge_vote", "fusion.knowledge_vote", None),
        (consensus, "knowledge_vote", "fusion.knowledge_vote", _count_image_fusion),
        (consensus, "consensus_quality", "consensus.quality", _count_quality),
        (consensus, "consensus_focus_scores", "consensus.loo", None),
        (consensus, "shapley_scores", "consensus.shapley", None),
        (consensus, "weighted_fusion", "consensus.weighted_fusion", None),
        (cli, "evaluate", "evaluation.evaluate", _count_evaluate),
        (cli, "f1_curve", "evaluation.f1_curve", None),
        (data_io, "load_ensemble", "data_io.parse", None),
    ]
    for attr in sorted(vars(data_io)):
        if attr.startswith("parse_"):
            table.append((data_io, attr, "data_io.parse", _count_read))
        elif attr.startswith("write_"):
            table.append((data_io, attr, "data_io.write", _count_written))
    return table


class Tracer:
    """Installs the span wrappers and keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent id, job]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.job = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span = [next(tracer._ids), name, 0.0, 0.0, parent, tracer.job]
            tracer.spans.append(span)
            stack.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts[tracer.job], parent, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, hook in traced_functions():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def job_spans(self, job) -> list[list]:
        return [s for s in self.spans if s[5] == job]

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, start, end, parent id, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for sid, name, t0, t1, parent, job in self.spans:
                pid = "" if parent is None else parent[0]
                fh.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{pid}\t{job}\n")


def self_times(spans) -> dict[str, float]:
    """Self seconds per span name: duration minus the direct children's durations."""
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            child_time[parent[0]] += t1 - t0
    for sid, name, t0, t1, _, _ in spans:
        out[name] += (t1 - t0) - child_time[sid]
    return out


def total_times(spans) -> dict[str, float]:
    """Seconds per span name, counting only the outermost span of each name."""
    out: dict[str, float] = defaultdict(float)
    for _, name, t0, t1, parent, _ in spans:
        if parent is None or parent[1] != name:
            out[name] += t1 - t0
    return out


class IouCounter:
    """Counts calls of the `iou` name that `fusion` and `evaluation` bind."""

    MODULES = {"fusion": fusion, "evaluation": evaluation}

    def __init__(self):
        self.calls = Counter()
        self._saved: list[tuple] = []

    def install(self) -> None:
        for key, module in self.MODULES.items():
            fn = module.iou
            self._saved.append((module, fn))
            module.iou = self._counting(fn, key)

    def _counting(self, fn, key):
        calls = self.calls

        def counted(a, b):
            calls[key] += 1
            return fn(a, b)

        return counted

    def uninstall(self) -> None:
        for module, fn in self._saved:
            module.iou = fn
        self._saved.clear()
