"""boxvote benchmark: time whole CLI jobs end to end, and each layer inside them.

    python3 bench/run.py --workload sparse-compare --seed 1 --seconds 20 --trace 0

Set-up imports `boxvote` from this checkout's `src/` and writes the
workload's inputs from `--seed`, several times. Then jobs repeat until
`--seconds` have passed, at least MIN_JOBS of them. Every job's artifacts
are checked: they must equal the pinned digests (at the pinned seed) or the
first job's, and pass the sanity checks in `check_outputs`. A job that exits
non-zero, raises or fails a check counts as failed.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced jobs, then runs one job that counts `iou` calls, and reports the
per-layer metrics; the spans are written to `.bench_work/`. The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PINS_PATH = os.path.join(BENCH_DIR, "expected_digests.json")

# The names of workloads.WORKLOADS, which can only be imported after boxvote is.
WORKLOAD_NAMES = ("sparse-compare", "poison-consensus", "dense-fuse")
SETUP_REPEATS = 3
MIN_JOBS = 3

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "synth.generate_s": "s",
    "synth.boxes": "count",
    "data_io.parse_s": "s",
    "data_io.bytes_read": "bytes",
    "data_io.write_s": "s",
    "data_io.bytes_written": "bytes",
    "fusion.nms_s": "s",
    "fusion.soft_nms_s": "s",
    "fusion.wbf_s": "s",
    "fusion.knowledge_vote_s": "s",
    "fusion.calls": "count",
    "fusion.boxes_in": "count",
    "fusion.boxes_out": "count",
    "fusion.gate_pass_ratio": "ratio",
    "consensus.loo_s": "s",
    "consensus.shapley_s": "s",
    "consensus.weighted_fusion_s": "s",
    "consensus.self_s": "s",
    "consensus.quality_calls": "count",
    "consensus.distinct_subset_ratio": "ratio",
    "consensus.image_fusions": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.f1_curve_s": "s",
    "evaluation.detections": "count",
    "evaluation.gt_boxes": "count",
    "geometry.iou_calls.fusion": "count",
    "geometry.iou_calls.evaluation": "count",
    "cli.self_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}
# Self-time metrics that partition a traced job: with cli.self_s they sum to trace.job_s.
SELF_TIME_PARTS = (
    "data_io.parse_s", "data_io.write_s", "fusion.nms_s", "fusion.soft_nms_s",
    "fusion.wbf_s", "fusion.knowledge_vote_s", "consensus.self_s",
    "evaluation.evaluate_s", "evaluation.f1_curve_s", "cli.self_s",
)


def import_boxvote() -> float:
    """Import boxvote from this checkout's `src/`; returns the seconds it took."""
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import boxvote.cli  # noqa: F401

    elapsed = perf_counter() - t0
    if not os.path.abspath(boxvote.__file__).startswith(SRC + os.sep):
        raise ImportError(f"boxvote was imported from {boxvote.__file__}, not {SRC}")
    return elapsed


def tree_digests(top: str) -> dict[str, str]:
    """sha256 of every file under `top`, keyed by its '/'-separated relative path."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, top).replace(os.sep, "/")] = digest
    return out


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sums_to(values, target: float) -> bool:
    # artifacts carry nine significant digits, so each term is off by up to 5e-10 of itself
    values = list(values)
    return abs(sum(values) - target) <= 1e-8 * (sum(abs(v) for v in values) + abs(target))


def check_outputs(out_dir: str) -> list[str]:
    """Invariants every job's artifacts must meet, whatever the seed."""
    errors = []
    for name in sorted(os.listdir(out_dir)):
        d = os.path.join(out_dir, name)
        if name.startswith("fuse_"):
            s = _json(os.path.join(d, "summary.json"))
            if s["output_boxes"] != len(_lines(os.path.join(d, "fused.txt"))):
                errors.append(f"{name}: summary.json output_boxes != fused.txt lines")
            if not 0 <= s["gate_dropped_boxes"] <= s["input_boxes"]:
                errors.append(f"{name}: gate_dropped_boxes outside [0, input_boxes]")
        elif name == "consensus":
            r = _json(os.path.join(d, "contribution_report.json"))
            if not _sums_to([*r["alpha"].values(), r["alpha_extended"]], 1.0):
                errors.append("consensus: weights do not sum to 1")
            if "shapley" in r and not _sums_to(r["shapley"].values(), r["q_full"]):
                errors.append("consensus: Shapley values do not sum to q_full")
            fused = _lines(os.path.join(d, "fused.txt"))
            if len(_lines(os.path.join(d, "pseudo_labels.txt"))) != len(fused):
                errors.append("consensus: pseudo_labels.txt and fused.txt differ in size")
        elif name.startswith("eval_"):
            m = _json(os.path.join(d, "metrics.json"))
            values = list(m["aggregate"].values()) + [
                v for c in m["per_class"].values() for v in c.values()
            ]
            if not all(0.0 <= v <= 1.0 for v in values):
                errors.append(f"{name}: metric outside [0, 1]")
            if len(_lines(os.path.join(d, "f1_curve.csv"))) != 201:
                errors.append(f"{name}: f1_curve.csv does not have 200 points")
        else:
            errors.append(f"unexpected artifact directory {name}")
    return errors


class Bench:
    """One workload's inputs, its jobs, and the tally of checked jobs."""

    def __init__(self, workload, seed: int, images: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.images = images
        self.work_dir = work_dir
        self.job_dir = os.path.join(work_dir, "job")
        self.manifest = None
        self.setup_ok = True
        self.attempted = 0
        self.failed = 0
        with open(PINS_PATH, encoding="utf-8") as fh:
            pins = json.load(fh)
        pinned = seed == pins["seed"] and images == workload.images
        self.reference = pins["digests"][workload.name] if pinned else None

    def setup(self) -> list[float]:
        """Write the inputs SETUP_REPEATS times; returns the seconds each took."""
        times, digests = [], []
        for i in range(SETUP_REPEATS):
            data_dir = os.path.join(self.work_dir, f"data{i}")
            t0 = perf_counter()
            self.workload.write_inputs(data_dir, self.seed, self.images)
            times.append(perf_counter() - t0)
            digests.append(tree_digests(data_dir))
        if any(d != digests[0] for d in digests):
            self.setup_ok = False
            print("set-up: repeated inputs differ", file=sys.stderr)
        self.manifest = os.path.join(data_dir, "manifest.json")
        return times

    def job(self, run_cli) -> float:
        """Run, time and check one job; returns its wall seconds."""
        shutil.rmtree(self.job_dir, ignore_errors=True)
        gc.collect()
        errors = []
        t0 = perf_counter()
        try:
            for argv in self.workload.calls(self.manifest, self.job_dir):
                rc = run_cli(argv)
                if rc != 0:
                    errors.append(f"`boxvote {argv[0]}` exited {rc}")
                    break
        except Exception as exc:  # noqa: BLE001 - a crashing job is a failed job
            errors.append(f"raised {exc!r}")
        elapsed = perf_counter() - t0
        if not errors:
            errors = self.check()
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"job {self.attempted} failed: {e}", file=sys.stderr)
        return elapsed

    def check(self) -> list[str]:
        try:
            errors = check_outputs(self.job_dir)
        except (OSError, ValueError, KeyError) as exc:
            return [f"artifacts unreadable: {exc!r}"]
        digests = tree_digests(self.job_dir)
        if self.reference is None:
            if not errors:
                self.reference = digests
        elif digests != self.reference:
            for path in sorted(set(digests) | set(self.reference)):
                if digests.get(path) != self.reference.get(path):
                    errors.append(
                        f"{path}: sha256 {digests.get(path)}, expected {self.reference.get(path)}"
                    )
        return errors


def measure_untraced(bench, run_cli, seconds: float) -> dict:
    times = []
    deadline = perf_counter() + seconds
    while len(times) < MIN_JOBS or perf_counter() < deadline:
        times.append(bench.job(run_cli))
    return {
        "job_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _summaries(job_dir: str) -> list[dict]:
    return [
        _json(os.path.join(job_dir, name, "summary.json"))
        for name in sorted(os.listdir(job_dir))
        if name.startswith("fuse_")
    ]


def measure_traced(bench, run_cli, seconds: float, spans_path: str) -> dict:
    """Trace set-up, alternate untraced and traced jobs, then count iou calls in one more job."""
    import spans

    tracer = spans.Tracer()
    tracer.job = "setup"
    tracer.install()
    try:
        bench.setup()
    finally:
        tracer.uninstall()

    plain, traced, tags = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_JOBS or perf_counter() < deadline:
        plain.append(bench.job(run_cli))
        tags.append(f"job{len(tags)}")
        tracer.job = tags[-1]
        tracer.install()
        try:
            traced.append(bench.job(run_cli))
        finally:
            tracer.uninstall()

    layer = defaultdict(float)
    layer["synth.generate_s"] = statistics.median(
        s[3] - s[2] for s in tracer.job_spans("setup") if s[1] == "synth.generate"
    )
    layer["synth.boxes"] = tracer.counts["setup"]["synth.boxes"] // SETUP_REPEATS
    for tag, wall in zip(tags, traced):
        job_spans = tracer.job_spans(tag)
        own = spans.self_times(job_spans)
        total = spans.total_times(job_spans)
        part = {
            "data_io.parse_s": own["data_io.parse"],
            "data_io.write_s": own["data_io.write"],
            "fusion.nms_s": own["fusion.nms"],
            "fusion.soft_nms_s": own["fusion.soft_nms"],
            "fusion.wbf_s": own["fusion.wbf"],
            "fusion.knowledge_vote_s": own["fusion.knowledge_vote"],
            "consensus.self_s": sum(v for k, v in own.items() if k.startswith("consensus.")),
            "consensus.loo_s": total["consensus.loo"],
            "consensus.shapley_s": total["consensus.shapley"],
            "consensus.weighted_fusion_s": total["consensus.weighted_fusion"],
            "evaluation.evaluate_s": own["evaluation.evaluate"],
            "evaluation.f1_curve_s": own["evaluation.f1_curve"],
            "cli.self_s": wall - sum(s[3] - s[2] for s in job_spans if s[4] is None),
            "trace.job_s": wall,
        }
        for k, v in part.items():
            layer[k] += v / len(tags)

    last = tags[-1]
    counts = tracer.counts[last]
    subsets = [k for k in counts if isinstance(k, tuple)]
    quality_calls = counts["consensus.quality_calls"]
    layer.update({
        "fusion.calls": sum(
            1 for s in tracer.job_spans(last) if s[1].startswith("fusion.")
        ),
        "consensus.quality_calls": quality_calls,
        "consensus.distinct_subset_ratio": len(subsets) / quality_calls if quality_calls else 0.0,
        "consensus.image_fusions": counts["consensus.image_fusions"],
        "evaluation.detections": counts["evaluation.detections"],
        "evaluation.gt_boxes": counts["evaluation.gt_boxes"],
        "data_io.bytes_read": counts["data_io.bytes_read"],
        "data_io.bytes_written": counts["data_io.bytes_written"],
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })

    iou = spans.IouCounter()
    iou.install()
    try:
        bench.job(run_cli)
    finally:
        iou.uninstall()
    layer["geometry.iou_calls.fusion"] = iou.calls["fusion"]
    layer["geometry.iou_calls.evaluation"] = iou.calls["evaluation"]

    summaries = _summaries(bench.job_dir)
    kv = [s for s in summaries if s["algorithm"] == "knowledge-vote"]
    kv_in = sum(s["input_boxes"] for s in kv)
    layer["fusion.boxes_in"] = sum(s["input_boxes"] for s in summaries)
    layer["fusion.boxes_out"] = sum(s["output_boxes"] for s in summaries)
    layer["fusion.gate_pass_ratio"] = (
        sum(s["input_boxes"] - s["gate_dropped_boxes"] for s in kv) / kv_in if kv_in else 0.0
    )
    layer["error_rate"] = bench.failed / bench.attempted
    tracer.write(spans_path)
    return layer


def run(workload_name: str, seed: int, seconds: float, trace: bool, images=None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import_s = import_boxvote()
    from workloads import WORKLOADS, run_cli  # imports boxvote, so not at module level

    workload = WORKLOADS[workload_name]
    images = images or workload.images
    work_dir = os.path.join(WORK, f"{workload_name}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    bench = Bench(workload, seed, images, work_dir)
    try:
        if trace:
            spans_path = os.path.join(WORK, f"spans-{workload_name}-seed{seed}.tsv")
            metrics = measure_traced(bench, run_cli, seconds, spans_path)
            units = PER_LAYER
        else:
            setup_s = import_s + statistics.median(bench.setup())
            metrics = measure_untraced(bench, run_cli, seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": bench.failed == 0 and bench.setup_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import boxvote from {SRC}: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    if "error_rate" not in result["metrics"]:
        print(f"{'error_rate':32s} {result['failed'] / result['attempted']:>16.6g} ratio")
    print(f"{'jobs attempted':32s} {result['attempted']:>16d}")
    print(f"{'jobs failed':32s} {result['failed']:>16d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
