"""Command-line driver: simulate -> fuse -> consensus -> eval.

Exit codes: 0 ok, 1 internal fault, 2 config error, 3 data/parse error.
All randomness flows from scenario seeds; artifacts are deterministic, with
the single exception of timings.json (wall-clock measurements).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from . import consensus as cf
from . import data_io, synth
from .errors import ConfigError, DataError
from .evaluation import DEFAULT_F1_GRID, evaluate, f1_curve
from .fusion import (
    ConfidenceGates,
    KEEP_ALL,
    apply_gates,
    knowledge_vote,
    nms,
    soft_nms,
    wbf,
)
from .geometry import DetectionSet

ALGORITHMS = ("nms", "soft-nms", "wbf", "knowledge-vote", "consensus-wbf")
NMS_DEFAULT_IOU = 0.5
DEFAULT_CONF_THRESHOLD = 0.0001


def _pmap(fn, items, threads: int):
    """Order-preserving map, optionally on a thread pool."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _pool_sources(ensemble: cf.SourceEnsemble, image_id: str) -> DetectionSet:
    boxes = []
    for src in ensemble.sources:
        boxes.extend(src.for_image(image_id).boxes)
    return DetectionSet(image_id, tuple(boxes))


def _check_confidence_threshold(value: float) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"--confidence-threshold must be finite, got {value!r}")


def _count_boxes(per_image) -> int:
    return sum(len(ds.boxes) for ds in per_image.values())


def run_fuse(manifest, ensemble, algorithm, threads=1, report=None, nms_iou=None):
    """Fuse every target image with one algorithm; returns (per_image, summary).

    NMS-family algorithms default to NMS_DEFAULT_IOU unless nms_iou overrides
    it; the manifest's iou_threshold governs WBF clustering.
    """
    params = manifest.fusion
    gates = manifest.gates
    flt = manifest.label_filter
    gate_dropped = 0

    if algorithm in ("nms", "soft-nms"):
        fn = nms if algorithm == "nms" else soft_nms
        nms_params = replace(
            params, iou_threshold=nms_iou if nms_iou is not None else NMS_DEFAULT_IOU
        )

        def one(image_id):
            return fn(_pool_sources(ensemble, image_id), nms_params)

        results = _pmap(one, ensemble.target_image_ids, threads)
        per_image = {ds.image_id: ds for ds in results}
    elif algorithm in ("wbf", "knowledge-vote"):
        use_gates = gates if algorithm == "knowledge-vote" else ConfidenceGates()
        use_flt = flt if algorithm == "knowledge-vote" else KEEP_ALL
        if algorithm == "knowledge-vote":
            for image_id in ensemble.target_image_ids:
                for src in ensemble.sources:
                    ds = src.for_image(image_id)
                    gate_dropped += len(ds.boxes) - len(
                        apply_gates(ds, use_gates, use_flt).boxes
                    )

        def one(image_id):
            per_model = [s.for_image(image_id) for s in ensemble.sources]
            fused = knowledge_vote(per_model, use_gates, use_flt, params) \
                if algorithm == "knowledge-vote" else wbf(per_model, params)
            return image_id, fused

        results = _pmap(one, ensemble.target_image_ids, threads)
        per_image = data_io.fused_to_detections(dict(results))
    elif algorithm == "consensus-wbf":
        if report is None:
            report = cf.consensus_focus_scores(ensemble, gates, flt, params)
            report = cf.compute_weights(
                report,
                {s.source_id: s.dataset_size for s in ensemble.sources},
                len(ensemble.target_image_ids),
            )
        fused = cf.weighted_fusion(ensemble, report, gates, flt, params)
        per_image = data_io.fused_to_detections(fused)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}; valid: {ALGORITHMS}")

    summary = {
        "algorithm": algorithm,
        "images": len(ensemble.target_image_ids),
        "input_boxes": sum(
            _count_boxes(s.detections) for s in ensemble.sources
        ),
        "output_boxes": _count_boxes(per_image),
        "gate_dropped_boxes": gate_dropped,
    }
    return per_image, summary


def cmd_simulate(args) -> int:
    scenarios = synth.reference_scenarios()
    if args.scenario not in scenarios:
        raise ConfigError(
            f"unknown scenario {args.scenario!r}; valid: {sorted(scenarios)}"
        )
    scenario = scenarios[args.scenario]
    if args.images:
        scenario = synth.scaled(scenario, args.images)
    if args.seed is not None:
        scenario = replace(scenario, spec=replace(scenario.spec, seed=args.seed))
    write_scenario(scenario, args.out)
    print(f"wrote scenario {args.scenario!r} to {args.out}")
    return 0


def write_scenario(scenario: synth.NamedScenario, out_dir) -> str:
    """Materialize a scenario as gt + detection files + manifest; returns manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    gt, domains = synth.generate(scenario.spec)
    data_io.write_ground_truth(gt, os.path.join(out_dir, "ground_truth.txt"))
    sources = []
    for d in domains:
        fname = f"source_{d.name}.txt"
        data_io.write_detections(d.detections, os.path.join(out_dir, fname))
        sources.append(
            data_io.ManifestSource(
                name=d.name, dataset_size=d.dataset_size, detections_path=fname
            )
        )
    class_names = [f"class_{c.id}" for c in scenario.spec.classes]
    manifest = data_io.EnsembleManifest(
        classes=class_names,
        sources=sources,
        target_image_ids=synth.image_ids(scenario.spec.num_images),
        ground_truth_path="ground_truth.txt",
        gates=scenario.gates,
        label_filter=KEEP_ALL,
        fusion=replace(
            data_io.FusionParams(), model_weights=None
        ),
        base_dir=str(out_dir),
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    data_io.write_manifest(manifest, manifest_path)
    return manifest_path


def _load(args):
    manifest = data_io.parse_manifest(args.manifest)
    if getattr(args, "iou_threshold", None) is not None:
        manifest.fusion = replace(manifest.fusion, iou_threshold=args.iou_threshold)
    ensemble, gt = data_io.load_ensemble(manifest)
    return manifest, ensemble, gt


def cmd_fuse(args) -> int:
    manifest, ensemble, _ = _load(args)
    os.makedirs(args.out, exist_ok=True)
    per_image, summary = run_fuse(
        manifest, ensemble, args.algorithm, args.threads, nms_iou=args.iou_threshold
    )
    data_io.write_detections(per_image, os.path.join(args.out, "fused.txt"))
    data_io.write_json(summary, os.path.join(args.out, "summary.json"))
    print(f"{args.algorithm}: {summary['output_boxes']} fused boxes -> {args.out}")
    return 0


def run_consensus(manifest, ensemble, shapley=False, threads=1):
    report = cf.consensus_focus_scores(
        ensemble, manifest.gates, manifest.label_filter, manifest.fusion
    )
    report = cf.compute_weights(
        report,
        {s.source_id: s.dataset_size for s in ensemble.sources},
        len(ensemble.target_image_ids),
    )
    if shapley:
        report.shapley = cf.shapley_scores(
            ensemble, manifest.gates, manifest.label_filter, manifest.fusion
        )
    fused = cf.weighted_fusion(
        ensemble, report, manifest.gates, manifest.label_filter, manifest.fusion
    )
    provenance = {
        "sources": [s.name for s in ensemble.sources],
        "gates": {
            "default": manifest.gates.default_gate,
            "per_class": {str(k): v for k, v in sorted(manifest.gates.gates.items())},
        },
        "iou_threshold": manifest.fusion.iou_threshold,
    }
    dataset = cf.emit_pseudo_labels(fused, ensemble.target_image_ids, provenance)
    return report, fused, dataset


def cmd_consensus(args) -> int:
    manifest, ensemble, _ = _load(args)
    if len(ensemble.sources) < 2:
        raise ConfigError(
            "consensus weighting needs at least 2 sources; "
            "a single source takes the whole non-extended weight"
        )
    os.makedirs(args.out, exist_ok=True)
    report, fused, dataset = run_consensus(
        manifest, ensemble, shapley=args.shapley, threads=args.threads
    )
    data_io.write_contribution_report(
        report, os.path.join(args.out, "contribution_report.json")
    )
    data_io.write_detections(
        data_io.fused_to_detections(fused), os.path.join(args.out, "fused.txt")
    )
    data_io.write_pseudo_labels(dataset, os.path.join(args.out, "pseudo_labels.txt"))
    alphas = ", ".join(
        f"{s.name}={report.alpha[s.source_id]:.4f}" for s in ensemble.sources
    )
    print(f"weights: {alphas}; extended={report.alpha_extended:.4f}")
    return 0


def cmd_eval(args) -> int:
    _check_confidence_threshold(args.confidence_threshold)
    manifest, ensemble, gt = _load(args)
    if gt is None:
        raise ConfigError("manifest has no ground_truth_path; eval needs ground truth")
    detections = data_io.parse_detections(args.detections)
    fused = {iid: list(ds.boxes) for iid, ds in detections.items()}
    os.makedirs(args.out, exist_ok=True)
    metrics = evaluate(fused, gt, args.confidence_threshold)
    data_io.write_metrics(metrics, os.path.join(args.out, "metrics.json"))
    curve = f1_curve(fused, gt, DEFAULT_F1_GRID)
    data_io.write_f1_curve(curve, os.path.join(args.out, "f1_curve.csv"))
    agg = metrics.aggregate
    print(
        f"P={agg.precision:.4f} R={agg.recall:.4f} "
        f"mAP@0.5={agg.ap50:.4f} mAP@.5:.95={agg.ap5095:.4f}"
    )
    return 0


def run_pipeline(scenario_name, out_dir, threads=1, confidence_threshold=DEFAULT_CONF_THRESHOLD,
                 images=None, shapley=False):
    """simulate -> fuse all algorithms -> consensus -> eval, one artifact tree."""
    _check_confidence_threshold(confidence_threshold)
    scenarios = synth.reference_scenarios()
    if scenario_name not in scenarios:
        raise ConfigError(
            f"unknown scenario {scenario_name!r}; valid: {sorted(scenarios)}"
        )
    scenario = scenarios[scenario_name]
    if images:
        scenario = synth.scaled(scenario, images)
    data_dir = os.path.join(out_dir, "data")
    manifest_path = write_scenario(scenario, data_dir)
    manifest = data_io.parse_manifest(manifest_path)
    ensemble, gt = data_io.load_ensemble(manifest)

    timings = {}
    comparison = []
    fused_files = {}
    for algorithm in ("nms", "soft-nms", "wbf", "knowledge-vote"):
        t0 = time.perf_counter()
        per_image, summary = run_fuse(manifest, ensemble, algorithm, threads)
        timings[algorithm] = time.perf_counter() - t0
        adir = os.path.join(out_dir, f"fuse_{algorithm}")
        os.makedirs(adir, exist_ok=True)
        data_io.write_detections(per_image, os.path.join(adir, "fused.txt"))
        data_io.write_json(summary, os.path.join(adir, "summary.json"))
        fused_files[algorithm] = per_image

    t0 = time.perf_counter()
    report, fused, dataset = run_consensus(manifest, ensemble, shapley=shapley, threads=threads)
    timings["consensus"] = time.perf_counter() - t0
    cdir = os.path.join(out_dir, "consensus")
    os.makedirs(cdir, exist_ok=True)
    data_io.write_contribution_report(
        report, os.path.join(cdir, "contribution_report.json")
    )
    ours = data_io.fused_to_detections(fused)
    data_io.write_detections(ours, os.path.join(cdir, "fused.txt"))
    data_io.write_pseudo_labels(dataset, os.path.join(cdir, "pseudo_labels.txt"))
    fused_files["ours"] = ours

    timings["evaluation"] = 0.0
    for name in ("ours", "nms", "soft-nms", "wbf", "knowledge-vote"):
        per_image = fused_files[name]
        boxes = {iid: list(ds.boxes) for iid, ds in per_image.items()}
        t0 = time.perf_counter()
        metrics = evaluate(boxes, gt, confidence_threshold)
        curve = f1_curve(boxes, gt, DEFAULT_F1_GRID)
        timings["evaluation"] += time.perf_counter() - t0
        edir = os.path.join(out_dir, f"eval_{name}")
        os.makedirs(edir, exist_ok=True)
        data_io.write_metrics(metrics, os.path.join(edir, "metrics.json"))
        data_io.write_f1_curve(curve, os.path.join(edir, "f1_curve.csv"))
        agg = metrics.aggregate
        comparison.append(
            {
                "method": name,
                "precision": agg.precision,
                "recall": agg.recall,
                "map50": agg.ap50,
                "map5095": agg.ap5095,
            }
        )

    with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("method,precision,recall,map50,map5095\n")
        for row in comparison:
            fh.write(
                ",".join(
                    [row["method"]]
                    + [data_io.fmt_float(row[k]) for k in
                       ("precision", "recall", "map50", "map5095")]
                )
                + "\n"
            )

    summary = {
        "scenario": scenario_name,
        "images": len(ensemble.target_image_ids),
        "sources": [s.name for s in ensemble.sources],
        "confidence_threshold": confidence_threshold,
        "alpha": {str(k): v for k, v in report.alpha.items()},
        "alpha_extended": report.alpha_extended,
    }
    data_io.write_json(summary, os.path.join(out_dir, "summary.json"))

    # wall-clock only; deliberately the one non-deterministic artifact
    timings["consensus_over_nms_ratio"] = (
        timings["consensus"] / timings["nms"] if timings["nms"] > 0 else float("inf")
    )
    data_io.write_json(
        {k: float(v) for k, v in timings.items()},
        os.path.join(out_dir, "timings.json"),
    )
    return comparison, timings


def cmd_pipeline(args) -> int:
    comparison, timings = run_pipeline(
        args.scenario,
        args.out,
        threads=args.threads,
        confidence_threshold=args.confidence_threshold,
        images=args.images,
        shapley=args.shapley,
    )
    for row in comparison:
        print(
            f"{row['method']:>14}: P={row['precision']:.4f} R={row['recall']:.4f} "
            f"mAP@0.5={row['map50']:.4f} mAP@.5:.95={row['map5095']:.4f}"
        )
    print(f"consensus/nms wall-time ratio: {timings['consensus_over_nms_ratio']:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxvote",
        description="Detection-ensemble fusion with source contribution weighting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a pinned synthetic scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--images", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse all sources with one algorithm")
    p.add_argument("--manifest", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--out", required=True)
    p.add_argument("--iou-threshold", type=float, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("consensus", help="contribution weights + weighted fusion")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shapley", action="store_true")
    p.add_argument("--iou-threshold", type=float, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_consensus)

    p = sub.add_parser("eval", help="score a fused detection file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--confidence-threshold", type=float, default=DEFAULT_CONF_THRESHOLD)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pipeline", help="simulate + fuse + consensus + eval")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--confidence-threshold", type=float, default=DEFAULT_CONF_THRESHOLD)
    p.add_argument("--images", type=int, default=None)
    p.add_argument("--shapley", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - internal fault -> exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
