"""Command-line driver: simulate -> fuse -> consensus -> eval.

Exit codes: 0 ok, 1 internal fault, 2 config error, 3 data/parse error.
`--debug` re-raises an internal fault instead of exiting 1; `--log-level`
sets which log messages (such as dropped zero-area boxes) reach stderr.
All randomness flows from scenario seeds; artifacts are deterministic, with
the single exception of timings.json (wall-clock measurements).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

from . import consensus as cf
from . import data_io, synth
from .errors import ConfigError, DataError
from .evaluation import evaluate, f1_curve
from .fusion import (
    FusionParams,
    apply_gates,
    knowledge_vote,  # noqa: F401 - bench/spans.py wraps `cli.knowledge_vote`
    nms,
    soft_nms,
    wbf,
)

FUSE_ALGORITHMS = ("nms", "soft-nms", "wbf", "knowledge-vote")
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")
NMS_DEFAULT_IOU = 0.5
DEFAULT_CONF_THRESHOLD = 0.0001


def _check_confidence_threshold(value: float) -> None:
    # NaN fails the comparison too
    if not 0.0 <= value <= 1.0:
        raise ConfigError(
            f"--confidence-threshold must be a number in [0, 1], got {value!r}"
        )


def run_fuse(manifest, ensemble, algorithm, nms_iou=None):
    """Fuse every target image with one algorithm; returns (per_image, summary).

    The algorithm is one call with every target image: each source's boxes
    on each image, sources in source order, images in target order.
    `per_image` maps each target image id to the list of boxes the algorithm
    returns for it. NMS uses NMS_DEFAULT_IOU unless nms_iou overrides it, never
    the manifest's iou_threshold. Soft-NMS takes no IoU threshold: it decays
    every overlapping box, reading only soft_nms_sigma and score_floor. The
    manifest's iou_threshold governs WBF and knowledge-vote clustering. Only
    `knowledge-vote` reads the manifest's gates and filter (`fusion.gates`):
    it gates each (source, image) pair once, counts the boxes the gates drop
    for its summary, and fuses the gated sets with `wbf`.
    """
    if algorithm not in FUSE_ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; valid: {FUSE_ALGORITHMS}")
    params = manifest.fusion
    if algorithm == "nms":
        params = replace(params, iou_threshold=NMS_DEFAULT_IOU if nms_iou is None else nms_iou)
    ids = ensemble.target_image_ids
    per_model = [[s.for_image(image_id) for image_id in ids] for s in ensemble.sources]
    input_boxes = sum(len(boxes) for images in per_model for boxes in images)
    gate_dropped = 0
    if algorithm == "knowledge-vote":
        per_model = [[apply_gates(boxes, params.gates) for boxes in images]
                     for images in per_model]
        gate_dropped = input_boxes - sum(len(boxes) for images in per_model for boxes in images)
    # looked up per call, so the span wrappers that bench/spans.py sets on
    # these module names are the functions that run
    fuse = {"nms": nms, "soft-nms": soft_nms}.get(algorithm, wbf)
    per_image = dict(zip(ids, fuse(per_model, params)))
    summary = {
        "algorithm": algorithm,
        "images": len(ensemble.target_image_ids),
        "input_boxes": input_boxes,
        "output_boxes": sum(map(len, per_image.values())),
        "gate_dropped_boxes": gate_dropped,
    }
    return per_image, summary


def _at_least(option: str, value, low: int) -> None:
    if value is not None and value < low:
        raise ConfigError(f"{option} must be >= {low}, got {value}")


def _scenario(name, images=None, seed=None) -> synth.NamedScenario:
    """A pinned scenario by name, optionally with another image count or seed."""
    scenarios = synth.reference_scenarios()
    if name not in scenarios:
        raise ConfigError(f"unknown scenario {name!r}; valid: {sorted(scenarios)}")
    _at_least("--images", images, 1)
    _at_least("--seed", seed, 0)
    scenario = scenarios[name]
    if images is not None:
        scenario = synth.scaled(scenario, images)
    if seed is not None:
        scenario = replace(scenario, spec=replace(scenario.spec, seed=seed))
    return scenario


def cmd_simulate(args) -> int:
    write_scenario(_scenario(args.scenario, args.images, args.seed), args.out)
    print(f"wrote scenario {args.scenario!r} to {args.out}")
    return 0


def _make_out_dir(out_dir) -> None:
    """Create an output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc


def write_scenario(scenario: synth.NamedScenario, out_dir) -> str:
    """Materialize a scenario as gt + detection files + manifest; returns manifest path."""
    _make_out_dir(out_dir)
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
        fusion=FusionParams(gates=scenario.gates),
        base_dir=str(out_dir),
    )
    manifest_path = os.path.join(out_dir, "manifest.json")
    data_io.write_manifest(manifest, manifest_path)
    return manifest_path


def _load(manifest_path, iou_threshold=None):
    """The manifest, with `--iou-threshold` applied, and its sources."""
    # the manifest's rule for fusion.iou_threshold; NaN fails the comparison too
    if iou_threshold is not None and not 0.0 < iou_threshold < 1.0:
        raise ConfigError(
            f"--iou-threshold must be a finite number in (0, 1), got {iou_threshold!r}"
        )
    manifest = data_io.parse_manifest(manifest_path)
    if iou_threshold is not None:
        manifest.fusion = replace(manifest.fusion, iou_threshold=iou_threshold)
    return manifest, data_io.load_ensemble(manifest)


def _write_fuse(out_dir, per_image, summary) -> None:
    _make_out_dir(out_dir)
    data_io.write_detections(per_image, os.path.join(out_dir, "fused.txt"))
    data_io.write_json(summary, os.path.join(out_dir, "summary.json"))


def cmd_fuse(args) -> int:
    if args.algorithm == "soft-nms" and args.iou_threshold is not None:
        raise ConfigError(
            "--iou-threshold does not apply to soft-nms: soft-NMS takes no IoU threshold, "
            "it decays every overlapping box by soft_nms_sigma"
        )
    manifest, ensemble = _load(args.manifest, args.iou_threshold)
    per_image, summary = run_fuse(
        manifest, ensemble, args.algorithm, nms_iou=args.iou_threshold
    )
    _write_fuse(args.out, per_image, summary)
    print(f"{args.algorithm}: {summary['output_boxes']} fused boxes -> {args.out}")
    return 0


def run_consensus(manifest, ensemble, shapley=False):
    """Score every source, weight it, and fuse all sources with those weights.

    One `ConsensusScorer` serves the whole run: each (source, image) is gated
    once, and the subsets the run reads (the full set and each leave-one-out
    subset, or with `shapley` every non-empty subset) are scored in one pass
    over the images, shared by the leave-one-out report and Shapley. The
    weighted pass fuses the same gated boxes.
    Returns `(report, fused)`, where `fused` maps every target image id, in
    target order, to its fused boxes, empty lists included: these are the
    pseudo-labels. Too many sources for Shapley exit in `read_subsets`, before
    any gating or fusion.
    """
    scorer = cf.ConsensusScorer(
        ensemble.sources, ensemble.target_image_ids, manifest.fusion,
        cf.read_subsets(len(ensemble.sources), shapley),
    )
    report = cf.consensus_focus_scores(scorer)
    report = cf.compute_weights(
        report,
        {s.source_id: s.dataset_size for s in ensemble.sources},
        len(ensemble.target_image_ids),
    )
    if shapley:
        report.shapley = cf.shapley_scores(scorer)
    return report, cf.weighted_fusion(scorer, report)


def _write_consensus(out_dir, report, fused) -> None:
    _make_out_dir(out_dir)
    data_io.write_contribution_report(
        report, os.path.join(out_dir, "contribution_report.json")
    )
    fused_path = os.path.join(out_dir, "fused.txt")
    data_io.write_detections(fused, fused_path)
    data_io.write_pseudo_labels(
        fused, os.path.join(out_dir, "pseudo_labels.txt"), detections=fused_path)


def cmd_consensus(args) -> int:
    manifest, ensemble = _load(args.manifest, args.iou_threshold)
    # fewer than 2 sources raise DegenerateEnsembleError (exit 2) here
    report, fused = run_consensus(manifest, ensemble, shapley=args.shapley)
    _write_consensus(args.out, report, fused)
    alphas = ", ".join(
        f"{s.name}={report.alpha[s.source_id]:.4f}" for s in ensemble.sources
    )
    print(f"weights: {alphas}; extended={report.alpha_extended:.4f}")
    return 0


def _write_eval(out_dir, metrics, curve) -> None:
    _make_out_dir(out_dir)
    data_io.write_metrics(metrics, os.path.join(out_dir, "metrics.json"))
    data_io.write_f1_curve(curve, os.path.join(out_dir, "f1_curve.csv"))


def cmd_eval(args) -> int:
    _check_confidence_threshold(args.confidence_threshold)
    if not os.path.isfile(args.detections):
        raise ConfigError(f"--detections file not found: {args.detections}")
    # the manifest, the ground truth and --detections; never the sources' files
    gt = data_io.load_ground_truth(data_io.parse_manifest(args.manifest))
    if gt is None:
        raise ConfigError("manifest has no ground_truth_path; eval needs ground truth")
    fused = data_io.parse_detections(args.detections)
    metrics = evaluate(fused, gt, args.confidence_threshold)
    curve = f1_curve(metrics.matches)
    _write_eval(args.out, metrics, curve)
    agg = metrics.aggregate
    print(
        f"P={agg.precision:.4f} R={agg.recall:.4f} "
        f"mAP@0.5={agg.ap50:.4f} mAP@.5:.95={agg.ap5095:.4f}"
    )
    return 0


def run_pipeline(scenario_name, out_dir, confidence_threshold=DEFAULT_CONF_THRESHOLD,
                 images=None, shapley=False):
    """simulate -> fuse all algorithms -> consensus -> eval, one artifact tree.

    Each stage writes its directory with the writer its own command uses.
    Returns each method's `(name, aggregate ClassMetrics)` and the timings.
    """
    _check_confidence_threshold(confidence_threshold)
    scenario = _scenario(scenario_name, images)
    timings = {}
    t0 = time.perf_counter()
    manifest_path = write_scenario(scenario, os.path.join(out_dir, "data"))
    timings["simulate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    manifest, ensemble = _load(manifest_path)
    gt = data_io.load_ground_truth(manifest)
    timings["load"] = time.perf_counter() - t0

    fused_files = {}
    for algorithm in FUSE_ALGORITHMS:
        t0 = time.perf_counter()
        per_image, summary = run_fuse(manifest, ensemble, algorithm)
        timings[algorithm] = time.perf_counter() - t0
        _write_fuse(os.path.join(out_dir, f"fuse_{algorithm}"), per_image, summary)
        fused_files[algorithm] = per_image

    t0 = time.perf_counter()
    report, fused = run_consensus(manifest, ensemble, shapley=shapley)
    timings["consensus"] = time.perf_counter() - t0
    _write_consensus(os.path.join(out_dir, "consensus"), report, fused)

    comparison = []
    timings["evaluation"] = 0.0
    for name, per_image in [("ours", fused), *fused_files.items()]:
        t0 = time.perf_counter()
        metrics = evaluate(per_image, gt, confidence_threshold)
        curve = f1_curve(metrics.matches)
        timings["evaluation"] += time.perf_counter() - t0
        _write_eval(os.path.join(out_dir, f"eval_{name}"), metrics, curve)
        comparison.append((name, metrics.aggregate))

    with data_io.open_output(os.path.join(out_dir, "comparison.csv")) as fh:
        fh.write("method,precision,recall,map50,map5095\n")
        for name, agg in comparison:
            fields = (agg.precision, agg.recall, agg.ap50, agg.ap5095)
            fh.write(",".join([name, *map(data_io.fmt_float, fields)]) + "\n")

    summary = {
        "scenario": scenario_name,
        "images": len(ensemble.target_image_ids),
        "sources": [s.name for s in ensemble.sources],
        "confidence_threshold": confidence_threshold,
        "alpha": report.alpha,
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
        confidence_threshold=args.confidence_threshold,
        images=args.images,
        shapley=args.shapley,
    )
    for name, agg in comparison:
        print(
            f"{name:>14}: P={agg.precision:.4f} R={agg.recall:.4f} "
            f"mAP@0.5={agg.ap50:.4f} mAP@.5:.95={agg.ap5095:.4f}"
        )
    print(f"consensus/nms wall-time ratio: {timings['consensus_over_nms_ratio']:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxvote",
        description="Detection-ensemble fusion with source contribution weighting",
    )
    parser.add_argument(
        "--log-level", type=str.upper, default="WARNING", choices=LOG_LEVELS,
        help="messages at this level and above go to standard error (default WARNING)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="re-raise an internal fault with its traceback instead of exiting 1",
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
    p.add_argument("--algorithm", required=True, choices=FUSE_ALGORITHMS)
    p.add_argument("--out", required=True)
    p.add_argument("--iou-threshold", type=float, default=None)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("consensus", help="contribution weights + weighted fusion")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shapley", action="store_true")
    p.add_argument("--iou-threshold", type=float, default=None)
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
    p.add_argument("--confidence-threshold", type=float, default=DEFAULT_CONF_THRESHOLD)
    p.add_argument("--images", type=int, default=None)
    p.add_argument("--shapley", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the handler lives for this call only, so repeated in-process calls add none
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log = logging.getLogger("boxvote")
    saved_level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - internal fault -> exit 1
        if args.debug:
            raise
        print(f"internal error: {exc} (rerun with --debug for the traceback)",
              file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
