"""File formats and configuration.

Detection files are plain text, one box per line:

    image_id class_id x1 y1 x2 y2 confidence

Pseudo-label files append the support count as an eighth column. Ground truth
uses the same layout without the confidence column. The manifest is a single
JSON document. All writers are deterministic: sorted keys, floats at 9
significant digits, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

from .consensus import PseudoLabelDataset, SourceDomain, SourceEnsemble
from .errors import InvalidBoxError, ManifestError, ParseError
from .evaluation import F1Curve, GroundTruth, GroundTruthBox, MetricsReport
from .fusion import ConfidenceGates, FusedBox, FusionParams, LabelSpaceFilter
from .geometry import Box, DetectionSet, validate_box

log = logging.getLogger(__name__)


def fmt_float(x: float) -> str:
    """Fixed 9-significant-digit float rendering used by every writer."""
    return f"{float(x):.9g}"


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fmt_float for floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    return json.dumps(obj)


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj) + "\n")


# ---------------------------------------------------------------------------
# detection / ground-truth text files


def parse_detections(path, source: int = 0) -> dict[str, DetectionSet]:
    """Parse a detection file into per-image DetectionSets.

    Zero-area boxes are dropped (with a warning carrying the count); invalid
    boxes raise with file/line context. An optional eighth column (support
    count from pseudo-label files) is tolerated and ignored here.
    """
    per_image: dict[str, list[Box]] = {}
    dropped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (7, 8):
                raise ParseError(
                    f"expected 7 or 8 fields, got {len(parts)}", str(path), lineno
                )
            try:
                image_id = parts[0]
                cls = int(parts[1])
                x1, y1, x2, y2, conf = (float(v) for v in parts[2:7])
            except ValueError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            if cls < 0:
                raise ParseError(f"negative class id {cls}", str(path), lineno)
            try:
                box = validate_box(
                    Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf, source=source)
                )
            except InvalidBoxError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            if box.area() == 0.0:
                dropped += 1
                continue
            per_image.setdefault(image_id, []).append(box)
    if dropped:
        log.warning("%s: dropped %d zero-area box(es)", path, dropped)
    return {
        image_id: DetectionSet(image_id, tuple(boxes))
        for image_id, boxes in per_image.items()
    }


def write_detections(per_image: dict[str, DetectionSet], path) -> None:
    """Write detections in canonical order: image id, then confidence descending."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for image_id in sorted(per_image):
            boxes = sorted(
                enumerate(per_image[image_id].boxes),
                key=lambda t: (-t[1].confidence, t[0]),
            )
            for _, b in boxes:
                fh.write(
                    f"{image_id} {b.cls} {fmt_float(b.x1)} {fmt_float(b.y1)} "
                    f"{fmt_float(b.x2)} {fmt_float(b.y2)} {fmt_float(b.confidence)}\n"
                )


def fused_to_detections(fused: dict[str, list[FusedBox]]) -> dict[str, DetectionSet]:
    """Flatten fused boxes to plain detections (support counts dropped)."""
    out = {}
    for image_id, boxes in fused.items():
        out[image_id] = DetectionSet(
            image_id,
            tuple(
                Box(cls=f.cls, x1=f.x1, y1=f.y1, x2=f.x2, y2=f.y2,
                    confidence=f.confidence, source=0)
                for f in boxes
            ),
        )
    return out


def write_pseudo_labels(dataset: PseudoLabelDataset, path) -> None:
    """Pseudo-label file: detection format plus the support count column.

    Every target image appears, empty ones as a comment line, so the file
    alone reconstructs the full image set.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for image_id in sorted(dataset.entries):
            boxes = dataset.entries[image_id]
            if not boxes:
                fh.write(f"# empty {image_id}\n")
            for f in sorted(
                boxes, key=lambda b: (-b.confidence, b.cls, b.x1, b.y1, b.x2, b.y2)
            ):
                fh.write(
                    f"{image_id} {f.cls} {fmt_float(f.x1)} {fmt_float(f.y1)} "
                    f"{fmt_float(f.x2)} {fmt_float(f.y2)} "
                    f"{fmt_float(f.confidence)} {f.support_count}\n"
                )


def parse_pseudo_labels(path) -> dict[str, list[FusedBox]]:
    """Parse a pseudo-label file back into fused boxes (members are not stored)."""
    entries: dict[str, list[FusedBox]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) == 3 and parts[1] == "empty":
                    entries.setdefault(parts[2], [])
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ParseError(
                    f"expected 8 fields, got {len(parts)}", str(path), lineno
                )
            try:
                image_id = parts[0]
                cls = int(parts[1])
                x1, y1, x2, y2, conf = (float(v) for v in parts[2:7])
                n_b = int(parts[7])
            except ValueError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            if n_b < 1:
                raise ParseError(f"support count {n_b} < 1", str(path), lineno)
            entries.setdefault(image_id, []).append(
                FusedBox(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf,
                         support_count=n_b, members=())
            )
    return entries


def parse_ground_truth(path) -> GroundTruth:
    """Ground-truth file: `image_id class_id x1 y1 x2 y2` per line."""
    entries: dict[str, list[GroundTruthBox]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ParseError(
                    f"expected 6 fields, got {len(parts)}", str(path), lineno
                )
            try:
                image_id = parts[0]
                cls = int(parts[1])
                x1, y1, x2, y2 = (float(v) for v in parts[2:6])
            except ValueError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            try:
                validate_box(Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=1.0))
            except InvalidBoxError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            entries.setdefault(image_id, []).append(
                GroundTruthBox(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2)
            )
    return GroundTruth(
        entries={k: tuple(v) for k, v in entries.items()}
    )


def write_ground_truth(gt: GroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for image_id in sorted(gt.entries):
            for b in gt.entries[image_id]:
                fh.write(
                    f"{image_id} {b.cls} {fmt_float(b.x1)} {fmt_float(b.y1)} "
                    f"{fmt_float(b.x2)} {fmt_float(b.y2)}\n"
                )


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ManifestSource:
    name: str
    dataset_size: int
    detections_path: str


@dataclass
class EnsembleManifest:
    """One self-describing experiment configuration."""

    classes: list[str]
    sources: list[ManifestSource]
    target_image_ids: list[str] | None
    ground_truth_path: str | None
    gates: ConfidenceGates
    label_filter: LabelSpaceFilter
    fusion: FusionParams
    base_dir: str = "."
    extra: dict = field(default_factory=dict)

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


_TOP_KEYS = {"classes", "sources", "target", "gates", "filter", "fusion"}
_SOURCE_KEYS = {"name", "dataset_size", "detections_path"}
_TARGET_KEYS = {"image_ids", "ground_truth_path"}
_GATE_KEYS = {"default", "per_class"}
_FILTER_KEYS = {"mode", "classes"}
_FUSION_KEYS = {
    "iou_threshold",
    "soft_nms_sigma",
    "score_floor",
    "model_weights",
    "confidence_rescale",
}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ManifestError(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{where} must be a number, got {value!r}") from exc


def parse_manifest(path) -> EnsembleManifest:
    """Strict manifest parse: unknown keys are rejected to catch typos."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "manifest")

    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        raise ManifestError("manifest needs a non-empty 'classes' list")
    if len(set(classes)) != len(classes):
        raise ManifestError("class names must be unique")
    class_ids = {name: i for i, name in enumerate(classes)}

    raw_sources = doc.get("sources")
    if not isinstance(raw_sources, list) or not raw_sources:
        raise ManifestError("manifest needs a non-empty 'sources' list")
    base_dir = os.path.dirname(os.path.abspath(path))
    sources = []
    seen = set()
    for s in raw_sources:
        _reject_unknown(s, _SOURCE_KEYS, "source")
        name = s.get("name")
        if not name or name in seen:
            raise ManifestError(f"missing or duplicate source name {name!r}")
        seen.add(name)
        det_path = s.get("detections_path")
        if not det_path:
            raise ManifestError(f"source {name!r} has no detections_path")
        resolved = det_path if os.path.isabs(det_path) else os.path.join(base_dir, det_path)
        if not os.path.exists(resolved):
            raise ManifestError(f"detections file not found: {resolved}")
        size = s.get("dataset_size", 1)
        if not isinstance(size, int) or size < 1:
            raise ManifestError(f"source {name!r}: dataset_size must be a positive integer")
        sources.append(
            ManifestSource(name=name, dataset_size=size, detections_path=det_path)
        )

    target = doc.get("target", {})
    _reject_unknown(target, _TARGET_KEYS, "target")
    image_ids = target.get("image_ids")
    gt_path = target.get("ground_truth_path")
    if gt_path is not None:
        resolved = gt_path if os.path.isabs(gt_path) else os.path.join(base_dir, gt_path)
        if not os.path.exists(resolved):
            raise ManifestError(f"ground truth file not found: {resolved}")

    raw_gates = doc.get("gates", {})
    _reject_unknown(raw_gates, _GATE_KEYS, "gates")
    per_class = raw_gates.get("per_class", {})
    gates_map = {}
    for name, g in per_class.items():
        if name not in class_ids:
            raise ManifestError(f"gate references unknown class {name!r}")
        gate = _number(g, f"gate for {name!r}")
        if not (0.0 <= gate <= 1.0):
            raise ManifestError(f"gate for {name!r} outside [0,1]")
        gates_map[class_ids[name]] = gate
    default_gate = _number(raw_gates.get("default", 0.0), "default gate")
    if not (0.0 <= default_gate <= 1.0):
        raise ManifestError("default gate outside [0,1]")
    gates = ConfidenceGates(gates=gates_map, default_gate=default_gate)

    raw_filter = doc.get("filter", {})
    _reject_unknown(raw_filter, _FILTER_KEYS, "filter")
    mode = raw_filter.get("mode", "keep_all")
    listed = raw_filter.get("classes", [])
    filter_ids = set()
    for name in listed:
        if name not in class_ids:
            raise ManifestError(f"filter references unknown class {name!r}")
        filter_ids.add(class_ids[name])
    try:
        label_filter = LabelSpaceFilter(mode=mode, classes=frozenset(filter_ids))
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc

    raw_fusion = doc.get("fusion", {})
    _reject_unknown(raw_fusion, _FUSION_KEYS, "fusion")
    weights = raw_fusion.get("model_weights")
    fusion = FusionParams(
        iou_threshold=_number(raw_fusion.get("iou_threshold", 0.55), "iou_threshold"),
        soft_nms_sigma=_number(raw_fusion.get("soft_nms_sigma", 0.5), "soft_nms_sigma"),
        score_floor=_number(raw_fusion.get("score_floor", 0.001), "score_floor"),
        model_weights=(
            tuple(_number(w, "model weight") for w in weights) if weights else None
        ),
        confidence_rescale=raw_fusion.get("confidence_rescale", "none"),
    )
    if fusion.confidence_rescale not in ("none", "support_ratio"):
        raise ManifestError(
            f"unknown confidence_rescale {fusion.confidence_rescale!r}"
        )
    if not (0.0 < fusion.iou_threshold < 1.0):
        raise ManifestError("iou_threshold must be in (0,1)")
    if not (0.0 < fusion.soft_nms_sigma < math.inf):
        raise ManifestError("soft_nms_sigma must be finite and > 0")

    return EnsembleManifest(
        classes=list(classes),
        sources=sources,
        target_image_ids=list(image_ids) if image_ids else None,
        ground_truth_path=gt_path,
        gates=gates,
        label_filter=label_filter,
        fusion=fusion,
        base_dir=base_dir,
    )


def manifest_to_dict(manifest: EnsembleManifest) -> dict:
    """Manifest back to its JSON shape (relative paths preserved)."""
    id_to_name = {i: n for i, n in enumerate(manifest.classes)}
    doc: dict = {
        "classes": manifest.classes,
        "sources": [
            {
                "name": s.name,
                "dataset_size": s.dataset_size,
                "detections_path": s.detections_path,
            }
            for s in manifest.sources
        ],
        "target": {},
        "gates": {
            "default": manifest.gates.default_gate,
            "per_class": {
                id_to_name[i]: g for i, g in sorted(manifest.gates.gates.items())
            },
        },
        "filter": {
            "mode": manifest.label_filter.mode,
            "classes": sorted(id_to_name[i] for i in manifest.label_filter.classes),
        },
        "fusion": {
            "iou_threshold": manifest.fusion.iou_threshold,
            "soft_nms_sigma": manifest.fusion.soft_nms_sigma,
            "score_floor": manifest.fusion.score_floor,
            "confidence_rescale": manifest.fusion.confidence_rescale,
        },
    }
    if manifest.fusion.model_weights is not None:
        doc["fusion"]["model_weights"] = list(manifest.fusion.model_weights)
    if manifest.target_image_ids is not None:
        doc["target"]["image_ids"] = list(manifest.target_image_ids)
    if manifest.ground_truth_path is not None:
        doc["target"]["ground_truth_path"] = manifest.ground_truth_path
    return doc


def write_manifest(manifest: EnsembleManifest, path) -> None:
    write_json(manifest_to_dict(manifest), path)


def load_ensemble(manifest: EnsembleManifest) -> tuple[SourceEnsemble, GroundTruth | None]:
    """Read every referenced file and assemble the ensemble (source ids 1..I).

    When the manifest gives no explicit image id list, the target set is the
    sorted union of image ids seen in detections and ground truth.
    """
    domains = []
    all_ids: set[str] = set()
    for i, src in enumerate(manifest.sources, start=1):
        dets = parse_detections(manifest.resolve(src.detections_path), source=i)
        all_ids.update(dets)
        domains.append(
            SourceDomain(
                source_id=i,
                name=src.name,
                dataset_size=src.dataset_size,
                detections=dets,
            )
        )
    gt = None
    if manifest.ground_truth_path is not None:
        gt = parse_ground_truth(manifest.resolve(manifest.ground_truth_path))
        all_ids.update(gt.entries)
    if manifest.target_image_ids is not None:
        target_ids = tuple(manifest.target_image_ids)
    else:
        target_ids = tuple(sorted(all_ids))
    return SourceEnsemble(sources=tuple(domains), target_image_ids=target_ids), gt


# ---------------------------------------------------------------------------
# reports


def contribution_report_to_dict(report) -> dict:
    doc = {
        "q_full": report.q_full,
        "q_leave_one_out": {str(k): v for k, v in report.q_leave_one_out.items()},
        "cf": {str(k): v for k, v in report.cf.items()},
        "cf_clamped": {str(k): v for k, v in report.cf_clamped.items()},
        "alpha": {str(k): v for k, v in report.alpha.items()},
        "alpha_extended": report.alpha_extended,
    }
    if report.shapley is not None:
        doc["shapley"] = {str(k): v for k, v in report.shapley.items()}
    return doc


def write_contribution_report(report, path) -> None:
    write_json(contribution_report_to_dict(report), path)


def parse_contribution_report(path):
    from .consensus import ContributionReport

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    report = ContributionReport(
        q_full=doc["q_full"],
        q_leave_one_out={int(k): v for k, v in doc["q_leave_one_out"].items()},
        cf={int(k): v for k, v in doc["cf"].items()},
        cf_clamped={int(k): v for k, v in doc["cf_clamped"].items()},
        alpha={int(k): v for k, v in doc["alpha"].items()},
        alpha_extended=doc["alpha_extended"],
    )
    if "shapley" in doc:
        report.shapley = {int(k): v for k, v in doc["shapley"].items()}
    return report


def metrics_to_dict(report: MetricsReport) -> dict:
    return {
        "confidence_threshold": report.confidence_threshold,
        "per_class": {
            str(cls): {
                "precision": m.precision,
                "recall": m.recall,
                "ap50": m.ap50,
                "ap5095": m.ap5095,
            }
            for cls, m in report.per_class.items()
        },
        "aggregate": {
            "precision": report.aggregate.precision,
            "recall": report.aggregate.recall,
            "map50": report.aggregate.ap50,
            "map5095": report.aggregate.ap5095,
        },
    }


def write_metrics(report: MetricsReport, path) -> None:
    write_json(metrics_to_dict(report), path)


def write_f1_curve(curve: F1Curve, path) -> None:
    """CSV with header `confidence,class_<id>...,mean`."""
    classes = sorted(curve.points[0][1]) if curve.points else []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ",".join(["confidence"] + [f"class_{c}" for c in classes] + ["mean"])
        fh.write(header + "\n")
        for conf, per_class, mean in curve.points:
            row = [fmt_float(conf)]
            row.extend(fmt_float(per_class[c]) for c in classes)
            row.append(fmt_float(mean))
            fh.write(",".join(row) + "\n")
