"""File formats and configuration.

Detection files are plain text, one box per line:

    image_id class_id x1 y1 x2 y2 confidence

Pseudo-label files append the support count as an eighth column. Ground truth
uses the same layout without the confidence column. The manifest is a single
JSON document. All writers are deterministic: sorted keys, floats at 9
significant digits, so identical inputs produce byte-identical files.

Each text format has one `%` template for its box lines (`_DETECTION_LINE`,
`_PSEUDO_LABEL_LINE`, `_GROUND_TRUTH_LINE`): `%s` for the image id, class and
support count, as `str` gives them, and `%.9g` for every float, as
`fmt_float` gives it. Each writer writes one image's lines at once.
One reader (`_box_lines`) applies the same rules to all three text formats:
blank lines and lines starting with `#` are skipped; each box line must have
the format's field count; the class id is an integer >= 0; coordinates and
confidence are floats in [0, 1], where coordinates up to
`geometry.CLAMP_SLOP` outside are clamped and stored clamped; corners must
not be inverted. Any violation raises ParseError naming the file and the
exact line (CLI exit 3), also for a byte that is not UTF-8. A UTF-8
byte-order mark at the start of a file is skipped. Lines end at `\n`,
`\r\n` or a lone `\r`; other whitespace, such as `\f`, only separates
fields. Every writer opens its file with `open_output`.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass

from .consensus import ContributionReport, SourceDomain, SourceEnsemble
from .errors import ConfigError, InvalidBoxError, ManifestError, ParseError
from .evaluation import F1Curve, GroundTruth, GroundTruthBox, MetricsReport
from .fusion import (
    KEEP_ALL, NO_GATES, ConfidenceGates, FusedBox, FusionParams, LabelSpaceFilter, fused_order,
)
from .geometry import Box, validate_box

log = logging.getLogger(__name__)


def fmt_float(x: float) -> str:
    """Fixed 9-significant-digit float rendering of every writer.

    The JSON and CSV writers call it; the box-line templates' `%.9g` gives
    the same text.
    """
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


def open_output(path):
    """Open an output file for UTF-8 text with `\n` line ends.

    A path that cannot be opened for writing, such as a directory, is a
    ConfigError naming it (CLI exit 2), as an `--out` that cannot be a
    directory is.
    """
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc.strerror}") from exc


def write_json(obj, path) -> None:
    with open_output(path) as fh:
        fh.write(canonical_json(obj) + "\n")


# ---------------------------------------------------------------------------
# detection / ground-truth text files


_DETECTION_LINE = "%s %s %.9g %.9g %.9g %.9g %.9g\n"
_PSEUDO_LABEL_LINE = "%s %s %.9g %.9g %.9g %.9g %.9g %s\n"
_GROUND_TRUTH_LINE = "%s %s %.9g %.9g %.9g %.9g\n"


def _not_utf8(path) -> ParseError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte.

    Text mode decodes in chunks, so its decode error does not say where in
    the file the byte is. This reads the raw bytes again, on the error path
    only, and counts line breaks as text mode does: `\n`, `\r\n` and a lone
    `\r`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ParseError(f"not UTF-8 text: {exc}", str(path), line)
    return ParseError("not UTF-8 text", str(path))  # the file changed since it was read


def _box_lines(path, field_counts, source=0, on_comment=None):
    """The rows (line number, image id, validated Box, eighth field or None)
    of a text file's box lines, in file order.

    The one reader behind the detection, ground-truth and pseudo-label
    formats (see the module docstring for the rules). `#` lines are passed to
    `on_comment` as their fields, if given. A line without a confidence
    column (ground truth) gets confidence 1.0. `validate_box` returns a box
    inside [0, 1] with ordered corners as it is, so it runs only on a box
    that fails that check here (NaN fails it too).
    """
    where = str(path)
    expected = " or ".join(map(str, field_counts))
    rows = []
    append = rows.append
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                parts = raw.split()
                if not parts:
                    continue
                n = len(parts)
                if parts[0].startswith("#"):
                    if on_comment is not None:
                        on_comment(parts)
                    continue
                if n not in field_counts:
                    raise ParseError(f"expected {expected} fields, got {n}", where, lineno)
                try:
                    cls = int(parts[1])
                    x1 = float(parts[2])
                    y1 = float(parts[3])
                    x2 = float(parts[4])
                    y2 = float(parts[5])
                    conf = float(parts[6]) if n > 6 else 1.0
                except ValueError as exc:
                    raise ParseError(str(exc), where, lineno) from exc
                if cls < 0:
                    raise ParseError(f"negative class id {cls}", where, lineno)
                box = Box(cls, x1, y1, x2, y2, conf, source)
                if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0
                        and 0.0 <= conf <= 1.0):
                    try:
                        box = validate_box(box)
                    except InvalidBoxError as exc:
                        raise ParseError(str(exc), where, lineno) from exc
                append((lineno, parts[0], box, parts[7] if n > 7 else None))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    return rows


def parse_detections(path, source: int = 0) -> dict[str, tuple[Box, ...]]:
    """Parse a detection file into each image's boxes, as a tuple in file order.

    Zero-area boxes are dropped (with a warning carrying the count). An
    optional eighth column (support count from pseudo-label files) is
    tolerated and ignored here.
    """
    per_image: dict[str, list[Box]] = {}
    dropped = 0
    for _, image_id, box, _ in _box_lines(path, (7, 8), source=source):
        # a validated box's corners are ordered, so its area needs no max(0, ...)
        if (box.x2 - box.x1) * (box.y2 - box.y1) == 0.0:
            dropped += 1
            continue
        boxes = per_image.get(image_id)
        if boxes is None:
            per_image[image_id] = [box]
        else:
            boxes.append(box)
    if dropped:
        log.warning("%s: dropped %d zero-area box(es)", path, dropped)
    return {image_id: tuple(boxes) for image_id, boxes in per_image.items()}


def write_detections(per_image, path) -> None:
    """Write detections in canonical order: image id, then confidence descending.

    `per_image` maps an image id to that image's boxes: any iterable of
    objects with `cls`, `x1`, `y1`, `x2`, `y2` and `confidence`, such as a
    `Box` tuple or a list of `FusedBox`.
    """
    with open_output(path) as fh:
        for image_id in sorted(per_image):
            # a stable sort: equal confidences keep their input order
            fh.write("".join([
                _DETECTION_LINE % (image_id, b.cls, b.x1, b.y1, b.x2, b.y2, b.confidence)
                for b in sorted(per_image[image_id], key=lambda b: -b.confidence)
            ]))


def write_pseudo_labels(per_image, path) -> None:
    """Pseudo-label file: detection format plus the support count column.

    `per_image` maps an image id to its fused boxes, as `write_detections`
    takes and `parse_pseudo_labels` returns. Every image appears, empty ones
    as a comment line, so the file alone reconstructs the full image set.
    """
    with open_output(path) as fh:
        for image_id in sorted(per_image):
            boxes = per_image[image_id]
            if not boxes:
                fh.write(f"# empty {image_id}\n")
            fh.write("".join([
                _PSEUDO_LABEL_LINE % (image_id, f.cls, f.x1, f.y1, f.x2, f.y2, f.confidence,
                                      f.support_count)
                for f in sorted(boxes, key=fused_order)
            ]))


def parse_pseudo_labels(path) -> dict[str, list[FusedBox]]:
    """Parse a pseudo-label file back into fused boxes (members are not stored)."""
    entries: dict[str, list[FusedBox]] = {}

    def mark_empty(parts):
        if len(parts) == 3 and parts[1] == "empty":
            entries.setdefault(parts[2], [])

    for lineno, image_id, b, support in _box_lines(path, (8,), on_comment=mark_empty):
        try:
            n_b = int(support)
        except ValueError as exc:
            raise ParseError(str(exc), str(path), lineno) from exc
        if n_b < 1:
            raise ParseError(f"support count {n_b} < 1", str(path), lineno)
        entries.setdefault(image_id, []).append(
            FusedBox(b.cls, b.x1, b.y1, b.x2, b.y2, b.confidence, n_b, ())
        )
    return entries


def parse_ground_truth(path) -> GroundTruth:
    """Ground-truth file: `image_id class_id x1 y1 x2 y2` per line."""
    entries: dict[str, list[GroundTruthBox]] = {}
    for _, image_id, b, _ in _box_lines(path, (6,)):
        entries.setdefault(image_id, []).append(
            GroundTruthBox(b.cls, b.x1, b.y1, b.x2, b.y2)
        )
    return GroundTruth(
        entries={k: tuple(v) for k, v in entries.items()}
    )


def write_ground_truth(gt: GroundTruth, path) -> None:
    with open_output(path) as fh:
        for image_id in sorted(gt.entries):
            fh.write("".join([
                _GROUND_TRUTH_LINE % (image_id, b.cls, b.x1, b.y1, b.x2, b.y2)
                for b in gt.entries[image_id]
            ]))


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

    def resolve(self, path: str) -> str:
        return _resolve(self.base_dir, path)


def _resolve(base_dir: str, path: str) -> str:
    """A manifest path relative to the manifest's directory, unless absolute."""
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


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


def _object(value, allowed: set, where: str) -> dict:
    """A manifest section: a JSON object with no keys outside `allowed`."""
    if not isinstance(value, dict):
        raise ManifestError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ManifestError(f"unknown key(s) {sorted(unknown)} in {where}")
    return value


def _number(value, where: str) -> float:
    """A finite manifest number: a JSON number, not a string such as "0.5" or true/false."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ManifestError(f"{where} must be finite, got {value!r}") from exc
    if not math.isfinite(number):
        raise ManifestError(f"{where} must be finite, got {value!r}")
    return number


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ManifestError(f"{where} must be a list of strings, got {value!r}")
    return value


def _require_file(base_dir: str, path: str, what: str) -> None:
    resolved = _resolve(base_dir, path)
    if not os.path.isfile(resolved):
        raise ManifestError(f"{what} file not found or not a regular file: {resolved}")


def parse_manifest(path) -> EnsembleManifest:
    """Strict manifest parse: unknown keys are rejected to catch typos."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    _object(doc, _TOP_KEYS, "manifest")

    classes = _string_list(doc.get("classes"), "classes")
    if not classes:
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
        _object(s, _SOURCE_KEYS, "source")
        name = s.get("name")
        if not isinstance(name, str) or not name or name in seen:
            raise ManifestError(f"missing or duplicate source name {name!r}")
        seen.add(name)
        det_path = s.get("detections_path")
        if not det_path or not isinstance(det_path, str):
            raise ManifestError(f"source {name!r} has no detections_path string")
        _require_file(base_dir, det_path, "detections")
        size = s.get("dataset_size", 1)
        where = f"source {name!r}: dataset_size"
        # `_number` rejects a boolean and an integer that no float can hold
        if not isinstance(size, int) or _number(size, where) < 1:
            raise ManifestError(f"{where} must be a positive integer")
        sources.append(
            ManifestSource(name=name, dataset_size=size, detections_path=det_path)
        )

    target = _object(doc.get("target", {}), _TARGET_KEYS, "target")
    image_ids = target.get("image_ids")
    if image_ids is not None:
        if not _string_list(image_ids, "target.image_ids"):
            raise ManifestError(
                "target.image_ids is empty: list at least one image id, or leave the key "
                "out to target every image the files name"
            )
        repeated = sorted(i for i, n in Counter(image_ids).items() if n > 1)
        if repeated:
            raise ManifestError(f"duplicate id(s) {repeated} in target.image_ids")
        # a box line splits on whitespace, and a line starting with `#` is a comment
        unreadable = [i for i in image_ids if i.split() != [i] or i.startswith("#")]
        if unreadable:
            raise ManifestError(
                f"target.image_ids: no box line can carry the id(s) {unreadable!r} "
                "(empty, with whitespace or starting with #)"
            )
    gt_path = target.get("ground_truth_path")
    if gt_path is not None:
        if not isinstance(gt_path, str):
            raise ManifestError(f"target.ground_truth_path must be a string, got {gt_path!r}")
        _require_file(base_dir, gt_path, "ground truth")

    raw_gates = _object(doc.get("gates", {}), _GATE_KEYS, "gates")
    per_class = _object(raw_gates.get("per_class", {}), set(class_ids), "gates.per_class")
    gates_map = {}
    for name, g in per_class.items():
        gate = _number(g, f"gate for {name!r}")
        if not (0.0 <= gate <= 1.0):
            raise ManifestError(f"gate for {name!r} outside [0,1]")
        gates_map[class_ids[name]] = gate
    default_gate = _number(raw_gates.get("default", NO_GATES.default_gate), "default gate")
    if not (0.0 <= default_gate <= 1.0):
        raise ManifestError("default gate outside [0,1]")
    gates = ConfidenceGates(gates=gates_map, default_gate=default_gate)

    raw_filter = _object(doc.get("filter", {}), _FILTER_KEYS, "filter")
    mode = raw_filter.get("mode", KEEP_ALL.mode)
    listed = _string_list(raw_filter.get("classes", []), "filter.classes")
    filter_ids = set()
    for name in listed:
        if name not in class_ids:
            raise ManifestError(f"filter references unknown class {name!r}")
        filter_ids.add(class_ids[name])
    try:
        label_filter = LabelSpaceFilter(mode=mode, classes=frozenset(filter_ids))
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc

    raw_fusion = _object(doc.get("fusion", {}), _FUSION_KEYS, "fusion")
    weights = raw_fusion.get("model_weights")
    if weights is not None:
        if not isinstance(weights, list):
            raise ManifestError(f"model_weights must be a list, got {weights!r}")
        weights = tuple(_number(w, "model weight") for w in weights)
        # every command reads the weights by this rule, not only wbf and knowledge-vote
        if len(weights) != len(sources):
            raise ManifestError(
                f"fusion.model_weights has {len(weights)} weight(s) for "
                f"{len(sources)} source(s)"
            )
    defaults = FusionParams()
    numbers = {
        key: _number(raw_fusion.get(key, getattr(defaults, key)), key)
        for key in ("iou_threshold", "soft_nms_sigma", "score_floor")
    }
    fusion = FusionParams(
        **numbers,
        model_weights=weights,
        confidence_rescale=raw_fusion.get("confidence_rescale", defaults.confidence_rescale),
    )

    return EnsembleManifest(
        classes=list(classes),
        sources=sources,
        target_image_ids=None if image_ids is None else list(image_ids),
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


def load_ground_truth(manifest: EnsembleManifest) -> GroundTruth | None:
    """The manifest's ground truth, or None when it names no ground-truth file."""
    if manifest.ground_truth_path is None:
        return None
    return parse_ground_truth(manifest.resolve(manifest.ground_truth_path))


def load_ensemble(manifest: EnsembleManifest) -> SourceEnsemble:
    """Read every source's detections and assemble the ensemble (source ids 1..I).

    The target set is the manifest's image id list. Without one, it is the
    sorted union of image ids seen in detections and ground truth; that is
    the only case in which the ground truth is read here, and an empty union
    is a ConfigError.
    """
    domains = tuple(
        SourceDomain(
            source_id=i,
            name=src.name,
            dataset_size=src.dataset_size,
            detections=parse_detections(manifest.resolve(src.detections_path), source=i),
        )
        for i, src in enumerate(manifest.sources, start=1)
    )
    if manifest.target_image_ids is not None:
        target_ids = tuple(manifest.target_image_ids)
    else:
        all_ids = {image_id for d in domains for image_id in d.detections}
        gt = load_ground_truth(manifest)
        if gt is not None:
            all_ids.update(gt.entries)
        if not all_ids:
            raise ConfigError("no detection or ground-truth file names a target image")
        target_ids = tuple(sorted(all_ids))
    return SourceEnsemble(sources=domains, target_image_ids=target_ids)


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
    with open(path, encoding="utf-8-sig") as fh:
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
    with open_output(path) as fh:
        header = ",".join(["confidence"] + [f"class_{c}" for c in classes] + ["mean"])
        fh.write(header + "\n")
        for conf, per_class, mean in curve.points:
            row = [fmt_float(conf)]
            row.extend(fmt_float(per_class[c]) for c in classes)
            row.append(fmt_float(mean))
            fh.write(",".join(row) + "\n")
