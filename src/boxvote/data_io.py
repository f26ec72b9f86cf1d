"""File formats and configuration.

Detection files are plain text, one box per line:

    image_id class_id x1 y1 x2 y2 confidence

Pseudo-label files append the support count as an eighth column and mark
each image without boxes with a `# empty <image_id>` comment line; the
detection reader reads them, ignoring the eighth column. Ground truth uses
the same layout without the confidence column, and reads with confidence
1.0 and source 0. Both readers return columns, not boxes: a
`geometry.BoxTable` per file, which reads as image id -> `Box` tuple. The
manifest is a single JSON document; its `gates` and `filter` sections fill
`FusionParams.gates`, and its `fusion` section the other fields of
`EnsembleManifest.fusion`. All writers are deterministic: sorted keys,
floats at 9 significant digits, so identical inputs produce byte-identical
files.

Each text format has one `%` template for its box lines (`_DETECTION_LINE`,
`_PSEUDO_LABEL_LINE`, `_GROUND_TRUTH_LINE`): `%s` for the image id, class and
support count, as `str` gives them, and `%.9g` for every float, as
`fmt_float` gives it. Each writer writes one image's lines at once. A
pseudo-label line is a detection line with the support count before its
end, so `consensus` formats each fused box once: `write_pseudo_labels` can
take the lines of the detection file just written of the same boxes.
The rules of the detection and ground-truth formats: blank lines and lines
starting with `#` are skipped; each box line must have the format's field
count; the class id is an integer >= 0; coordinates and confidence are
floats in [0, 1], where coordinates up to `geometry.CLAMP_SLOP` outside are
clamped and stored clamped; corners must not be inverted. Any violation
raises ParseError naming the file and the exact line (CLI exit 3), also for
a byte that is not UTF-8. A file that cannot be read, such as one without
read permission, raises ConfigError naming the path (CLI exit 2). A UTF-8
byte-order mark at the start of a file is skipped. Lines end at `\n`,
`\r\n` or a lone `\r`; other whitespace, such as `\f`, only separates
fields.

Each file is read once, as bytes, by one of two paths with those rules.
The bulk path (`_bulk_rows`) reads a file in its grammar: ASCII text, every
non-blank line with the format's one field count (6 for ground truth, 7
for detections, 8 for pseudo-labels), and no line whose first field starts
with `#`. `np.loadtxt`'s C tokenizer splits it into columns, and numpy
checks the rules on whole columns. Every file the bulk path declines, and
every file with a row that fails a rule or a token its parsers refuse, is
read by the reference line loop (`_box_lines`), line by line:
comment lines, a byte-order mark, a mix of 7 and 8 fields, non-ASCII text,
a class past int64, a coordinate to clamp and every error. So each
ParseError, and each clamped value, comes from the line loop. Every file
that `boxvote` writes, but pseudo-labels with `# empty` lines, is in the
grammar. The manifest reader rejects a key repeated within one JSON object.
Every writer opens its file with `open_output`.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import re
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .consensus import ContributionReport, SourceDomain, SourceEnsemble
from .errors import ConfigError, InvalidBoxError, ManifestError, ParseError
from .evaluation import GroundTruth, MetricsReport
from .fusion import NO_GATES, ConfidenceGates, FusionParams, fused_order
from .geometry import Box, BoxTable, box_columns, exact_ids, runs, validate_box

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


def _not_utf8(data: bytes, path) -> ParseError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte.

    Text mode decodes in chunks, so its decode error does not say where in
    the file the byte is. This decodes the file's bytes again, on the error
    path only, and counts line breaks as text mode does: `\n`, `\r\n` and a
    lone `\r`.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ParseError(f"not UTF-8 text: {exc}", str(path), line)
    return ParseError("not UTF-8 text", str(path))


def _box_lines(data: bytes, path, field_counts):
    """The `(image id, validated Box)` rows of a file's box lines, in file order.

    The reference reader, line by line, of every file that `_bulk_rows`
    declines (see the module docstring for the rules). A line without a
    confidence column (ground truth) gets confidence 1.0. `validate_box`
    returns a box inside [0, 1] with ordered corners as it is, so it runs
    only on a box that fails that check here (NaN fails it too).
    """
    where = str(path)
    expected = " or ".join(map(str, field_counts))
    rows = []
    append = rows.append
    try:
        for lineno, raw in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"),
                                     start=1):
            parts = raw.split()
            if not parts:
                continue
            n = len(parts)
            if parts[0].startswith("#"):
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
            box = Box(cls, x1, y1, x2, y2, conf)
            if not (0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0
                    and 0.0 <= conf <= 1.0):
                try:
                    box = validate_box(box)
                except InvalidBoxError as exc:
                    raise ParseError(str(exc), where, lineno) from exc
            append((parts[0], box))
    except UnicodeDecodeError as exc:
        raise _not_utf8(data, path) from exc
    return rows


# The bytes of a file in the bulk grammar: printable ASCII and the ASCII
# whitespace that `str.split` splits on; `_bulk_rows` turns that whitespace
# into spaces, and `\r\n` and a lone `\r` into `\n`.
_TEXT_BYTES = bytes(range(0x20, 0x7F)) + b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
_TO_SPACE = bytes.maketrans(b"\t\x0b\x0c\x1c\x1d\x1e\x1f", b" " * 7)
_NOT_TO_SPACE = bytes(b for b in range(256) if b not in b"\t\x0b\x0c\x1c\x1d\x1e\x1f")
_COMMENT = re.compile(rb"^ *#", re.MULTILINE)
_FIRST_LINE = re.compile(rb"\s*([^\n]*)")  # the first line that is not blank
# The id and class fields of `_tokens` take their width on every line; past
# this many times the file's bytes, as with one very long line among many
# short ones, the line loop reads the file instead.
_MAX_FIELD_BYTES = 8


def _bulk_rows(data: bytes, field_counts):
    """(image ids, cls, box, conf) of every box line, as `_read_rows` gives
    them, for a file in the bulk grammar whose rows all pass the rules; else
    None, and the line loop reads the file.

    The grammar: ASCII text whose non-blank lines all have one of
    `field_counts` fields, and no line whose first field starts with `#`.
    `np.loadtxt`'s C tokenizer reads the fields (`_tokens`): the image id and
    class as bytes, sized from the first line's, or to the longest line when
    a token fills that size, so that none is cut; and the corners and
    confidence as float64, which parses as `float` does. The class is an int
    as `int` reads it, below 2**63. A row that fails a rule, a token either
    parser rejects, and a class past int64 are left to the line loop, which
    clamps within `CLAMP_SLOP` or names the line.
    """
    if data.translate(None, _TEXT_BYTES):
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data.translate(None, _NOT_TO_SPACE):
        data = data.translate(_TO_SPACE)
    if b"#" in data and _COMMENT.search(data):
        return None
    head = _FIRST_LINE.match(data)[1].split()
    if not head:  # no box line; np.loadtxt would warn on no data
        return np.empty(0, "S1"), np.empty(0, np.int64), np.empty((4, 0)), np.empty(0)
    if len(head) not in field_counts:
        return None
    # room for ids and classes longer than the first line's: a wider field
    # costs memory on every row
    try:
        rows = _tokens(data, len(head), 2 * len(head[0]), 2 * len(head[1]) + 1)
        if rows is not None and (_full(rows["id"]) or _full(rows["cls"])):
            # a token may have been cut: read again at the longest line's width
            breaks = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
            line = int(np.diff(breaks, prepend=-1, append=len(data)).max())
            rows = _tokens(data, len(head), line, line)
        if rows is None:
            return None
        cls = rows["cls"].astype(np.int64)  # int() of each token
    except (ValueError, OverflowError):
        return None
    box = np.array([rows["x1"], rows["y1"], rows["x2"], rows["y2"]])
    conf = rows["conf"].copy() if len(head) > 6 else np.ones(len(rows))
    x1, y1, x2, y2 = box
    ok = ((cls >= 0) & (0.0 <= x1) & (x1 <= x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 <= y2)
          & (y2 <= 1.0) & (0.0 <= conf) & (conf <= 1.0))
    if not ok.all():
        return None
    return rows["id"], cls, box, conf


def _tokens(data: bytes, n_fields: int, id_width: int, cls_width: int) -> np.ndarray | None:
    """The fields of every line of `data` as `np.loadtxt` reads them: the id
    and the class as bytes of at most the given widths, which cuts a longer
    one silently, the rest as float64 (the eighth field, ignored, as one byte).
    A line with another number of fields is a ValueError. None when the id
    and class fields would take more than `_MAX_FIELD_BYTES` times the bytes
    of the file."""
    if (id_width + cls_width) * (data.count(b"\n") + 1) > _MAX_FIELD_BYTES * len(data):
        return None
    dtype = [("id", f"S{id_width}"), ("cls", f"S{cls_width}"), ("x1", "f8"), ("y1", "f8"),
             ("x2", "f8"), ("y2", "f8"), ("conf", "f8"), ("support", "S1")][:n_fields]
    # line by line from the bytes, which neither copies the file nor holds it as UCS-4
    return np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"), dtype=dtype,
                      comments=None, ndmin=1)


def _full(column) -> bool:
    """Whether a value of a bytes column fills its width, so that it may have been cut."""
    width = column.dtype.itemsize
    return bool(np.ascontiguousarray(column).view(np.uint8)[width - 1::width].any())


def _read_rows(path, field_counts):
    """(image ids, cls, box, conf) of a box file's lines, in file order, one
    entry per box: the ids as an array of `str` or of ASCII bytes, the rest as
    `geometry.box_columns` gives them. The file is read once, by `_bulk_rows`
    when it can vouch for it, else by the line loop `_box_lines`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc.strerror}") from exc
    rows = _bulk_rows(data, field_counts)
    if rows is None:
        lines = _box_lines(data, path, field_counts)
        cls, box, conf, _ = box_columns([b for _, b in lines])
        rows = np.array([i for i, _ in lines], dtype=object), cls, box, conf
    return rows


def _grouped(ids, cls, box, conf, source: int) -> BoxTable:
    """The rows as a table of `source`'s boxes, grouped by image id in
    first-seen order, each image's rows in their order."""
    firsts = runs(ids)
    heads = ids[firsts].tolist()
    if len(set(heads)) < len(heads):  # an image's lines are not all together
        seen: dict = {}
        image = [seen.setdefault(h, len(seen)) for h in heads]  # of each run, first-seen order
        order = np.argsort(np.repeat(image, np.diff(firsts, append=len(ids))), kind="stable")
        ids, cls, box, conf = ids[order], cls[order], box[:, order], conf[order]
        firsts, heads = runs(ids), list(seen)
    if ids.dtype.kind == "S":
        heads = [i.decode("ascii") for i in heads]
    return BoxTable(heads, np.append(firsts, len(ids)), cls, box, conf,
                    np.repeat(exact_ids((source,)), len(ids)))


def parse_detections(path, source: int = 0) -> BoxTable:
    """Parse a detection file into a table of each image's boxes, in file order.

    Zero-area boxes are dropped (with a warning carrying the count). A
    pseudo-label file reads as the detections it holds: its eighth column
    (the support count) is ignored, and its `# empty` lines are comments.
    """
    ids, cls, box, conf = _read_rows(path, (7, 8))
    # a validated box's corners are ordered, so its area needs no max(0, ...)
    keep = (box[2] - box[0]) * (box[3] - box[1]) != 0.0
    if not keep.all():
        log.warning("%s: dropped %d zero-area box(es)", path, len(keep) - keep.sum())
        ids, cls, box, conf = ids[keep], cls[keep], box[:, keep], conf[keep]
    return _grouped(ids, cls, box, conf, source)


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


def write_pseudo_labels(per_image, path, *, detections=None) -> None:
    """Pseudo-label file: detection format plus the support count column.

    `per_image` maps an image id to its fused boxes, as `write_detections`
    takes. Every image appears, empty ones as a `# empty <image_id>` comment
    line, so the file alone names the full image set. `parse_detections`
    reads the file back as detections.

    `detections` may name the file that `write_detections` wrote of the
    same boxes, each image's list in `fused_order` as `wbf` returns it;
    then each box line is that file's line with the support count added,
    and no box is formatted again. Without it, each image's boxes are
    sorted by `fused_order` and formatted here.
    """
    with open_output(path) as fh, (
            nullcontext() if detections is None else open(detections, encoding="utf-8")) as src:
        for image_id in sorted(per_image):
            boxes = per_image[image_id]
            if not boxes:
                fh.write(f"# empty {image_id}\n")
            elif src is not None:
                fh.write("".join([f"{next(src)[:-1]} {f.support_count}\n" for f in boxes]))
            else:
                fh.write("".join([
                    _PSEUDO_LABEL_LINE % (image_id, f.cls, f.x1, f.y1, f.x2, f.y2,
                                          f.confidence, f.support_count)
                    for f in sorted(boxes, key=fused_order)
                ]))


def parse_ground_truth(path) -> GroundTruth:
    """Ground-truth file: `image_id class_id x1 y1 x2 y2` per line, read as a
    table of boxes with confidence 1.0 and source 0. Zero-area boxes are kept."""
    return GroundTruth(entries=_grouped(*_read_rows(path, (6,)), 0))


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
    fusion: FusionParams  # its `gates` hold the manifest's gates and filter
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


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, not last-one-wins."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ManifestError(f"duplicate key(s) {repeated} in one JSON object")
    return doc


def parse_manifest(path) -> EnsembleManifest:
    """Strict manifest parse: unknown and repeated keys are rejected to catch typos."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
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

    raw_filter = _object(doc.get("filter", {}), _FILTER_KEYS, "filter")
    mode = raw_filter.get("mode", "keep_all")
    listed = _string_list(raw_filter.get("classes", []), "filter.classes")
    for name in listed:
        if name not in class_ids:
            raise ManifestError(f"filter references unknown class {name!r}")
    if mode not in ("keep_all", "keep_listed"):
        raise ManifestError(f"unknown filter mode {mode!r}")
    if mode == "keep_all" and listed:
        raise ManifestError("keep_all filter takes no classes; list them under keep_listed")
    # an empty keep_listed filter is ConfidenceGates' ConfigError
    gates = ConfidenceGates(
        gates=gates_map,
        default_gate=default_gate,
        classes=frozenset(class_ids[name] for name in listed) if mode == "keep_listed" else None,
    )

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
        gates=gates,
    )

    return EnsembleManifest(
        classes=list(classes),
        sources=sources,
        target_image_ids=None if image_ids is None else list(image_ids),
        ground_truth_path=gt_path,
        fusion=fusion,
        base_dir=base_dir,
    )


def manifest_to_dict(manifest: EnsembleManifest) -> dict:
    """Manifest back to its JSON shape (relative paths preserved)."""
    id_to_name = {i: n for i, n in enumerate(manifest.classes)}
    gates = manifest.fusion.gates
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
            "default": gates.default_gate,
            "per_class": {id_to_name[i]: g for i, g in sorted(gates.gates.items())},
        },
        "filter": {
            "mode": "keep_all" if gates.classes is None else "keep_listed",
            "classes": sorted(id_to_name[i] for i in gates.classes or ()),
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


def write_contribution_report(report: ContributionReport, path) -> None:
    doc = asdict(report)
    if report.shapley is None:
        del doc["shapley"]
    write_json(doc, path)


def write_metrics(report: MetricsReport, path) -> None:
    write_json({
        "confidence_threshold": report.confidence_threshold,
        "per_class": {cls: asdict(m) for cls, m in report.per_class.items()},
        "aggregate": {
            "precision": report.aggregate.precision,
            "recall": report.aggregate.recall,
            "map50": report.aggregate.ap50,
            "map5095": report.aggregate.ap5095,
        },
    }, path)


def write_f1_curve(points, path) -> None:
    """CSV with header `confidence,class_<id>...,mean`, one row per `f1_curve` point."""
    classes = sorted(points[0][1]) if points else []
    with open_output(path) as fh:
        header = ",".join(["confidence"] + [f"class_{c}" for c in classes] + ["mean"])
        fh.write(header + "\n")
        for conf, per_class, mean in points:
            row = [fmt_float(conf)]
            row.extend(fmt_float(per_class[c]) for c in classes)
            row.append(fmt_float(mean))
            fh.write(",".join(row) + "\n")
