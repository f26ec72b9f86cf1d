"""Detection scoring: precision/recall, average precision, F1 curves.

Matching is the standard greedy scheme: detections in confidence order, each
taking the best still-unmatched ground-truth box at or above the IoU
threshold. AP is 101-point interpolated; the multi-threshold mAP averages
IoU thresholds 0.50 to 0.95 in steps of 0.05.

Each evaluation matches once, and the metrics and the F1 curve share that
match. `match_all` matches every detection, whatever its confidence, at all
ten IoU thresholds, in numpy columns. It reads the detections' and the
ground truth's columns from their tables (`geometry.ImageRows.over`; a
mapping of box collections is converted once by `geometry.box_columns`),
keeps the rows of the classes in the ground truth (`_slices`), ranks the detections
of each (image, class) slice (confidence descending, then ingestion order),
and pairs each detection with the ground-truth boxes of its slice. Each
pair's IoU takes `geometry.iou`'s IEEE operations (`geometry.pair_ious`),
and a box is a detection's candidate if that IoU is > 0 (`_candidates`).
The greedy sweep then runs in lockstep (`_greedy_flags`): step r takes the
r-th ranked detection with a candidate of every slice, at all ten thresholds
at once, and each threshold keeps its own mask of taken boxes.

The sweep is prefix-stable: whether a detection matches depends only on the
detections ranked above it in its slice. Keeping the detections at or above
a confidence keeps a prefix of every slice, so their matches are a prefix of
the full matches, in the same order. So `evaluate` at threshold T reads the
prefix of each class's confidence-sorted flags at or above T, and `f1_curve`
reads each grid point off cumulative true-positive counts in the IoU-0.5
column of the same flags (`MetricsReport.matches`).
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGroundTruthError
from .geometry import Box, ImageRows, pair_chunks, pair_ious, running_sum, runs
from .geometry import iou  # noqa: F401  not called here; bench/spans.py counts calls through it

AP_RECALL_POINTS = 101
MAP_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
DEFAULT_F1_GRID = tuple(
    0.0001 + (1.0 - 0.0001) * k / 199 for k in range(200)
)
_RECALL_GRID = np.arange(AP_RECALL_POINTS) / (AP_RECALL_POINTS - 1)


@dataclass(frozen=True)
class GroundTruth:
    """Ground-truth boxes per image id, with confidence 1.0 and source 0: a
    `BoxTable` as `data_io` reads it, or any mapping to `Box` collections."""

    entries: Mapping[str, Collection[Box]]

    def class_counts(self) -> dict[int, int]:
        """Number of boxes per class present, in ascending class order."""
        return dict(zip(*(column.tolist() for column in self._classes())))

    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(the classes present, ascending, and the boxes of each)."""
        cls = np.sort(ImageRows.over(self.entries, self.entries).table.cls)
        firsts = runs(cls)
        return cls[firsts], np.diff(firsts, append=len(cls))


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    ap50: float
    ap5095: float


@dataclass(frozen=True, eq=False)  # numpy arrays do not compare to one bool
class Matches:
    """Every detection matched against the ground truth at every mAP IoU threshold.

    `counts` is the number of ground-truth boxes per class, in ascending class
    order. For each class of `counts`, the class's detections are sorted by
    confidence descending (ties by image id, then rank in the image's slice):
    `confidence[cls]` holds their confidences, and `flags[cls]` whether each
    matched, one row per detection and one column per MAP_IOU_THRESHOLDS.
    """

    counts: dict[int, int]
    confidence: dict[int, np.ndarray]
    flags: dict[int, np.ndarray]


@dataclass
class MetricsReport:
    per_class: dict[int, ClassMetrics]
    aggregate: ClassMetrics
    confidence_threshold: float
    # every detection's match, whatever the threshold; read by `f1_curve`
    matches: Matches = field(compare=False, repr=False)


def average_precision(matched_flags, num_gt: int) -> float:
    """101-point interpolated AP from confidence-sorted match flags."""
    flags = np.asarray(matched_flags, dtype=bool)
    if num_gt == 0 or not flags.size:
        return 0.0
    tp = np.cumsum(flags)
    precisions = tp / np.arange(1, len(tp) + 1)
    recalls = tp / num_gt
    # precision envelope: max precision at or beyond each point
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    first = np.searchsorted(recalls, _RECALL_GRID, side="left")
    total = running_sum(envelope[first[first < len(envelope)]].tolist())
    return total / AP_RECALL_POINTS


_THRESHOLDS = np.array(MAP_IOU_THRESHOLDS)[:, None]


def _slices(images: ImageRows, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(slice key, table row) of each box of `images` whose class is in
    `classes`, sorted, in input order. A box's slice key is its image's
    position times len(classes), plus its class's position."""
    image, row, _ = images.rows()
    cls = images.table.cls[row]
    at = np.searchsorted(classes, cls)
    known = classes[np.minimum(at, len(classes) - 1)] == cls
    return (image * len(classes) + at)[known], row[known]


def match_all(fused, gt: GroundTruth) -> Matches:
    """Match every detection of `fused`, with no confidence filter, at every
    mAP IoU threshold (see the module docstring).

    `fused` maps an image id to that image's boxes: a `BoxTable`, or any
    mapping to sized iterables of `Box`-shaped tuples, such as `Box` tuples
    or lists of `FusedBox`, which `geometry.box_columns` converts. The result
    does not depend on the order of `fused`.
    """
    classes, n_boxes = gt._classes()
    counts = dict(zip(classes.tolist(), n_boxes.tolist()))
    if not counts:
        return Matches(counts, {}, {})
    ids = sorted(fused)
    dets, truths = ImageRows.over(fused, ids), ImageRows.over(gt.entries, ids)
    key, row = _slices(dets, classes)
    gt_key, gt_row = _slices(truths, classes)
    det, conf = dets.table.box[:, row], dets.table.conf[row]
    # rank order within each slice; a stable sort, so equal confidences keep input order
    order = np.lexsort((-conf, key))
    key = key[order]
    gt_order = np.argsort(gt_key, kind="stable")
    gt_key = gt_key[gt_order]
    flags = _greedy_flags(*_candidates(key, det, order, gt_key, truths.table.box[:, gt_row],
                                       gt_order), len(key), len(gt_key))
    # each class's detections by confidence descending; the sort is stable, so
    # ties stay in (image id, rank) order
    conf = conf[order]
    cls = key % len(counts)
    by_class = np.lexsort((-conf, cls))
    bounds = np.searchsorted(cls[by_class], np.arange(len(counts) + 1)).tolist()
    confidence, class_flags = {}, {}
    for k, c in enumerate(counts):
        rows = by_class[bounds[k]:bounds[k + 1]]
        confidence[c], class_flags[c] = conf[rows], flags[rows]
    return Matches(counts, confidence, class_flags)


# Detection x ground-truth pairs per chunk of `_candidates`: a chunk's pair
# indices and IoU temporaries are freed before the next chunk's are made.
PAIR_CHUNK = 2048


def _candidates(key, det, order, gt_key, truth, gt_order) -> tuple:
    """(d, g, ov, step): each pair of a ranked detection d and a ground-truth
    box g of its slice whose IoU ov is > 0, in the order `_greedy_flags`
    visits them.

    Detection d is column order[d] of `det` and has slice key[d]; g is a
    position in `gt_key`, sorted, and is column gt_order[g] of `truth`. The
    detections are paired in runs of about PAIR_CHUNK pairs. A detection's
    step is its rank among the detections of its slice that have a pair.
    The pairs are sorted by step, then detection, then IoU descending, equal
    IoUs in g order.
    """
    lo = np.searchsorted(gt_key, key, side="left")
    n_gt = np.searchsorted(gt_key, key, side="right") - lo
    parts = []
    for _, _, d, g in pair_chunks(lo, n_gt, PAIR_CHUNK):
        hit, ov = pair_ious(det, order[d], truth, gt_order[g])
        parts.append((d[hit], g[hit], ov))
    d, g, ov = (np.concatenate(column) for column in zip(*parts))
    new = np.flatnonzero(np.diff(d, prepend=-1))  # each detection's first pair
    first = np.flatnonzero(np.diff(key[d[new]], prepend=-1))  # each slice's first detection
    step = np.arange(len(new)) - np.repeat(first, np.diff(first, append=len(new)))
    step = np.repeat(step, np.diff(new, append=len(d)))
    by_step = np.lexsort((-ov, d, step))  # a stable sort
    d = d[by_step]  # one column at a time: only one is held twice at once
    g = g[by_step]
    ov = ov[by_step]
    return d, g, ov, step[by_step]


def _greedy_flags(d, g, ov, step, n_det: int, n_gt: int) -> np.ndarray:
    """Whether each of `n_det` ranked detections matches, at each
    MAP_IOU_THRESHOLDS: one row per detection.

    (d, g, ov, step) are `_candidates`, and g < n_gt. At each threshold, a
    detection takes the first of its candidates whose IoU reaches the
    threshold and that no detection ranked above it in its slice took at
    that threshold. The detections run in lockstep: step r takes the r-th
    detection with candidates of every slice (slices share no ground-truth
    box), at every threshold at once, and `taken` marks the boxes taken at
    each threshold.
    """
    flags = np.zeros((n_det, len(MAP_IOU_THRESHOLDS)), bool)
    if not len(d):
        return flags
    heads = np.flatnonzero(np.diff(d, prepend=-1))  # each detection's first candidate
    n_cand = np.diff(heads, append=len(d))
    # each candidate's place in its detection's list, in the least integer type
    # that also holds `none`, the place of no candidate
    none = np.min_scalar_type(n_cand.max()).type(n_cand.max())
    place = (np.arange(len(d)) - np.repeat(heads, n_cand)).astype(none.dtype)
    steps = np.arange(step[-1] + 2)
    bounds = np.searchsorted(step, steps).tolist()
    head_bounds = np.searchsorted(step[heads], steps).tolist()
    taken = np.zeros((len(MAP_IOU_THRESHOLDS), n_gt), bool)
    for a, b, u, v in zip(bounds, bounds[1:], head_bounds, head_bounds[1:]):
        gs, starts = g[a:b], heads[u:v] - a
        ok = ov[a:b] >= _THRESHOLDS
        ok &= ~taken[:, gs]
        # at each threshold, the place of each detection's first candidate that is ok
        firsts = np.minimum.reduceat(np.where(ok, place[a:b], none), starts, axis=1)
        took = firsts < none
        flags[d[a + starts]] = took.T
        t, k = np.nonzero(took)
        taken[t, gs[starts[k] + firsts[t, k]]] = True
    return flags


def evaluate(fused, gt: GroundTruth, confidence_threshold: float) -> MetricsReport:
    """Score fused detections against ground truth at one operating point.

    `fused` is as for `match_all`. Aggregates are unweighted means over
    classes present in the ground truth. The detections are matched once,
    all of them; the report keeps that match as `matches`, for `f1_curve`.
    """
    matches = match_all(fused, gt)
    if not matches.counts:
        raise EmptyGroundTruthError("ground truth contains no boxes")
    per_class: dict[int, ClassMetrics] = {}
    for cls, num_gt in matches.counts.items():
        # the detections are confidence-descending: the kept ones are a prefix
        n_det = int(np.searchsorted(-matches.confidence[cls], -confidence_threshold, "right"))
        flags = matches.flags[cls][:n_det]
        tp = int(flags[:, 0].sum())
        aps = [average_precision(column, num_gt) for column in flags.T]
        per_class[cls] = ClassMetrics(
            precision=tp / n_det if n_det else 0.0,
            recall=tp / num_gt,
            ap50=aps[0],
            ap5095=running_sum(aps) / len(MAP_IOU_THRESHOLDS),
        )
    n = len(per_class)
    agg = ClassMetrics(
        precision=running_sum(m.precision for m in per_class.values()) / n,
        recall=running_sum(m.recall for m in per_class.values()) / n,
        ap50=running_sum(m.ap50 for m in per_class.values()) / n,
        ap5095=running_sum(m.ap5095 for m in per_class.values()) / n,
    )
    return MetricsReport(
        per_class=per_class, aggregate=agg, confidence_threshold=confidence_threshold,
        matches=matches,
    )


def f1_curve(matches: Matches) -> list[tuple[float, dict[int, float], float]]:
    """F1 per class and class-mean at every `DEFAULT_F1_GRID` confidence: one
    `(confidence, per-class F1, mean F1)` point each, in grid order.

    `matches` is `match_all`'s result, as `evaluate` keeps it on its report;
    this matches nothing itself. Each grid point counts the prefix of each
    class's confidence-sorted flags at or above it in the IoU-0.5 column (see
    the module docstring).
    """
    neg_grid = -np.array(DEFAULT_F1_GRID)
    prefixes = []
    for cls, num_gt in matches.counts.items():
        n_kept = np.searchsorted(-matches.confidence[cls], neg_grid, "right")
        cum_tp = np.concatenate(([0], np.cumsum(matches.flags[cls][:, 0])))
        prefixes.append((cls, num_gt, n_kept.tolist(), cum_tp[n_kept].tolist()))
    points = []
    for k, c_thresh in enumerate(DEFAULT_F1_GRID):
        f1_by_class: dict[int, float] = {}
        for cls, num_gt, n_kept, cum_tp in prefixes:
            n, tp = n_kept[k], cum_tp[k]
            p = tp / n if n else 0.0
            r = tp / num_gt
            f1_by_class[cls] = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        mean = (
            running_sum(f1_by_class.values()) / len(f1_by_class) if f1_by_class else 0.0
        )
        points.append((c_thresh, f1_by_class, mean))
    return points
