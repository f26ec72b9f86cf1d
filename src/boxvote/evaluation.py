"""Detection scoring: precision/recall, average precision, F1 curves.

Matching is the standard greedy scheme: detections in confidence order, each
taking the best still-unmatched ground-truth box at or above the IoU
threshold. AP is 101-point interpolated; the multi-threshold mAP averages
IoU thresholds 0.50 to 0.95 in steps of 0.05.

Each evaluation matches once, and the metrics and the F1 curve share that
match. `match_all` matches every detection, whatever its confidence: per
(image, class) slice it ranks the detections once and computes every
detection x ground-truth IoU once, and one pass over the ranked detections
gives each its flags at all ten IoU thresholds, each threshold with its own
list of taken ground-truth boxes. The sweep is prefix-stable: whether a
detection matches depends only on the detections ranked above it in its
slice (confidence descending, then ingestion order). Keeping the detections
at or above a confidence keeps a prefix of every slice, so their matches are
a prefix of the full matches, in the same order. So `evaluate` at threshold
T reads the confidence-sorted rows at or above T, and `f1_curve` reads each
grid point off cumulative true-positive counts in the IoU-0.5 column of the
same rows (`MetricsReport.matches`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .errors import EmptyGroundTruthError
from .geometry import Box, iou, running_sum

AP_RECALL_POINTS = 101
MAP_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
DEFAULT_F1_GRID = tuple(
    0.0001 + (1.0 - 0.0001) * k / 199 for k in range(200)
)
_RECALL_GRID = np.arange(AP_RECALL_POINTS) / (AP_RECALL_POINTS - 1)


@dataclass(frozen=True)
class GroundTruth:
    """Ground-truth boxes per image id: `Box`es with confidence 1.0 and source 0."""

    entries: dict[str, tuple[Box, ...]]

    def class_counts(self) -> dict[int, int]:
        """Number of boxes per class present, in ascending class order."""
        counts = Counter(b.cls for boxes in self.entries.values() for b in boxes)
        return dict(sorted(counts.items()))


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    ap50: float
    ap5095: float


@dataclass(frozen=True)
class Matches:
    """Every detection matched against the ground truth at every mAP IoU threshold.

    `counts` is the number of ground-truth boxes per class, in ascending class
    order. `rows[cls]` holds one `(confidence, flag per MAP_IOU_THRESHOLDS...)`
    row per detection of a class in `counts`, sorted by confidence descending.
    """

    counts: dict[int, int]
    rows: dict[int, list[tuple]]


@dataclass
class MetricsReport:
    per_class: dict[int, ClassMetrics]
    aggregate: ClassMetrics
    confidence_threshold: float
    # every detection's match, whatever the threshold; read by `f1_curve`
    matches: Matches = field(compare=False, repr=False)


def _match_slice(dets, gt_boxes) -> list[tuple]:
    """One `(confidence, flag per MAP_IOU_THRESHOLDS...)` row per detection of
    one image / class slice, in rank order: confidence descending, then
    ingestion order.

    Each ranked detection lists its overlapping ground-truth boxes once, as
    (iou, index), best first (IoU ties by ground-truth index). At each
    threshold it takes the first box of that list that is untaken at that
    threshold, if that box's IoU reaches the threshold.
    """
    taken = [[False] * len(gt_boxes) for _ in MAP_IOU_THRESHOLDS]
    rows = []
    for k in sorted(range(len(dets)), key=lambda k: (-dets[k].confidence, k)):
        d = dets[k]
        candidates = []
        for g, gt in enumerate(gt_boxes):
            ov = iou(d, gt)
            if ov > 0.0:
                candidates.append((ov, g))
        candidates.sort(key=itemgetter(0), reverse=True)
        row = [d.confidence]
        for thresh, taken_at in zip(MAP_IOU_THRESHOLDS, taken):
            hit = False
            for ov, g in candidates:
                if not ov >= thresh:
                    break
                if not taken_at[g]:
                    taken_at[g] = hit = True
                    break
            row.append(hit)
        rows.append(tuple(row))
    return rows


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


def _by_class(boxes, classes) -> dict[int, list]:
    out: dict[int, list] = {}
    for b in boxes:
        if b.cls in classes:
            out.setdefault(b.cls, []).append(b)
    return out


def match_all(fused, gt: GroundTruth) -> Matches:
    """Match every detection of `fused`, with no confidence filter, at every
    mAP IoU threshold (see the module docstring).

    `fused` maps an image id to that image's boxes: any sized iterable of
    objects with `cls`, `x1`, `y1`, `x2`, `y2` and `confidence`, such as a
    `Box` tuple or a list of `FusedBox`. Each class's rows are sorted by
    (-confidence, image id, rank in the image's slice): images are visited in
    id order, each slice appends in rank order, and the confidence sort is
    stable. So the result does not depend on the order of `fused`.
    """
    counts = gt.class_counts()
    rows: dict[int, list[tuple]] = {c: [] for c in counts}
    for image_id in sorted(fused):
        gt_by_cls = _by_class(gt.entries.get(image_id, ()), rows)
        for cls, dets in _by_class(fused[image_id], rows).items():
            rows[cls].extend(_match_slice(dets, gt_by_cls.get(cls, ())))
    for cls_rows in rows.values():
        cls_rows.sort(key=itemgetter(0), reverse=True)
    return Matches(counts, rows)


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
        rows = matches.rows[cls]
        # rows are confidence-descending: the kept ones are a prefix
        n_det = bisect_right([-r[0] for r in rows], -confidence_threshold)
        flags = np.array([r[1:] for r in rows[:n_det]], dtype=bool)
        flags = flags.reshape(-1, len(MAP_IOU_THRESHOLDS))  # also when no rows
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
    this matches nothing itself. Each grid point counts the prefix of
    confidence-sorted rows at or above it in the IoU-0.5 column (see the
    module docstring).
    """
    prefixes = []
    for cls, num_gt in matches.counts.items():
        rows = matches.rows[cls]
        neg_conf = [-r[0] for r in rows]
        cum_tp = list(accumulate((r[1] for r in rows), initial=0))
        prefixes.append((cls, num_gt, neg_conf, cum_tp))
    points = []
    for c_thresh in DEFAULT_F1_GRID:
        f1_by_class: dict[int, float] = {}
        for cls, num_gt, neg_conf, cum_tp in prefixes:
            n_kept = bisect_right(neg_conf, -c_thresh)
            tp = cum_tp[n_kept]
            p = tp / n_kept if n_kept else 0.0
            r = tp / num_gt
            f1_by_class[cls] = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        mean = (
            running_sum(f1_by_class.values()) / len(f1_by_class) if f1_by_class else 0.0
        )
        points.append((c_thresh, f1_by_class, mean))
    return points
