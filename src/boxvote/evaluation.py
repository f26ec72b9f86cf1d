"""Detection scoring: precision/recall, average precision, F1 curves.

Matching is the standard greedy scheme: detections in confidence order, each
taking the best still-unmatched ground-truth box at or above the IoU
threshold. AP is 101-point interpolated; the multi-threshold mAP averages
IoU thresholds 0.50 to 0.95 in steps of 0.05.

Each evaluation matches once, and the metrics and the F1 curve share that
match. `match_all` matches every detection, whatever its confidence: per
(image, class) slice it computes every detection x ground-truth IoU once,
and the greedy sweep for each of the ten IoU thresholds reads from those
values. The sweep is prefix-stable: whether a detection matches depends
only on the detections ranked above it in its slice (confidence descending,
then ingestion order). Keeping the detections at or above a confidence
keeps a prefix of every slice, so their matches are a prefix of the full
matches, in the same order. So `evaluate` at threshold T reads the
confidence-sorted rows at or above T, and `f1_curve` reads each grid point
off cumulative true-positive counts in the IoU-0.5 column of the same rows
(`MetricsReport.matches`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import EmptyGroundTruthError
from .geometry import iou, running_sum

AP_RECALL_POINTS = 101
MAP_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
DEFAULT_F1_GRID = tuple(
    0.0001 + (1.0 - 0.0001) * k / 199 for k in range(200)
)
_RECALL_GRID = np.arange(AP_RECALL_POINTS) / (AP_RECALL_POINTS - 1)


class GroundTruthBox(NamedTuple):
    """One ground-truth box: class id and normalized corners (see `geometry`)."""

    cls: int
    x1: float
    y1: float
    x2: float
    y2: float


@dataclass(frozen=True)
class GroundTruth:
    """Ground-truth boxes per image id."""

    entries: dict[str, tuple[GroundTruthBox, ...]]

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


@dataclass
class F1Curve:
    """Per-class and mean F1 at each confidence of `DEFAULT_F1_GRID`, ascending."""

    points: list[tuple[float, dict[int, float], float]]


def _rank_slice(dets, gt_boxes):
    """Confidence order of one image / class slice, and each ranked
    detection's overlapping ground-truth boxes as (iou, index), best first.

    Confidence ties rank by ingestion order, IoU ties by ground-truth index.
    """
    order = sorted(range(len(dets)), key=lambda k: (-dets[k].confidence, k))
    candidates = []
    for k in order:
        d = dets[k]
        row = []
        for g, gt in enumerate(gt_boxes):
            ov = iou(d, gt)
            if ov > 0.0:
                row.append((ov, g))
        row.sort(key=itemgetter(0), reverse=True)
        candidates.append(row)
    return order, candidates


def _greedy_flags(candidates, num_gt: int, iou_thresh: float) -> list[bool]:
    """Matched flag per ranked detection: each takes its best untaken
    ground-truth box if that box's IoU reaches the threshold."""
    taken = [False] * num_gt
    flags = []
    for row in candidates:
        hit = False
        for ov, g in row:
            if not ov >= iou_thresh:
                break
            if not taken[g]:
                taken[g] = hit = True
                break
        flags.append(hit)
    return flags


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
            gt_boxes = gt_by_cls.get(cls, ())
            order, candidates = _rank_slice(dets, gt_boxes)
            columns = [_greedy_flags(candidates, len(gt_boxes), t) for t in MAP_IOU_THRESHOLDS]
            rows[cls].extend(zip([dets[k].confidence for k in order], *columns))
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


def f1_curve(matches: Matches) -> F1Curve:
    """F1 per class and class-mean at every `DEFAULT_F1_GRID` confidence.

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
    return F1Curve(points=points)
