"""Box-combination algorithms: NMS, soft-NMS, WBF, and the gated knowledge vote.

All four have one call shape: `fn(per_model, params)`, where `per_model`
holds one image's boxes as one box sequence per model, in model order, and
each returns a list (`knowledge_vote` also takes the gates and the label
filter): NMS and soft-NMS the `Box`es they keep, in the priority order below
(soft-NMS by decayed confidence), WBF and the knowledge vote `FusedBox`es.
Boxes of different classes never interact. Every function is pure.

NMS, soft-NMS and WBF share one per-class sweep. `_class_groups` splits the
boxes by class and sorts each group once, by the algorithm's priority; then
one greedy pass runs over each group. All three break ties the same way:
confidence descending (times the model weight, for WBF), then the box's
source, then its position in its model's list, then model order.

- NMS keeps a box iff no kept box before it overlaps it beyond the threshold.
- Soft-NMS repeatedly takes the first maximum confidence of the group, which
  is kept in (source, index) order, and decays the rest by
  exp(-iou^2 / sigma) instead of re-sorting after every pick. A large group
  finds each pick with a lazy max-heap instead of a scan of every live box.
- WBF puts each box into the first cluster whose fused box overlaps it, and
  keeps running sums per cluster instead of re-summing it on every join.
  One sweep serves every group size; in a large group, the overlap index
  finds the box's first overlapping one-member cluster, so the box is
  compared only with the larger clusters before it.

A class group of at least `TABLE_MIN` boxes lists its overlapping pairs
once, with numpy (`_overlaps`). A sweep over the boxes sorted by x1 pairs
each box only with the later ones whose x1 lies below its x2, the pairs
whose x-intervals can intersect: about 23% of all pairs in a `dense-fuse`
group, of which about 5% overlap. Those pairs take the same IEEE operations
as `geometry.iou`, so each listed IoU equals the scalar call bit for bit;
pairs with IoU 0 are not listed. NMS, soft-NMS and WBF then visit only a
box's neighbours: the boxes it overlaps at all, or beyond the threshold.
Neighbour order gives the same picks and clusters as the full scans. A
soft-NMS pick changes only the confidences of the boxes it overlaps, so
every other box keeps its place in the heap. WBF creates clusters in group
order, so a box's first overlapping one-member cluster is the one led by
its first over-threshold neighbour before it; the sweep then compares the
box with `iou` only against the few larger clusters before that one, whose
fused boxes are not listed, in cluster order. The pair lists are built,
used and dropped within the group, and nothing is cached across calls.
Smaller groups call `iou` per pair as the sweep needs it, after a
four-comparison axis test where most pairs are disjoint; WBF's sweep is the
same code there, comparing every cluster. NMS and soft-NMS keep a scalar
and an indexed path each, since one path for both sizes measured slower
(see README, "Performance"). Sparse detector output has about 3 boxes per
class group, and consensus scoring clusters such groups tens of thousands of
times: there, any per-group numpy work costs more than the few scalar calls
it saves, and an always-numpy kernel made a gated WBF pass 2-4x slower. Summed
over NMS, soft-NMS and WBF, the crossover measured at about 24 boxes: from
about 20 boxes for NMS and soft-NMS alone, above 32 for WBF alone.

WBF emits a cluster of one box as that box's corners and confidence, with
support 1 and the box as its only member (`_wbf_fusions`, which consensus
scoring shares). `FusedBox` is a named tuple like `geometry.Box` (see
there), built positionally: `wbf` builds one per cluster, about 18,500 for
the weighted pass of three sources on 3,000 images.

Soft-NMS decays with `math.exp`, one box at a time. `np.exp` is not bound
to round like the C library's `exp`, and on dense detector output it gave
different last bits, which change output bytes.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NegativeWeightError, WeightArityMismatchError
from .geometry import Box, iou


@dataclass(frozen=True)
class ConfidenceGates:
    """Per-class minimum confidences; classes absent from the map use default_gate."""

    gates: dict[int, float] = field(default_factory=dict)
    default_gate: float = 0.0

    def gate(self, cls: int) -> float:
        return self.gates.get(cls, self.default_gate)


@dataclass(frozen=True)
class LabelSpaceFilter:
    """Restriction of the target label space: keep everything or a listed subset."""

    mode: str = "keep_all"  # keep_all | keep_listed
    classes: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.mode not in ("keep_all", "keep_listed"):
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if self.mode == "keep_listed" and not self.classes:
            raise ValueError("keep_listed filter requires a non-empty class set")
        if self.mode == "keep_all" and self.classes:
            raise ValueError("keep_all filter takes no classes; list them under keep_listed")

    def keeps(self, cls: int) -> bool:
        return self.mode == "keep_all" or cls in self.classes


KEEP_ALL = LabelSpaceFilter()
NO_GATES = ConfidenceGates()


@dataclass(frozen=True)
class FusionParams:
    """Parameter bundle shared by all fusion algorithms.

    Every value rule is checked here, so each instance is valid, also one made
    by `dataclasses.replace`; NaN fails every check. `wbf` checks the number of
    weights, which depends on the call.
    """

    iou_threshold: float = 0.55
    soft_nms_sigma: float = 0.5
    score_floor: float = 0.001
    model_weights: tuple[float, ...] | None = None  # None = uniform
    confidence_rescale: str = "none"  # none | support_ratio

    def __post_init__(self):
        weights = self.model_weights
        if weights is not None and not all(0.0 <= w < math.inf for w in weights):
            raise NegativeWeightError(
                f"fusion.model_weights must be finite and >= 0, got {weights!r}")
        if weights is not None and not any(w > 0.0 for w in weights):
            raise WeightArityMismatchError(
                "fusion.model_weights needs at least one positive weight")
        if self.confidence_rescale not in ("none", "support_ratio"):
            raise ConfigError(f"unknown fusion.confidence_rescale {self.confidence_rescale!r}")
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError(f"fusion.iou_threshold must be in (0,1), got {self.iou_threshold}")
        if not self.soft_nms_sigma > 0.0:
            raise ConfigError(f"fusion.soft_nms_sigma must be > 0, got {self.soft_nms_sigma}")
        if not 0.0 <= self.score_floor <= 1.0:
            raise ConfigError(f"fusion.score_floor must be in [0,1], got {self.score_floor}")


class FusedBox(NamedTuple):
    """A merged box: coordinates, fused confidence, and its supporting members.

    `members` are the clustered boxes in join order; each names its source.
    """

    cls: int
    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float
    support_count: int
    members: tuple[Box, ...]


def fused_order(f) -> tuple:
    """Sort key of `wbf`'s output, which pseudo-label files keep: confidence
    descending, then class and corners."""
    return (-f.confidence, f.cls, f.x1, f.y1, f.x2, f.y2)


def apply_gates(boxes: Iterable[Box], gates: ConfidenceGates, flt: LabelSpaceFilter) -> tuple:
    """The boxes whose class passes the filter and whose confidence >= its gate."""
    return tuple(b for b in boxes if flt.keeps(b.cls) and b.confidence >= gates.gate(b.cls))


# Class groups of at least this many boxes list their overlapping pairs once
# with `_overlaps`; smaller groups call `iou` per pair (see the module docstring).
TABLE_MIN = 24


def _priority(item):
    # confidence desc, then source, then position in the model's list
    return (-item[0].confidence, item[0].source, item[1])


def _source_order(item):
    return (item[0].source, item[1])


def _weighted_priority(item):
    return (-(item[0].confidence * item[2]), item[0].source, item[1])


def _class_groups(weighted_sets, key):
    """(class, items) for each class in ascending order, each group sorted once by `key`.

    `weighted_sets` holds (boxes, weight) pairs in model order; an item is
    (box, index of the box in its set, weight). The sort is stable, so items
    that `key` ties stay in model order. The sweeps read only those three
    fields of an item, so consensus scoring appends the source's position.
    """
    by_class: dict[int, list] = {}
    for boxes, w in weighted_sets:
        for idx, b in enumerate(boxes):
            by_class.setdefault(b.cls, []).append((b, idx, w))
    return [(cls, sorted(by_class[cls], key=key)) for cls in sorted(by_class)]


def _overlaps(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, ious) of every pair of boxes that overlap, both ways, in row-then-column order.

    Each IoU equals iou(boxes[row], boxes[col]) bit for bit, and a pair is
    listed iff that IoU is > 0; no box is paired with itself. A sweep over
    the boxes sorted by x1 lists only the pairs whose x-intervals can
    intersect: the boxes after a box in that order whose x1 is below its x2.
    Those pairs take the same IEEE operations as `geometry.iou`: corner
    max/min, iw * ih, (area_i + area_j) - inter with max(0, .) areas, and no
    entry where the intersection is empty or the union is not positive.
    """
    n = len(boxes)
    x1, y1, x2, y2 = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).T
    order = np.argsort(x1, kind="stable")
    # sorted position p pairs with the next counts[p] positions, whose x1 is below its x2
    counts = np.searchsorted(x1[order], x2[order]) - np.arange(1, n + 1)
    np.maximum(counts, 0, out=counts)
    p = np.repeat(np.arange(n), counts)
    k = np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)  # rank within p's run
    i, j = order[p], order[p + 1 + k]
    iw = np.minimum(x2[i], x2[j])
    iw -= np.maximum(x1[i], x1[j])
    ih = np.minimum(y2[i], y2[j])
    ih -= np.maximum(y1[i], y1[j])
    hit = np.flatnonzero((iw > 0.0) & (ih > 0.0))
    i, j = i[hit], j[hit]
    inter = iw[hit] * ih[hit]
    area = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    union = area[i] + area[j]
    union -= inter
    hit = union > 0.0
    ov = np.zeros_like(inter)
    np.divide(inter, union, out=ov, where=hit)
    hit = np.flatnonzero(ov > 0.0)
    rows = np.concatenate((i[hit], j[hit]))
    cols = np.concatenate((j[hit], i[hit]))
    ov = ov[hit]
    by_row = np.argsort(rows * n + cols)
    return rows[by_row], cols[by_row], np.concatenate((ov, ov))[by_row]


def _nms_keep(boxes, threshold: float) -> list[int]:
    """Positions of the boxes (in priority order) that greedy suppression keeps."""
    kept = []
    if len(boxes) >= TABLE_MIN:
        rows, cols, ovs = _overlaps(boxes)
        over = ovs > threshold
        rows, cols = rows[over], cols[over]
        starts = np.searchsorted(rows, np.arange(len(boxes) + 1)).tolist()
        suppressed = np.zeros(len(boxes), dtype=bool)
        for i in range(len(boxes)):
            if not suppressed[i]:
                kept.append(i)
                lo, hi = starts[i], starts[i + 1]
                if lo < hi:  # most kept boxes overlap none beyond the threshold
                    suppressed[cols[lo:hi]] = True
        return kept
    for i, b in enumerate(boxes):
        for k in kept:
            if iou(b, boxes[k]) > threshold:
                break
        else:
            kept.append(i)
    return kept


def nms(per_model: Sequence[Iterable[Box]], params: FusionParams) -> list[Box]:
    """Greedy per-class suppression at params.iou_threshold."""
    kept = []
    for _, group in _class_groups([(boxes, 1.0) for boxes in per_model], _priority):
        boxes = [b for b, _, _ in group]
        kept.extend(group[i] for i in _nms_keep(boxes, params.iou_threshold))
    kept.sort(key=_priority)
    return [item[0] for item in kept]


def _soft_nms_picks(boxes, sigma: float, floor: float) -> list[tuple[int, float]]:
    """(position, decayed confidence) of each box soft-NMS keeps, in pick order.

    `boxes` are in (source, index) order, so the first maximum of the
    confidences is the box that the (-confidence, source, index) order puts
    first. The first pick is taken before any box is checked against `floor`.
    Groups of at least `TABLE_MIN` boxes go to `_soft_nms_heap`.
    """
    if len(boxes) >= TABLE_MIN:
        return _soft_nms_heap(boxes, sigma, floor)
    conf = [b.confidence for b in boxes]
    alive = list(range(len(boxes)))
    picks = []
    while alive:
        top = max(alive, key=conf.__getitem__)
        picks.append((top, conf[top]))
        survivors = []
        for j in alive:
            if j == top:
                continue
            ov = iou(boxes[top], boxes[j])
            if ov > 0.0:
                conf[j] *= math.exp(-(ov * ov) / sigma)
            if conf[j] >= floor:
                survivors.append(j)
        alive = survivors
    return picks


def _soft_nms_heap(boxes, sigma: float, floor: float) -> list[tuple[int, float]]:
    """`_soft_nms_picks` for a large group: a lazy max-heap over overlap neighbours.

    Each box still in play has one heap entry, (-confidence, position), so
    the least current entry is the first maximum. A decay leaves the box's
    entry stale: it stands for a higher confidence, so it is popped before
    the box is due, and the pop pushes the box again at its current
    confidence. A pop skips the entry of a picked or dropped box. A pick
    decays only the live boxes it overlaps (`_overlaps`), with the scalar
    sweep's per-edge arithmetic, in the same pick order, so the picks and
    confidences are the same bit for bit; a factor that rounds to 1.0 leaves
    the entry current. Confidences only fall, so a box below `floor` can
    drop before the first pick, and later only a box just decayed can drop.
    """
    rows, cols, ovs = _overlaps(boxes)
    starts = np.searchsorted(rows, np.arange(len(boxes) + 1)).tolist()
    conf = [b.confidence for b in boxes]
    top = max(range(len(boxes)), key=conf.__getitem__)
    alive = [c >= floor for c in conf]
    alive[top] = True
    heap = [(-c, j) for j, c in enumerate(conf) if alive[j]]
    heapq.heapify(heap)
    picks = []
    while heap:
        neg, top = heapq.heappop(heap)
        if not alive[top]:
            continue
        c = conf[top]
        if -neg != c:
            heapq.heappush(heap, (-c, top))
            continue
        alive[top] = False
        picks.append((top, c))
        lo, hi = starts[top], starts[top + 1]
        for j, ov in zip(cols[lo:hi].tolist(), ovs[lo:hi].tolist()):
            if alive[j]:
                c = conf[j] = conf[j] * math.exp(-(ov * ov) / sigma)
                if c < floor:
                    alive[j] = False
    return picks


def soft_nms(per_model: Sequence[Iterable[Box]], params: FusionParams) -> list[Box]:
    """Gaussian soft-NMS: decay overlapping same-class confidences instead of
    discarding, then drop boxes below params.score_floor."""
    out = []
    for _, group in _class_groups([(boxes, 1.0) for boxes in per_model], _source_order):
        boxes = [b for b, _, _ in group]
        for i, c in _soft_nms_picks(boxes, params.soft_nms_sigma, params.score_floor):
            b, idx, _ = group[i]
            if c != b.confidence:
                b = Box(b.cls, b.x1, b.y1, b.x2, b.y2, c, b.source)
            out.append((b, idx))
    out.sort(key=_priority)
    return [b for b, _ in out]


_NO_SUMS = (0.0,) * 7


def _add_member(s, item) -> tuple:
    """Sums (cw, w, cw*x1, cw*y1, cw*x2, cw*y2, w*conf) with a (box, index, weight) item added.

    cw is confidence * weight. Adding the members in order, starting from
    `_NO_SUMS`, gives the same floats as summing them from scratch.
    """
    b = item[0]
    w = item[2]
    cw_sum, w_sum, x1, y1, x2, y2, conf = s
    cw = b.confidence * w
    return (
        cw_sum + cw,
        w_sum + w,
        x1 + cw * b.x1,
        y1 + cw * b.y1,
        x2 + cw * b.x2,
        y2 + cw * b.y2,
        conf + w * b.confidence,
    )


def _fused(s, first: Box) -> tuple[float, float, float, float, float]:
    """Fused (x1, y1, x2, y2, confidence) of a cluster of two or more members.

    Coordinates are the confidence*weight-weighted average; confidence is the
    weight-weighted mean. Without positive mass the first member's box is
    kept at confidence 0.
    """
    cw_sum, w_sum, x1, y1, x2, y2, conf = s
    if cw_sum <= 0.0 or w_sum <= 0.0:
        return first.x1, first.y1, first.x2, first.y2, 0.0
    return x1 / cw_sum, y1 / cw_sum, x2 / cw_sum, y2 / cw_sum, conf / w_sum


def _wbf_clusters(cls, group, threshold: float) -> tuple[list, list]:
    """Cluster one class group (in weighted priority order): (clusters, sums).

    Each item joins the first cluster whose fused box overlaps it beyond
    `threshold`, else starts a new cluster. A cluster is its member items in
    join order; its sums are None while it has one member, whose box is then
    its fused box. A larger cluster keeps running sums (see `_add_member`),
    and its fused box is built when it is next compared. The item is
    compared with `iou` against the clusters in `scan`, in cluster order,
    skipping one whose fused box misses it on an axis (`iou` gives 0 there).

    In a small group every cluster is in `scan`. A group of at least
    `TABLE_MIN` boxes first lists its over-threshold overlaps (`_overlaps`):
    clusters are created in group order, so the first one-member cluster
    that item i overlaps is the one led by i's first such neighbour j < i
    that still leads one. Then only clusters of two or more members are in
    `scan`, and only those before that one are compared.
    """
    clusters: list[list] = []  # member items, in join order
    sums: list = []  # running sums of a cluster with two or more members, else None
    views: list = []  # the box of a one-member cluster, else its fused Box or None
    scan: list[int] = []  # the clusters compared with `iou`, ascending
    indexed = len(group) >= TABLE_MIN
    if indexed:
        rows, cols, ovs = _overlaps([item[0] for item in group])
        before = (ovs > threshold) & (cols < rows)
        rows, cols = rows[before], cols[before].tolist()
        starts = np.searchsorted(rows, np.arange(len(group) + 1)).tolist()
        led = [-1] * len(group)  # the cluster a position leads, else -1
    for i, item in enumerate(group):
        b = item[0]
        ci = len(clusters)
        if indexed:
            for j in cols[starts[i]:starts[i + 1]]:
                if led[j] >= 0 and sums[led[j]] is None:
                    ci = led[j]
                    break
        for mi in scan:
            if mi >= ci:
                break
            view = views[mi]
            if view is None:
                view = views[mi] = Box(cls, *_fused(sums[mi], clusters[mi][0][0]))
            if (view.x1 < b.x2 and b.x1 < view.x2 and view.y1 < b.y2 and b.y1 < view.y2
                    and iou(b, view) > threshold):
                ci = mi
                break
        if ci == len(clusters):
            if indexed:
                led[i] = ci
            else:
                scan.append(ci)
            clusters.append([item])
            sums.append(None)
            views.append(b)
            continue
        members = clusters[ci]
        members.append(item)
        if sums[ci] is None:
            if indexed:
                insort(scan, ci)
            sums[ci] = _add_member(_NO_SUMS, members[0])
        sums[ci] = _add_member(sums[ci], item)
        views[ci] = None
    return clusters, sums


def _wbf_fusions(cls, group, threshold: float) -> list[tuple]:
    """WBF of one class group (in weighted priority order), one tuple per
    cluster in cluster order: (x1, y1, x2, y2, confidence, support, boxes).

    A one-member cluster passes its box through with support 1. A larger one
    is fused by `_fused`, and its support counts the distinct `source`s of
    its member boxes, which are in join order.
    """
    if len(group) == 1:  # about a third of the groups that consensus scoring clusters
        clusters, sums = [group], [None]
    else:
        clusters, sums = _wbf_clusters(cls, group, threshold)
    out = []
    for members, s in zip(clusters, sums):
        first = members[0][0]
        if s is None:
            out.append((first.x1, first.y1, first.x2, first.y2, first.confidence, 1, (first,)))
        else:
            boxes = tuple([item[0] for item in members])
            out.append((*_fused(s, first), len({b.source for b in boxes}), boxes))
    return out


def _wbf_class(cls, group, params: FusionParams, n_active: int, out: list) -> None:
    """Append the FusedBoxes of one class group (in weighted priority order)."""
    rescale = params.confidence_rescale == "support_ratio"
    for x1, y1, x2, y2, conf, n_b, boxes in _wbf_fusions(cls, group, params.iou_threshold):
        if rescale:
            conf = conf * (min(n_b, n_active) / n_active)
        out.append(FusedBox(cls, x1, y1, x2, y2, conf, n_b, boxes))


def wbf(per_model: Sequence[Iterable[Box]], params: FusionParams) -> list[FusedBox]:
    """Weighted box fusion across models, counting distinct supporting sources.

    Per class, boxes are processed in descending weighted-confidence order;
    each joins the first cluster whose current fused box overlaps it beyond
    params.iou_threshold, else starts a new cluster. A one-member cluster
    passes its box through exactly.
    """
    n_models = len(per_model)
    weights = params.model_weights
    if weights is None:
        weights = (1.0,) * n_models
    elif len(weights) != n_models:
        raise WeightArityMismatchError(
            f"{len(weights)} weights for {n_models} models"
        )
    # zero-weight models contribute nothing, including support
    weighted = [(boxes, w) for boxes, w in zip(per_model, weights) if w > 0.0]
    n_active = len(weighted)

    fused: list[FusedBox] = []
    for cls, group in _class_groups(weighted, _weighted_priority):
        _wbf_class(cls, group, params, n_active, fused)
    fused.sort(key=fused_order)
    return fused


def knowledge_vote(
    per_model: Sequence[Iterable[Box]],
    gates: ConfidenceGates,
    flt: LabelSpaceFilter,
    params: FusionParams,
) -> list[FusedBox]:
    """Class-gated, support-counting WBF: gate each model's boxes, then fuse."""
    return wbf([apply_gates(boxes, gates, flt) for boxes in per_model], params)
