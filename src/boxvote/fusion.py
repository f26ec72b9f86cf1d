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
  exp(-iou^2 / sigma) instead of re-sorting after every pick.
- WBF puts each box into the first cluster whose fused box overlaps it, and
  keeps running sums per cluster instead of re-summing it on every join.

Overlaps come from one numpy IoU table per class group of at least
`TABLE_MIN` boxes (`_iou_table`). It uses the same IEEE operations as
`geometry.iou`, so each entry equals the scalar call bit for bit; it is
built, used and dropped within the group, and nothing is cached across
calls. Smaller groups call `iou` per pair as the sweep needs it. Sparse
detector output has about 3 boxes per class group, and consensus scoring
fuses such images tens of thousands of times: there, building a table or
any other per-group numpy work costs more than the few scalar calls it
saves, and an always-numpy kernel made a gated WBF pass 2-4x slower. The
crossover measured at about 16 boxes.

WBF emits a cluster of one box as that box's corners and confidence, with
support 1 and the box as its only member. `FusedBox` is a named tuple like
`geometry.Box` (see there), built positionally: consensus scoring builds one
per cluster of every fusion, about 100,000 for three sources on 3,000 images
with Shapley values.

Soft-NMS decays with `math.exp`, one box at a time. `np.exp` is not bound
to round like the C library's `exp`, and on dense detector output it gave
different last bits, which change output bytes.
"""

from __future__ import annotations

import math
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


# Class groups of at least this many boxes read their overlaps from one numpy
# IoU table; smaller groups call `iou` per pair (see the module docstring).
TABLE_MIN = 16


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
    that `key` ties stay in model order.
    """
    by_class: dict[int, list] = {}
    for boxes, w in weighted_sets:
        for idx, b in enumerate(boxes):
            by_class.setdefault(b.cls, []).append((b, idx, w))
    return [(cls, sorted(by_class[cls], key=key)) for cls in sorted(by_class)]


def _iou_table(boxes) -> np.ndarray:
    """Symmetric matrix whose entry [i, j] equals iou(boxes[i], boxes[j]) bit for bit.

    Same IEEE operations as `geometry.iou`: corner max/min, iw * ih,
    (area_i + area_j) - inter with max(0, .) areas, and 0 where the
    intersection is empty or the union is not positive.
    """
    x1, y1, x2, y2 = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).T
    # in-place steps keep the transient n x n arrays few; the results are the same
    iw = np.minimum.outer(x2, x2)
    iw -= np.maximum.outer(x1, x1)
    ih = np.minimum.outer(y2, y2)
    ih -= np.maximum.outer(y1, y1)
    overlap = iw > 0.0
    overlap &= ih > 0.0
    iw *= ih  # the intersection area
    del ih
    area = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    union = np.add.outer(area, area)
    union -= iw
    overlap &= union > 0.0
    table = np.zeros_like(iw)
    np.divide(iw, union, out=table, where=overlap)
    return table


def _nms_keep(boxes, threshold: float) -> list[int]:
    """Positions of the boxes (in priority order) that greedy suppression keeps."""
    kept = []
    if len(boxes) >= TABLE_MIN:
        over = _iou_table(boxes) > threshold
        suppressed = np.zeros(len(boxes), dtype=bool)
        for i in range(len(boxes)):
            if not suppressed[i]:
                kept.append(i)
                suppressed |= over[i]
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
    """
    table = _iou_table(boxes) if len(boxes) >= TABLE_MIN else None
    conf = [b.confidence for b in boxes]
    alive = list(range(len(boxes)))
    picks = []
    while alive:
        top = max(alive, key=conf.__getitem__)
        picks.append((top, conf[top]))
        row = table[top].tolist() if table is not None else None
        survivors = []
        for j in alive:
            if j == top:
                continue
            ov = row[j] if row is not None else iou(boxes[top], boxes[j])
            if ov > 0.0:
                conf[j] *= math.exp(-(ov * ov) / sigma)
            if conf[j] >= floor:
                survivors.append(j)
        alive = survivors
    return picks


def soft_nms(per_model: Sequence[Iterable[Box]], params: FusionParams) -> list[Box]:
    """Gaussian soft-NMS: decay overlapping same-class confidences instead of
    discarding, then drop boxes below params.score_floor."""
    out = []
    for _, group in _class_groups([(boxes, 1.0) for boxes in per_model], _source_order):
        boxes = [b for b, _, _ in group]
        for i, c in _soft_nms_picks(boxes, params.soft_nms_sigma, params.score_floor):
            b, idx, _ = group[i]
            out.append((b if c == b.confidence else b._replace(confidence=c), idx))
    out.sort(key=_priority)
    return [b for b, _ in out]


_NO_SUMS = (0.0,) * 7


def _add_member(s, item) -> tuple:
    """Sums (cw, w, cw*x1, cw*y1, cw*x2, cw*y2, w*conf) with a (box, index, weight) item added.

    cw is confidence * weight. Adding the members in order, starting from
    `_NO_SUMS`, gives the same floats as summing them from scratch.
    """
    b, _, w = item
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


def _wbf_class(cls, group, params: FusionParams, n_active: int, out: list) -> None:
    """Cluster one class group (in weighted priority order) and append its FusedBoxes.

    Each item joins the first cluster whose fused box overlaps it beyond
    params.iou_threshold, else starts a new cluster. A one-member cluster's
    fused box is its box, so the IoU table answers for it when there is one;
    a larger cluster keeps running sums (see `_add_member`), and its fused box
    is built when it is next compared, and compared with `iou`.
    """
    threshold = params.iou_threshold
    table = _iou_table([b for b, _, _ in group]) if len(group) >= TABLE_MIN else None
    clusters: list[list] = []  # member items, in join order
    sums: list = []  # running sums of a cluster with two or more members, else None
    views: list = []  # the box of a one-member cluster, else its fused Box or None
    leaders: list[int] = []  # group position of a one-member cluster's box, else -1
    for i, item in enumerate(group):
        b = item[0]
        row = table[i].tolist() if table is not None else None
        for ci, view in enumerate(views):
            if row is not None and leaders[ci] >= 0:
                ov = row[leaders[ci]]
            else:
                if view is None:
                    view = views[ci] = Box(cls, *_fused(sums[ci], clusters[ci][0][0]))
                ov = iou(b, view)
            if ov > threshold:
                break
        else:
            clusters.append([item])
            sums.append(None)
            views.append(b)
            leaders.append(i)
            continue
        members = clusters[ci]
        members.append(item)
        if sums[ci] is None:
            sums[ci] = _add_member(_NO_SUMS, members[0])
            leaders[ci] = -1
        sums[ci] = _add_member(sums[ci], item)
        views[ci] = None
    rescale = params.confidence_rescale == "support_ratio"
    for members, s in zip(clusters, sums):
        first = members[0][0]
        if s is None:
            x1, y1, x2, y2, conf = first.x1, first.y1, first.x2, first.y2, first.confidence
            n_b = 1
            boxes = (first,)
        else:
            x1, y1, x2, y2, conf = _fused(s, first)
            boxes = tuple([b for b, _, _ in members])
            n_b = len({b.source for b in boxes})
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
    n_active = sum(1 for w in weights if w > 0.0)
    # zero-weight models contribute nothing, including support
    weighted = [(boxes, w) for boxes, w in zip(per_model, weights) if w > 0.0]

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
