"""Box-combination algorithms: NMS, soft-NMS, WBF, and the gated knowledge vote.

All four have one call shape: `fn(per_model, params)`, where
`per_model[m][k]` holds model m's boxes on image k, models in model order.
Every model holds the same number of images (else ValueError), and no model
means no image. Each returns one list per image, in image order: NMS and
soft-NMS the `Box`es they keep, in the priority order below (soft-NMS by
decayed confidence), WBF and the knowledge vote `FusedBox`es. Boxes of
different images or classes never interact. Every function is pure. Only
the knowledge vote reads `params.gates`, the relevance of each class in the
target label space: which classes vote, and how confident a box of each
must be. NMS, soft-NMS and WBF take every box.

NMS, soft-NMS and WBF split the boxes by class and sort each group once, by
the algorithm's priority; then one greedy pass runs over each group. All
three break ties the same way: confidence descending (times the model
weight, for WBF), then the box's source, then its position in its model's
list, then model order.

A sweep visits a box's neighbours: the boxes that overlap it beyond a
threshold, listed once per group by `_neighbours`, the one place that picks
numpy or scalar `iou` by group size. A group of at least `TABLE_MIN` boxes
lists them with numpy (`_overlaps`), pairing each box in x1 order only with
the later ones whose x1 lies below its x2 (about 23% of a `dense-fuse`
group's pairs), with `geometry.iou`'s IEEE operations, so each IoU is
bit-equal to the scalar call. A smaller group, such as the about 3 boxes of
a class group in sparse detector output, calls `iou` once per pair that
passes a four-comparison axis test. The lists live only while their group
is swept.

- NMS: each kept box suppresses its neighbours beyond the threshold.
- Soft-NMS takes the first maximum confidence of the group, kept in
  (source, index) order, from a lazy max-heap, and decays its neighbours
  beyond 0 by exp(-iou^2 / sigma) instead of re-sorting.
- WBF puts each box into the first cluster whose fused box overlaps it,
  with running sums per cluster, and emits a cluster of one box as that
  box's corners and confidence, with support 1.

NMS and soft-NMS sweep one image at a time; WBF fuses its images together.
Sparse detector output has tens of thousands of small class groups, and a
Python sweep per group spends most of its time on overhead. So the images
run in batches (`_batches`: consecutive images with at most `BATCH_BOXES`
boxes, an image with more alone). `_gather` turns a batch's boxes into
numpy columns, grouped by (image, class) and in priority order, and
`_wbf_batch` clusters all its groups at once: step r takes the r-th box of
every group that has one and compares it with all of that group's clusters.
A step compares a box with every earlier cluster of its group, so a group
of at least `TABLE_MIN` boxes is swept alone by `_wbf_clusters`, which
finds through the group's neighbour lists the one-member cluster a box
joins. Both sweeps take `geometry.iou`'s IEEE operations and `_add_member`'s
sums in join order, so they give the same floats. `FusedBox` is a named
tuple like `geometry.Box` (see there): the weighted consensus pass builds
one per cluster, about 18,500 for three sources on 3,000 images.

Soft-NMS decays with `math.exp`, one box at a time. `np.exp` is not bound
to round like the C library's `exp`, and on dense detector output it gave
different last bits, which change output bytes.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NegativeWeightError, WeightArityMismatchError
from .geometry import Box, box_areas, iou, pair_ious


@dataclass(frozen=True)
class ConfidenceGates:
    """The classes of the target label space that vote, and each one's minimum confidence.

    `classes` lists the classes kept, and None keeps every class. A class
    absent from `gates` uses `default_gate`.
    """

    gates: dict[int, float] = field(default_factory=dict)
    default_gate: float = 0.0
    classes: frozenset[int] | None = None

    def __post_init__(self):
        if self.classes is not None and not self.classes:
            raise ConfigError(
                "gates keep no class: a keep_listed filter needs at least one class")

    def gate(self, cls: int) -> float:
        return self.gates.get(cls, self.default_gate)


NO_GATES = ConfidenceGates()


@dataclass(frozen=True)
class FusionParams:
    """Parameter bundle shared by all fusion algorithms.

    Every value rule of the numbers and weights is checked here, so each
    instance is valid, also one made by `dataclasses.replace`; NaN fails every
    check. `wbf` checks the number of weights, which depends on the call. The
    gate values are checked where they are read, by `data_io.parse_manifest`,
    whose message names the class.
    """

    iou_threshold: float = 0.55
    soft_nms_sigma: float = 0.5
    score_floor: float = 0.001
    model_weights: tuple[float, ...] | None = None  # None = uniform
    confidence_rescale: str = "none"  # none | support_ratio
    gates: ConfidenceGates = NO_GATES  # read by knowledge_vote and consensus scoring

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
        if not 0.0 < self.soft_nms_sigma < math.inf:
            raise ConfigError(
                f"fusion.soft_nms_sigma must be finite and > 0, got {self.soft_nms_sigma}")
        if not 0.0 <= self.score_floor <= 1.0:
            raise ConfigError(f"fusion.score_floor must be in [0,1], got {self.score_floor}")


class FusedBox(NamedTuple):
    """A merged box: coordinates, fused confidence, and the number of distinct
    sources among its cluster's members."""

    cls: int
    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float
    support_count: int


def fused_order(f) -> tuple:
    """Sort key of `wbf`'s output, which pseudo-label files keep: confidence
    descending, then class and corners."""
    return (-f.confidence, f.cls, f.x1, f.y1, f.x2, f.y2)


def apply_gates(boxes: Iterable[Box], gates: ConfidenceGates) -> tuple:
    """The boxes, in input order, whose class the gates keep and whose confidence >= its gate.

    A tuple of boxes that all pass is returned as is: no second tuple of the
    same boxes is built or held.
    """
    classes = gates.classes

    def passes(b) -> bool:
        return (classes is None or b.cls in classes) and b.confidence >= gates.gate(b.cls)

    if type(boxes) is tuple and all(map(passes, boxes)):
        return boxes
    return tuple(filter(passes, boxes))


# `_neighbours` lists a class group of at least this many boxes with `_overlaps`,
# a smaller one with `iou` per pair; WBF indexes only such groups. Summed over
# the three sweeps, the two methods measured even at 32-36 boxes.
TABLE_MIN = 32


def _source_order(item):
    return (item[0].source, item[1])


def _priority(item):
    return (-item[0].confidence, item[0].source, item[1])


def _class_groups(per_model, key):
    """(class, items) for each class in ascending order, each group sorted once by `key`.

    An item is (box, index of the box in its model's list), in model order.
    The sort is stable, so items that `key` ties stay in model order. `key`
    is `_priority` for NMS, or `_source_order` for soft-NMS.
    """
    by_class: dict[int, list] = {}
    for boxes in per_model:
        for idx, b in enumerate(boxes):
            by_class.setdefault(b.cls, []).append((b, idx))
    return [(cls, sorted(by_class[cls], key=key)) for cls in sorted(by_class)]


def _overlaps(corners) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, ious) of every pair of boxes that overlap, both ways, in row-then-column order.

    `corners` holds the boxes' x1, y1, x2 and y2 rows. Each IoU equals
    iou(boxes[row], boxes[col]) bit for bit, and a pair is
    listed iff that IoU is > 0; no box is paired with itself. A sweep over
    the boxes sorted by x1 lists only the pairs whose x-intervals can
    intersect: the boxes after a box in that order whose x1 is below its x2.
    Those pairs' IoUs are `geometry.pair_ious`.
    """
    x1, x2 = corners[0], corners[2]
    n = len(x1)
    order = np.argsort(x1, kind="stable")
    # sorted position p pairs with the next counts[p] positions, whose x1 is below its x2
    counts = np.searchsorted(x1[order], x2[order]) - np.arange(1, n + 1)
    np.maximum(counts, 0, out=counts)
    p = np.repeat(np.arange(n), counts)
    k = np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)  # rank within p's run
    i, j = order[p], order[p + 1 + k]
    hit, ov = pair_ious(corners, i, corners, j)
    rows = np.concatenate((i[hit], j[hit]))
    cols = np.concatenate((j[hit], i[hit]))
    by_row = np.argsort(rows * n + cols)
    return rows[by_row], cols[by_row], np.concatenate((ov, ov))[by_row]


def _neighbours(boxes, threshold: float, corners=None) -> list[list[tuple[int, float]]]:
    """Per position, the (position, iou) of every other box that overlaps it
    beyond `threshold`, in position order; each IoU equals `iou`'s bit for bit.

    A group of at least `TABLE_MIN` boxes reads `_overlaps`, of `corners`
    when the caller has the boxes' corners as rows; a smaller one calls
    `iou` once per pair that passes the four-comparison axis test.
    """
    n = len(boxes)
    if n >= TABLE_MIN:
        if corners is None:
            corners = np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).T
        rows, cols, ovs = _overlaps(corners)
        over = ovs > threshold
        starts = np.searchsorted(rows[over], np.arange(n + 1)).tolist()
        edges = list(zip(cols[over].tolist(), ovs[over].tolist()))
        return [edges[starts[i]:starts[i + 1]] for i in range(n)]
    near: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, a in enumerate(boxes):  # row i gets its j < i from the earlier rows' loops
        for j in range(i + 1, n):
            b = boxes[j]
            if a.x1 < b.x2 and b.x1 < a.x2 and a.y1 < b.y2 and b.y1 < a.y2:
                ov = iou(a, b)
                if ov > threshold:
                    near[i].append((j, ov))
                    near[j].append((i, ov))
    return near


def _nms_keep(boxes, threshold: float) -> list[int]:
    """Positions of the boxes (in priority order) that greedy suppression keeps."""
    kept = []
    suppressed = [False] * len(boxes)
    for i, near in enumerate(_neighbours(boxes, threshold)):
        if not suppressed[i]:
            kept.append(i)
            for j, _ in near:
                suppressed[j] = True
    return kept


def nms(per_model: Sequence[Sequence[Iterable[Box]]], params: FusionParams) -> list[list[Box]]:
    """Greedy per-class suppression at params.iou_threshold, image by image."""
    out = []
    for image in zip(*per_model, strict=True):
        kept = []
        for _, group in _class_groups(image, _priority):
            boxes = [b for b, _ in group]
            kept.extend(group[i] for i in _nms_keep(boxes, params.iou_threshold))
        kept.sort(key=_priority)
        out.append([item[0] for item in kept])
    return out


def _soft_nms_picks(boxes, sigma: float, floor: float) -> list[tuple[int, float]]:
    """(position, decayed confidence) of each box soft-NMS keeps, in pick order.

    `boxes` are in (source, index) order, so the first maximum of the
    confidences is the box that the (-confidence, source, index) order puts
    first. Each box still in play has one entry, (-confidence, position), in
    a lazy max-heap, so the least entry is the first maximum. A decay leaves
    the box's entry stale: it stands for a higher confidence, so it is
    popped before the box is due, and the pop pushes the box again at its
    current confidence. A pop skips the entry of a picked or dropped box. A
    pick decays only the live boxes it overlaps (`_neighbours`), each by
    exp(-iou^2 / sigma); a factor that rounds to 1.0 leaves the entry
    current. The first pick is taken before any box is checked against
    `floor`; confidences only fall, so a box below `floor` can drop before
    the first pick, and later only a box just decayed can drop.
    """
    near = _neighbours(boxes, 0.0)
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
        for j, ov in near[top]:
            if alive[j]:
                c = conf[j] = conf[j] * math.exp(-(ov * ov) / sigma)
                if c < floor:
                    alive[j] = False
    return picks


def soft_nms(per_model: Sequence[Sequence[Iterable[Box]]],
             params: FusionParams) -> list[list[Box]]:
    """Gaussian soft-NMS, image by image: decay overlapping same-class
    confidences instead of discarding, then drop boxes below params.score_floor."""
    out = []
    for image in zip(*per_model, strict=True):
        kept = []
        for _, group in _class_groups(image, _source_order):
            boxes = [b for b, _ in group]
            for i, c in _soft_nms_picks(boxes, params.soft_nms_sigma, params.score_floor):
                b, idx = group[i]
                if c != b.confidence:
                    b = Box(b.cls, b.x1, b.y1, b.x2, b.y2, c, b.source)
                kept.append((b, idx))
        kept.sort(key=_priority)
        out.append([b for b, _ in kept])
    return out


_NO_SUMS = (0.0,) * 7


def _add_member(s, row: tuple, w: float) -> tuple:
    """Sums (cw, w, cw*x1, cw*y1, cw*x2, cw*y2, w*conf) with the box `row`,
    (x1, y1, x2, y2, confidence), of weight `w` added.

    cw is confidence * weight. Adding the members in order, starting from
    `_NO_SUMS`, gives the same floats as summing them from scratch.
    """
    cw_sum, w_sum, x1, y1, x2, y2, conf = s
    bx1, by1, bx2, by2, c = row
    cw = c * w
    return (
        cw_sum + cw,
        w_sum + w,
        x1 + cw * bx1,
        y1 + cw * by1,
        x2 + cw * bx2,
        y2 + cw * by2,
        conf + w * c,
    )


def _fused(s, first: tuple) -> tuple[float, float, float, float, float]:
    """Fused (x1, y1, x2, y2, confidence) of a cluster of two or more members.

    Coordinates are the confidence*weight-weighted average; confidence is the
    weight-weighted mean. Without positive mass the box of the first member,
    `first` as (x1, y1, x2, y2, confidence), is kept at confidence 0.
    """
    cw_sum, w_sum, x1, y1, x2, y2, conf = s
    if cw_sum <= 0.0 or w_sum <= 0.0:
        return (*first[:4], 0.0)
    return x1 / cw_sum, y1 / cw_sum, x2 / cw_sum, y2 / cw_sum, conf / w_sum


def _wbf_clusters(cls: int, rows, weights, corners,
                  threshold: float) -> tuple[list[int], list[tuple]]:
    """Cluster one group of at least `TABLE_MIN` boxes of class `cls`, in
    priority order: (the cluster of each box, each cluster's fused (x1, y1,
    x2, y2, confidence)).

    rows[i] is box i's (x1, y1, x2, y2, confidence), and the rows of
    `corners` are the boxes' x1, y1, x2 and y2. Each box joins the first
    cluster whose fused box overlaps it beyond `threshold`, else starts a new
    cluster. The group's over-threshold neighbours are listed first
    (`_neighbours`): clusters are created in group order, so the first
    one-member cluster that box i overlaps is the one led by i's first such
    neighbour j < i that still leads one. Only the clusters of two or more
    members before that one are compared with `iou`, in cluster order,
    skipping one whose fused box misses the box on an axis (`iou` gives 0
    there). Such a cluster keeps running sums (see `_add_member`), and its
    fused box is built by `_fused` when it is next compared. A one-member
    cluster's fused box is its box.
    """
    near = _neighbours(rows, threshold, corners)
    of: list[int] = []  # the cluster of each position
    lead: list[int] = []  # the first position of each cluster
    led = [-1] * len(rows)  # the cluster a position leads, else -1
    sums: list = []  # running sums of a cluster with two or more members, else None
    views: list = []  # the fused Box of a cluster in `scan`, None until it is compared
    scan: list[int] = []  # the clusters of two or more members, ascending
    for i, row in enumerate(rows):
        ci = len(lead)
        for j, _ in near[i]:  # only positions before i lead a cluster yet
            if led[j] >= 0 and sums[led[j]] is None:
                ci = led[j]
                break
        x1, y1, x2, y2, _ = row
        for mi in scan:
            if mi >= ci:
                break
            view = views[mi]
            if view is None:
                view = views[mi] = Box(cls, *_fused(sums[mi], rows[lead[mi]]))
            if (view.x1 < x2 and x1 < view.x2 and view.y1 < y2 and y1 < view.y2
                    and iou(Box(cls, *row), view) > threshold):
                ci = mi
                break
        of.append(ci)
        if ci == len(lead):
            led[i] = ci
            lead.append(i)
            sums.append(None)
            views.append(None)
            continue
        if sums[ci] is None:
            insort(scan, ci)
            sums[ci] = _add_member(_NO_SUMS, rows[lead[ci]], weights[lead[ci]])
        sums[ci] = _add_member(sums[ci], row, weights[i])
        views[ci] = None
    return of, [rows[i] if s is None else _fused(s, rows[i]) for i, s in zip(lead, sums)]


# Boxes per batch of `_wbf_batch`: images are batched in order while their
# boxes fit, and an image with more boxes is a batch of its own. A batch's
# columns and cluster state take about 50 numbers per box, about 1.6 MB at
# this limit.
BATCH_BOXES = 4096


def _batches(sizes: Sequence[int]) -> list[range]:
    """Consecutive ranges of positions, the longest whose `sizes` sum to at
    most BATCH_BOXES, each at least one position long."""
    out = []
    start = total = 0
    for i, n in enumerate(sizes):
        if total + n > BATCH_BOXES and i > start:
            out.append(range(start, i))
            start, total = i, 0
        total += n
    if start < len(sizes):
        out.append(range(start, len(sizes)))
    return out


def _lexsort(keys, tiebreaks) -> np.ndarray:
    """`np.lexsort(tiebreaks + keys)`, sorted on `keys` alone where that gives the same order.

    Both sorts are stable. They differ only where rows that tie on every
    key differ on a tie-break key, and then two such rows are adjacent in
    the order of `keys`: the full sort runs only in that case.
    """
    order = np.lexsort(keys)
    a, b = order[:-1], order[1:]
    tie = np.ones(len(a), bool)
    for key in keys:
        tie &= key[a] == key[b]
    a, b = a[tie], b[tie]
    if any((key[a] != key[b]).any() for key in tiebreaks):
        order = np.lexsort(tiebreaks + keys)
    return order


def _fused_rank(image, cls, box, conf) -> np.ndarray:
    """The order of clusters by image and then `fused_order`, ties in cluster order."""
    return _lexsort((-conf, image), (box[3], box[2], box[1], box[0], cls))


class _Rows(NamedTuple):
    """The boxes of a batch of images as columns, one row per box (see `_gather`)."""

    boxes: list  # the boxes in input order: image, then model, then list position
    order: np.ndarray  # the position in `boxes` of each row
    image: np.ndarray  # the position of the row's image in the batch
    model: np.ndarray
    cls: np.ndarray
    box: np.ndarray  # x1, y1, x2, y2: four rows
    conf: np.ndarray
    weight: np.ndarray
    source: np.ndarray
    starts: np.ndarray  # the first row of each (image, class) group


def _columns(boxes) -> np.ndarray:
    """The boxes as float64 rows (cls, x1, y1, x2, y2, confidence, source).

    float64 holds integers exactly only below 2**53; past that, class ids and
    sources become dense codes in their order, so grouping, priority and
    support stay exact."""
    n = len(boxes)
    try:
        cols = np.fromiter(chain.from_iterable(boxes), float, 7 * n).reshape(n, 7)
        if np.abs(cols[:, ::6]).max() < 2.0**53:  # columns cls and source
            return cols
    except OverflowError:  # an id past the largest float
        pass
    cls, source = ({v: k for k, v in enumerate(sorted({b[i] for b in boxes}))} for i in (0, 6))
    coded = ((cls[b[0]], *b[1:6], source[b[6]]) for b in boxes)
    return np.fromiter(chain.from_iterable(coded), float, 7 * n).reshape(n, 7)


def _gather(lists, weights) -> _Rows | None:
    """The boxes of a batch of images as sorted columns, or None without a box.

    `lists` holds the box lists of each image, one per model in model
    order, image after image, and `weights` one weight per model. The rows
    are grouped by image and then class, and each group is in WBF's
    priority order: confidence times weight descending, then source, then
    position in the model's list, ties in model order. Class ids and sources
    are read as `_columns` gives them.
    """
    lens = np.fromiter(map(len, lists), np.intp, len(lists))
    boxes = list(chain.from_iterable(lists))
    n = len(boxes)
    if not n:
        return None
    cols = _columns(boxes)
    entry = np.repeat(np.arange(len(lists)), lens)  # the list of each box
    index = np.arange(n) - (np.cumsum(lens) - lens)[entry]
    image, model = np.divmod(entry, len(weights))
    weight = np.asarray(weights, dtype=float)[model]
    cls, conf, source = cols[:, 0], cols[:, 5], cols[:, 6]
    # a stable sort, so rows that tie on every key stay in model order
    order = _lexsort((-(conf * weight), cls, image), (index, source))
    image, model, weight = image[order], model[order], weight[order]
    cols = cols[order].T.copy()
    cls = cols[0]
    new = np.ones(n, bool)
    new[1:] = (image[1:] != image[:-1]) | (cls[1:] != cls[:-1])
    return _Rows(boxes, order, image, model, cls, cols[1:5], cols[5], weight, cols[6],
                 np.flatnonzero(new))


class _Clusters(NamedTuple):
    """The WBF clusters of a batch of groups: group by group, each in cluster order."""

    count: np.ndarray  # the clusters of each group
    of_row: np.ndarray  # the cluster of each row
    size: np.ndarray  # the members of each cluster
    box: np.ndarray  # the fused box, four rows; a one-member cluster's box
    conf: np.ndarray
    support: np.ndarray  # the distinct sources of each cluster's members


# builds a named tuple from the tuple of its fields, without its Python-level __new__
_new_tuple = tuple.__new__


def _wbf_batch(box, conf, weight, source, lengths, cls, threshold: float) -> _Clusters:
    """Cluster many class groups at once, as `_wbf_run` does.

    The arguments are `_wbf_run`'s. Groups with more than `BATCH_BOXES` rows
    in all, as the restricted groups of one image of many sources can be,
    are clustered in runs of whole groups of at most that many rows, so
    that one run's cluster state is held at a time.
    """
    lengths = np.asarray(lengths)
    if lengths.sum() <= BATCH_BOXES:
        return _wbf_run(box, conf, weight, source, lengths, cls, threshold)
    parts = []
    ends = np.cumsum(lengths).tolist()
    for run in _batches(lengths.tolist()):
        lo, hi = ends[run.start] - lengths[run.start], ends[run.stop - 1]
        parts.append(_wbf_run(box[:, lo:hi], conf[lo:hi], weight[lo:hi], source[lo:hi],
                              lengths[run.start:run.stop], cls[run.start:run.stop], threshold))
    shift = np.cumsum([0] + [len(p.conf) for p in parts[:-1]])
    parts = [p._replace(of_row=p.of_row + k) for p, k in zip(parts, shift)]
    return _Clusters(*(np.concatenate(field, axis=-1) for field in zip(*parts)))


def _wbf_run(box, conf, weight, source, lengths, cls, threshold: float) -> _Clusters:
    """Cluster many class groups at once: WBF of each group.

    The rows are the boxes of the groups (`box` holds their x1, y1, x2 and
    y2 rows), group after group, and each group in priority order: group g
    has `lengths[g]` rows of class `cls[g]`. Every weight is positive, as
    `wbf` drops the models without. Each box joins the first cluster
    whose fused box overlaps it beyond `threshold`, or opens a new one. A
    group of at least `TABLE_MIN` boxes is swept by `_wbf_clusters`, which
    indexes it. The smaller groups run in lockstep: step r takes the r-th
    box of every group that has one and compares it with all of that
    group's clusters at once.

    Cluster j of group g lives in slot base[g] + j, where base[g] is the
    group's first row; opening a cluster copies its box's row into the slot.
    Every slot starts as the one-member cluster of its own row's box, so a
    slot past a group's clusters still holds a box of the group, and every
    IoU of a step is finite. The arithmetic is that of `_wbf_clusters`: each
    IoU takes `geometry.iou`'s IEEE operations, as `_overlaps` does; a
    cluster's sums add its members' terms in join order, as `_add_member`
    does; and a fused box follows `_fused`. The confidence sum of
    `_add_member` adds w * conf, the same float as its cw = conf * w, so one
    sum serves both.
    """
    n = len(conf)
    lengths = np.asarray(lengths)
    base = np.cumsum(lengths) - lengths
    count = np.minimum(lengths, 1)  # the first box of a group opens its first cluster
    cw = conf * weight
    # Each row's one-member cluster, and each slot's cluster: the fused box
    # (rows 0-3), its area (4), the sums cw, w, cw * x1, y1, x2, y2 (5-10)
    # and the first member's confidence (11).
    own = np.vstack((box, box_areas(box), cw, weight, cw * box, conf))
    own[5:11] += 0.0  # `_add_member` starts from 0.0, which turns a -0.0 term into 0.0
    state = own.copy()
    slot = np.arange(n)

    small = np.flatnonzero(lengths < TABLE_MIN)
    longer = len(small) - np.cumsum(np.bincount(lengths[small]))  # groups longer than r
    small = small[np.argsort(-lengths[small], kind="stable")]  # the longest first
    # the first row and the cluster count of each small group, the longest first
    firsts, counts = base[small], count[small]
    steps = np.arange(TABLE_MIN)
    for r in range(1, len(longer) - 1):
        b = firsts[:longer[r]]
        t = b + r
        k = counts[:len(b)]
        cols = steps[:k.max()]
        cand = b[:, None] + cols  # the slots of each group's clusters, and maybe more
        v = state[:5, cand]
        bt = own[:5, t, None]
        d = np.minimum(v[2:4], bt[2:4])
        d -= np.maximum(v[:2], bt[:2])  # iw and ih
        inter = d[0] * d[1]
        union = bt[4] + v[4]
        union -= inter
        hit = (d[0] > 0.0) & (d[1] > 0.0) & (union > 0.0) & (cols < k[:, None])
        ov = np.zeros_like(inter)
        np.divide(inter, union, out=ov, where=hit)
        hit = ov > threshold
        joins = hit.any(axis=1)
        target = b + np.where(joins, hit.argmax(axis=1), k)
        slot[t] = target
        opens = ~joins
        if opens.any():
            state[:, target[opens]] = own[:, t[opens]]
        if joins.any():
            s = target[joins]
            state[5:11, s] += own[5:11, t[joins]]
            s = s[state[5, s] > 0.0]  # without mass, a cluster keeps its first box
            mean = state[7:11, s] / state[5, s]
            state[:4, s] = mean
            state[4, s] = box_areas(mean)
        k += opens  # after `target`, which reads the counts before the step
    count[small] = counts

    fconf = state[11]
    several = np.bincount(slot, minlength=n) > 1
    fconf[several] = 0.0
    np.divide(state[5], state[6], out=fconf,
              where=several & (state[5] > 0.0) & (state[6] > 0.0))
    for g in np.flatnonzero(lengths >= TABLE_MIN).tolist():
        lo, hi = int(base[g]), int(base[g] + lengths[g])
        rows = list(zip(*box[:, lo:hi].tolist(), conf[lo:hi].tolist()))
        of, fused = _wbf_clusters(int(cls[g]), rows, weight[lo:hi].tolist(), box[:, lo:hi],
                                  threshold)
        k = count[g] = len(fused)
        slot[lo:hi] = np.fromiter(of, np.intp, hi - lo) + lo
        # fconf is state[11]
        state[[0, 1, 2, 3, 11], lo:lo + k] = np.fromiter(
            chain.from_iterable(fused), float, 5 * k).reshape(k, 5).T

    total = int(count.sum())
    cstart = np.cumsum(count) - count
    slots = np.repeat(base - cstart, count) + np.arange(total)
    cluster = np.empty(n, np.intp)
    cluster[slots] = np.arange(total)
    of_row = cluster[slot]
    by = np.lexsort((source, of_row))
    oc, os_ = of_row[by], source[by]
    distinct = np.ones(n, bool)
    distinct[1:] = (oc[1:] != oc[:-1]) | (os_[1:] != os_[:-1])
    support = np.bincount(oc[distinct], minlength=total)
    return _Clusters(count, of_row, np.bincount(of_row, minlength=total), state[:4, slots],
                     fconf[slots], support)


def wbf(per_model: Sequence[Sequence[Collection[Box]]],
        params: FusionParams) -> list[list[FusedBox]]:
    """Weighted box fusion of every image across models, counting distinct supporting sources.

    Models of weight 0 are left out. Per image and class, boxes are
    processed in descending weighted-confidence order; each joins the first
    cluster whose current fused box overlaps it beyond params.iou_threshold,
    else starts a new cluster. A one-member cluster passes its box through
    exactly. The images' class groups run through `_wbf_batch`, in batches
    of images that hold about `BATCH_BOXES` boxes.
    """
    weights = params.model_weights or (1.0,) * len(per_model)
    if len(weights) != len(per_model):
        raise WeightArityMismatchError(f"{len(weights)} weights for {len(per_model)} models")
    kept = [m for m, w in enumerate(weights) if w > 0.0]
    images = list(zip(*per_model, strict=True))
    sizes = [sum(len(image[m]) for m in kept) for image in images]
    rescale = params.confidence_rescale == "support_ratio"
    out = []
    for batch in _batches(sizes):
        out += _wbf_image_batch([images[k][m] for k in batch for m in kept], len(batch),
                                [weights[m] for m in kept], rescale, params.iou_threshold)
    return out


def knowledge_vote(per_model: Sequence[Sequence[Collection[Box]]],
                   params: FusionParams) -> list[list[FusedBox]]:
    """Class-gated, support-counting WBF: gate each model's boxes on each
    image by params.gates, then fuse every image with `wbf`."""
    return wbf([[apply_gates(boxes, params.gates) for boxes in images] for images in per_model],
               params)


def _wbf_image_batch(lists, n_images: int, weights, rescale: bool,
                     threshold: float) -> list[list[FusedBox]]:
    """`wbf` of one batch of images (see `_gather` for `lists`), whose
    models all have a positive weight."""
    rows = _gather(lists, weights)
    if rows is None:
        return [[] for _ in range(n_images)]
    lengths = np.diff(rows.starts, append=len(rows.conf))
    cl = _wbf_batch(rows.box, rows.conf, rows.weight, rows.source, lengths,
                    rows.cls[rows.starts], threshold)
    conf = cl.conf
    if rescale:
        n_active = len(weights)
        conf = conf * (np.minimum(cl.support, n_active) / n_active)
    head = rows.starts[np.repeat(np.arange(len(lengths)), cl.count)]  # each cluster's group
    image = rows.image[head]
    rank = _fused_rank(image, rows.cls[head], cl.box, conf)  # the clusters in output order
    # clusters are numbered in the order of their first rows, so a cluster's
    # first row is one where the running maximum of `of_row` rises
    first = np.flatnonzero(np.diff(np.maximum.accumulate(cl.of_row), prepend=-1))
    firsts = list(map(rows.boxes.__getitem__, rows.order[first[rank]].tolist()))
    # every cluster as a one-member one, which passes its box through: its
    # (cls, x1, y1, x2, y2), and its confidence unless rescaled, are the same objects
    confs = conf[rank].tolist() if rescale else map(itemgetter(5), firsts)
    fused = list(map(_new_tuple, repeat(FusedBox), map(
        tuple.__add__, map(itemgetter(slice(5)), firsts), zip(confs, repeat(1)))))
    more = np.flatnonzero(cl.size[rank] > 1)
    for c, x1, y1, x2, y2, f, n_b in zip(*(v.tolist() for v in (
            more, *cl.box[:, rank[more]], conf[rank[more]], cl.support[rank[more]]))):
        fused[c] = _new_tuple(FusedBox, (firsts[c][0], x1, y1, x2, y2, f, n_b))
    ends = np.cumsum(np.bincount(image, minlength=n_images)).tolist()
    return [fused[a:b] for a, b in zip([0, *ends], ends)]
