"""Box-combination algorithms: NMS, soft-NMS, WBF, and the gated knowledge vote.

All four have one call shape: `fn(per_model, params)`, where
`per_model[m][k]` holds model m's boxes on image k, models in model order.
Every model holds the same number of images (else ValueError), and no model
means no image. A model's images are a `geometry.ImageRows`, whose table
columns are read in place, or any sequence of box collections, which
`geometry.box_columns` converts once (a NaN confidence is a ValueError
there). Each returns one list per image, in image order: NMS and soft-NMS
the `Box`es they keep, in the priority order below (soft-NMS by decayed
confidence), WBF and the knowledge vote `FusedBox`es. Every output box is
built from the columns: equal to its input box, not the same object. Boxes
of different images or classes never interact. Every function is pure. Only
the knowledge vote reads `params.gates`, the relevance of each class in the
target label space: which classes vote, and how confident a box of each
must be (`ConfidenceGates.mask`, one mask per model). NMS, soft-NMS and WBF
take every box.

NMS, soft-NMS and WBF fuse their images in batches (`_batches`: consecutive
images with at most `BATCH_BOXES` boxes, an image with more alone), as a
Python pass per class group would spend most of its time on overhead on the
tens of thousands of small groups of sparse detector output. `_gather`
takes a batch's rows from each model's columns, grouped by (image, class),
each group sorted once by priority: confidence descending (times the model
weight, for WBF), then the box's source, then its position in its model's
list, then model order. Class ids and sources stay exact (int64, or Python
ints past it), so ids past 2**53 never merge. One greedy pass runs over
each group. NMS and soft-NMS give each image's boxes in that order, then
class, then model.

A sweep visits a box's neighbours, the boxes of its group that overlap it
beyond a threshold, listed by `_neighbours` from one numpy pass over a
batch's groups (`_overlaps`). Sorted by x1 within its group, each box is
paired only with the later ones whose x1 lies below its x2 (about 23% of a
`dense-fuse` group's pairs), with `geometry.iou`'s IEEE operations. The
lists are built in chunks of whole groups of about `PAIR_CHUNK` pairs.

- NMS: each kept box suppresses its neighbours beyond the threshold.
- Soft-NMS takes the first maximum confidence of the group, in (source,
  index, model) order, from a lazy max-heap, and decays its neighbours
  beyond 0 by exp(-iou^2 / sigma) instead of re-sorting.
- WBF puts each box into the first cluster whose fused box overlaps it,
  with running sums per cluster, and emits a cluster of one box as that
  box's corners and confidence, with support 1.

`_wbf_batch` clusters a batch's groups at once: step r takes the r-th box
of every group that has one and compares it with all of that group's
clusters. So a group of at least `TABLE_MIN` boxes is swept alone by
`_wbf_clusters`, which finds through the group's neighbours the one-member
cluster a box joins. Both sweeps take `geometry.iou`'s IEEE operations and
`_add_member`'s sums in join order, so they give the same floats.
`FusedBox` is a named tuple like `geometry.Box` (see there): the weighted
consensus pass builds one per cluster, about 18,500 for three sources on
3,000 images.

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
from itertools import chain, compress
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NegativeWeightError, WeightArityMismatchError
from .geometry import Box, ImageRows, box_areas, iou, named_rows, pair_chunks, pair_ious


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

    def mask(self, cls: np.ndarray, conf: np.ndarray) -> np.ndarray:
        """Whether each box, of class cls[i] and confidence conf[i], passes:
        its class is kept, and its confidence is >= its class's gate."""
        gate = np.full(len(conf), self.default_gate)
        for c, g in self.gates.items():
            gate[cls == c] = g
        keep = conf >= gate
        if self.classes is not None:
            listed = np.zeros(len(cls), bool)
            for c in self.classes:
                listed |= cls == c
            keep &= listed
        return keep


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
    same boxes is built or held. The rule is `ConfidenceGates.mask`, which
    the knowledge vote and consensus scoring apply to whole tables.
    """
    given, boxes = boxes, tuple(boxes)
    keep = gates.mask(np.array([b.cls for b in boxes], dtype=object),
                      np.array([b.confidence for b in boxes], float))
    if given is boxes and keep.all():
        return boxes
    return tuple(compress(boxes, keep.tolist()))


# `_wbf_run` sweeps a class group of at least this many boxes alone, through
# its neighbour lists (`_wbf_clusters`), and the smaller groups in lockstep.
TABLE_MIN = 32

# Candidate pairs per chunk of `_overlaps`, which holds one chunk's pairs at a time.
PAIR_CHUNK = 4096


def _overlaps(box, starts, threshold: float):
    """Yield (a, b, rows, cols, ious) per chunk of whole groups of about
    PAIR_CHUNK candidate pairs, rows a to b - 1: every pair of rows of one
    group whose IoU is > `threshold` (>= 0), both ways, in row-then-column
    order, each IoU bit-equal to `iou`'s (`geometry.pair_ious`).

    `box` holds the rows' x1, y1, x2 and y2 rows; group g starts at row
    starts[g]. Sorted by x1, each row pairs with the later rows of its group
    whose x1 is below its x2. The sort key is an integer, the group times
    (n + 1) plus the rank of x1, so no search leaves its group, at any corners.
    """
    x1, x2 = box[0], box[2]
    n = len(x1)
    base = np.repeat(np.arange(len(starts)) * (n + 1), np.diff(starts, append=n))
    ranks = np.sort(x1)
    key = base + np.searchsorted(ranks, x1)
    order = np.argsort(key, kind="stable")  # keeps each group at its rows
    # sorted position p pairs with the next counts[p] positions
    counts = np.searchsorted(key[order], base[order] + np.searchsorted(ranks, x2[order]))
    counts -= np.arange(1, n + 1)
    np.maximum(counts, 0, out=counts)
    for a, b, p, q in pair_chunks(np.arange(1, n + 1), counts, PAIR_CHUNK, starts):
        i, j = order[p], order[q]
        hit, ov = pair_ious(box, i, box, j)
        over = ov > threshold
        rows = np.concatenate((i[hit[over]], j[hit[over]]))
        cols = np.concatenate((j[hit[over]], i[hit[over]]))
        by_row = np.argsort(rows * n + cols)
        yield a, b, rows[by_row], cols[by_row], np.concatenate((ov[over], ov[over]))[by_row]


def _neighbours(box, starts, threshold: float):
    """Yield (a, b, near) per chunk of `_overlaps`: near[i] lists the (j, iou)
    of each row a + j that overlaps row a + i beyond `threshold`, in row order."""
    for a, b, rows, cols, ovs in _overlaps(box, starts, threshold):
        bounds = np.searchsorted(rows, np.arange(a, b + 1)).tolist()
        edges = list(zip((cols - a).tolist(), ovs.tolist()))
        yield a, b, [edges[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def nms(per_model: Sequence[Sequence[Collection[Box]]], params: FusionParams) -> list[list[Box]]:
    """Greedy per-class suppression at params.iou_threshold.

    A kept box suppresses its neighbours beyond the threshold, so no box
    suppresses a kept box: a later box that overlaps it is suppressed first.
    """
    def keep(rows):
        suppressed = np.empty(len(rows.conf), bool)
        for a, b, near in _neighbours(rows.box, rows.starts, params.iou_threshold):
            out = [False] * (b - a)
            for i, nb in enumerate(near):
                if not out[i]:
                    for j, _ in nb:
                        out[j] = True
            suppressed[a:b] = out
        return ~suppressed, rows.conf
    return _sweep(per_model, keep)


def soft_nms(per_model: Sequence[Sequence[Collection[Box]]],
             params: FusionParams) -> list[list[Box]]:
    """Gaussian soft-NMS: decay overlapping same-class confidences instead
    of discarding, then drop boxes below params.score_floor.

    A group's first pick, its first box in priority order, is taken before
    any box is checked against the floor. Each box in play has one entry,
    (-confidence, place, box), in a lazy max-heap of its group, where place
    is its rank in (source, index, model) order, so the least entry is the
    first maximum.
    A pick decays only the live boxes it overlaps, each by exp(-iou^2 /
    sigma), which leaves their entries stale: a stale entry pops before its
    box is due and pushes the box again at its current confidence. A pop
    skips a picked or dropped box. Confidences only fall, so later only a
    box just decayed can drop below the floor.
    """
    sigma, floor = params.soft_nms_sigma, params.score_floor

    def keep(rows):
        live = rows.conf >= floor
        live[rows.starts] = True
        places = np.argsort(np.lexsort((rows.model, rows.index, rows.source, rows.cls,
                                        rows.image)))
        picked, decayed = [], []
        for a, b, near in _neighbours(rows.box, rows.starts, 0.0):
            conf, alive, place = rows.conf[a:b].tolist(), live[a:b].tolist(), places[a:b].tolist()
            took = [False] * (b - a)
            first, last = np.searchsorted(rows.starts, (a, b))
            heads = [*(rows.starts[first:last] - a).tolist(), b - a]  # the chunk's groups
            for lo, hi in zip(heads, heads[1:]):
                heap = [(-conf[j], place[j], j) for j in range(lo, hi) if alive[j]]
                heapq.heapify(heap)
                while heap:
                    neg, _, top = heapq.heappop(heap)
                    if not alive[top]:
                        continue
                    c = conf[top]
                    if -neg != c:
                        heapq.heappush(heap, (-c, place[top], top))
                        continue
                    alive[top] = False
                    took[top] = True
                    for j, ov in near[top]:
                        if alive[j]:
                            c = conf[j] = conf[j] * math.exp(-(ov * ov) / sigma)
                            if c < floor:
                                alive[j] = False
            picked += took
            decayed += conf
        return picked, np.array(decayed)
    return _sweep(per_model, keep)


def _sweep(per_model, keep) -> list[list[Box]]:
    """NMS or soft-NMS of every image. `keep(rows)` takes a batch's `_gather`
    at uniform weights and gives (whether it keeps each row, each row's
    confidence after). Each image's kept boxes are sorted by that confidence
    descending, source, list position, class and model."""
    models = _models(per_model)
    weights = (1.0,) * len(models)
    out = []
    for images in _image_batches(models, range(len(models))):
        rows = _gather(models, images, weights)
        if rows is None:
            out += [[] for _ in images]
            continue
        kept, conf = keep(rows)
        k = np.flatnonzero(kept)
        image = rows.image[k]
        k = k[_lexsort((-conf[k], image),
                       (rows.model[k], rows.cls[k], rows.index[k], rows.source[k]))]
        boxes = named_rows(Box, rows.cls[k], rows.box[:, k], conf[k], rows.source[k])
        ends = np.cumsum(np.bincount(image, minlength=len(images))).tolist()
        out += [boxes[lo:hi] for lo, hi in zip([0, *ends], ends)]
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
    (_, _, near), = _neighbours(corners, np.zeros(1, np.intp), threshold)
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


def _models(per_model) -> list[ImageRows]:
    """Each model's images as table rows (`geometry.ImageRows.of`), which
    must all hold the same number of images."""
    models = [ImageRows.of(images) for images in per_model]
    if len({len(m) for m in models}) > 1:
        raise ValueError(f"models hold different numbers of images: {[len(m) for m in models]}")
    return models


def _image_batches(models: Sequence[ImageRows], kept: Sequence[int]) -> list[range]:
    """The batches (`_batches`) of the images, sized by the boxes of the models `kept`."""
    sizes = np.zeros(len(models[0]) if models else 0, np.intp)
    for m in kept:
        sizes += models[m].sizes()
    return _batches(sizes.tolist())


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

    image: np.ndarray  # the position of the row's image in the batch
    model: np.ndarray
    cls: np.ndarray  # exact: int64, or an object array past int64
    box: np.ndarray  # x1, y1, x2, y2: four rows
    conf: np.ndarray
    weight: np.ndarray
    source: np.ndarray  # exact, as `cls`
    index: np.ndarray  # the position of the row's box in its model's list
    starts: np.ndarray  # the first row of each (image, class) group


def _gather(models: Sequence[ImageRows], images: range, weights) -> _Rows | None:
    """The boxes of a batch of images as sorted columns, or None without a box.

    `models` holds each model's images, and `weights` one weight per model.
    The rows are grouped by image and then class, and each group is in WBF's
    priority order: confidence times weight descending, then source, then
    position in the model's list, ties in model order.
    """
    parts = [m.rows(images.start, images.stop) for m in models]
    counts = [len(row) for _, row, _ in parts]
    if not sum(counts):
        return None

    def column(name):
        return np.concatenate([getattr(m.table, name)[..., row]
                               for m, (_, row, _) in zip(models, parts)], axis=-1)

    cls, box, conf, source = map(column, ("cls", "box", "conf", "source"))
    image = np.concatenate([image for image, _, _ in parts])
    index = np.concatenate([place for _, _, place in parts])
    model = np.repeat(np.arange(len(models)), counts)
    weight = np.asarray(weights, dtype=float)[model]
    # a stable sort, so rows that tie on every key stay in model order
    order = _lexsort((-(conf * weight), cls, image), (index, source))
    image, cls = image[order], cls[order]
    new = np.ones(len(order), bool)
    new[1:] = (image[1:] != image[:-1]) | (cls[1:] != cls[:-1])
    return _Rows(image, model[order], cls, box.take(order, axis=1), conf[order], weight[order],
                 source[order], index[order], np.flatnonzero(new))


class _Clusters(NamedTuple):
    """The WBF clusters of a batch of groups: group by group, each in cluster order."""

    count: np.ndarray  # the clusters of each group
    of_row: np.ndarray  # the cluster of each row
    box: np.ndarray  # the fused box, four rows; a one-member cluster's box
    conf: np.ndarray
    support: np.ndarray  # the distinct sources of each cluster's members


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
    return _Clusters(count, of_row, state[:4, slots], fconf[slots], support)


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
    models = _models(per_model)
    kept = [m for m, w in enumerate(weights) if w > 0.0]
    rescale = params.confidence_rescale == "support_ratio"
    out = []
    for images in _image_batches(models, kept):
        out += _wbf_image_batch([models[m] for m in kept], images, [weights[m] for m in kept],
                                rescale, params.iou_threshold)
    return out


def knowledge_vote(per_model: Sequence[Sequence[Collection[Box]]],
                   params: FusionParams) -> list[list[FusedBox]]:
    """Class-gated, support-counting WBF: gate each model's boxes by
    params.gates (`ConfidenceGates.mask`), then fuse every image with `wbf`."""
    return wbf([gated(images, params.gates) for images in per_model], params)


def gated(images, gates: ConfidenceGates) -> ImageRows:
    """A model's images (`geometry.ImageRows.of`) with only the boxes that pass `gates`."""
    images = ImageRows.of(images)
    return images.where(gates.mask(images.table.cls, images.table.conf))


def _wbf_image_batch(models, images: range, weights, rescale: bool,
                     threshold: float) -> list[list[FusedBox]]:
    """`wbf` of one batch of images (see `_gather`), whose models all have a
    positive weight."""
    rows = _gather(models, images, weights)
    if rows is None:
        return [[] for _ in images]
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
    # a one-member cluster's box and confidence are its box's own floats
    fused = named_rows(FusedBox, rows.cls[head[rank]], cl.box[:, rank], conf[rank],
                       cl.support[rank])
    ends = np.cumsum(np.bincount(image, minlength=len(images))).tolist()
    return [fused[a:b] for a, b in zip([0, *ends], ends)]
