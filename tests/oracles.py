"""Independent oracles used by the test suite.

Everything here deliberately re-derives expected values from first
principles (rasterized counting, exhaustive scans, explicit formula
evaluation) rather than calling back into the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np

from boxvote.consensus import SourceDomain
from boxvote.errors import InvalidBoxError
from boxvote.evaluation import GroundTruth
from boxvote.geometry import Box, DetectionSet
from boxvote.synth import (
    BOX_SIZE_RANGE,
    BOXES_PER_IMAGE,
    FP_CONF_RANGE,
    POISON_CONF_RANGE,
    image_ids,
)


def raster_iou(a, b, resolution: int = 1000) -> float:
    """IoU by counting cell centers on a resolution x resolution grid."""
    xs = (np.arange(resolution) + 0.5) / resolution
    ys = (np.arange(resolution) + 0.5) / resolution
    gx, gy = np.meshgrid(xs, ys)

    def mask(box):
        return (gx >= box.x1) & (gx < box.x2) & (gy >= box.y1) & (gy < box.y2)

    ma, mb = mask(a), mask(b)
    union = np.count_nonzero(ma | mb)
    if union == 0:
        return 0.0
    return np.count_nonzero(ma & mb) / union


def interval_iou(a, b) -> float:
    """Closed-form IoU for hand checks (independent arithmetic path)."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area = lambda c: (c.x2 - c.x1) * (c.y2 - c.y1)
    return inter / (area(a) + area(b) - inter)


def check_nms_fixpoint(inputs, kept, iou_threshold) -> bool:
    """A box is kept iff no earlier-priority kept same-class box overlaps it
    beyond the threshold. Priorities: confidence desc, source, input order."""
    order = sorted(
        range(len(inputs)),
        key=lambda k: (-inputs[k].confidence, inputs[k].source, k),
    )
    kept_set = set()
    expected = []
    for k in order:
        b = inputs[k]
        suppressed = any(
            inputs[j].cls == b.cls and interval_iou(inputs[j], b) > iou_threshold
            for j in kept_set
        )
        if not suppressed:
            kept_set.add(k)
            expected.append(b)
    return sorted(expected, key=_box_key) == sorted(kept, key=_box_key)


def oracle_soft_nms(boxes, sigma, score_floor):
    """Gaussian soft-NMS by re-sorting the remaining boxes before every pick.

    Per class: take the first of the remaining boxes by (confidence desc,
    source, input position), multiply each other remaining box's confidence
    by exp(-iou^2 / sigma) when it overlaps the pick (interval_iou, math.exp),
    then drop those below score_floor. Returns the picks with their decayed
    confidences, sorted by (confidence desc, source, input position).
    """
    picks = []
    for cls in sorted({b.cls for b in boxes}):
        remaining = [[b.confidence, b, k] for k, b in enumerate(boxes) if b.cls == cls]
        while remaining:
            remaining.sort(key=lambda t: (-t[0], t[1].source, t[2]))
            top = remaining.pop(0)
            picks.append(top)
            for t in remaining:
                ov = interval_iou(top[1], t[1])
                if ov > 0:
                    t[0] = t[0] * math.exp(-(ov * ov) / sigma)
            remaining = [t for t in remaining if t[0] >= score_floor]
    picks.sort(key=lambda t: (-t[0], t[1].source, t[2]))
    return [Box(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2, confidence=c,
                source=b.source) for c, b, _ in picks]


def oracle_wbf(per_model, weights, iou_threshold):
    """Weighted box fusion by first-fit against fused boxes re-summed from scratch.

    Zero-weight models are left out. Per class, boxes go by weighted
    confidence desc, then source, then position in their model's list; each
    joins the first cluster whose fused box overlaps it beyond the threshold
    (interval_iou), and that cluster's fused box is then recomputed from all
    its members in join order (see `_oracle_fused`). Returns
    (cls, x1, y1, x2, y2, confidence, support count, members) per cluster,
    members being (source, box) in join order, sorted by (confidence desc,
    cls, x1, y1, x2, y2) and otherwise in class, then creation, order.
    """
    candidates = [
        (b, w, k)
        for boxes, w in zip(per_model, weights)
        if w > 0
        for k, b in enumerate(boxes.boxes)
    ]
    out = []
    for cls in sorted({b.cls for b, _, _ in candidates}):
        ordered = sorted(
            (t for t in candidates if t[0].cls == cls),
            key=lambda t: (-(t[0].confidence * t[1]), t[0].source, t[2]),
        )
        clusters = []  # [members, fused]
        for b, w, _ in ordered:
            for cluster in clusters:
                fx1, fy1, fx2, fy2, _ = cluster[1]
                if interval_iou(b, Box(cls, fx1, fy1, fx2, fy2, 0.0)) > iou_threshold:
                    cluster[0].append((b, w))
                    cluster[1] = _oracle_fused(cluster[0])
                    break
            else:
                clusters.append([[(b, w)], _oracle_fused([(b, w)])])
        for members, fused in clusters:
            support = len({b.source for b, _ in members})
            out.append((cls, *fused, support, tuple((b.source, b) for b, _ in members)))
    out.sort(key=lambda f: (-f[5], f[0], f[1], f[2], f[3], f[4]))
    return out


def _oracle_fused(members):
    """Fused (x1, y1, x2, y2, conf) of (box, weight) members, summed in member order.

    One member passes through. Otherwise coordinates are averaged with weight
    confidence * weight and the confidence with weight `weight`; with no
    positive confidence mass the first member's box is kept at confidence 0.
    """
    if len(members) == 1:
        b = members[0][0]
        return b.x1, b.y1, b.x2, b.y2, b.confidence
    mass = total_weight = conf = 0.0
    corners = [0.0, 0.0, 0.0, 0.0]
    for b, w in members:
        mass += b.confidence * w
        total_weight += w
        for i, v in enumerate((b.x1, b.y1, b.x2, b.y2)):
            corners[i] += (b.confidence * w) * v
        conf += w * b.confidence
    if mass <= 0 or total_weight <= 0:
        b = members[0][0]
        return b.x1, b.y1, b.x2, b.y2, 0.0
    return (*(c / mass for c in corners), conf / total_weight)


def _box_key(b):
    return (b.cls, b.x1, b.y1, b.x2, b.y2, b.confidence, b.source)


def fused_box_key(f):
    return (f.cls, f.x1, f.y1, f.x2, f.y2, f.confidence, f.support_count)


def oracle_consensus_quality(subset, target_image_ids, gates, iou_threshold) -> float:
    """Explicit re-derivation of the subset consensus quality.

    Gating, greedy first-fit clustering against the running fused box, and
    the support * confidence sum are all re-implemented here with fsum-based
    statistics recomputed from scratch at every step.
    """
    total = []
    for image_id in target_image_ids:
        candidates = []
        for src in subset:
            dets = src.detections.get(image_id)
            if dets is None:
                continue
            for idx, b in enumerate(dets.boxes):
                if gates.classes is not None and b.cls not in gates.classes:
                    continue
                if b.confidence < gates.gates.get(b.cls, gates.default_gate):
                    continue
                candidates.append((b, idx))
        per_image = []
        for cls in sorted({b.cls for b, _ in candidates}):
            cls_boxes = sorted(
                (t for t in candidates if t[0].cls == cls),
                key=lambda t: (-t[0].confidence, t[0].source, t[1]),
            )
            clusters: list[list[Box]] = []
            for b, _ in cls_boxes:
                placed = False
                for members in clusters:
                    fx1, fy1, fx2, fy2, _ = oracle_fuse_stats(members)
                    view = Box(cls=cls, x1=fx1, y1=fy1, x2=fx2, y2=fy2, confidence=0.0)
                    if interval_iou(b, view) > iou_threshold:
                        members.append(b)
                        placed = True
                        break
                if not placed:
                    clusters.append([b])
            for members in clusters:
                n_b = len({m.source for m in members})
                p_b = oracle_fuse_stats(members)[4]
                per_image.append((p_b, n_b))
        # fixed reduction: confidence descending within the image
        for p_b, n_b in sorted(per_image, key=lambda t: -t[0]):
            total.append(n_b * p_b)
    return math.fsum(total)


def oracle_fuse_stats(members):
    """Fused (x1, y1, x2, y2, conf) of uniformly weighted members, via fsum."""
    if len(members) == 1:
        b = members[0]
        return b.x1, b.y1, b.x2, b.y2, b.confidence
    cw = math.fsum(m.confidence for m in members)
    coords = tuple(
        math.fsum(m.confidence * getattr(m, axis) for m in members) / cw
        for axis in ("x1", "y1", "x2", "y2")
    )
    conf = math.fsum(m.confidence for m in members) / len(members)
    return (*coords, conf)


def oracle_average_precision(matched_flags, num_gt: int) -> float:
    """101-point AP by exhaustive max-scan at every recall grid point."""
    if num_gt == 0:
        return 0.0
    tp = fp = 0
    points = []
    for m in matched_flags:
        tp += 1 if m else 0
        fp += 0 if m else 1
        points.append((tp / num_gt, tp / (tp + fp)))
    total = 0.0
    for step in range(101):
        r = step / 100
        best = 0.0
        for recall, precision in points:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / 101


def oracle_match_flags(fused, gt_entries, iou_threshold):
    """Per ground-truth class: (confidence, matched) for each detection.

    Exhaustive greedy re-derivation over interval_iou. Within each image and
    class, detections go by confidence descending, then ingestion order; each
    scans every still-free ground-truth box of its image and class and takes
    the one of highest IoU (lowest index on ties) if that IoU is positive and
    reaches the threshold. Rows are returned sorted by confidence descending,
    then image id, then rank within the image.
    """
    classes = sorted({g.cls for boxes in gt_entries.values() for g in boxes})
    rows = {c: [] for c in classes}
    for image_id in sorted(fused):
        for cls in classes:
            dets = [d for d in fused[image_id] if d.cls == cls]
            gts = [g for g in gt_entries.get(image_id, ()) if g.cls == cls]
            ranked = sorted(enumerate(dets), key=lambda t: (-t[1].confidence, t[0]))
            free = set(range(len(gts)))
            for rank, (_, d) in enumerate(ranked):
                best = max(((interval_iou(d, gts[g]), -g) for g in free), default=None)
                matched = best is not None and 0 < best[0] and best[0] >= iou_threshold
                if matched:
                    free.remove(-best[1])
                rows[cls].append((d.confidence, image_id, rank, matched))
    return {
        c: [(t[0], t[3]) for t in sorted(r, key=lambda t: (-t[0], t[1], t[2]))]
        for c, r in rows.items()
    }


def oracle_weights(sizes, cf_clamped, target_size):
    """Direct evaluation of the two weighting formulas."""
    alpha_ext = target_size / (target_size + sum(sizes.values()))
    denom = sum(sizes[i] * cf_clamped[i] for i in sizes)
    alpha = {
        i: ((1 - alpha_ext) * (sizes[i] * cf_clamped[i])) / denom for i in sizes
    }
    return alpha_ext, alpha


# geometry.CLAMP_SLOP, restated so that the oracle below shares no code with geometry
ORACLE_SLOP = 1e-6


def _pin(v: float) -> float:
    """v pinned to [0, 1]; a pinned zero is +0.0."""
    if v <= 0.0:
        return 0.0
    if v >= 1.0:
        return 1.0
    return v


def oracle_validate_box(x1, y1, x2, y2, confidence):
    """`validate_box`'s documented rules, stated independently.

    Raises InvalidBoxError with validate_box's message, for the first rule a
    box breaks: each coordinate in turn within ORACLE_SLOP of [0, 1], then the
    confidence in [0, 1], then no inversion beyond ORACLE_SLOP. Otherwise
    returns (corners, changed): each coordinate pinned to [0, 1], a lower
    corner above its upper one lowered onto it, and whether any corner's
    value moved (-0.0 == 0.0). A box whose values do not move must come back
    as the same object with its own fields; a moved one as the pinned corners.
    """
    coords = [x1, y1, x2, y2]
    for v in coords:
        if math.isnan(v) or v < -ORACLE_SLOP or v > 1.0 + ORACLE_SLOP:
            raise InvalidBoxError(f"coordinate {v!r} outside [0,1] beyond slop")
    if math.isnan(confidence) or confidence < 0.0 or confidence > 1.0:
        raise InvalidBoxError(f"confidence {confidence!r} outside [0,1]")
    if x1 > x2 + ORACLE_SLOP or y1 > y2 + ORACLE_SLOP:
        raise InvalidBoxError(f"inverted corners ({x1},{y1},{x2},{y2})")
    pinned = [_pin(v) for v in coords]
    for lo, hi in ((0, 2), (1, 3)):
        if pinned[lo] > pinned[hi]:
            pinned[lo] = pinned[hi]
    changed = any(p != v for p, v in zip(pinned, coords))
    return (tuple(pinned) if changed else tuple(coords)), changed


def random_box(rng, cls=None, source=0, n_classes=3) -> Box:
    """Random valid box on the 1e-3 grid (keeps raster oracles exact)."""
    if cls is None:
        cls = int(rng.integers(0, n_classes))
    x = np.round(np.sort(rng.uniform(0, 1, 2)), 3)
    y = np.round(np.sort(rng.uniform(0, 1, 2)), 3)
    if x[0] == x[1]:
        x[1] = min(1.0, x[1] + 0.001)
    if y[0] == y[1]:
        y[1] = min(1.0, y[1] + 0.001)
    conf = round(float(rng.uniform(0.01, 1.0)), 6)
    return Box(cls=cls, x1=float(x[0]), y1=float(y[0]), x2=float(x[1]),
               y2=float(y[1]), confidence=conf, source=source)


# The scenario generator as it was before its draws were batched: one numpy call
# per draw (`uniform`, `choice`, `np.clip`). It fixes which values each spec
# draws from the PCG64 stream and in what order. Valid specs only: it checks
# nothing.


def _oracle_random_box(rng, cls: int, source: int, conf: float) -> Box:
    w = rng.uniform(*BOX_SIZE_RANGE)
    h = rng.uniform(*BOX_SIZE_RANGE)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return Box(
        cls=cls,
        x1=cx - w / 2,
        y1=cy - h / 2,
        x2=cx + w / 2,
        y2=cy + h / 2,
        confidence=conf,
        source=source,
    )


def _oracle_jitter(rng, gt: Box, noise: float, source: int, conf: float) -> Box:
    # draw all four offsets even when noise is 0 to keep the stream layout fixed
    dx1, dy1, dx2, dy2 = rng.normal(0.0, 1.0, 4) * noise
    x1, x2 = sorted((gt.x1 + dx1, gt.x2 + dx2))
    y1, y2 = sorted((gt.y1 + dy1, gt.y2 + dy2))
    clamp = lambda v: min(1.0, max(0.0, v))
    return Box(
        cls=gt.cls,
        x1=clamp(x1),
        y1=clamp(y1),
        x2=clamp(x2),
        y2=clamp(y2),
        confidence=conf,
        source=source,
    )


def oracle_generate(spec):
    """Ground truth and per-source detections of a valid spec, one numpy call per draw."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    ids = image_ids(spec.num_images)
    class_ids = [c.id for c in spec.classes]
    freq = np.array([c.frequency for c in spec.classes], dtype=float)
    freq /= freq.sum()
    lo, hi = BOXES_PER_IMAGE

    gt_entries: dict[str, tuple[Box, ...]] = {}
    for image_id in ids:
        n = int(rng.integers(lo, hi + 1))
        boxes = []
        for _ in range(n):
            cls = class_ids[int(rng.choice(len(class_ids), p=freq))]
            boxes.append(_oracle_random_box(rng, cls, source=0, conf=1.0))
        gt_entries[image_id] = tuple(boxes)
    gt = GroundTruth(entries=gt_entries)

    domains = []
    for src_idx, src in enumerate(spec.sources, start=1):
        detections: dict[str, DetectionSet] = {}
        for image_id in ids:
            boxes: list[Box] = []
            if src.poisonous:
                k = int(rng.poisson(src.fp_rate))
                for _ in range(k):
                    conf = float(rng.uniform(*POISON_CONF_RANGE))
                    boxes.append(
                        _oracle_random_box(rng, int(rng.choice(class_ids)), src_idx, conf)
                    )
            else:
                for gt_box in gt_entries[image_id]:
                    p = src.detect_prob.get(gt_box.cls, 1.0)
                    if rng.random() < p:
                        conf = float(
                            np.clip(rng.normal(src.conf_mean, src.conf_std), 0.05, 1.0)
                        )
                        boxes.append(
                            _oracle_jitter(rng, gt_box, src.coord_noise, src_idx, conf)
                        )
                k = int(rng.poisson(src.fp_rate))
                for _ in range(k):
                    conf = float(rng.uniform(*FP_CONF_RANGE))
                    boxes.append(
                        _oracle_random_box(rng, int(rng.choice(class_ids)), src_idx, conf)
                    )
            detections[image_id] = DetectionSet(image_id, tuple(boxes))
        domains.append(
            SourceDomain(
                source_id=src_idx,
                name=src.name,
                dataset_size=src.dataset_size,
                detections=detections,
            )
        )
    return gt, domains
