"""Independent oracles used by the test suite.

Everything here deliberately re-derives expected values from first
principles (rasterized counting, exhaustive scans, explicit formula
evaluation) rather than calling back into the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np

from boxvote.geometry import Box


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


def _box_key(b):
    return (b.cls, b.x1, b.y1, b.x2, b.y2, b.confidence, b.source)


def fused_box_key(f):
    return (f.cls, f.x1, f.y1, f.x2, f.y2, f.confidence, f.support_count)


def oracle_consensus_quality(
    subset, target_image_ids, gates, flt, iou_threshold
) -> float:
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
                if not flt.keeps(b.cls):
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
