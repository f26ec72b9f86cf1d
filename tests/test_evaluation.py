import numpy as np
import pytest

from boxvote.errors import EmptyGroundTruthError
from boxvote.evaluation import (
    DEFAULT_F1_GRID,
    MAP_IOU_THRESHOLDS,
    GroundTruth,
    GroundTruthBox,
    average_precision,
    evaluate,
    f1_curve,
    match_detections,
)
from boxvote.geometry import Box, iou
from oracles import oracle_average_precision, oracle_match_flags, random_box


def det(x1, y1, x2, y2, conf, cls=0):
    return Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf)


def gt_box(x1, y1, x2, y2, cls=0):
    return GroundTruthBox(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2)


class TestMatchDetections:
    def test_exact_hit(self):
        out = match_detections([det(0, 0, 1, 1, 0.9)], [gt_box(0, 0, 1, 1)], 0.5)
        assert out == [(det(0, 0, 1, 1, 0.9), True)]

    def test_double_detection_rule(self):
        d1 = det(0, 0, 1, 1, 0.9)
        d2 = det(0, 0, 1, 1, 0.8)
        out = match_detections([d2, d1], [gt_box(0, 0, 1, 1)], 0.5)
        assert out == [(d1, True), (d2, False)]

    def test_crossing_case_greedy(self):
        # A overlaps gt1 (0.6) and gt2 (0.55); B overlaps gt1 (0.58) less than A
        gt1 = gt_box(0, 0, 1, 1)
        gt2 = gt_box(0.27, 0, 0.6, 1)
        a = det(0, 0, 0.6, 1, 0.9)
        b = det(0, 0, 1, 0.58, 0.8)
        assert iou(a, gt1) == pytest.approx(0.6)
        assert iou(a, gt2) == pytest.approx(0.55)
        assert iou(b, gt1) == pytest.approx(0.58)
        out = match_detections([a, b], [gt1, gt2], 0.5)
        assert out[0] == (a, True)
        assert out[1] == (b, False)
        # but gt1 must have gone to A (its higher-iou choice), not gt2
        out_single = match_detections([a], [gt1, gt2], 0.5)
        assert out_single == [(a, True)]

    def test_iou_equal_to_threshold_matches(self):
        # dyadic corners: the IoUs are exactly 0.5 and 0.75
        g = gt_box(0, 0, 1, 1)
        assert match_detections([det(0, 0, 0.5, 1, 0.9)], [g], 0.5)[0][1] is True
        assert match_detections([det(0, 0, 0.75, 1, 0.9)], [g], 0.75)[0][1] is True
        assert match_detections([det(0, 0, 0.75, 1, 0.9)], [g], 0.8)[0][1] is False

    def test_iou_tie_goes_to_lower_index(self):
        # d overlaps both boxes at exactly 2/3; e overlaps only g1 above 0.6
        g0 = gt_box(0, 0, 0.75, 1)
        g1 = gt_box(0.25, 0, 1, 1)
        d = det(0.25, 0, 0.75, 1, 0.9)
        e = det(0.25, 0, 1, 1, 0.8)
        assert iou(d, g0) == iou(d, g1) == 2 / 3
        assert iou(e, g0) == 0.5
        assert match_detections([e, d], [g0, g1], 0.6) == [(d, True), (e, True)]
        assert match_detections([e, d], [g1, g0], 0.6) == [(d, True), (e, False)]


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision([True, True, True], 3) == 1.0

    def test_no_detections(self):
        assert average_precision([], 5) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([True], 0) == 0.0

    def test_matched_then_false_positive(self):
        # PR points (1.0, 1.0) then (0.5, 1.0): interpolated AP stays 1.0
        assert average_precision([True, False], 1) == 1.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(0, 21))
            flags = [bool(rng.random() < 0.6) for _ in range(n)]
            num_gt = int(rng.integers(sum(flags), sum(flags) + 8))
            got = average_precision(flags, num_gt)
            want = oracle_average_precision(flags, num_gt)
            assert got == pytest.approx(want, abs=1e-12)
            assert 0.0 <= got <= 1.0


def perfect_fixture(n_images=3, n_classes=3, seed=5):
    rng = np.random.default_rng(seed)
    gt_entries = {}
    fused = {}
    for j in range(n_images):
        iid = f"img{j}"
        boxes = [random_box(rng, cls=c) for c in range(n_classes)]
        gt_entries[iid] = tuple(
            GroundTruthBox(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2)
            for b in boxes
        )
        fused[iid] = [
            Box(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2, confidence=1.0)
            for b in boxes
        ]
    return fused, GroundTruth(entries=gt_entries)


class TestEvaluate:
    def test_perfect_detector_all_ones(self):
        fused, gt = perfect_fixture()
        report = evaluate(fused, gt, 0.0001)
        agg = report.aggregate
        assert (agg.precision, agg.recall, agg.ap50, agg.ap5095) == (1, 1, 1, 1)

    def test_threshold_above_one_degenerates(self):
        fused, gt = perfect_fixture()
        report = evaluate(fused, gt, 1.1)
        assert report.aggregate.precision == 0.0
        assert report.aggregate.recall == 0.0

    def test_one_missed_box_recall(self):
        # class 2 has 4 gt boxes, one undetected; other classes fully covered
        gt_entries = {"img": tuple(
            [gt_box(0.1 * k, 0.1 * k, 0.1 * k + 0.08, 0.1 * k + 0.08, cls=2) for k in range(4)]
            + [gt_box(0.7, 0.7, 0.9, 0.9, cls=0), gt_box(0.7, 0.1, 0.9, 0.3, cls=1)]
        )}
        gt = GroundTruth(entries=gt_entries)
        fused = {"img": [
            Box(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2, confidence=0.9)
            for b in gt_entries["img"][1:]
        ]}
        report = evaluate(fused, gt, 0.0001)
        assert report.per_class[2].recall == 0.75
        assert report.per_class[0].recall == 1.0
        assert report.per_class[1].recall == 1.0

    def test_empty_ground_truth_raises(self):
        with pytest.raises(EmptyGroundTruthError):
            evaluate({}, GroundTruth(entries={"img": ()}), 0.1)

    def test_classes_absent_from_gt_excluded(self):
        gt = GroundTruth(entries={"img": (gt_box(0, 0, 0.5, 0.5, cls=0),)})
        fused = {"img": [
            det(0, 0, 0.5, 0.5, 0.9, cls=0),
            det(0.6, 0.6, 1, 1, 0.9, cls=7),  # no gt for class 7
        ]}
        report = evaluate(fused, gt, 0.0001)
        assert 7 not in report.per_class
        assert report.aggregate.precision == 1.0

    def test_image_shuffle_invariance(self):
        rng = np.random.default_rng(111)
        fused, gt = {}, {}
        for j in range(6):
            iid = f"i{j}"
            gt[iid] = tuple(
                GroundTruthBox(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2)
                for b in (random_box(rng) for _ in range(3))
            )
            fused[iid] = [random_box(rng) for _ in range(4)]
        base = evaluate(fused, GroundTruth(entries=gt), 0.1)
        order = list(fused)[::-1]
        shuffled = evaluate(
            {k: fused[k] for k in order},
            GroundTruth(entries={k: gt[k] for k in order}),
            0.1,
        )
        assert base == shuffled

    def test_recall_monotone_in_threshold(self):
        rng = np.random.default_rng(112)
        for _ in range(60):
            fused, gt = {}, {}
            for j in range(3):
                iid = f"i{j}"
                gt[iid] = tuple(
                    GroundTruthBox(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2)
                    for b in (random_box(rng) for _ in range(int(rng.integers(1, 4))))
                )
                fused[iid] = [random_box(rng) for _ in range(int(rng.integers(0, 5)))]
            gtobj = GroundTruth(entries=gt)
            last = None
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                r = evaluate(fused, gtobj, t).aggregate.recall
                if last is not None:
                    assert r <= last + 1e-12
                last = r


class TestF1Curve:
    def test_perfect_detector_flat_one(self):
        fused, gt = perfect_fixture()
        curve = f1_curve(evaluate(fused, gt, 0.0).matches, [0.1, 0.5, 0.9])
        assert all(p[2] == 1.0 for p in curve.points)

    def test_empty_detections_zero(self):
        _, gt = perfect_fixture()
        curve = f1_curve(evaluate({}, gt, 0.0).matches, [0.0001])
        assert curve.points[0][2] == 0.0

    def test_pointwise_consistency_with_evaluate(self):
        rng = np.random.default_rng(121)
        fused, gt = {}, {}
        for j in range(4):
            iid = f"i{j}"
            gt[iid] = tuple(
                GroundTruthBox(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2)
                for b in (random_box(rng) for _ in range(2))
            )
            fused[iid] = [random_box(rng) for _ in range(5)]
        gtobj = GroundTruth(entries=gt)
        grid = [0.05, 0.3, 0.6, 0.85]
        curve = f1_curve(evaluate(fused, gtobj, 0.0).matches, grid)
        for c_thresh, f1_by_class, _ in curve.points:
            report = evaluate(fused, gtobj, c_thresh)
            for cls, f1 in f1_by_class.items():
                p = report.per_class[cls].precision
                r = report.per_class[cls].recall
                want = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
                assert f1 == pytest.approx(want, abs=1e-12)

    def test_grid_must_be_ascending(self):
        _, gt = perfect_fixture()
        matches = evaluate({}, gt, 0.0).matches
        with pytest.raises(ValueError):
            f1_curve(matches, [0.5, 0.4])
        with pytest.raises(ValueError):
            f1_curve(matches, [])

    def test_same_curve_whatever_the_evaluate_threshold(self):
        # the shared match covers every detection, not only those evaluate keeps
        rng = np.random.default_rng(122)
        fused, gt = overlapping_fixture(rng, n_images=6)
        assert max(d.confidence for dets in fused.values() for d in dets) < 1.0
        curves = [
            f1_curve(evaluate(fused, gt, t).matches, DEFAULT_F1_GRID).points
            for t in (0.0, 0.3, 0.5, 0.9, 1.0)
        ]
        assert any(f1 > 0.0 for _, _, f1 in curves[0])
        assert all(c == curves[0] for c in curves[1:])


TIED_CONFIDENCES = (0.3, 0.5, 0.5, 0.9)


def overlapping_fixture(rng, n_images=4):
    """Ground truth plus detections jittered off it, duplicated, and random,
    with about half the confidences drawn from a few tied values."""
    gt, fused = {}, {}
    for j in range(n_images):
        iid = f"im{j}"
        boxes = [random_box(rng) for _ in range(int(rng.integers(0, 5)))]
        gt[iid] = tuple(
            GroundTruthBox(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2) for b in boxes
        )
        dets = [random_box(rng) for _ in range(int(rng.integers(0, 3)))]
        for b in boxes:
            for _ in range(int(rng.integers(0, 4))):
                dx1, dy1, dx2, dy2 = rng.uniform(-0.06, 0.06, 4)
                x1 = min(0.998, max(0.0, round(b.x1 + dx1, 3)))
                y1 = min(0.998, max(0.0, round(b.y1 + dy1, 3)))
                x2 = min(1.0, max(x1 + 0.001, round(b.x2 + dx2, 3)))
                y2 = min(1.0, max(y1 + 0.001, round(b.y2 + dy2, 3)))
                dets.append(Box(cls=b.cls, x1=x1, y1=y1, x2=x2, y2=y2,
                                confidence=b.confidence))
        fused[iid] = [
            d if rng.random() < 0.5
            else Box(cls=d.cls, x1=d.x1, y1=d.y1, x2=d.x2, y2=d.y2,
                     confidence=float(rng.choice(TIED_CONFIDENCES)))
            for d in dets
        ]
        if dets and rng.random() < 0.5:  # an exact duplicate, same confidence
            fused[iid].append(fused[iid][int(rng.integers(0, len(fused[iid])))])
    return fused, GroundTruth(entries=gt)


def above(fused, c):
    return {k: [d for d in v if d.confidence >= c] for k, v in fused.items()}


class TestMatchOnceAgainstOracle:
    """evaluate and f1_curve against an exhaustive greedy matcher that
    re-matches from scratch at every threshold and every grid point."""

    def test_evaluate_matches_oracle(self):
        rng = np.random.default_rng(131)
        checked = 0
        for _ in range(80):
            fused, gt = overlapping_fixture(rng)
            counts = {}
            for boxes in gt.entries.values():
                for b in boxes:
                    counts[b.cls] = counts.get(b.cls, 0) + 1
            if not counts:
                continue
            for conf in (0.0, 0.3, 0.5, 0.7):
                kept = above(fused, conf)
                by_thresh = [oracle_match_flags(kept, gt.entries, t) for t in MAP_IOU_THRESHOLDS]
                report = evaluate(fused, gt, conf)
                assert sorted(report.per_class) == sorted(counts)
                for cls, num_gt in counts.items():
                    flags = [[m for _, m in rows[cls]] for rows in by_thresh]
                    n_det = len(flags[0])
                    tp = sum(flags[0])
                    aps = [oracle_average_precision(f, num_gt) for f in flags]
                    got = report.per_class[cls]
                    assert got.precision == pytest.approx(
                        tp / n_det if n_det else 0.0, abs=1e-12)
                    assert got.recall == pytest.approx(tp / num_gt, abs=1e-12)
                    assert got.ap50 == pytest.approx(aps[0], abs=1e-12)
                    assert got.ap5095 == pytest.approx(sum(aps) / len(aps), abs=1e-12)
                    checked += 1
        assert checked > 300

    @pytest.mark.parametrize("grid", [
        DEFAULT_F1_GRID[::7],
        sorted({0.05, 0.29999, 0.3, 0.30001, 0.5, 0.7, 0.9, 0.95}),
    ], ids=["default-grid-subsample", "tied-confidences"])
    def test_f1_curve_matches_oracle(self, grid):
        rng = np.random.default_rng(132)
        for _ in range(40):
            fused, gt = overlapping_fixture(rng)
            counts = {}
            for boxes in gt.entries.values():
                for b in boxes:
                    counts[b.cls] = counts.get(b.cls, 0) + 1
            if not counts:
                continue
            curve = f1_curve(evaluate(fused, gt, 0.5).matches, grid)
            assert [p[0] for p in curve.points] == list(grid)
            for c_thresh, f1_by_class, mean in curve.points:
                rows = oracle_match_flags(above(fused, c_thresh), gt.entries, 0.5)
                want = {}
                for cls, num_gt in counts.items():
                    tp = sum(m for _, m in rows[cls])
                    p = tp / len(rows[cls]) if rows[cls] else 0.0
                    r = tp / num_gt
                    want[cls] = 2 * p * r / (p + r) if p + r > 0 else 0.0
                assert sorted(f1_by_class) == sorted(want)
                for cls, f1 in want.items():
                    assert f1_by_class[cls] == pytest.approx(f1, abs=1e-12)
                want_mean = sum(want.values()) / len(want) if want else 0.0
                assert mean == pytest.approx(want_mean, abs=1e-12)
