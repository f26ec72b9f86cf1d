import numpy as np
import pytest

from boxvote import evaluation, geometry
from boxvote.errors import EmptyGroundTruthError
from boxvote.evaluation import (
    DEFAULT_F1_GRID,
    MAP_IOU_THRESHOLDS,
    GroundTruth,
    average_precision,
    evaluate,
    f1_curve,
    match_all,
)
from boxvote.fusion import FusedBox
from boxvote.geometry import Box, iou
from oracles import oracle_average_precision, oracle_match_flags, random_box


def det(x1, y1, x2, y2, conf, cls=0):
    return Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf)


def gt_box(x1, y1, x2, y2, cls=0):
    return Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=1.0)


def match_rows(matches, cls):
    """One `(confidence, flag per MAP_IOU_THRESHOLDS...)` tuple per detection
    of class `cls`, read from `matches`' columns, in their order."""
    return [(c, *f) for c, f in zip(matches.confidence[cls].tolist(),
                                    matches.flags[cls].tolist())]


def matched(dets, gt_boxes, iou_thresh):
    """(confidence, matched at `iou_thresh`) per detection of one image / class
    slice, read from `match_all`'s column for that threshold."""
    column = 1 + MAP_IOU_THRESHOLDS.index(iou_thresh)
    matches = match_all({"img": dets}, GroundTruth(entries={"img": tuple(gt_boxes)}))
    return [(row[0], row[column]) for row in match_rows(matches, 0)]


class TestMatchDetections:
    def test_exact_hit(self):
        assert matched([det(0, 0, 1, 1, 0.9)], [gt_box(0, 0, 1, 1)], 0.5) == [(0.9, True)]

    def test_double_detection_rule(self):
        d1 = det(0, 0, 1, 1, 0.9)
        d2 = det(0, 0, 1, 1, 0.8)
        assert matched([d2, d1], [gt_box(0, 0, 1, 1)], 0.5) == [(0.9, True), (0.8, False)]

    def test_crossing_case_greedy(self):
        # A overlaps gt1 (0.6) and gt2 (0.55); B overlaps gt1 (0.58) less than A
        gt1 = gt_box(0, 0, 1, 1)
        gt2 = gt_box(0.27, 0, 0.6, 1)
        a = det(0, 0, 0.6, 1, 0.9)
        b = det(0, 0, 1, 0.58, 0.8)
        assert iou(a, gt1) == pytest.approx(0.6)
        assert iou(a, gt2) == pytest.approx(0.55)
        assert iou(b, gt1) == pytest.approx(0.58)
        assert matched([a, b], [gt1, gt2], 0.5) == [(0.9, True), (0.8, False)]
        # but gt1 must have gone to A (its higher-iou choice), not gt2
        assert matched([a], [gt1, gt2], 0.5) == [(0.9, True)]

    def test_iou_equal_to_threshold_matches(self):
        # dyadic corners: the IoUs are exactly 0.5 and 0.75
        g = gt_box(0, 0, 1, 1)
        assert matched([det(0, 0, 0.5, 1, 0.9)], [g], 0.5)[0][1] is True
        assert matched([det(0, 0, 0.75, 1, 0.9)], [g], 0.75)[0][1] is True
        assert matched([det(0, 0, 0.75, 1, 0.9)], [g], 0.8)[0][1] is False

    def test_iou_tie_goes_to_lower_index(self):
        # d overlaps both boxes at exactly 2/3; e overlaps only g1 above 0.6
        g0 = gt_box(0, 0, 0.75, 1)
        g1 = gt_box(0.25, 0, 1, 1)
        d = det(0.25, 0, 0.75, 1, 0.9)
        e = det(0.25, 0, 1, 1, 0.8)
        assert iou(d, g0) == iou(d, g1) == 2 / 3
        assert iou(e, g0) == 0.5
        assert matched([e, d], [g0, g1], 0.6) == [(0.9, True), (0.8, True)]
        assert matched([e, d], [g1, g0], 0.6) == [(0.9, True), (0.8, False)]

    def test_taken_sets_part_ways_across_thresholds(self):
        # dyadic corners: A's IoU is exactly 0.625, B's 0.875. A takes the box
        # at 0.50-0.60, so B finds it taken there; B takes it at 0.65-0.85
        g = gt_box(0, 0, 1, 1)
        a = det(0, 0, 0.625, 1, 0.9)
        b = det(0, 0, 0.875, 1, 0.8)
        assert (iou(a, g), iou(b, g)) == (0.625, 0.875)
        rows = match_rows(match_all({"img": [b, a]}, GroundTruth(entries={"img": (g,)})), 0)
        assert rows == [
            (0.9, *[True] * 3, *[False] * 7),
            (0.8, *[False] * 3, *[True] * 5, *[False] * 2),
        ]


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
        gt_entries[iid] = tuple(boxes)
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
            gt[iid] = tuple(random_box(rng) for _ in range(3))
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
                gt[iid] = tuple(random_box(rng) for _ in range(int(rng.integers(1, 4))))
                fused[iid] = [random_box(rng) for _ in range(int(rng.integers(0, 5)))]
            gtobj = GroundTruth(entries=gt)
            last = None
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                r = evaluate(fused, gtobj, t).aggregate.recall
                if last is not None:
                    assert r <= last + 1e-12
                last = r


class TestF1Points:
    def test_perfect_detector_flat_one(self):
        fused, gt = perfect_fixture()
        curve = f1_curve(evaluate(fused, gt, 0.0).matches)
        assert [p[0] for p in curve] == list(DEFAULT_F1_GRID)
        # the last grid point is 1.0, the detectors' confidence: an equal one is kept
        assert DEFAULT_F1_GRID[-1] == 1.0
        assert all(p[2] == 1.0 for p in curve)

    def test_empty_detections_zero(self):
        _, gt = perfect_fixture()
        curve = f1_curve(evaluate({}, gt, 0.0).matches)
        assert len(curve) == len(DEFAULT_F1_GRID)
        assert all(p[2] == 0.0 for p in curve)

    def test_pointwise_consistency_with_evaluate(self):
        rng = np.random.default_rng(121)
        fused, gt = {}, {}
        for j in range(4):
            iid = f"i{j}"
            gt[iid] = tuple(random_box(rng) for _ in range(2))
            fused[iid] = [random_box(rng) for _ in range(5)]
        gtobj = GroundTruth(entries=gt)
        curve = f1_curve(evaluate(fused, gtobj, 0.0).matches)
        for c_thresh, f1_by_class, _ in curve:
            report = evaluate(fused, gtobj, c_thresh)
            for cls, f1 in f1_by_class.items():
                p = report.per_class[cls].precision
                r = report.per_class[cls].recall
                want = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
                assert f1 == pytest.approx(want, abs=1e-12)

    def test_same_curve_whatever_the_evaluate_threshold(self):
        # the shared match covers every detection, not only those evaluate keeps
        rng = np.random.default_rng(122)
        fused, gt = overlapping_fixture(rng, n_images=6)
        assert max(d.confidence for dets in fused.values() for d in dets) < 1.0
        curves = [
            f1_curve(evaluate(fused, gt, t).matches)
            for t in (0.0, 0.3, 0.5, 0.9, 1.0)
        ]
        assert any(f1 > 0.0 for _, _, f1 in curves[0])
        assert all(c == curves[0] for c in curves[1:])


# tied confidences sit exactly on DEFAULT_F1_GRID points, given by index
TIED_GRID_POINTS = (59, 99, 99, 179)
TIED_CONFIDENCES = tuple(DEFAULT_F1_GRID[k] for k in TIED_GRID_POINTS)


def overlapping_fixture(rng, n_images=4):
    """Ground truth plus detections jittered off it, duplicated, and random,
    with about half the confidences drawn from a few tied values."""
    gt, fused = {}, {}
    for j in range(n_images):
        iid = f"im{j}"
        boxes = [random_box(rng) for _ in range(int(rng.integers(0, 5)))]
        gt[iid] = tuple(boxes)
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
            for conf in (0.0, TIED_CONFIDENCES[0], TIED_CONFIDENCES[1], 0.7):
                kept = above(fused, conf)
                by_thresh = [oracle_match_flags(kept, gt.entries, t) for t in MAP_IOU_THRESHOLDS]
                report = evaluate(fused, gt, conf)
                assert sorted(report.per_class) == sorted(counts)
                for cls, num_gt in counts.items():
                    flags = [[m for _, m in rows[cls]] for rows in by_thresh]
                    n_det = len(flags[0])
                    # the kept prefix of the rows holds the oracle's flags at every threshold
                    rows = match_rows(report.matches, cls)
                    assert all(r[0] < conf for r in rows[n_det:])
                    for col, want in enumerate(by_thresh, start=1):
                        assert [(r[0], r[col]) for r in rows[:n_det]] == want[cls]
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

    # the grid points checked against the oracle: every seventh, or each
    # point that equals a tied confidence and its two neighbours
    @pytest.mark.parametrize("checked", [
        range(0, len(DEFAULT_F1_GRID), 7),
        sorted({k + d for k in TIED_GRID_POINTS for d in (-1, 0, 1)}),
    ], ids=["default-grid-subsample", "tied-confidences"])
    def test_f1_curve_matches_oracle(self, checked):
        rng = np.random.default_rng(132)
        for _ in range(40):
            fused, gt = overlapping_fixture(rng)
            counts = {}
            for boxes in gt.entries.values():
                for b in boxes:
                    counts[b.cls] = counts.get(b.cls, 0) + 1
            if not counts:
                continue
            curve = f1_curve(evaluate(fused, gt, 0.5).matches)
            assert [p[0] for p in curve] == list(DEFAULT_F1_GRID)
            for c_thresh, f1_by_class, mean in (curve[k] for k in checked):
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


def assert_matches_oracle(fused, gt):
    """`match_all` against `oracle_match_flags` at every MAP_IOU_THRESHOLDS;
    returns the matches."""
    matches = match_all(fused, gt)
    assert list(matches.counts) == sorted(gt.class_counts())
    for column, thresh in enumerate(MAP_IOU_THRESHOLDS):
        want = oracle_match_flags(fused, gt.entries, thresh)
        assert sorted(want) == list(matches.counts)
        for cls, rows in want.items():
            flags = matches.flags[cls]
            assert flags.shape == (len(rows), len(MAP_IOU_THRESHOLDS))
            got = list(zip(matches.confidence[cls].tolist(), flags[:, column].tolist()))
            assert got == rows, (cls, thresh)
    return matches


def crowded_scene(rng, n_images=5, n_classes=2, grid=None):
    """Many ground-truth boxes and detections per (image, class) slice:
    detections jittered off the ground truth, duplicated and random, in
    shuffled order, with confidences drawn from a few tied values about half
    the time. With `grid`, every corner is a multiple of 1 / grid."""
    def box(cls, x1, y1, x2, y2, conf):
        corners = np.clip((x1, y1, x2, y2), 0.0, 1.0)
        if grid is not None:
            corners = np.round(corners * grid) / grid
        x1, y1, x2, y2 = corners.tolist()
        return Box(cls=cls, x1=x1, y1=y1, x2=max(x1, x2), y2=max(y1, y2), confidence=conf)

    def conf():
        if rng.random() < 0.5:
            return float(rng.choice(TIED_CONFIDENCES))
        return round(float(rng.uniform(0.01, 1.0)), 3)

    gt, fused = {}, {}
    for j in range(n_images):
        truth = []
        for _ in range(int(rng.integers(6, 14))):
            (x1, y1), (w, h) = rng.uniform(0, 0.7, 2), rng.uniform(0.1, 0.3, 2)
            truth.append(box(int(rng.integers(0, n_classes)), x1, y1, x1 + w, y1 + h, 1.0))
        dets = []
        for b in truth:
            for _ in range(int(rng.integers(0, 5))):
                dx1, dy1, dx2, dy2 = rng.uniform(-0.05, 0.05, 4)
                dets.append(box(b.cls, b.x1 + dx1, b.y1 + dy1, b.x2 + dx2, b.y2 + dy2, conf()))
        for _ in range(int(rng.integers(0, 6))):
            x1, y1 = rng.uniform(0, 0.8, 2)
            dets.append(box(int(rng.integers(0, n_classes)), x1, y1, x1 + 0.15, y1 + 0.15, conf()))
        if dets:
            dets.append(dets[int(rng.integers(0, len(dets)))])  # an exact duplicate
        gt[f"im{j}"] = tuple(truth)
        fused[f"im{j}"] = [dets[k] for k in rng.permutation(len(dets))]
    return fused, GroundTruth(entries=gt)


class TestColumnarMatcherAgainstOracle:
    """`match_all` against the exhaustive greedy matcher of `tests/oracles.py`
    at all ten IoU thresholds."""

    def test_crowded_random_scenes(self):
        rng = np.random.default_rng(141)
        longest = 0
        for _ in range(25):
            fused, gt = crowded_scene(rng)
            assert_matches_oracle(fused, gt)
            for image_id, dets in fused.items():
                for cls in range(2):
                    longest = max(longest, sum(d.cls == cls for d in dets))
        assert longest >= 15  # slices long enough for many lockstep steps

    @pytest.mark.parametrize("chunk", [1, 3, 50])
    def test_pair_chunks_do_not_change_the_match(self, monkeypatch, chunk):
        # a detection with more ground-truth boxes than a chunk is a chunk of its own
        rng = np.random.default_rng(142)
        fused, gt = crowded_scene(rng, n_images=3)
        monkeypatch.setattr(evaluation, "PAIR_CHUNK", chunk)
        assert_matches_oracle(fused, gt)

    def test_hundreds_of_candidates_per_detection(self):
        # each detection overlaps all 300 boxes; the better boxes lie further right
        truth = tuple(gt_box(0.1 + k / 4096, 0.1, 0.6 + k / 4096, 0.6) for k in range(300))
        fused = {"img": [det(0.2, 0.1, 0.7, 0.6, c) for c in (0.9, 0.8, 0.7)]
                 + [det(0.1, 0.1, 0.6, 0.6, 0.6)]}
        assert_matches_oracle(fused, GroundTruth(entries={"img": truth}))

    def test_dyadic_ious_exactly_at_thresholds(self):
        rng = np.random.default_rng(143)
        on_threshold = 0
        for _ in range(25):
            fused, gt = crowded_scene(rng, grid=16)
            assert_matches_oracle(fused, gt)
            on_threshold += sum(
                iou(d, g) in MAP_IOU_THRESHOLDS
                for image_id, dets in fused.items() for d in dets
                for g in gt.entries[image_id] if g.cls == d.cls)
        assert on_threshold > 50

    def test_equal_ious_against_two_boxes(self):
        # every detection overlaps both boxes at exactly 2/3, in both box orders
        g0 = gt_box(0, 0, 0.75, 1)
        g1 = gt_box(0.25, 0, 1, 1)
        d = det(0.25, 0, 0.75, 1, 0.9)
        assert iou(d, g0) == iou(d, g1) == 2 / 3
        fused = {"a": [d, d._replace(confidence=0.8), d._replace(confidence=0.7)],
                 "b": [d._replace(confidence=0.8), d]}
        gt = GroundTruth(entries={"a": (g0, g1), "b": (g1, g0)})
        matches = assert_matches_oracle(fused, gt)
        # two boxes per image: the third detection of image a finds both taken
        assert match_rows(matches, 0) == [
            (0.9, *[True] * 4, *[False] * 6),
            (0.9, *[True] * 4, *[False] * 6),
            (0.8, *[True] * 4, *[False] * 6),
            (0.8, *[True] * 4, *[False] * 6),
            (0.7, *[False] * 10),
        ]

    def test_tied_confidences_across_images_keep_image_order(self):
        g = gt_box(0.1, 0.1, 0.5, 0.5)
        hit, miss = det(0.1, 0.1, 0.5, 0.5, 0.5), det(0.6, 0.6, 0.9, 0.9, 0.5)
        fused = {"c": [hit], "a": [miss, hit], "b": [hit, miss]}
        gt = GroundTruth(entries={k: (g,) for k in fused})
        matches = assert_matches_oracle(fused, gt)
        # image a's miss then hit, image b's hit then miss, then image c's hit
        assert matches.flags[0][:, 0].tolist() == [False, True, True, False, True]

    def test_classes_and_images_named_on_one_side_only(self):
        rng = np.random.default_rng(144)
        fused, gt = crowded_scene(rng, n_images=4, n_classes=3)
        entries = dict(gt.entries)
        entries["only_gt"] = (gt_box(0.1, 0.1, 0.4, 0.4, cls=1),)
        # class 2 only among the detections
        entries = {k: tuple(b for b in v if b.cls != 2) for k, v in entries.items()}
        fused["only_detections"] = [det(0.1, 0.1, 0.4, 0.4, 0.7, cls=1),
                                    det(0.2, 0.2, 0.5, 0.5, 0.6, cls=2)]
        gt = GroundTruth(entries=entries)
        assert any(d.cls == 2 for dets in fused.values() for d in dets)
        matches = assert_matches_oracle(fused, gt)
        assert list(matches.counts) == [0, 1]

    def test_zero_area_ground_truth_is_never_a_candidate(self):
        flat = gt_box(0.2, 0.2, 0.2, 0.6)  # zero width
        line = gt_box(0.1, 0.5, 0.6, 0.5)  # zero height
        fused = {"img": [det(0.1, 0.1, 0.6, 0.6, 0.9), det(0.19, 0.19, 0.21, 0.61, 0.8)]}
        gt = GroundTruth(entries={"img": (flat, line, gt_box(0.1, 0.1, 0.6, 0.6))})
        matches = assert_matches_oracle(fused, gt)
        assert match_rows(matches, 0) == [(0.9, *[True] * 10), (0.8, *[False] * 10)]

    def test_fused_boxes_as_input(self):
        rng = np.random.default_rng(145)
        fused, gt = crowded_scene(rng)
        as_fused = {k: [FusedBox(d.cls, d.x1, d.y1, d.x2, d.y2, d.confidence, 2) for d in v]
                    for k, v in fused.items()}
        want = assert_matches_oracle(fused, gt)
        got = assert_matches_oracle(as_fused, gt)
        for cls in want.counts:
            assert match_rows(got, cls) == match_rows(want, cls)

    def test_empty_fused(self):
        _, gt = perfect_fixture()
        matches = assert_matches_oracle({}, gt)
        for cls in matches.counts:
            assert matches.confidence[cls].shape == (0,)
            assert matches.flags[cls].shape == (0, len(MAP_IOU_THRESHOLDS))

    def test_class_without_detections_has_empty_flags(self):
        gt = GroundTruth(entries={"img": (gt_box(0, 0, 0.5, 0.5, cls=0),
                                          gt_box(0.5, 0.5, 1, 1, cls=4))})
        fused = {"img": [det(0, 0, 0.5, 0.5, 0.9, cls=0)]}
        matches = assert_matches_oracle(fused, gt)
        assert matches.flags[4].shape == (0, len(MAP_IOU_THRESHOLDS))
        assert matches.flags[4].dtype == bool
        report = evaluate(fused, gt, 0.0)
        assert report.per_class[4].recall == 0.0

    def test_evaluate_and_f1_curve_call_no_scalar_iou(self, monkeypatch):
        def no_scalar_iou(a, b):
            raise AssertionError("scalar iou called")

        monkeypatch.setattr(evaluation, "iou", no_scalar_iou)
        monkeypatch.setattr(geometry, "iou", no_scalar_iou)
        fused, gt = crowded_scene(np.random.default_rng(146))
        curve = f1_curve(evaluate(fused, gt, 0.3).matches)
        assert any(mean > 0.0 for _, _, mean in curve)
