import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxvote.errors import InvalidBoxError
from boxvote.evaluation import GroundTruthBox
from boxvote.fusion import FusedBox
from boxvote.geometry import CLAMP_SLOP, Box, DetectionSet, iou, running_sum, validate_box
from oracles import ORACLE_SLOP, oracle_validate_box, random_box, raster_iou


def box(x1, y1, x2, y2, conf=0.9, cls=0):
    return Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf)


class TestIou:
    def test_identical_unit_boxes(self):
        assert iou(box(0, 0, 1, 1), box(0, 0, 1, 1)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 0.4, 0.4), box(0.5, 0.5, 1, 1)) == 0.0

    def test_half_overlap_hand_arithmetic(self):
        # intersection 0.25, union 0.75
        a = box(0, 0, 1, 0.5)
        b = box(0, 0.25, 1, 0.75)
        assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)

    def test_degenerate_boxes_yield_zero(self):
        z = box(0.5, 0.5, 0.5, 0.5)
        assert iou(z, z) == 0.0
        assert iou(z, box(0, 0, 1, 1)) == 0.0


@st.composite
def boxes(draw):
    x = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    y = sorted(draw(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    return box(x[0], y[0], x[1], y[1])


class TestIouProperties:
    @given(boxes(), boxes())
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(boxes())
    def test_self_iou_of_positive_area_box(self, a):
        if (a.x2 - a.x1) * (a.y2 - a.y1) > 0:  # the corners are ordered
            assert iou(a, a) == 1.0

    @given(boxes(), boxes(), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
    def test_translation_invariance(self, a, b, dx, dy):
        def shift(c):
            return box(c.x1 + dx, c.y1 + dy, c.x2 + dx, c.y2 + dy)

        for c in (a, b):
            if not (0 <= min(c.x1 + dx, c.y1 + dy) and max(c.x2 + dx, c.y2 + dy) <= 1):
                return
            # tiny extents get absorbed when adding the offset, which
            # legitimately changes the iou; skip those
            if 0 < c.x2 - c.x1 < 1e-9 or 0 < c.y2 - c.y1 < 1e-9:
                return
        assert iou(shift(a), shift(b)) == pytest.approx(iou(a, b), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_raster_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_box(rng), random_box(rng)
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-3)


def minmax_iou(a, b) -> float:
    """`iou` as written with the builtin `min` and `max`, the reference for its branch forms."""
    ax1, ay1, ax2, ay2 = a.x1, a.y1, a.x2, a.y2
    bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# corners that set min/max apart from a careless rewrite: NaN, signed zeros,
# infinities and subnormals
IOU_EDGE_CORNERS = (
    float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324, 1e-310, 0.5, 1.0,
)


def test_iou_equals_min_max_reference_bit_for_bit():
    rng = random.Random(18)

    def corner():
        return rng.choice(IOU_EDGE_CORNERS) if rng.random() < 0.3 else rng.uniform(-0.1, 1.1)

    def any_box():  # about half have an inverted axis
        return Box(0, corner(), corner(), corner(), corner(), 0.5)

    results = set()
    for _ in range(60_000):
        a, b = any_box(), any_box()
        if rng.random() < 0.1:
            b = a
        got, want = iou(a, b), minmax_iou(a, b)
        assert got.hex() == want.hex(), (a, b)
        results.add("nan" if math.isnan(got) else "0" if got == 0.0 else "+")
    assert results == {"nan", "0", "+"}


class TestValidateBox:
    def test_valid_box_unchanged(self):
        b = box(0, 0, 1, 1)
        assert validate_box(b) is b

    def test_slop_clamp(self):
        b = validate_box(box(0, 0, 1.0000001, 1))
        assert b.x2 == 1.0

    def test_negative_slop_clamp(self):
        b = validate_box(box(-1e-7, 0, 1, 1))
        assert b.x1 == 0.0

    def test_inverted_corners_rejected(self):
        with pytest.raises(InvalidBoxError):
            validate_box(box(0.5, 0, 0.4, 1))

    def test_coordinate_beyond_slop_rejected(self):
        with pytest.raises(InvalidBoxError):
            validate_box(box(0, 0, 1.001, 1))

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(InvalidBoxError):
            validate_box(box(0, 0, 1, 1, conf=1.5))
        with pytest.raises(InvalidBoxError):
            validate_box(box(0, 0, 1, 1, conf=-0.1))

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", range(4))
    def test_non_finite_coordinate_rejected(self, v, axis):
        coords = [0.1, 0.1, 0.9, 0.9]
        coords[axis] = v
        with pytest.raises(InvalidBoxError):
            validate_box(box(*coords))


HALF_SLOP = ORACLE_SLOP / 2
# coordinates on and around every edge validate_box decides on
EDGE_VALUES = (
    0.0, -0.0, 1.0, 5e-324, -5e-324, 0.5, ORACLE_SLOP, -ORACLE_SLOP, HALF_SLOP, -HALF_SLOP,
    1.0 - HALF_SLOP, 1.0 + HALF_SLOP, 1.0 + ORACLE_SLOP, 1.5 * -ORACLE_SLOP,
    1.0 + 1.5 * ORACLE_SLOP, float(np.nextafter(-ORACLE_SLOP, -1.0)),
    float(np.nextafter(1.0 + ORACLE_SLOP, 2.0)), float("nan"), float("inf"), float("-inf"),
)
CONFIDENCES = (0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, 1.0 + 1e-12, float("nan"))
# (x1, y1, x2, y2) that single out one way of getting the clamp wrong
PINNED_CASES = (
    (0.0, 0.0, 1.0, 1.0),  # on the edges: the same object back
    (-0.0, 0.2, 0.5, 1.0),  # -0.0 kept as is
    (0.5 + HALF_SLOP, 0.1, 0.5, 0.6),  # a slop-sized inversion collapses onto x2
    (0.1, 0.7, 0.6, 0.7 - HALF_SLOP),  # and onto y2
    (-1e-7, 0.1, -6e-7, 0.6),  # both corners negative: x1 collapses onto the clamped x2
    (0.1, -1e-7, 0.6, -6e-7),
    (1.0 + 6e-7, 0.1, 1.0 + 1e-7, 0.6),  # both above 1
)


def _coordinate(rng):
    pick = rng.random()
    if pick < 0.5:
        return rng.choice(EDGE_VALUES)
    if pick < 0.7:
        return rng.uniform(-2 * ORACLE_SLOP, 2 * ORACLE_SLOP)
    if pick < 0.9:
        return rng.uniform(1.0 - 2 * ORACLE_SLOP, 1.0 + 2 * ORACLE_SLOP)
    return rng.uniform(-0.01, 1.01)


def _edge_grid(n, seed=8):
    rng = random.Random(seed)
    for corners in PINNED_CASES:
        yield (*corners, 0.9)
    for _ in range(n):
        x1, y1, x2, y2 = (_coordinate(rng) for _ in range(4))
        # x1 within the slop of x2: inverted by half the slop or all of it, or ordered
        if rng.random() < 0.2:
            x1 = x2 + rng.choice((HALF_SLOP, ORACLE_SLOP, -HALF_SLOP))
        if rng.random() < 0.2:
            y1 = y2 + rng.choice((HALF_SLOP, ORACLE_SLOP, -HALF_SLOP))
        conf = rng.choice(CONFIDENCES) if rng.random() < 0.1 else rng.random()
        yield x1, y1, x2, y2, conf


def test_oracle_restates_the_slop():
    assert ORACLE_SLOP == CLAMP_SLOP


def test_validate_box_matches_oracle_bit_for_bit():
    hexes = lambda values: [float.hex(v) for v in values]  # noqa: E731
    mismatches, outcomes = [], set()
    for x1, y1, x2, y2, conf in _edge_grid(40_000):
        b = Box(cls=2, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf, source=3)
        try:
            corners, changed = oracle_validate_box(x1, y1, x2, y2, conf)
        except InvalidBoxError as exc:
            expected = (type(exc), str(exc))
            outcomes.add(str(exc).split()[0])
        else:
            expected = (hexes(corners), not changed)
            outcomes.add("changed" if changed else "unchanged")
        try:
            out = validate_box(b)
        except InvalidBoxError as exc:
            got = (type(exc), str(exc))
        else:
            assert (out.cls, out.source, float.hex(out.confidence)) == (2, 3, float.hex(conf))
            got = (hexes((out.x1, out.y1, out.x2, out.y2)), out is b)
        if got != expected:
            mismatches.append((hexes((x1, y1, x2, y2)), expected, got))
    assert mismatches == []
    # the grid reaches every outcome: kept, clamped, and each rejection
    assert outcomes == {"changed", "unchanged", "coordinate", "confidence", "inverted"}


class TestDetectionSet:
    def test_iterates_and_sizes_as_its_boxes(self):
        boxes = (box(0.1, 0.1, 0.5, 0.5), box(0.2, 0.2, 0.6, 0.6, conf=0.4))
        ds = DetectionSet("img", boxes)
        assert list(ds) == list(boxes)
        assert len(ds) == 2
        assert len(DetectionSet("img", ())) == 0
        assert list(DetectionSet("img", ())) == []

    def test_stays_frozen_hashable_and_equal_by_value(self):
        a = DetectionSet("img", (box(0.1, 0.1, 0.5, 0.5),))
        b = DetectionSet("img", (box(0.1, 0.1, 0.5, 0.5),))
        assert a == b and hash(a) == hash(b)
        assert a != DetectionSet("img2", a.boxes)
        with pytest.raises(AttributeError):
            a.boxes = ()


# each box type built from the same numbers: class 1, corners, confidence 0.9, 2
SAME_NUMBERS = {
    "Box": lambda: Box(1, 0.1, 0.2, 0.5, 0.6, 0.9, 2),
    "FusedBox": lambda: FusedBox(1, 0.1, 0.2, 0.5, 0.6, 0.9, 2,
                                 (Box(1, 0.1, 0.2, 0.5, 0.6, 0.9, 2),)),
    "GroundTruthBox": lambda: GroundTruthBox(1, 0.1, 0.2, 0.5, 0.6),
}


class TestBoxValueTypes:
    @pytest.mark.parametrize("make", SAME_NUMBERS.values(), ids=SAME_NUMBERS.keys())
    def test_attribute_assignment_raises(self, make):
        b = make()
        with pytest.raises(AttributeError):
            b.x1 = 0.3
        with pytest.raises(AttributeError):
            b.note = "new"
        assert b == make()

    @pytest.mark.parametrize("make", SAME_NUMBERS.values(), ids=SAME_NUMBERS.keys())
    def test_equal_values_equal_objects_and_hashes(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != a._replace(x1=0.15)
        assert a._replace(x1=0.15) == b._replace(x1=0.15)
        # the chosen semantics: tuple equality, so a plain tuple of the same values
        # is equal too, with the same hash
        assert a == tuple(a) and hash(a) == hash(tuple(a))

    def test_types_never_equal_each_other(self):
        boxes = {name: make() for name, make in SAME_NUMBERS.items()}
        for name, other in boxes.items():
            if name != "Box":
                assert boxes["Box"] != other and other != boxes["Box"]
        assert boxes["FusedBox"] != boxes["GroundTruthBox"]
        assert len(set(boxes.values())) == 3

    def test_validate_box_returns_an_in_range_box_itself(self):
        b = SAME_NUMBERS["Box"]()
        assert validate_box(b) is b


def test_running_sum_adds_left_to_right():
    # each 1e-16 is below half an ulp of 1.0, so a left-to-right sum drops it,
    # while a compensated sum (math.fsum, or builtin sum on Python >= 3.12) does not
    values = [1.0, 1e-16, 1e-16]
    assert math.fsum(values) != 1.0
    assert running_sum(values) == 1.0
    assert running_sum(iter(values)) == 1.0
    assert running_sum([]) == 0.0
