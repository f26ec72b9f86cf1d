import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxvote.errors import InvalidBoxError
from boxvote.geometry import Box, iou, validate_box
from oracles import random_box, raster_iou


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
        if a.area() > 0:
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
