import math
from dataclasses import replace

import numpy as np
import pytest

from boxvote.errors import ConfigError, NegativeWeightError, WeightArityMismatchError
from boxvote.fusion import (
    TABLE_MIN,
    ConfidenceGates,
    FusionParams,
    KEEP_ALL,
    LabelSpaceFilter,
    _overlaps,
    apply_gates,
    knowledge_vote,
    nms,
    soft_nms,
    wbf,
)
from boxvote.geometry import Box, DetectionSet, iou
from boxvote.synth import BOX_SIZE_RANGE, FP_CONF_RANGE
from oracles import (
    check_nms_fixpoint,
    fused_box_key,
    oracle_soft_nms,
    oracle_wbf,
    random_box,
)


def box(x1, y1, x2, y2, conf, cls=0, source=0):
    return Box(cls=cls, x1=x1, y1=y1, x2=x2, y2=y2, confidence=conf, source=source)


def ds(*boxes, image_id="img"):
    return DetectionSet(image_id, tuple(boxes))


PARAMS_50 = FusionParams(iou_threshold=0.5)


NAN = float("nan")

# (field, bad value, error): each value rule of FusionParams, NaN included
BAD_FUSION_VALUES = [
    ("iou_threshold", 0.0, ConfigError),
    ("iou_threshold", 1.0, ConfigError),
    ("iou_threshold", NAN, ConfigError),
    ("soft_nms_sigma", 0.0, ConfigError),
    ("soft_nms_sigma", -0.5, ConfigError),
    ("soft_nms_sigma", NAN, ConfigError),
    ("score_floor", -0.1, ConfigError),
    ("score_floor", 1.5, ConfigError),
    ("score_floor", NAN, ConfigError),
    ("confidence_rescale", "linear", ConfigError),
    ("model_weights", (1.0, -1.0), NegativeWeightError),
    ("model_weights", (1.0, NAN), NegativeWeightError),
    ("model_weights", (math.inf, 1.0), NegativeWeightError),
    ("model_weights", (0.0, 0.0), WeightArityMismatchError),
    ("model_weights", (), WeightArityMismatchError),
]


@pytest.mark.parametrize("build", ["constructor", "replace"])
@pytest.mark.parametrize(
    "key,value,error",
    BAD_FUSION_VALUES,
    ids=[f"{key}={value!r}" for key, value, _ in BAD_FUSION_VALUES],
)
def test_fusion_params_reject_bad_values(build, key, value, error):
    with pytest.raises(error, match=rf"fusion\.{key}") as exc:
        if build == "constructor":
            FusionParams(**{key: value})
        else:
            replace(FusionParams(), **{key: value})
    # NegativeWeightError is a WeightArityMismatchError, so check the exact type
    assert type(exc.value) is error


class TestApplyGates:
    def test_tolerant_gate_for_minority_class(self):
        dets = ds(
            box(0, 0, 0.5, 0.5, 0.6, cls=1),
            box(0.5, 0.5, 1, 1, 0.6, cls=0),
        )
        gates = ConfidenceGates(gates={1: 0.5}, default_gate=0.8)
        out = apply_gates(dets, gates, KEEP_ALL)
        assert [b.cls for b in out] == [1]

    def test_zero_gates_keep_all_is_identity(self):
        dets = ds(box(0, 0, 1, 1, 0.3), box(0, 0, 0.5, 0.5, 0.1, cls=2))
        assert apply_gates(dets, ConfidenceGates(), KEEP_ALL) == dets.boxes

    def test_disjoint_filter_empties(self):
        dets = ds(box(0, 0, 1, 1, 0.9, cls=0), box(0, 0, 1, 1, 0.9, cls=1))
        flt = LabelSpaceFilter(mode="keep_listed", classes=frozenset({2}))
        assert apply_gates(dets, ConfidenceGates(), flt) == ()

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        dets = ds(*(random_box(rng) for _ in range(30)))
        gates = ConfidenceGates(gates={0: 0.4, 1: 0.7}, default_gate=0.2)
        once = apply_gates(dets, gates, KEEP_ALL)
        assert apply_gates(once, gates, KEEP_ALL) == once

    def test_keep_listed_requires_classes(self):
        with pytest.raises(ValueError):
            LabelSpaceFilter(mode="keep_listed", classes=frozenset())

    def test_keep_all_takes_no_classes(self):
        with pytest.raises(ValueError, match="keep_all filter"):
            LabelSpaceFilter(mode="keep_all", classes=frozenset({1}))


class TestNms:
    def test_exact_duplicate_suppressed(self):
        out = nms([ds(box(0, 0, 1, 1, 0.9), box(0, 0, 1, 1, 0.8))], PARAMS_50)
        assert [b.confidence for b in out] == [0.9]

    def test_disjoint_both_kept(self):
        out = nms([ds(box(0, 0, 0.4, 1, 0.9), box(0.6, 0, 1, 1, 0.8))], PARAMS_50)
        assert len(out) == 2

    def test_chain_hand_trace(self):
        # iou(A,B)=0.6, iou(B,C)=0.6, iou(A,C)=1/3 -> {A, C} at threshold 0.5
        a = box(0.0, 0, 0.5, 1, 0.9)
        b = box(0.125, 0, 0.625, 1, 0.8)
        c = box(0.25, 0, 0.75, 1, 0.7)
        assert iou(a, b) == pytest.approx(0.6)
        assert iou(b, c) == pytest.approx(0.6)
        out = nms([ds(a, b, c)], PARAMS_50)
        assert set(bx.confidence for bx in out) == {0.9, 0.7}
        assert check_nms_fixpoint([a, b, c], out, 0.5)

    def test_classes_do_not_interact(self):
        out = nms([ds(box(0, 0, 1, 1, 0.9, cls=0), box(0, 0, 1, 1, 0.8, cls=1))], PARAMS_50)
        assert len(out) == 2

    def test_antichain_and_greedy_fixpoint_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            boxes = [random_box(rng) for _ in range(int(rng.integers(1, 12)))]
            out = nms([ds(*boxes)], PARAMS_50)
            for i, b1 in enumerate(out):
                for b2 in out[i + 1 :]:
                    if b1.cls == b2.cls:
                        assert iou(b1, b2) <= 0.5
            assert check_nms_fixpoint(boxes, out, 0.5)


class TestSoftNms:
    def test_gaussian_decay_closed_form(self):
        params = FusionParams(soft_nms_sigma=0.5)
        out = soft_nms([ds(box(0, 0, 1, 1, 0.9), box(0, 0, 1, 1, 0.8))], params)
        assert len(out) == 2
        assert out[0].confidence == 0.9
        assert out[1].confidence == pytest.approx(0.8 * math.exp(-1 / 0.5), abs=1e-12)

    def test_disjoint_confidences_unchanged(self):
        out = soft_nms([ds(box(0, 0, 0.4, 1, 0.9), box(0.6, 0, 1, 1, 0.8))], PARAMS_50)
        assert sorted(b.confidence for b in out) == [0.8, 0.9]

    def test_score_floor_one_keeps_one_per_class(self):
        rng = np.random.default_rng(3)
        boxes = [random_box(rng, cls=int(rng.integers(0, 2))) for _ in range(20)]
        boxes = [b for b in boxes if b.confidence < 1.0]
        params = FusionParams(score_floor=1.0)
        out = soft_nms([ds(*boxes)], params)
        per_class = {}
        for b in out:
            per_class[b.cls] = per_class.get(b.cls, 0) + 1
        assert all(v == 1 for v in per_class.values())

    def test_output_sorted_by_decayed_confidence(self):
        rng = np.random.default_rng(4)
        out = soft_nms([ds(*(random_box(rng) for _ in range(15)))], PARAMS_50)
        confs = [b.confidence for b in out]
        assert confs == sorted(confs, reverse=True)


def two_model_pair():
    m1 = ds(box(0, 0, 1, 1, 0.8, source=0))
    m2 = ds(box(0, 0.2, 1, 1, 0.4, source=1))
    return [m1, m2]


class TestWbf:
    def test_singleton_identity(self):
        b = box(0.1, 0.2, 0.6, 0.9, 0.77)
        [f] = wbf([ds(b)], FusionParams())
        assert (f.x1, f.y1, f.x2, f.y2, f.confidence) == (0.1, 0.2, 0.6, 0.9, 0.77)
        assert f.support_count == 1

    def test_weighted_mean_hand_arithmetic(self):
        [f] = wbf(two_model_pair(), FusionParams())
        assert f.x1 == pytest.approx(0.0, abs=1e-12)
        assert f.y1 == pytest.approx((0.8 * 0 + 0.4 * 0.2) / 1.2, abs=1e-12)
        assert f.confidence == pytest.approx(0.6, abs=1e-12)
        assert f.support_count == 2

    def test_support_ratio_rescale_full_support_is_noop(self):
        [f] = wbf(two_model_pair(), FusionParams(confidence_rescale="support_ratio"))
        assert f.confidence == pytest.approx(0.6, abs=1e-12)

    def test_support_ratio_rescale_partial_support(self):
        m1 = ds(box(0, 0, 1, 1, 0.8, source=0))
        m2 = ds(image_id="img")
        [f] = wbf([m1, m2], FusionParams(confidence_rescale="support_ratio"))
        assert f.confidence == pytest.approx(0.4, abs=1e-12)

    def test_disjoint_third_model_two_clusters(self):
        m1 = ds(box(0, 0, 0.4, 0.4, 0.8, source=0))
        m2 = ds(box(0, 0, 0.4, 0.42, 0.7, source=1))
        m3 = ds(box(0.6, 0.6, 1, 1, 0.6, source=2))
        out = wbf([m1, m2, m3], FusionParams())
        assert sorted(f.support_count for f in out) == [1, 2]

    def test_weight_arity_mismatch(self):
        with pytest.raises(WeightArityMismatchError):
            wbf(two_model_pair(), FusionParams(model_weights=(1.0,)))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(WeightArityMismatchError):
            wbf(two_model_pair(), FusionParams(model_weights=(0.0, 0.0)))

    def test_negative_weight_rejected_as_weight_error(self):
        with pytest.raises(NegativeWeightError) as exc:
            wbf(two_model_pair(), FusionParams(model_weights=(1.0, -1.0)))
        assert isinstance(exc.value, WeightArityMismatchError)

    def test_zero_weight_model_excluded_entirely(self):
        out = wbf(two_model_pair(), FusionParams(model_weights=(1.0, 0.0)))
        assert len(out) == 1
        assert out[0].support_count == 1
        assert out[0].confidence == 0.8

    def test_coordinate_containment_and_confidence_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            models = _random_models(rng)
            for f in wbf(models, FusionParams()):
                xs1 = [b.x1 for b in f.members]
                confs = [b.confidence for b in f.members]
                assert min(xs1) - 1e-12 <= f.x1 <= max(xs1) + 1e-12
                assert min(confs) - 1e-12 <= f.confidence <= max(confs) + 1e-12

    def test_support_ratio_never_increases_confidence(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            models = _random_models(rng)
            plain = wbf(models, FusionParams())
            rescaled = wbf(models, FusionParams(confidence_rescale="support_ratio"))
            for a, b in zip(
                sorted(plain, key=fused_box_key), sorted(rescaled, key=fused_box_key)
            ):
                assert b.confidence <= a.confidence + 1e-12


def _random_models(rng, n_models=None, max_boxes=6):
    n = n_models or int(rng.integers(1, 5))
    return [
        ds(*(random_box(rng, source=i) for _ in range(int(rng.integers(0, max_boxes)))))
        for i in range(n)
    ]


class TestKnowledgeVote:
    def test_gated_two_model_merge(self):
        # minority class gated at 0.5; two models survive and merge
        gates = ConfidenceGates(gates={1: 0.5}, default_gate=0.8)
        m1 = ds(
            box(0.1, 0.1, 0.4, 0.4, 0.55, cls=1, source=0),
            box(0.6, 0.6, 0.9, 0.9, 0.4, cls=0, source=0),
        )
        m2 = ds(box(0.1, 0.1, 0.4, 0.41, 0.6, cls=1, source=1))
        m3 = ds(image_id="img")
        out = knowledge_vote([m1, m2, m3], gates, KEEP_ALL, FusionParams())
        assert len(out) == 1
        assert out[0].cls == 1
        assert out[0].support_count == 2

    def test_zero_gates_equals_plain_wbf(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            models = _random_models(rng)
            kv = knowledge_vote(models, ConfidenceGates(), KEEP_ALL, FusionParams())
            assert sorted(kv, key=fused_box_key) == sorted(
                wbf(models, FusionParams()), key=fused_box_key
            )

    def test_impossible_gates_empty_output(self):
        rng = np.random.default_rng(32)
        models = _random_models(rng)
        models = [
            ds(*(b for b in m.boxes if b.confidence < 1.0), image_id=m.image_id)
            for m in models
        ]
        out = knowledge_vote(
            models, ConfidenceGates(default_gate=1.0), KEEP_ALL, FusionParams()
        )
        assert out == []

    def test_every_member_passes_its_gate(self):
        rng = np.random.default_rng(33)
        gates = ConfidenceGates(gates={0: 0.3, 1: 0.6}, default_gate=0.5)
        for _ in range(30):
            models = _random_models(rng)
            for f in knowledge_vote(models, gates, KEEP_ALL, FusionParams()):
                for b in f.members:
                    assert b.confidence >= gates.gate(f.cls)


class TestWbfAlgebra:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            models = _random_models(rng, n_models=4)
            weights = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(4))
            base = wbf(models, FusionParams(model_weights=weights))
            perm = rng.permutation(4)
            shuffled = [models[i] for i in perm]
            wperm = tuple(weights[i] for i in perm)
            out = wbf(shuffled, FusionParams(model_weights=wperm))
            assert sorted(base, key=fused_box_key) == sorted(out, key=fused_box_key)

    def test_weight_scaling_invariance_power_of_two(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            models = _random_models(rng, n_models=3)
            weights = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(3))
            k = 2.0 ** int(rng.integers(-3, 8))
            base = wbf(models, FusionParams(model_weights=weights))
            scaled = wbf(
                models, FusionParams(model_weights=tuple(k * w for w in weights))
            )
            assert sorted(base, key=fused_box_key) == sorted(scaled, key=fused_box_key)

    def test_weight_scaling_invariance_arbitrary_constant(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            models = _random_models(rng, n_models=3)
            weights = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(3))
            k = float(rng.uniform(0.2, 9.0))
            base = sorted(wbf(models, FusionParams(model_weights=weights)), key=fused_box_key)
            scaled = sorted(
                wbf(models, FusionParams(model_weights=tuple(k * w for w in weights))),
                key=fused_box_key,
            )
            assert len(base) == len(scaled)
            for a, b in zip(base, scaled):
                assert a.support_count == b.support_count
                for field in ("x1", "y1", "x2", "y2", "confidence"):
                    assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_single_model_identity(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            boxes = [random_box(rng) for _ in range(int(rng.integers(1, 8)))]
            out = wbf([ds(*boxes)], FusionParams())
            got = sorted(
                (f.x1, f.y1, f.x2, f.y2, f.confidence, f.cls) for f in out
            )
            # identity holds only for boxes that do not cluster with each other
            if len(out) == len(boxes):
                want = sorted((b.x1, b.y1, b.x2, b.y2, b.confidence, b.cls) for b in boxes)
                assert got == want
            assert all(f.support_count == 1 for f in out)


class TestTiesAcrossModels:
    """Two overlapping boxes of equal confidence from two models: confidence,
    then source, then position in the model's list, then model order decide
    which comes first."""

    A = box(0.0, 0.0, 0.5, 0.5, 0.7)
    B = box(0.0, 0.0, 0.5, 0.6, 0.7)  # iou(A, B) = 5/6

    def test_model_order_breaks_a_full_tie(self):
        a, b = self.A, self.B
        assert nms([ds(a), ds(b)], PARAMS_50) == [a]
        assert nms([ds(b), ds(a)], PARAMS_50) == [b]
        for first, second in ((a, b), (b, a)):
            out = soft_nms([ds(first), ds(second)], PARAMS_50)
            assert out[0] == first
            assert out[1] == second._replace(confidence=out[1].confidence)
            assert out[1].confidence < 0.7
            [f] = wbf([ds(first), ds(second)], PARAMS_50)
            assert f.members == (first, second)

    def test_source_and_position_come_before_model_order(self):
        a, b = self.A._replace(source=2), self.B._replace(source=1)
        assert nms([ds(a), ds(b)], PARAMS_50) == [b]
        [f] = wbf([ds(a), ds(b)], PARAMS_50)
        assert f.members == (b, a)
        far = box(0.8, 0.8, 0.9, 0.9, 0.7)
        a, b = self.A, self.B
        # b is first in its list, a second in its own
        assert nms([ds(far, a), ds(b)], PARAMS_50) == [far, b]
        assert soft_nms([ds(far, a), ds(b)], PARAMS_50)[:2] == [far, b]
        assert {f.members for f in wbf([ds(far, a), ds(b)], PARAMS_50)} == {(far,), (b, a)}


def table_group(rng, n, cls=0):
    """n boxes of one class, from 3 sources, mixing the cases a sweep must get right.

    Besides random boxes: confidence ties across sources, exact duplicates,
    boxes touching an earlier one along an edge (iw == 0), pairs whose IoU
    is exactly 0.5 (a dyadic box and its lower half), and zero-area boxes.
    """
    boxes: list[Box] = []
    while len(boxes) < n:
        kind = int(rng.integers(0, 7)) if boxes else 0
        src = int(rng.integers(0, 3))
        if kind == 0:
            boxes.append(random_box(rng, cls=cls, source=src))
            continue
        prev = boxes[int(rng.integers(0, len(boxes)))]
        if kind == 1:  # same box and confidence from another source
            boxes.append(Box(cls, prev.x1, prev.y1, prev.x2, prev.y2, prev.confidence,
                             (prev.source + 1) % 3))
        elif kind == 2:  # exact duplicate
            boxes.append(prev)
        elif kind == 3:  # touching: shares prev's right (or left) edge
            w = 0.125
            x1, x2 = (prev.x2, prev.x2 + w) if prev.x2 + w <= 1.0 else (prev.x1 - w, prev.x1)
            if x1 >= 0.0:
                boxes.append(Box(cls, x1, prev.y1, x2, prev.y2, prev.confidence, src))
        elif kind == 4:  # IoU exactly 0.5
            x, y = (int(v) / 64 for v in rng.integers(0, 32, 2))
            w, h = (int(v) / 64 for v in 2 * rng.integers(1, 16, 2))
            conf = float(rng.choice([0.25, 0.5, 0.75]))
            boxes.append(Box(cls, x, y, x + w, y + h, conf, src))
            boxes.append(Box(cls, x, y, x + w, y + h / 2, conf, (src + 1) % 3))
        elif kind == 5:  # zero area: a segment or a point
            x, y = round(float(rng.uniform(0, 0.9)), 3), round(float(rng.uniform(0, 0.9)), 3)
            x2 = x if rng.integers(0, 2) else x + 0.1
            boxes.append(Box(cls, x, y, x2, y if x2 != x else y + 0.1,
                             round(float(rng.uniform(0.01, 1)), 6), src))
        else:  # confidence tie with prev
            b = random_box(rng, cls=cls, source=src)
            boxes.append(Box(cls, b.x1, b.y1, b.x2, b.y2, prev.confidence, src))
    return boxes[:n]


# mid-size groups, both sides of TABLE_MIN, and a dense-sized group
TABLE_SIZES = sorted({15, 16, TABLE_MIN - 1, TABLE_MIN, 250})


def table_boxes(seed, n):
    """A big class-0 group of n boxes next to a small class-1 group."""
    rng = np.random.default_rng(seed)
    return table_group(rng, n) + table_group(rng, 5, cls=1)


def by_source(boxes):
    return [ds(*(b for b in boxes if b.source == s)) for s in range(3)]


def wbf_rows(out):
    """`wbf` output in `oracle_wbf`'s row shape."""
    return [(f.cls, f.x1, f.y1, f.x2, f.y2, f.confidence, f.support_count,
             tuple((b.source, b) for b in f.members))
            for f in out]


class TestTablePathAgainstOracles:
    """Class groups below, around and far above TABLE_MIN, checked exactly against oracles."""

    def test_groups_hold_the_edge_cases(self):
        boxes = table_boxes(1, 250)[:250]
        pairs = [(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]]
        assert any(iou(a, b) == 0.5 for a, b in pairs)
        assert any(a.x2 == b.x1 and a.y1 == b.y1 for a, b in pairs)
        assert any(a == b for a, b in pairs)
        assert any(a.confidence == b.confidence and a.source != b.source for a, b in pairs)
        assert any((b.x2 - b.x1) * (b.y2 - b.y1) == 0.0 for b in boxes)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nms_is_the_greedy_fixpoint(self, n, seed):
        boxes = table_boxes(seed, n)
        for threshold in (0.5, 0.3):
            out = nms([ds(*boxes)], FusionParams(iou_threshold=threshold))
            assert check_nms_fixpoint(boxes, out, threshold)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("sigma,floor", [(0.5, 0.001), (2.0, 0.05), (0.5, 1.0)])
    def test_soft_nms_equals_oracle(self, n, seed, sigma, floor):
        boxes = table_boxes(seed, n)
        out = soft_nms([ds(*boxes)], FusionParams(soft_nms_sigma=sigma, score_floor=floor))
        assert out == oracle_soft_nms(boxes, sigma, floor)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multi_model_nms_and_soft_nms_equal_oracles_on_pooled_boxes(self, n, seed):
        # one source per model, so the pooled list's input order is each
        # model's order, models in turn
        models = by_source(table_boxes(seed, n))
        pooled = [b for m in models for b in m]
        out = nms(models, PARAMS_50)
        assert check_nms_fixpoint(pooled, out, 0.5)
        assert out == nms([ds(*pooled)], PARAMS_50)
        params = FusionParams(soft_nms_sigma=0.5, score_floor=0.001)
        assert soft_nms(models, params) == oracle_soft_nms(pooled, 0.5, 0.001)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (0.0, 1.0, 0.3)])
    def test_wbf_equals_oracle(self, n, seed, weights):
        # plus two overlapping confidence-0 boxes, which fuse with no confidence mass
        zero_mass = [box(0.1, 0.1, 0.5, 0.5, 0.0, cls=2, source=1),
                     box(0.12, 0.1, 0.5, 0.52, 0.0, cls=2, source=2)]
        models = by_source(table_boxes(seed, n) + zero_mass)
        got = wbf_rows(wbf(models, FusionParams(iou_threshold=0.5, model_weights=weights)))
        assert got == oracle_wbf(models, weights, 0.5)
        assert (2, *zero_mass[0][1:5], 0.0, 2, ((1, zero_mass[0]), (2, zero_mass[1]))) in got


def dense_group(rng, n):
    """n class-0 boxes from 3 sources, shaped like dense detector noise:
    `synth`'s box sizes, confidences drawn from its false-positive range."""
    boxes = []
    for k in range(n):
        w, h = (float(v) for v in rng.uniform(*BOX_SIZE_RANGE, 2))
        cx, cy = float(rng.uniform(w / 2, 1 - w / 2)), float(rng.uniform(h / 2, 1 - h / 2))
        conf = float(rng.uniform(*FP_CONF_RANGE))
        boxes.append(box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, conf, source=k % 3))
    return boxes


def filler(n, conf):
    """n <= 32 small class-0 boxes in a strip at the foot of the frame, apart from
    each other and from every box above y = 0.95."""
    return [box(i / 32, 0.95, (i + 0.5) / 32, 0.99, conf) for i in range(n)]


class TestNeighbourSweepsAgainstOracles:
    """Large groups, whose sweeps visit only overlap neighbours, against the oracles
    (WBF's first-cluster case also without the filler, in a small group)."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_dense_group(self, seed):
        models = by_source(dense_group(np.random.default_rng(seed), 200))
        pooled = [b for m in models for b in m]
        for sigma, floor in [(0.5, 0.001), (0.05, 0.3)]:
            params = FusionParams(soft_nms_sigma=sigma, score_floor=floor)
            assert soft_nms(models, params) == oracle_soft_nms(pooled, sigma, floor)
        for threshold in (0.55, 0.3):
            for weights in [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0)]:
                params = FusionParams(iou_threshold=threshold, model_weights=weights)
                out = wbf(models, params)
                assert wbf_rows(out) == oracle_wbf(models, weights, threshold)
                assert any(len(f.members) > 1 for f in out)

    def test_floor_drops_a_box_after_a_later_pick(self):
        second = box(0.5, 0.5, 0.7, 0.7, 0.5)
        victim = box(0.5, 0.5, 0.7, 0.68, 0.2)  # IoU 0.9 with `second` only
        boxes = [box(0.0, 0.0, 0.2, 0.2, 0.9), second, victim] + filler(TABLE_MIN, 0.3)
        sigma, floor = 0.1, 0.15
        out = soft_nms([ds(*boxes)], FusionParams(soft_nms_sigma=sigma, score_floor=floor))
        assert out == oracle_soft_nms(boxes, sigma, floor)
        # kept after the first pick, dropped by the second, before the filler is picked
        assert len(out) == len(boxes) - 1 and victim not in out

    def test_decay_factor_that_rounds_to_one(self):
        first = box(0.1, 0.1, 0.3, 0.3, 0.9)
        sliver = box(0.3 - 2**-30, 0.1, 0.5, 0.3, 0.5)  # overlaps `first` by a sliver
        ov = iou(first, sliver)
        assert 0.0 < ov < 1e-8 and math.exp(-(ov * ov) / 0.5) == 1.0
        boxes = [first, sliver, box(0.6, 0.6, 0.8, 0.8, 0.5)] + filler(TABLE_MIN, 0.3)
        params = FusionParams(soft_nms_sigma=0.5, score_floor=0.001)
        out = soft_nms([ds(*boxes)], params)
        assert out == oracle_soft_nms(boxes, 0.5, 0.001)
        assert out[:3] == boxes[:3]

    @pytest.mark.parametrize("decayed_first", [True, False])
    def test_boxes_that_tie_only_after_decay(self, decayed_first):
        sigma = 0.5
        pick = box(0.0, 0.0, 0.3, 0.3, 0.9)
        decayed = box(0.1, 0.1, 0.4, 0.4, 0.8)
        ov = iou(pick, decayed)
        tied = box(0.6, 0.6, 0.9, 0.9, 0.8 * math.exp(-(ov * ov) / sigma))
        under_both = box(0.35, 0.35, 0.65, 0.65, 0.3)  # decayed by both, in pick order
        pair = [decayed, tied] if decayed_first else [tied, decayed]
        boxes = [pick, *pair, under_both] + filler(TABLE_MIN, 0.1)
        out = soft_nms([ds(*boxes)], FusionParams(soft_nms_sigma=sigma, score_floor=0.001))
        assert out == oracle_soft_nms(boxes, sigma, 0.001)
        assert out[1].confidence == out[2].confidence == tied.confidence
        assert out[1][1:5] == pair[0][1:5]

    @pytest.mark.parametrize("padded", [True, False], ids=["indexed", "scan-all"])
    @pytest.mark.parametrize("merged_first", [True, False])
    def test_wbf_first_overlapping_cluster(self, merged_first, padded):
        # along one strip: IoU(lone, merged members) < 0.55 < IoU(probe, either cluster);
        # with the filler, the group reaches TABLE_MIN and the sweep finds the lone
        # cluster through the overlap index instead of comparing every cluster
        lone = box(0.0, 0.2, 0.5, 0.4, 0.0)
        merged = [box(0.15, 0.2, 0.65, 0.4, 0.0), box(0.16, 0.2, 0.66, 0.4, 0.0)]
        probe = box(0.075, 0.2, 0.575, 0.4, 0.5)
        lead = [*merged, lone] if merged_first else [lone, *merged]
        lead = [b._replace(confidence=c) for b, c in zip(lead, (0.9, 0.85, 0.8))]
        boxes = [*lead, probe] + (filler(TABLE_MIN, 0.1) if padded else [])
        out = wbf([ds(*boxes)], FusionParams(iou_threshold=0.55))
        assert wbf_rows(out) == oracle_wbf([ds(*boxes)], (1.0,), 0.55)
        joined = lead[:2] if merged_first else lead[:1]
        assert (*joined, probe) in [f.members for f in out]

def degenerate_boxes():
    """Zero-area, touching, identical, full-frame, tiny and signed-zero boxes."""
    return [
        box(0.2, 0.2, 0.2, 0.2, 0.5),  # point
        box(0.2, 0.1, 0.2, 0.6, 0.5),  # vertical segment
        box(0.1, 0.3, 0.7, 0.3, 0.5),  # horizontal segment
        box(0.0, 0.0, 1.0, 1.0, 0.5),  # full frame
        box(0.0, 0.0, 1.0, 1.0, 0.4),  # its duplicate
        box(0.5, 0.0, 1.0, 1.0, 0.5),  # touches the next along x = 0.5
        box(0.0, 0.0, 0.5, 1.0, 0.5),
        box(0.0, 0.5, 1.0, 1.0, 0.5),  # touches the next along y = 0.5
        box(0.0, 0.0, 1.0, 0.5, 0.5),
        box(-0.0, -0.0, 0.3, 0.3, 0.5),
        box(0.3, 0.3, 0.3 + 1e-200, 0.3 + 1e-200, 0.5),  # intersection underflows
        box(0.3, 0.3, 0.3 + 1e-15, 0.3 + 1e-15, 0.5),
        box(0.0, 0.0, 5e-324, 5e-324, 0.5),  # subnormal corner
        box(0.1, 0.1, 0.1 + 2**-52, 0.9, 0.5),
    ]


def overlap_pairs(boxes):
    """`_overlaps(boxes)` as {(row, col): iou.hex()}, after checking its order and shape."""
    rows, cols, ovs = _overlaps(boxes)
    assert len(rows) == len(cols) == len(ovs)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    assert pairs == sorted(set(pairs))  # row then column, each pair once
    got = {p: float(ov).hex() for p, ov in zip(pairs, ovs.tolist())}
    assert all(got[j, i] == v for (i, j), v in got.items())  # both ways, same bits
    return got


def scalar_pairs(boxes):
    """{(i, j): iou.hex()} of every pair i != j whose scalar IoU is > 0."""
    return {
        (i, j): iou(a, b).hex()
        for i, a in enumerate(boxes)
        for j, b in enumerate(boxes)
        if i != j and iou(a, b) > 0.0
    }


class TestOverlaps:
    """`_overlaps` lists exactly the pairs with IoU > 0, each IoU bit-equal to `iou`."""

    def test_degenerate_boxes(self):
        boxes = degenerate_boxes()
        assert overlap_pairs(boxes) == scalar_pairs(boxes)

    def test_pairs_equal_scalar_iou_bit_for_bit(self):
        rng = np.random.default_rng(77)
        boxes = degenerate_boxes()
        for _ in range(60):  # off-grid floats, so rounding differs pair to pair
            x = np.sort(rng.uniform(0, 1, 2))
            y = np.sort(rng.uniform(0, 1, 2))
            boxes.append(box(float(x[0]), float(y[0]), float(x[1]), float(y[1]), 0.5))
        boxes += [random_box(rng) for _ in range(30)] + table_group(rng, 60)
        rng.shuffle(boxes)  # the sweep sorts by x1 itself
        want = scalar_pairs(boxes)
        assert 0 < len(want) < len(boxes) * (len(boxes) - 1)
        assert overlap_pairs(boxes) == want

    def test_crowded_group_with_tied_x1(self):
        # every pair overlaps, and x1 ties in every run of three boxes
        boxes = [box(0.1 + (k // 3) * 0.001, 0.2, 0.6 + k * 0.002, 0.7 - k * 0.001, 0.5)
                 for k in range(40)]
        got = overlap_pairs(boxes)
        assert len(got) == 40 * 39
        assert got == scalar_pairs(boxes)
