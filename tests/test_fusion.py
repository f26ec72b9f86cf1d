import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxvote import fusion
from boxvote.errors import ConfigError, NegativeWeightError, WeightArityMismatchError
from boxvote.fusion import (
    TABLE_MIN,
    ConfidenceGates,
    NO_GATES,
    FusionParams,
    _neighbours,
    _overlaps,
    apply_gates,
    knowledge_vote,
    nms,
    soft_nms,
    wbf,
)
from boxvote.geometry import Box, DetectionSet, iou
from boxvote.synth import BOX_SIZE_RANGE, FP_CONF_RANGE
from helpers import one_image
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
    ("soft_nms_sigma", math.inf, ConfigError),
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
        out = apply_gates(dets, gates)
        assert [b.cls for b in out] == [1]

    def test_zero_gates_keep_all_is_identity(self):
        dets = ds(box(0, 0, 1, 1, 0.3), box(0, 0, 0.5, 0.5, 0.1, cls=2))
        assert apply_gates(dets, ConfidenceGates()) == dets.boxes

    def test_a_tuple_that_loses_no_box_is_returned_as_is(self):
        boxes = (box(0, 0, 1, 1, 0.9, cls=0), box(0, 0, 0.5, 0.5, 0.3, cls=1))
        assert apply_gates(boxes, ConfidenceGates(gates={1: 0.3})) is boxes
        assert apply_gates(boxes, NO_GATES) is boxes
        # a new tuple when a box is dropped, or when the input is not a tuple
        assert apply_gates(boxes, ConfidenceGates(gates={1: 0.4})) == boxes[:1]
        as_list = list(boxes)
        out = apply_gates(as_list, NO_GATES)
        assert type(out) is tuple and out == boxes

    def test_disjoint_filter_empties(self):
        dets = ds(box(0, 0, 1, 1, 0.9, cls=0), box(0, 0, 1, 1, 0.9, cls=1))
        assert apply_gates(dets, ConfidenceGates(classes=frozenset({2}))) == ()

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        dets = ds(*(random_box(rng) for _ in range(30)))
        gates = ConfidenceGates(gates={0: 0.4, 1: 0.7}, default_gate=0.2)
        once = apply_gates(dets, gates)
        assert apply_gates(once, gates) == once

    def test_empty_class_set_is_config_error(self):
        # None keeps every class; an empty set would keep none
        with pytest.raises(ConfigError, match="keep_listed filter"):
            ConfidenceGates(classes=frozenset())

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.5, 1.0])
                                | st.floats(0, 1)), max_size=12),
        per_class=st.dictionaries(st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.5, 1.0])
                                  | st.floats(0, 1), max_size=4),
        default=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        classes=st.none() | st.frozensets(st.integers(0, 3), min_size=1),
    )
    def test_keeps_exactly_the_listed_classes_at_or_above_their_gate(
        self, rows, per_class, default, classes
    ):
        # confidences are drawn from the gate values too, so some sit exactly on a gate
        dets = [box(0.1, 0.1, 0.5, 0.5, conf, cls=cls, source=i % 3)
                for i, (cls, conf) in enumerate(rows)]
        gates = ConfidenceGates(gates=per_class, default_gate=default, classes=classes)
        kept = []
        for b in dets:
            listed = classes is None or b.cls in classes
            gate = per_class[b.cls] if b.cls in per_class else default
            if listed and not b.confidence < gate:
                kept.append(b)
        out = apply_gates(dets, gates)
        assert len(out) == len(kept)
        assert all(got is want for got, want in zip(out, kept))  # the input boxes, in order


class TestNms:
    def test_exact_duplicate_suppressed(self):
        out = one_image(nms, [ds(box(0, 0, 1, 1, 0.9), box(0, 0, 1, 1, 0.8))], PARAMS_50)
        assert [b.confidence for b in out] == [0.9]

    def test_disjoint_both_kept(self):
        out = one_image(nms, [ds(box(0, 0, 0.4, 1, 0.9), box(0.6, 0, 1, 1, 0.8))], PARAMS_50)
        assert len(out) == 2

    def test_chain_hand_trace(self):
        # iou(A,B)=0.6, iou(B,C)=0.6, iou(A,C)=1/3 -> {A, C} at threshold 0.5
        a = box(0.0, 0, 0.5, 1, 0.9)
        b = box(0.125, 0, 0.625, 1, 0.8)
        c = box(0.25, 0, 0.75, 1, 0.7)
        assert iou(a, b) == pytest.approx(0.6)
        assert iou(b, c) == pytest.approx(0.6)
        out = one_image(nms, [ds(a, b, c)], PARAMS_50)
        assert set(bx.confidence for bx in out) == {0.9, 0.7}
        assert check_nms_fixpoint([a, b, c], out, 0.5)

    def test_classes_do_not_interact(self):
        out = one_image(nms, [ds(box(0, 0, 1, 1, 0.9, cls=0), box(0, 0, 1, 1, 0.8, cls=1))],
                        PARAMS_50)
        assert len(out) == 2

    def test_antichain_and_greedy_fixpoint_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            boxes = [random_box(rng) for _ in range(int(rng.integers(1, 12)))]
            out = one_image(nms, [ds(*boxes)], PARAMS_50)
            for i, b1 in enumerate(out):
                for b2 in out[i + 1 :]:
                    if b1.cls == b2.cls:
                        assert iou(b1, b2) <= 0.5
            assert check_nms_fixpoint(boxes, out, 0.5)


class TestSoftNms:
    def test_gaussian_decay_closed_form(self):
        params = FusionParams(soft_nms_sigma=0.5)
        out = one_image(soft_nms, [ds(box(0, 0, 1, 1, 0.9), box(0, 0, 1, 1, 0.8))], params)
        assert len(out) == 2
        assert out[0].confidence == 0.9
        assert out[1].confidence == pytest.approx(0.8 * math.exp(-1 / 0.5), abs=1e-12)

    def test_disjoint_confidences_unchanged(self):
        out = one_image(soft_nms, [ds(box(0, 0, 0.4, 1, 0.9), box(0.6, 0, 1, 1, 0.8))], PARAMS_50)
        assert sorted(b.confidence for b in out) == [0.8, 0.9]

    def test_score_floor_one_keeps_one_per_class(self):
        rng = np.random.default_rng(3)
        boxes = [random_box(rng, cls=int(rng.integers(0, 2))) for _ in range(20)]
        boxes = [b for b in boxes if b.confidence < 1.0]
        params = FusionParams(score_floor=1.0)
        out = one_image(soft_nms, [ds(*boxes)], params)
        per_class = {}
        for b in out:
            per_class[b.cls] = per_class.get(b.cls, 0) + 1
        assert all(v == 1 for v in per_class.values())

    def test_output_sorted_by_decayed_confidence(self):
        rng = np.random.default_rng(4)
        out = one_image(soft_nms, [ds(*(random_box(rng) for _ in range(15)))], PARAMS_50)
        confs = [b.confidence for b in out]
        assert confs == sorted(confs, reverse=True)


def two_model_pair():
    m1 = ds(box(0, 0, 1, 1, 0.8, source=0))
    m2 = ds(box(0, 0.2, 1, 1, 0.4, source=1))
    return [m1, m2]


class TestWbf:
    def test_no_model_and_no_box_fuse_to_nothing(self):
        assert wbf([], FusionParams()) == []
        assert knowledge_vote([], FusionParams()) == []
        assert one_image(wbf, [ds(), ()], FusionParams()) == []

    def test_singleton_identity(self):
        b = box(0.1, 0.2, 0.6, 0.9, 0.77)
        [f] = one_image(wbf, [ds(b)], FusionParams())
        assert (f.x1, f.y1, f.x2, f.y2, f.confidence) == (0.1, 0.2, 0.6, 0.9, 0.77)
        assert f.support_count == 1

    def test_weighted_mean_hand_arithmetic(self):
        [f] = one_image(wbf, two_model_pair(), FusionParams())
        assert f.x1 == pytest.approx(0.0, abs=1e-12)
        assert f.y1 == pytest.approx((0.8 * 0 + 0.4 * 0.2) / 1.2, abs=1e-12)
        assert f.confidence == pytest.approx(0.6, abs=1e-12)
        assert f.support_count == 2

    def test_support_ratio_rescale_full_support_is_noop(self):
        [f] = one_image(wbf, two_model_pair(), FusionParams(confidence_rescale="support_ratio"))
        assert f.confidence == pytest.approx(0.6, abs=1e-12)

    def test_support_ratio_rescale_partial_support(self):
        m1 = ds(box(0, 0, 1, 1, 0.8, source=0))
        m2 = ds(image_id="img")
        [f] = one_image(wbf, [m1, m2], FusionParams(confidence_rescale="support_ratio"))
        assert f.confidence == pytest.approx(0.4, abs=1e-12)

    def test_disjoint_third_model_two_clusters(self):
        m1 = ds(box(0, 0, 0.4, 0.4, 0.8, source=0))
        m2 = ds(box(0, 0, 0.4, 0.42, 0.7, source=1))
        m3 = ds(box(0.6, 0.6, 1, 1, 0.6, source=2))
        out = one_image(wbf, [m1, m2, m3], FusionParams())
        assert sorted(f.support_count for f in out) == [1, 2]

    def test_weight_arity_mismatch(self):
        with pytest.raises(WeightArityMismatchError):
            one_image(wbf, two_model_pair(), FusionParams(model_weights=(1.0,)))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(WeightArityMismatchError):
            one_image(wbf, two_model_pair(), FusionParams(model_weights=(0.0, 0.0)))

    def test_negative_weight_rejected_as_weight_error(self):
        with pytest.raises(NegativeWeightError) as exc:
            one_image(wbf, two_model_pair(), FusionParams(model_weights=(1.0, -1.0)))
        assert isinstance(exc.value, WeightArityMismatchError)

    def test_zero_weight_model_excluded_entirely(self):
        out = one_image(wbf, two_model_pair(), FusionParams(model_weights=(1.0, 0.0)))
        assert len(out) == 1
        assert out[0].support_count == 1
        assert out[0].confidence == 0.8

    def test_coordinate_containment_and_confidence_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            models = _random_models(rng)
            out = one_image(wbf, models, FusionParams())
            want = oracle_wbf(models, (1.0,) * len(models), 0.55)
            assert wbf_rows(out) == oracle_rows(want)
            for f, row in zip(out, want):
                xs1 = [b.x1 for _, b in row[7]]
                confs = [b.confidence for _, b in row[7]]
                assert min(xs1) - 1e-12 <= f.x1 <= max(xs1) + 1e-12
                assert min(confs) - 1e-12 <= f.confidence <= max(confs) + 1e-12

    def test_support_ratio_never_increases_confidence(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            models = _random_models(rng)
            plain = one_image(wbf, models, FusionParams())
            rescaled = one_image(wbf, models, FusionParams(confidence_rescale="support_ratio"))
            for a, b in zip(
                sorted(plain, key=fused_box_key), sorted(rescaled, key=fused_box_key)
            ):
                assert b.confidence <= a.confidence + 1e-12

    @pytest.mark.parametrize("rescale", ["none", "support_ratio"])
    def test_one_member_cluster_reuses_its_box_fields(self, rescale):
        # class 300 is past CPython's cached small ints, so `is` tells a reused int
        lone = [box(0.11, 0.12, 0.31, 0.32, 0.93, cls=300, source=0),
                box(0.61, 0.62, 0.91, 0.92, 0.43, cls=300, source=1)]
        m1, m2 = two_model_pair()
        out = one_image(wbf, [ds(lone[0], *m1), ds(*m2, lone[1])],
                  FusionParams(confidence_rescale=rescale))
        single = [f for f in out if f.support_count == 1]  # the pair fuses
        assert len(out) == 3 and len(single) == 2
        for f, b in zip(single, lone):
            assert all(x is y for x, y in zip(f[:5], b[:5]))
            if rescale == "none":
                assert f.confidence is b.confidence
            else:  # support 1 of 2 models
                assert f.confidence is not b.confidence and f.confidence == b.confidence / 2


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
        out = one_image(knowledge_vote, [m1, m2, m3], FusionParams(gates=gates))
        assert len(out) == 1
        assert out[0].cls == 1
        assert out[0].support_count == 2

    def test_zero_gates_equals_plain_wbf(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            models = _random_models(rng)
            kv = one_image(knowledge_vote, models, FusionParams())
            assert sorted(kv, key=fused_box_key) == sorted(
                one_image(wbf, models, FusionParams()), key=fused_box_key
            )

    def test_impossible_gates_empty_output(self):
        rng = np.random.default_rng(32)
        models = _random_models(rng)
        models = [
            ds(*(b for b in m.boxes if b.confidence < 1.0), image_id=m.image_id)
            for m in models
        ]
        params = FusionParams(gates=ConfidenceGates(default_gate=1.0))
        out = one_image(knowledge_vote, models, params)
        assert out == []

    def test_every_member_passes_its_gate(self):
        rng = np.random.default_rng(33)
        gates = ConfidenceGates(gates={0: 0.3, 1: 0.6}, default_gate=0.5)
        for _ in range(30):
            models = _random_models(rng)
            out = one_image(knowledge_vote, models, FusionParams(gates=gates))
            want = oracle_wbf([ds(*apply_gates(m, gates)) for m in models],
                              (1.0,) * len(models), 0.55)
            assert wbf_rows(out) == oracle_rows(want)
            for row in want:
                for _, b in row[7]:
                    assert b.confidence >= gates.gate(row[0])


@pytest.mark.parametrize("fn", [nms, soft_nms, wbf], ids=["nms", "soft_nms", "wbf"])
def test_only_the_knowledge_vote_reads_the_gates(fn):
    # gates that keep only class 0 and drop every box below 1.0 change nothing here
    rng = np.random.default_rng(34)
    gated = FusionParams(gates=ConfidenceGates(default_gate=1.0, classes=frozenset({0})))
    for _ in range(30):
        models = _random_models(rng)
        assert one_image(fn, models, gated) == one_image(fn, models, FusionParams())


class TestWbfAlgebra:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            models = _random_models(rng, n_models=4)
            weights = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(4))
            base = one_image(wbf, models, FusionParams(model_weights=weights))
            perm = rng.permutation(4)
            shuffled = [models[i] for i in perm]
            wperm = tuple(weights[i] for i in perm)
            out = one_image(wbf, shuffled, FusionParams(model_weights=wperm))
            assert sorted(base, key=fused_box_key) == sorted(out, key=fused_box_key)

    def test_weight_scaling_invariance_power_of_two(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            models = _random_models(rng, n_models=3)
            weights = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(3))
            k = 2.0 ** int(rng.integers(-3, 8))
            base = one_image(wbf, models, FusionParams(model_weights=weights))
            scaled = one_image(
                wbf, models, FusionParams(model_weights=tuple(k * w for w in weights))
            )
            assert sorted(base, key=fused_box_key) == sorted(scaled, key=fused_box_key)

    def test_weight_scaling_invariance_arbitrary_constant(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            models = _random_models(rng, n_models=3)
            weights = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(3))
            k = float(rng.uniform(0.2, 9.0))
            base = sorted(one_image(wbf, models, FusionParams(model_weights=weights)),
                          key=fused_box_key)
            scaled = sorted(
                one_image(wbf, models, FusionParams(model_weights=tuple(k * w for w in weights))),
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
            out = one_image(wbf, [ds(*boxes)], FusionParams())
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
    which comes first.

    WBF runs on copies at confidence 0: their cluster has no mass, so it
    keeps its first member's box, which shows which box leads.
    """

    A = box(0.0, 0.0, 0.5, 0.5, 0.7)
    B = box(0.0, 0.0, 0.5, 0.6, 0.7)  # iou(A, B) = 5/6

    def test_model_order_breaks_a_full_tie(self):
        a, b = self.A, self.B
        assert one_image(nms, [ds(a), ds(b)], PARAMS_50) == [a]
        assert one_image(nms, [ds(b), ds(a)], PARAMS_50) == [b]
        for first, second in ((a, b), (b, a)):
            out = one_image(soft_nms, [ds(first), ds(second)], PARAMS_50)
            assert out[0] == first
            assert out[1] == second._replace(confidence=out[1].confidence)
            assert out[1].confidence < 0.7
            zero = [ds(first._replace(confidence=0.0)), ds(second._replace(confidence=0.0))]
            # y2 0.5 for A, 0.6 for B
            assert one_image(wbf, zero, PARAMS_50) == [(*first[:5], 0.0, 1)]

    def test_source_and_position_come_before_model_order(self):
        a, b = self.A._replace(source=2), self.B._replace(source=1)
        assert one_image(nms, [ds(a), ds(b)], PARAMS_50) == [b]
        a0, b0 = a._replace(confidence=0.0), b._replace(confidence=0.0)
        assert one_image(wbf, [ds(a0), ds(b0)], PARAMS_50) == [(*b[:5], 0.0, 2)]
        far = box(0.8, 0.8, 0.9, 0.9, 0.7)
        a, b = self.A, self.B
        # b is first in its list, a second in its own
        assert one_image(nms, [ds(far, a), ds(b)], PARAMS_50) == [far, b]
        assert one_image(soft_nms, [ds(far, a), ds(b)], PARAMS_50)[:2] == [far, b]
        a0, b0 = a._replace(confidence=0.0), b._replace(confidence=0.0)
        assert one_image(wbf, [ds(far, a0), ds(b0)], PARAMS_50) == [(*far[:6], 1), (*b[:5], 0.0, 1)]


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
    """`wbf` output as plain tuples, in the shape of `oracle_rows`."""
    return [tuple(f) for f in out]


def oracle_rows(rows):
    """`oracle_wbf` rows without their last element, the members."""
    return [row[:7] for row in rows]


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
            out = one_image(nms, [ds(*boxes)], FusionParams(iou_threshold=threshold))
            assert check_nms_fixpoint(boxes, out, threshold)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("sigma,floor", [(0.5, 0.001), (2.0, 0.05), (0.5, 1.0)])
    def test_soft_nms_equals_oracle(self, n, seed, sigma, floor):
        boxes = table_boxes(seed, n)
        params = FusionParams(soft_nms_sigma=sigma, score_floor=floor)
        out = one_image(soft_nms, [ds(*boxes)], params)
        assert out == oracle_soft_nms(boxes, sigma, floor)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multi_model_nms_and_soft_nms_equal_oracles_on_pooled_boxes(self, n, seed):
        # one source per model, so the pooled list's input order is each
        # model's order, models in turn
        models = by_source(table_boxes(seed, n))
        pooled = [b for m in models for b in m]
        out = one_image(nms, models, PARAMS_50)
        assert check_nms_fixpoint(pooled, out, 0.5)
        assert out == one_image(nms, [ds(*pooled)], PARAMS_50)
        params = FusionParams(soft_nms_sigma=0.5, score_floor=0.001)
        assert one_image(soft_nms, models, params) == oracle_soft_nms(pooled, 0.5, 0.001)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (0.0, 1.0, 0.3)])
    def test_wbf_equals_oracle(self, n, seed, weights):
        # plus two overlapping confidence-0 boxes, which fuse with no confidence mass
        zero_mass = [box(0.1, 0.1, 0.5, 0.5, 0.0, cls=2, source=1),
                     box(0.12, 0.1, 0.5, 0.52, 0.0, cls=2, source=2)]
        models = by_source(table_boxes(seed, n) + zero_mass)
        params = FusionParams(iou_threshold=0.5, model_weights=weights)
        got = wbf_rows(one_image(wbf, models, params))
        assert got == oracle_rows(oracle_wbf(models, weights, 0.5))
        assert (2, *zero_mass[0][1:5], 0.0, 2) in got


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
    assert n <= 32, f"filler holds at most 32 in-frame boxes, asked for {n}"
    return [box(i / 32, 0.95, (i + 0.5) / 32, 0.99, conf) for i in range(n)]


PADDED = pytest.mark.parametrize("padded", [True, False], ids=["indexed", "scalar"])


class TestNeighbourSweepsAgainstOracles:
    """Sweeps over overlap neighbours against the oracles. The hand-made cases run
    with a filler that takes the group to TABLE_MIN, and without it, in a small group."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_dense_group(self, seed):
        models = by_source(dense_group(np.random.default_rng(seed), 200))
        pooled = [b for m in models for b in m]
        for sigma, floor in [(0.5, 0.001), (0.05, 0.3)]:
            params = FusionParams(soft_nms_sigma=sigma, score_floor=floor)
            assert one_image(soft_nms, models, params) == oracle_soft_nms(pooled, sigma, floor)
        for threshold in (0.55, 0.3):
            for weights in [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0)]:
                params = FusionParams(iou_threshold=threshold, model_weights=weights)
                want = oracle_wbf(models, weights, threshold)
                assert wbf_rows(one_image(wbf, models, params)) == oracle_rows(want)
                assert any(len(row[7]) > 1 for row in want)

    @PADDED
    def test_floor_drops_a_box_after_a_later_pick(self, padded):
        second = box(0.5, 0.5, 0.7, 0.7, 0.5)
        victim = box(0.5, 0.5, 0.7, 0.68, 0.2)  # IoU 0.9 with `second` only
        boxes = [box(0.0, 0.0, 0.2, 0.2, 0.9), second, victim]
        boxes += filler(TABLE_MIN, 0.3) if padded else []
        sigma, floor = 0.1, 0.15
        params = FusionParams(soft_nms_sigma=sigma, score_floor=floor)
        out = one_image(soft_nms, [ds(*boxes)], params)
        assert out == oracle_soft_nms(boxes, sigma, floor)
        # kept after the first pick, dropped by the second, before the filler is picked
        assert len(out) == len(boxes) - 1 and victim not in out

    @PADDED
    def test_decay_factor_that_rounds_to_one(self, padded):
        first = box(0.1, 0.1, 0.3, 0.3, 0.9)
        sliver = box(0.3 - 2**-30, 0.1, 0.5, 0.3, 0.5)  # overlaps `first` by a sliver
        ov = iou(first, sliver)
        assert 0.0 < ov < 1e-8 and math.exp(-(ov * ov) / 0.5) == 1.0
        boxes = [first, sliver, box(0.6, 0.6, 0.8, 0.8, 0.5)]
        boxes += filler(TABLE_MIN, 0.3) if padded else []
        params = FusionParams(soft_nms_sigma=0.5, score_floor=0.001)
        out = one_image(soft_nms, [ds(*boxes)], params)
        assert out == oracle_soft_nms(boxes, 0.5, 0.001)
        assert out[:3] == boxes[:3]

    @PADDED
    @pytest.mark.parametrize("decayed_first", [True, False])
    def test_boxes_that_tie_only_after_decay(self, decayed_first, padded):
        sigma = 0.5
        pick = box(0.0, 0.0, 0.3, 0.3, 0.9)
        decayed = box(0.1, 0.1, 0.4, 0.4, 0.8)
        ov = iou(pick, decayed)
        tied = box(0.6, 0.6, 0.9, 0.9, 0.8 * math.exp(-(ov * ov) / sigma))
        under_both = box(0.35, 0.35, 0.65, 0.65, 0.3)  # decayed by both, in pick order
        pair = [decayed, tied] if decayed_first else [tied, decayed]
        boxes = [pick, *pair, under_both] + (filler(TABLE_MIN, 0.1) if padded else [])
        params = FusionParams(soft_nms_sigma=sigma, score_floor=0.001)
        out = one_image(soft_nms, [ds(*boxes)], params)
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
        want = oracle_wbf([ds(*boxes)], (1.0,), 0.55)
        got = one_image(wbf, [ds(*boxes)], FusionParams(iou_threshold=0.55))
        assert wbf_rows(got) == oracle_rows(want)
        joined = lead[:2] if merged_first else lead[:1]
        assert (*joined, probe) in [tuple(b for _, b in row[7]) for row in want]

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
    """`_overlaps` of the boxes as {(row, col): iou.hex()}, after checking its order and shape."""
    rows, cols, ovs = _overlaps(np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes]).T)
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


def shuffled_mix(seed):
    """Degenerate, off-grid and random boxes and a `table_group`, shuffled."""
    rng = np.random.default_rng(seed)
    boxes = degenerate_boxes()
    for _ in range(60):
        x = np.sort(rng.uniform(0, 1, 2))
        y = np.sort(rng.uniform(0, 1, 2))
        boxes.append(box(float(x[0]), float(y[0]), float(x[1]), float(y[1]), 0.5))
    boxes += [random_box(rng) for _ in range(30)] + table_group(rng, 60)
    rng.shuffle(boxes)
    return boxes


class TestNeighbours:
    """`_neighbours` on both sides of TABLE_MIN: per position, every other box whose
    IoU with it is over the threshold, in position order, each IoU bit-equal to `iou`."""

    @staticmethod
    def check(boxes):
        pairs = sorted(scalar_pairs(boxes).items())
        for threshold in (0.0, 0.3, 0.5, 0.55):
            want = [[] for _ in boxes]
            for (i, j), ov in pairs:
                if float.fromhex(ov) > threshold:
                    want[i].append((j, ov))
            got = [[(j, ov.hex()) for j, ov in row] for row in _neighbours(boxes, threshold)]
            assert got == want

    def test_degenerate_boxes(self):
        self.check(degenerate_boxes())

    def test_shuffled_mix(self):
        self.check(shuffled_mix(77))

    @pytest.mark.parametrize("n", [TABLE_MIN - 1, TABLE_MIN])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_group(self, n, seed):
        self.check(table_group(np.random.default_rng(seed), n))

    def test_small_group_calls_iou_once_per_pair_that_can_overlap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fusion, "iou", lambda a, b: calls.append((a, b)) or iou(a, b))
        boxes = degenerate_boxes()
        assert len(boxes) < TABLE_MIN
        _neighbours(boxes, 0.0)
        # the pairs i < j that pass the strict axis test; boxes that touch fail it
        want = [(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1:]
                if a.x1 < b.x2 and b.x1 < a.x2 and a.y1 < b.y2 and b.y1 < a.y2]
        assert len(want) < len(boxes) * (len(boxes) - 1) // 2
        assert calls == want


def batch_images(seed, n_images=15, sizes=()):
    """Images of three models for the batched WBF sweep, one box list per model.

    Each image holds `table_group` boxes of one to three classes, split by
    source over the models, so a group carries confidence ties, duplicates,
    IoUs of exactly 0.5 and zero-area boxes. Every fifth image has no box,
    and each image starting with the second repeats one of its boxes in two
    models at confidence 0 as class 5, which fuse into a cluster without
    mass, and at x1 = -0.0 as class 6. A class-0 group of each of `sizes`
    boxes is added, one image each.
    """
    rng = np.random.default_rng(seed)
    images = []
    for k in range(n_images):
        boxes = []
        if k % 5 != 4:
            for cls in range(int(rng.integers(1, 4))):
                boxes += table_group(rng, int(rng.integers(1, 10)), cls=cls)
        if k and boxes:
            b = boxes[int(rng.integers(0, len(boxes)))]
            boxes += [b._replace(cls=5, confidence=0.0, source=s) for s in (0, 2)]
            # at the left edge as -0.0, which a fused x1 sums to 0.0
            boxes += [b._replace(cls=6, x1=-0.0, source=s) for s in (0, 2)]
        images.append([[b for b in boxes if b.source == s] for s in range(3)])
    for n in sizes:
        boxes = table_group(rng, n)
        images.append([[b for b in boxes if b.source == s] for s in range(3)])
    return images


def per_model(images):
    return [[image[m] for image in images] for m in range(len(images[0]))]


# (weights, rescaling): uniform, a zero model weight, and support-ratio rescaling
BATCH_PARAMS = [
    FusionParams(iou_threshold=0.5),
    FusionParams(iou_threshold=0.5, model_weights=(0.5, 0.0, 0.25)),
    FusionParams(model_weights=(0.2, 0.7, 0.1), confidence_rescale="support_ratio"),
]


def oracle_images(images, params):
    """`oracle_rows` of each image at `params`, `support_ratio` applied as `wbf` does:
    each confidence times min(support, models of positive weight) / that count,
    then the rows re-sorted by the new confidence."""
    weights = params.model_weights or (1.0,) * len(images[0])
    n_active = sum(w > 0.0 for w in weights)
    out = []
    for image in images:
        rows = oracle_rows(oracle_wbf([ds(*boxes) for boxes in image], weights,
                                      params.iou_threshold))
        if params.confidence_rescale == "support_ratio":
            rows = [(*r[:5], r[5] * (min(r[6], n_active) / n_active), *r[6:]) for r in rows]
            rows.sort(key=lambda r: (-r[5], *r[:5]))
        out.append(rows)
    return out


def row_bits(images_rows):
    """`oracle_rows` with each float as its repr, so 0.0 and -0.0 differ."""
    return [[(r[0], *map(repr, r[1:6]), *r[6:]) for r in rows] for rows in images_rows]


class TestBatchedWbf:
    """The batched sweep (`_wbf_batch`, `wbf`) against `oracle_wbf`, with `==`."""

    @pytest.mark.parametrize("params", BATCH_PARAMS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_images_equal_per_image_wbf(self, params, seed):
        images = batch_images(seed, sizes=(TABLE_MIN - 1, TABLE_MIN, TABLE_MIN + 1))
        got = fusion.wbf(per_model(images), params)
        want = oracle_images(images, params)
        assert [wbf_rows(out) for out in got] == want
        assert row_bits([wbf_rows(out) for out in got]) == row_bits(want)
        assert any(f.confidence == 0.0 and f.support_count == 2 for out in got for f in out)
        assert any(f.cls == 6 and repr(f.x1) == "0.0" for out in got for f in out)
        assert [] in got

    @pytest.mark.parametrize("limit", [1, 3, 40, 4096])
    def test_batches_of_any_size(self, monkeypatch, limit):
        # with 1 or 3 boxes per batch, most images pass a batch alone
        monkeypatch.setattr(fusion, "BATCH_BOXES", limit)
        images = batch_images(4, n_images=40)
        sizes = [sum(map(len, image)) for image in images]
        assert (len(fusion._batches(sizes)) > 1) == (sum(sizes) > limit)
        for params in BATCH_PARAMS:
            got = fusion.wbf(per_model(images), params)
            assert [wbf_rows(out) for out in got] == oracle_images(images, params)

    def test_run_past_one_batch_and_an_image_past_a_batch(self):
        images = batch_images(5, n_images=fusion.BATCH_BOXES // 4)
        rng = np.random.default_rng(6)
        per_class = fusion.BATCH_BOXES // 40 + 3
        boxes = [b for cls in range(40) for b in table_group(rng, per_class, cls)]
        images.append([[b for b in boxes if b.source == s] for s in range(3)])
        sizes = [sum(map(len, image)) for image in images]
        assert sum(sizes) > 2 * fusion.BATCH_BOXES and sizes[-1] > fusion.BATCH_BOXES
        assert fusion._batches(sizes)[-1] == range(len(images) - 1, len(images))
        got = fusion.wbf(per_model(images), BATCH_PARAMS[0])
        assert [wbf_rows(out) for out in got] == oracle_images(images, BATCH_PARAMS[0])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_groups_equal_oracle_wbf(self, seed):
        """Each group of one `_wbf_batch` call clusters as `oracle_wbf` does,
        on both sides of TABLE_MIN."""
        rng = np.random.default_rng(seed)
        groups = []
        for n in (1, 2, 5, 9, TABLE_MIN - 1, TABLE_MIN, TABLE_MIN + 1, 3):
            boxes = table_group(rng, n, cls=n % 4)
            # priority order at weight 0.5: weighted confidence, source, position
            order = sorted(range(n), key=lambda i: (
                -(boxes[i].confidence * 0.5), boxes[i].source, i))
            groups.append([boxes[i] for i in order])
        rows = [b for group in groups for b in group]
        cols = np.array([(b.x1, b.y1, b.x2, b.y2, b.confidence, 0.5, b.source)
                         for b in rows]).T
        cl = fusion._wbf_batch(cols[:4], cols[4], cols[5], cols[6],
                               [len(group) for group in groups],
                               np.array([group[0].cls for group in groups]), 0.5)
        want = [oracle_wbf([ds(*group)], (0.5,), 0.5) for group in groups]
        assert cl.count.tolist() == [len(w) for w in want]
        got = [(rows[i[0]].cls, *box, c, n_b, tuple((rows[k].source, rows[k]) for k in i))
               for box, c, n_b, i in zip(
                   cl.box.T.tolist(), cl.conf.tolist(), cl.support.tolist(),
                   (np.flatnonzero(cl.of_row == j) for j in range(len(cl.conf))))]
        ends = np.cumsum(cl.count).tolist()
        for w, a, b in zip(want, [0, *ends], ends):  # in cluster order, sorted as the oracle's
            assert sorted(got[a:b], key=lambda r: (-r[5], *r[:5])) == w


FUSIONS = pytest.mark.parametrize("fn", [nms, soft_nms, wbf, knowledge_vote],
                                  ids=["nms", "soft_nms", "wbf", "knowledge_vote"])


class TestCallShape:
    """Every fusion takes per_model[m][k], model m's boxes on image k, and
    returns one list per image, in image order."""

    @FUSIONS
    def test_one_list_per_image_each_as_its_own_call(self, fn):
        images = batch_images(8, n_images=12)
        params = FusionParams(gates=ConfidenceGates(default_gate=0.4))
        got = fn(per_model(images), params)
        assert len(got) == len(images) and [] in got
        assert got == [one_image(fn, image, params) for image in images]

    @FUSIONS
    def test_no_model_gives_no_image(self, fn):
        assert fn([], FusionParams()) == []

    @FUSIONS
    @pytest.mark.parametrize("counts", [(2, 1), (1, 2), (0, 1), (2, 2, 3)])
    def test_models_with_different_image_counts_raise(self, fn, counts):
        b = box(0.1, 0.1, 0.5, 0.5, 0.9)
        models = [[(b,)] * n for n in counts]
        with pytest.raises(ValueError):
            fn(models, FusionParams())

    def test_a_zero_weight_model_is_counted_too(self):
        b = box(0.1, 0.1, 0.5, 0.5, 0.9)
        with pytest.raises(ValueError):
            wbf([[(b,)], [(b,), (b,)]], FusionParams(model_weights=(1.0, 0.0)))


# class ids and sources past 2**53, which float64 does not hold exactly, and
# past the largest float
class TestIdsPastFloat:
    """WBF groups, orders and counts support by the exact ids, as `nms` and `oracle_wbf` do."""

    @pytest.mark.parametrize("low", [2**53, 2**53 + 1, 2**64 + 7, 10**400],
                             ids=["2**53", "2**53+1", "2**64+7", "10**400"])
    def test_classes_one_apart_stay_apart(self, low):
        classes = [low + 1, low, 7]  # not in class order
        boxes = [box(0.1, 0.1, 0.5, 0.5, 0.9, cls=c, source=1) for c in classes]
        models = [ds(b) for b in boxes]
        got = one_image(wbf, models, FusionParams())
        assert wbf_rows(got) == oracle_rows(oracle_wbf(models, (1.0,) * 3, 0.55))
        assert [f.cls for f in got] == sorted(classes)
        assert all(f.support_count == 1 for f in got)
        assert sorted(one_image(nms, models, PARAMS_50)) == sorted(boxes)

    @pytest.mark.parametrize("sources", [(2**53, 2**53 + 1), (10**400, 10**400 + 1), (-1, 2**63)])
    def test_sources_one_apart_both_count(self, sources):
        models = [ds(box(0.1, 0.1, 0.5, 0.5, 0.9, cls=3, source=s)) for s in sources]
        models.append(ds(box(0.1, 0.1, 0.5, 0.52, 0.9, cls=3, source=sources[0])))
        got = one_image(wbf, models, FusionParams())
        assert wbf_rows(got) == oracle_rows(oracle_wbf(models, (1.0,) * 3, 0.55))
        assert [f.support_count for f in got] == [2]

    def test_source_order_breaks_a_tie_exactly(self):
        # equal confidences: the lower source leads, and with no mass its box is kept
        a = box(0.0, 0.0, 0.5, 0.5, 0.0, cls=2**53, source=2**53 + 1)
        b = box(0.0, 0.0, 0.5, 0.6, 0.0, cls=2**53, source=2**53)
        models = [ds(a), ds(b)]
        got = one_image(wbf, models, PARAMS_50)
        assert wbf_rows(got) == oracle_rows(oracle_wbf(models, (1.0, 1.0), 0.5))
        assert got == [(*b[:5], 0.0, 2)]
