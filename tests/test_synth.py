import math

import numpy as np
import pytest

from boxvote.errors import ScenarioError
from boxvote.geometry import iou
from boxvote.synth import (
    ClassSpec,
    ScenarioSpec,
    SourceSpec,
    generate,
    reference_scenarios,
    scaled,
)


def simple_spec(**overrides):
    kwargs = dict(
        seed=1234,
        num_images=5,
        classes=(ClassSpec(0, 1.0), ClassSpec(1, 1.0)),
        sources=(
            SourceSpec("perfect", 10, {0: 1.0, 1: 1.0}, coord_noise=0.0, fp_rate=0.0),
        ),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestGenerate:
    def test_noiseless_perfect_detector_matches_gt(self):
        gt, [src] = generate(simple_spec())
        for iid, gt_boxes in gt.entries.items():
            dets = src.detections[iid].boxes
            assert len(dets) == len(gt_boxes)
            for g, d in zip(gt_boxes, dets):
                assert (d.x1, d.y1, d.x2, d.y2) == (g.x1, g.y1, g.x2, g.y2)
                assert d.cls == g.cls

    def test_same_seed_identical_output(self):
        a = generate(simple_spec(sources=(
            SourceSpec("s", 10, {0: 0.8, 1: 0.7}, coord_noise=0.02, fp_rate=0.5),
        )))
        b = generate(simple_spec(sources=(
            SourceSpec("s", 10, {0: 0.8, 1: 0.7}, coord_noise=0.02, fp_rate=0.5),
        )))
        assert a[0] == b[0]
        assert [s.detections for s in a[1]] == [s.detections for s in b[1]]

    def test_different_seed_differs(self):
        a = generate(simple_spec())
        b = generate(simple_spec(seed=4321))
        assert a[0] != b[0]

    def test_class_counts_within_three_sigma(self):
        freqs = (4556.0, 1333.0, 234.0)
        spec = simple_spec(
            seed=90210,
            num_images=500,
            classes=tuple(ClassSpec(i, f) for i, f in enumerate(freqs)),
        )
        gt, _ = generate(spec)
        counts = {0: 0, 1: 0, 2: 0}
        for boxes in gt.entries.values():
            for b in boxes:
                counts[b.cls] += 1
        n = sum(counts.values())
        total = sum(freqs)
        for i, f in enumerate(freqs):
            p = f / total
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[i] - n * p) <= 3 * sigma

    def test_invalid_spec_rejected(self):
        with pytest.raises(ScenarioError):
            generate(simple_spec(num_images=0))
        with pytest.raises(ScenarioError):
            generate(simple_spec(classes=(ClassSpec(0, -1.0),)))
        with pytest.raises(ScenarioError):
            generate(simple_spec(sources=(
                SourceSpec("bad", 10, {0: 1.5}),
            )))

    def test_boxes_are_valid(self):
        spec = simple_spec(sources=(
            SourceSpec("noisy", 10, {0: 0.9, 1: 0.9}, coord_noise=0.1, fp_rate=2.0),
        ))
        _, [src] = generate(spec)
        for ds in src.detections.values():
            for b in ds.boxes:
                assert 0.0 <= b.x1 <= b.x2 <= 1.0
                assert 0.0 <= b.y1 <= b.y2 <= 1.0
                assert 0.0 <= b.confidence <= 1.0


class TestReferenceScenarios:
    def test_names_and_seeds_pinned(self):
        scenarios = reference_scenarios()
        assert set(scenarios) == {"three_good", "two_good_one_poison", "long_tail_gated"}
        assert all(isinstance(s.spec.seed, int) for s in scenarios.values())

    def test_exactly_one_poisonous_source(self):
        spec = reference_scenarios()["two_good_one_poison"].spec
        assert sum(1 for s in spec.sources if s.poisonous) == 1

    def test_long_tail_gates(self):
        sc = reference_scenarios()["long_tail_gated"]
        assert sc.gates.gate(2) == 0.5
        assert sc.gates.gate(0) == 0.8
        assert sc.gates.gate(1) == 0.8

    def test_poisonous_boxes_uncorrelated_with_gt(self):
        sc = reference_scenarios()["two_good_one_poison"]
        gt, domains = generate(sc.spec)
        poison = next(d for d in domains if d.name == "poison")
        ious = []
        for iid, ds in poison.detections.items():
            for b in ds.boxes:
                best = max((iou(b, g) for g in gt.entries[iid]), default=0.0)
                ious.append(best)
        assert ious, "poisonous source generated no boxes at this seed"
        assert sum(ious) / len(ious) < 0.1

    def test_scaled_changes_only_image_count(self):
        sc = reference_scenarios()["three_good"]
        big = scaled(sc, 100)
        assert big.spec.num_images == 100
        assert big.spec.seed == sc.spec.seed
        assert big.gates == sc.gates
