import math
from dataclasses import replace

import numpy as np
import pytest

from boxvote.errors import ConfigError, ScenarioError
from boxvote.geometry import iou
from boxvote.synth import (
    ClassSpec,
    ScenarioSpec,
    SourceSpec,
    generate,
    reference_scenarios,
    scaled,
)
from oracles import oracle_generate


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

    def test_duplicate_class_id_rejected(self):
        spec = simple_spec(
            classes=(ClassSpec(0, 1.0), ClassSpec(0, 2.0)),
            sources=(SourceSpec("s", 10, {0: 1.0}),),
        )
        with pytest.raises(ScenarioError, match="duplicate class id") as err:
            generate(spec)
        assert isinstance(err.value, ConfigError)  # the CLI's exit 2

    def test_detect_prob_for_unknown_class_rejected(self):
        spec = simple_spec(sources=(SourceSpec("typo", 10, {0: 1.0, 7: 0.0}),))
        with pytest.raises(ScenarioError, match=r"'typo': detect_prob\[7\] names no class") as err:
            generate(spec)
        assert isinstance(err.value, ConfigError)  # the CLI's exit 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["frequency", "coord_noise", "conf_mean", "conf_std", "fp_rate"]
    )
    def test_non_finite_number_rejected(self, field, value):
        spec = simple_spec()
        needle = field
        if field == "frequency":
            spec = replace(spec, classes=(ClassSpec(0, 1.0), ClassSpec(1, value)))
            needle = "frequencies"
        else:
            spec = replace(spec, sources=(replace(spec.sources[0], **{field: value}),))
        with pytest.raises(ScenarioError, match=needle) as err:
            generate(spec)
        assert isinstance(err.value, ConfigError)  # the CLI's exit 2

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


def box_fields(boxes):
    """Each box's type and fields, floats by their bits (np.float64 is a float)."""
    return [
        (type(b), tuple(v.hex() if isinstance(v, float) else v for v in b)) for b in boxes
    ]


def builtin_typed(boxes):
    return all(type(v) in (int, float) for b in boxes for v in b)


def assert_generates_as_oracle(spec):
    gt, domains = generate(spec)
    want_gt, want_domains = oracle_generate(spec)
    assert list(gt.entries) == list(want_gt.entries)
    for image_id, boxes in gt.entries.items():
        assert box_fields(boxes) == box_fields(want_gt.entries[image_id])
        assert builtin_typed(boxes)
    assert len(domains) == len(want_domains)
    for got, want in zip(domains, want_domains):
        assert (got.source_id, got.name, got.dataset_size) == (
            want.source_id, want.name, want.dataset_size
        )
        assert list(got.detections) == list(want.detections)
        for image_id, ds in got.detections.items():
            assert ds.image_id == image_id
            assert box_fields(ds.boxes) == box_fields(want.detections[image_id].boxes)
            assert builtin_typed(ds.boxes)


def edge_specs():
    noisy = dict(coord_noise=0.03, conf_mean=0.7, conf_std=0.3, fp_rate=1.5)
    base = ScenarioSpec(
        seed=2718,
        num_images=40,
        classes=(ClassSpec(5, 3.0), ClassSpec(2, 1.0), ClassSpec(9, 6.0)),
        sources=(
            SourceSpec("poison", 10, fp_rate=4.0, poisonous=True),
            SourceSpec("half", 20, {5: 0.5, 2: 0.0, 9: 1.0}, **noisy),
            SourceSpec("exact", 30, {5: 1.0, 2: 1.0, 9: 1.0}, coord_noise=0.0),
        ),
    )
    return {
        "unsorted-ids-unnormalised-poison-first": base,
        "single-class": replace(
            base, classes=(ClassSpec(7, 0.25),),
            sources=tuple(replace(s, detect_prob={7: 0.8}) for s in base.sources),
        ),
        "never-detects": replace(base, sources=(
            SourceSpec("blind", 5, {5: 0.0, 2: 0.0, 9: 0.0}, coord_noise=0.05, fp_rate=0.0),
        )),
        "always-detects-no-noise-no-fp": replace(base, sources=(
            SourceSpec("exact", 5, {5: 1.0, 2: 1.0, 9: 1.0}, coord_noise=0.0, fp_rate=0.0),
            SourceSpec("noisy", 5, {5: 1.0, 2: 1.0, 9: 1.0}, coord_noise=0.2, conf_std=1.0),
        )),
        "dense": replace(base, num_images=5, classes=base.classes[:2], sources=(
            SourceSpec("dense", 5, {5: 0.9, 2: 0.9}, coord_noise=0.02, fp_rate=200.0),
            SourceSpec("dense_poison", 5, fp_rate=200.0, poisonous=True),
        )),
    }


class TestDrawContract:
    """`generate` draws what the one-numpy-call-per-draw oracle draws, bit for bit."""

    @pytest.mark.parametrize("seed", [None, 1, 7, 12345])
    @pytest.mark.parametrize("name", sorted(reference_scenarios()))
    def test_reference_scenarios(self, name, seed):
        spec = scaled(reference_scenarios()[name], 60).spec
        assert_generates_as_oracle(spec if seed is None else replace(spec, seed=seed))

    @pytest.mark.parametrize("name", sorted(edge_specs()))
    def test_edge_specs(self, name):
        assert_generates_as_oracle(edge_specs()[name])

    def test_reference_boxes_hold_builtin_numbers(self):
        for scenario in reference_scenarios().values():
            gt, domains = generate(scenario.spec)
            boxes = [b for bs in gt.entries.values() for b in bs]
            boxes += [b for d in domains for ds in d.detections.values() for b in ds]
            assert boxes and builtin_typed(boxes)
            assert all(type(b.cls) is int for b in boxes)
