import itertools
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from boxvote import cli, consensus, fusion
from boxvote.cli import run_consensus
from boxvote.consensus import (
    CF_EPSILON,
    ConsensusScorer,
    ContributionReport,
    SourceDomain,
    SourceEnsemble,
    compute_weights,
    consensus_focus_scores,
    consensus_quality,
    shapley_scores,
    weighted_fusion,
)
from boxvote.errors import ConfigError, DegenerateEnsembleError, EmptySubsetError
from boxvote.fusion import ConfidenceGates, FusionParams, apply_gates, knowledge_vote
from boxvote.geometry import Box, DetectionSet
from boxvote.synth import generate, reference_scenarios
from oracles import (
    fused_box_key,
    oracle_consensus_quality,
    oracle_wbf,
    oracle_weights,
    random_box,
)

NO_GATES = ConfidenceGates()
PARAMS = FusionParams()


def domain(source_id, dets_per_image, name=None, size=1):
    detections = {
        iid: DetectionSet(iid, tuple(boxes)) for iid, boxes in dets_per_image.items()
    }
    return SourceDomain(
        source_id=source_id,
        name=name or f"src{source_id}",
        dataset_size=size,
        detections=detections,
    )


def make_scorer(ens, params=PARAMS):
    return ConsensusScorer(ens.sources, ens.target_image_ids, params)


def random_ensemble(rng, n_sources, n_images, max_boxes=5):
    ids = [f"img{j}" for j in range(n_images)]
    sources = []
    for i in range(1, n_sources + 1):
        dets = {
            iid: [
                random_box(rng, source=i)
                for _ in range(int(rng.integers(0, max_boxes + 1)))
            ]
            for iid in ids
        }
        sources.append(domain(i, dets, size=int(rng.integers(1, 200))))
    return SourceEnsemble(sources=tuple(sources), target_image_ids=tuple(ids))


class TestConsensusQuality:
    def test_two_model_single_cluster(self):
        b1 = Box(cls=0, x1=0, y1=0, x2=1, y2=1, confidence=0.8, source=1)
        b2 = Box(cls=0, x1=0, y1=0, x2=1, y2=1, confidence=0.6, source=2)
        subset = [domain(1, {"img": [b1]}), domain(2, {"img": [b2]})]
        q = consensus_quality(subset, ["img"], PARAMS)
        assert q == pytest.approx(2 * 0.7, abs=1e-12)

    def test_fully_gated_subset_is_zero(self):
        b = Box(cls=0, x1=0, y1=0, x2=1, y2=1, confidence=0.4, source=1)
        subset = [domain(1, {"img": [b]})]
        gates = ConfidenceGates(default_gate=0.9)
        assert consensus_quality(subset, ["img"], replace(PARAMS, gates=gates)) == 0.0

    def test_single_model_single_box(self):
        b = Box(cls=0, x1=0, y1=0, x2=1, y2=1, confidence=0.37, source=1)
        subset = [domain(1, {"img": [b]})]
        assert consensus_quality(subset, ["img"], PARAMS) == 0.37

    def test_empty_subset_raises(self):
        with pytest.raises(EmptySubsetError):
            consensus_quality([], ["img"], PARAMS)

    def test_additivity_over_image_partitions(self):
        rng = np.random.default_rng(51)
        ens = random_ensemble(rng, 3, 6)
        full = consensus_quality(
            list(ens.sources), ens.target_image_ids, PARAMS
        )
        first = consensus_quality(
            list(ens.sources), ens.target_image_ids[:2], PARAMS
        )
        rest = consensus_quality(
            list(ens.sources), ens.target_image_ids[2:], PARAMS
        )
        assert full == pytest.approx(first + rest, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            ens = random_ensemble(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            got = consensus_quality(
                list(ens.sources), ens.target_image_ids, PARAMS
            )
            want = oracle_consensus_quality(
                list(ens.sources), ens.target_image_ids, NO_GATES,
                PARAMS.iou_threshold,
            )
            assert got == pytest.approx(want, abs=1e-12)


class TestConsensusFocusScores:
    def test_single_source_raises(self):
        rng = np.random.default_rng(61)
        ens = random_ensemble(rng, 1, 3)
        with pytest.raises(DegenerateEnsembleError):
            consensus_focus_scores(make_scorer(ens))

    def test_duplicated_source_symmetry(self):
        rng = np.random.default_rng(62)
        base = random_ensemble(rng, 1, 4)
        src = base.sources[0]
        twin_dets = {
            iid: DetectionSet(iid, tuple(b._replace(source=2) for b in ds.boxes))
            for iid, ds in src.detections.items()
        }
        twin = SourceDomain(2, "twin", src.dataset_size, twin_dets)
        ens = SourceEnsemble(
            sources=(src, twin), target_image_ids=base.target_image_ids
        )
        report = consensus_focus_scores(make_scorer(ens))
        assert report.cf[1] == pytest.approx(report.cf[2], abs=1e-12)

    def test_non_participating_source_gets_epsilon(self):
        strong = Box(cls=0, x1=0, y1=0, x2=1, y2=1, confidence=0.9, source=1)
        weak = Box(cls=0, x1=0, y1=0, x2=1, y2=1, confidence=0.3, source=2)
        ens = SourceEnsemble(
            sources=(
                domain(1, {"img": [strong]}),
                domain(2, {"img": [weak]}),
            ),
            target_image_ids=("img",),
        )
        gates = ConfidenceGates(default_gate=0.5)  # source 2 fully gated out
        report = consensus_focus_scores(make_scorer(ens, replace(PARAMS, gates=gates)))
        assert report.q_leave_one_out[2] == report.q_full
        assert report.cf[2] == 0.0
        assert report.cf_clamped[2] == CF_EPSILON

    def test_leave_one_out_consistency(self):
        rng = np.random.default_rng(63)
        ens = random_ensemble(rng, 4, 4)
        report = consensus_focus_scores(make_scorer(ens))
        for i, src in enumerate(ens.sources):
            rest = list(ens.sources[:i]) + list(ens.sources[i + 1 :])
            direct = consensus_quality(
                rest, ens.target_image_ids, PARAMS
            )
            assert report.q_leave_one_out[src.source_id] == direct

    def test_poisonous_source_has_smallest_cf(self):
        scenario = reference_scenarios()["two_good_one_poison"]
        _, domains = generate(scenario.spec)
        ens = SourceEnsemble(
            sources=tuple(domains),
            target_image_ids=tuple(sorted(domains[0].detections)),
        )
        report = consensus_focus_scores(make_scorer(ens, replace(PARAMS, gates=scenario.gates)))
        poison_id = 3
        assert report.cf[poison_id] < min(report.cf[1], report.cf[2])
        # cross-check all four subset qualities against the brute-force oracle
        want_full = oracle_consensus_quality(
            list(ens.sources), ens.target_image_ids, scenario.gates,
            PARAMS.iou_threshold,
        )
        assert report.q_full == pytest.approx(want_full, abs=1e-9)
        for i in range(3):
            rest = [s for j, s in enumerate(ens.sources) if j != i]
            want = oracle_consensus_quality(
                rest, ens.target_image_ids, scenario.gates,
                PARAMS.iou_threshold,
            )
            assert report.q_leave_one_out[i + 1] == pytest.approx(want, abs=1e-9)


class TestComputeWeights:
    def _report(self, cf):
        r = ContributionReport()
        r.cf = dict(cf)
        r.cf_clamped = {k: max(v, CF_EPSILON) for k, v in cf.items()}
        return r

    def test_alpha_extended_direct(self):
        r = compute_weights(self._report({1: 1.0, 2: 1.0}), {1: 100, 2: 100}, 100)
        assert r.alpha_extended == pytest.approx(1 / 3, abs=1e-15)

    def test_equal_sizes_equal_cf_split_evenly(self):
        r = compute_weights(
            self._report({1: 2.5, 2: 2.5, 3: 2.5}), {1: 50, 2: 50, 3: 50}, 30
        )
        expected = (1 - r.alpha_extended) / 3
        for i in (1, 2, 3):
            assert r.alpha[i] == pytest.approx(expected, abs=1e-15)

    def test_worked_example_exact(self):
        r = compute_weights(self._report({1: 2.0, 2: 1.0}), {1: 200, 2: 100}, 100)
        assert r.alpha_extended == 0.25
        assert r.alpha[1] == 0.6
        assert r.alpha[2] == 0.15

    def test_simplex_and_oracle_agreement(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            sizes = {i: int(rng.integers(1, 1000)) for i in range(1, n + 1)}
            cf = {i: float(rng.uniform(-1, 5)) for i in range(1, n + 1)}
            target = int(rng.integers(1, 500))
            r = compute_weights(self._report(cf), sizes, target)
            total = sum(r.alpha.values()) + r.alpha_extended
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(a >= 0 for a in r.alpha.values())
            want_ext, want_alpha = oracle_weights(sizes, r.cf_clamped, target)
            assert r.alpha_extended == pytest.approx(want_ext, abs=1e-15)
            for i in r.alpha:
                assert r.alpha[i] == pytest.approx(want_alpha[i], abs=1e-12)

    def test_overflowing_size_weighted_total_is_a_config_error(self):
        # each size is a float, but size * contribution is not
        report = self._report({1: 24.0, 2: 23.0, 3: 26.0})
        with pytest.raises(ConfigError, match="dataset_size"):
            compute_weights(report, {1: 10**308, 2: 10**308, 3: 10**308}, 100)

    def test_size_scaling_preserves_alpha_ratios(self):
        sizes = {1: 40, 2: 70, 3: 10}
        cf = {1: 1.0, 2: 0.5, 3: 2.0}
        a = compute_weights(self._report(cf), sizes, 100).alpha
        b = compute_weights(
            self._report(cf), {k: 7 * v for k, v in sizes.items()}, 100
        ).alpha
        for i in (2, 3):
            assert a[i] / a[1] == pytest.approx(b[i] / b[1], abs=1e-12)


class TestShapley:
    def test_read_subsets_caps_enumeration(self):
        n = consensus.MAX_SHAPLEY_SOURCES
        assert len(consensus.read_subsets(n, shapley=True)) == 2**n - 1
        assert len(consensus.read_subsets(n + 1, shapley=False)) == n + 2
        with pytest.raises(DegenerateEnsembleError, match=f"got {n + 1}"):
            consensus.read_subsets(n + 1, shapley=True)

    def test_two_sources_matches_marginal_average(self):
        rng = np.random.default_rng(81)
        ens = random_ensemble(rng, 2, 3)
        q12 = consensus_quality(
            list(ens.sources), ens.target_image_ids, PARAMS
        )
        q1 = consensus_quality(
            [ens.sources[0]], ens.target_image_ids, PARAMS
        )
        q2 = consensus_quality(
            [ens.sources[1]], ens.target_image_ids, PARAMS
        )
        phi = shapley_scores(make_scorer(ens))
        assert phi[1] == pytest.approx((q1 + (q12 - q2)) / 2, abs=1e-12)
        assert phi[2] == pytest.approx((q2 + (q12 - q1)) / 2, abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(82)
        ens = random_ensemble(rng, 3, 3)
        phi = shapley_scores(make_scorer(ens))
        q_full = consensus_quality(
            list(ens.sources), ens.target_image_ids, PARAMS
        )
        assert sum(phi.values()) == pytest.approx(q_full, abs=1e-9)


class TestWeightedFusion:
    def _weighted(self, ens, alpha):
        report = ContributionReport()
        report.alpha = alpha
        return weighted_fusion(make_scorer(ens), report)

    def test_uniform_alpha_matches_unweighted(self):
        rng = np.random.default_rng(91)
        ens = random_ensemble(rng, 3, 3)
        fused = self._weighted(ens, {1: 0.25, 2: 0.25, 3: 0.25})
        uparams = FusionParams(model_weights=(1.0, 1.0, 1.0))
        ids = ens.target_image_ids
        plain = knowledge_vote([[s.for_image(iid) for iid in ids] for s in ens.sources], uparams)
        for iid, out in zip(ids, plain, strict=True):
            got = sorted(fused[iid], key=fused_box_key)
            want = sorted(out, key=fused_box_key)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.support_count == b.support_count
                for field in ("x1", "y1", "x2", "y2", "confidence"):
                    assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_zero_alpha_source_excluded(self):
        rng = np.random.default_rng(92)
        ens = random_ensemble(rng, 3, 3)
        fused = self._weighted(ens, {1: 0.5, 2: 0.5, 3: 0.0})
        uparams = FusionParams(model_weights=(0.5, 0.5))
        ids = ens.target_image_ids
        want = knowledge_vote([[s.for_image(iid) for iid in ids] for s in ens.sources[:2]],
                              uparams)
        for iid, out in zip(ids, want, strict=True):
            assert sorted(fused[iid], key=fused_box_key) == sorted(out, key=fused_box_key)

    def test_one_member_clusters_reuse_their_box_fields(self):
        rng = np.random.default_rng(93)
        ens = random_ensemble(rng, 3, 4)
        fused = self._weighted(ens, {1: 0.5, 2: 0.25, 3: 0.25})
        reused = 0
        for iid in ens.target_image_ids:
            per_model = [DetectionSet(iid, tuple(s.for_image(iid))) for s in ens.sources]
            want = oracle_wbf(per_model, (0.5, 0.25, 0.25), PARAMS.iou_threshold)
            assert [tuple(f) for f in fused[iid]] == [row[:7] for row in want]
            for f, row in zip(fused[iid], want):
                if len(row[7]) == 1:  # (cls, x1, y1, x2, y2, confidence) are the box's own
                    b = row[7][0][1]
                    assert all(x is y for x, y in zip(f[:6], b[:6]))
                    reused += 1
        assert reused > 0


class TestWeightedFusionQuality:
    def test_gt_matched_confidences_not_degraded_by_reweighting(self):
        # Down-weighting a poisonous source should leave the confidences of
        # boxes that actually hit ground truth essentially unchanged or
        # better.  The comparison is per-box against plain uniform WBF; a
        # small tolerance absorbs the perturbation of the weighted mean
        # among the benign sources.
        from boxvote.geometry import iou

        scenario = reference_scenarios()["two_good_one_poison"]
        gt, domains = generate(scenario.spec)
        ens = SourceEnsemble(
            sources=tuple(domains),
            target_image_ids=tuple(sorted(domains[0].detections)),
        )
        report = consensus_focus_scores(make_scorer(ens, replace(PARAMS, gates=scenario.gates)))
        report = compute_weights(
            report,
            {s.source_id: s.dataset_size for s in ens.sources},
            len(ens.target_image_ids),
        )
        weighted = weighted_fusion(make_scorer(ens, replace(PARAMS, gates=scenario.gates)), report)

        def best_match(boxes, g):
            candidates = [b for b in boxes if b.cls == g.cls and iou(b, g) >= 0.5]
            return max(candidates, key=lambda b: iou(b, g), default=None)

        compared = 0
        ids = ens.target_image_ids
        plain = knowledge_vote([[s.for_image(iid) for iid in ids] for s in ens.sources],
                               replace(PARAMS, gates=scenario.gates))
        for iid, plain_boxes in zip(ids, plain, strict=True):
            for g in gt.entries[iid]:
                w = best_match(weighted[iid], g)
                p = best_match(plain_boxes, g)
                if w is None or p is None:
                    continue
                assert w.confidence >= p.confidence - 0.01
                compared += 1
        assert compared > 20


class TestPseudoLabels:
    """The weighted pass's fused dict is the pseudo-label set, written as it is."""

    def _run(self):
        ens, params = scoring_case(3)
        manifest = SimpleNamespace(fusion=params)
        return ens, *run_consensus(manifest, ens)

    def test_run_consensus_returns_every_target_image(self):
        ens, _, fused = self._run()
        assert list(fused) == list(ens.target_image_ids)
        assert fused["img5"] == []  # no source has a box on img5

    def test_file_marks_empty_images_and_keeps_support_counts(self, tmp_path):
        _, report, fused = self._run()
        cli._write_consensus(tmp_path, report, fused)
        lines = (tmp_path / "pseudo_labels.txt").read_text().splitlines()
        empty = sorted(iid for iid, boxes in fused.items() if not boxes)
        assert "img5" in empty
        assert [ln for ln in lines if ln.startswith("#")] == [f"# empty {iid}" for iid in empty]

        def key(iid, cls, coords_and_conf, support):
            return (iid, int(cls), *(f"{float(v):.9g}" for v in coords_and_conf), int(support))

        got = Counter(
            key(parts[0], parts[1], parts[2:7], parts[7])
            for parts in (ln.split() for ln in lines if not ln.startswith("#"))
        )
        want = Counter(
            key(iid, f.cls, (f.x1, f.y1, f.x2, f.y2, f.confidence), f.support_count)
            for iid, boxes in fused.items()
            for f in boxes
        )
        assert got == want
        assert max(k[-1] for k in want) > 1  # img0's boxes are shared by every source


# (sources, confidence rescaling of the weighted pass, seed)
SCORING_CASES = [(2, "none", 101), (3, "support_ratio", 102), (4, "none", 103)]


def scoring_case(n_sources, rescale="none", seed=100):
    """A seeded ensemble and params with every case scoring must handle.

    Per-class gates and a default gate; gates that keep classes 0-2 and drop
    class 3; source 1 lacks img1 and no source has img5; every other source
    repeats source 1's img0 boxes at the same confidence (ties across
    sources).
    """
    rng = np.random.default_rng(seed)
    ids = tuple(f"img{j}" for j in range(6))
    first = None
    sources = []
    for i in range(1, n_sources + 1):
        dets = {
            iid: [random_box(rng, source=i, n_classes=4)
                  for _ in range(int(rng.integers(1, 7)))]
            for iid in ids[:5]
        }
        if first is None:
            del dets["img1"]
            first = dets["img0"]
        else:
            dets["img0"] += [b._replace(source=i) for b in first]
        sources.append(domain(i, dets, size=int(rng.integers(1, 200))))
    ens = SourceEnsemble(sources=tuple(sources), target_image_ids=ids)
    gates = ConfidenceGates(gates={0: 0.3, 2: 0.55}, default_gate=0.1, classes=frozenset({0, 1, 2}))
    return ens, FusionParams(iou_threshold=0.5, confidence_rescale=rescale, gates=gates)


def knowledge_vote_quality(subset, ens, params):
    """Consensus quality summed over per-image knowledge votes, re-gating each time:
    `oracle_wbf` of the gated boxes at uniform weights, its rows in `wbf`'s order."""
    total = 0.0
    for iid in ens.target_image_ids:
        gated = [DetectionSet(iid, apply_gates(s.for_image(iid), params.gates)) for s in subset]
        for row in oracle_wbf(gated, (1.0,) * len(subset), params.iou_threshold):
            total += row[6] * row[5]  # support count * fused confidence
    return total


def without(ens, i):
    return [s for j, s in enumerate(ens.sources) if j != i]


class TestSharedScoring:
    @pytest.mark.parametrize("n_sources,rescale,seed", SCORING_CASES)
    def test_run_consensus_equals_independent_calls(self, n_sources, rescale, seed):
        ens, params = scoring_case(n_sources, rescale, seed)
        manifest = SimpleNamespace(fusion=params)
        report, fused = run_consensus(manifest, ens, shapley=True)

        want = consensus_focus_scores(make_scorer(ens, params))
        want = compute_weights(
            want,
            {s.source_id: s.dataset_size for s in ens.sources},
            len(ens.target_image_ids),
        )
        want.shapley = shapley_scores(make_scorer(ens, params))
        for name in ("q_full", "q_leave_one_out", "cf", "cf_clamped", "alpha",
                     "alpha_extended", "shapley"):
            assert getattr(report, name) == getattr(want, name), name
        assert fused == weighted_fusion(make_scorer(ens, params), want)

        # the same floats as re-gating and knowledge-voting every subset
        assert report.q_full == knowledge_vote_quality(ens.sources, ens, params)
        for i, src in enumerate(ens.sources):
            assert report.q_leave_one_out[src.source_id] == knowledge_vote_quality(
                without(ens, i), ens, params
            )
        weighted = replace(
            params, model_weights=tuple(report.alpha[s.source_id] for s in ens.sources)
        )
        assert list(fused) == list(ens.target_image_ids)
        per_model = [[s.for_image(iid) for iid in ens.target_image_ids] for s in ens.sources]
        assert list(fused.values()) == knowledge_vote(per_model, weighted)

    @pytest.mark.parametrize("n_sources,rescale,seed", SCORING_CASES)
    def test_qualities_match_bruteforce_oracle(self, n_sources, rescale, seed):
        ens, params = scoring_case(n_sources, rescale, seed)
        manifest = SimpleNamespace(fusion=params)
        report, _ = run_consensus(manifest, ens, shapley=True)
        want = oracle_consensus_quality(
            list(ens.sources), ens.target_image_ids, params.gates, params.iou_threshold
        )
        assert report.q_full == pytest.approx(want, abs=1e-12)  # c01's tolerance
        for i, src in enumerate(ens.sources):
            want = oracle_consensus_quality(
                without(ens, i), ens.target_image_ids, params.gates, params.iou_threshold
            )
            assert report.q_leave_one_out[src.source_id] == pytest.approx(want, abs=1e-12)

    def test_gates_once_and_clusters_each_distinct_restriction_once(self, monkeypatch):
        ens, params = scoring_case(3)
        calls = Counter()
        clustered = []  # (class, boxes) of each class group the quality pass clusters
        batch = consensus._wbf_batch

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        def recording(box, conf, weight, source, lengths, cls, threshold):
            rows = zip(*box.tolist(), conf.tolist(), source.tolist())
            for c, n in zip(cls.tolist(), lengths.tolist()):
                c = int(c)
                clustered.append((c, frozenset(
                    Box(c, x1, y1, x2, y2, score, int(src))
                    for x1, y1, x2, y2, score, src in itertools.islice(rows, n))))
            return batch(box, conf, weight, source, lengths, cls, threshold)

        monkeypatch.setattr(consensus, "_wbf_batch", recording)
        monkeypatch.setattr(consensus, "wbf", counting("wbf", consensus.wbf))
        monkeypatch.setattr(
            consensus, "apply_gates", counting("apply_gates", consensus.apply_gates)
        )
        manifest = SimpleNamespace(fusion=params)
        run_consensus(manifest, ens, shapley=True)
        images = len(ens.target_image_ids)
        assert calls["wbf"] == 1  # the weighted pass, every image at once
        assert calls["apply_gates"] == 3 * images

        # one clustering per distinct non-empty S & P of each (image, class):
        # the boxes of the class group's sources that are in subset S
        subsets = [c for r in (1, 2, 3) for c in itertools.combinations(range(3), r)]
        want = Counter()
        restricted = 0
        for iid in ens.target_image_ids:
            gated = [apply_gates(s.for_image(iid), params.gates) for s in ens.sources]
            distinct = set()
            for cls in {b.cls for boxes in gated for b in boxes}:
                for subset in subsets:
                    boxes = frozenset(b for p in subset for b in gated[p] if b.cls == cls)
                    if boxes:
                        restricted += 1
                        distinct.add((cls, boxes))
            want.update(distinct)
        assert Counter(clustered) == want
        assert len(clustered) < restricted  # some S & P repeat across subsets

    @pytest.mark.parametrize("shapley,scored", [(False, 6), (True, 31)])
    def test_five_sources_score_only_the_subsets_read(self, monkeypatch, shapley, scored):
        ens, params = scoring_case(5)
        passes = []
        score = ConsensusScorer._score

        def recording(self, subsets):
            passes.append(list(subsets))
            return score(self, subsets)

        monkeypatch.setattr(ConsensusScorer, "_score", recording)
        manifest = SimpleNamespace(fusion=params)
        report, _ = run_consensus(manifest, ens, shapley=shapley)
        assert len(passes) == 1 and len(passes[0]) == scored
        everyone = tuple(range(5))
        assert everyone in passes[0]
        assert all(everyone[:i] + everyone[i + 1:] in passes[0] for i in everyone)
        assert (report.shapley is not None) == shapley


class TestTieOrder:
    """Ties that change a quality: the scorer must break them as `wbf` does."""

    def test_model_order_breaks_a_full_tie(self):
        # A and B tie on (confidence, source, index), so model order decides
        # which cluster C joins; D, of source 1 again, then joins A's cluster
        # or its own, and the support counts differ
        a = Box(0, 0.0, 0.0, 0.4, 1.0, 0.9, 1)
        b = Box(0, 0.2, 0.0, 0.6, 1.0, 0.9, 1)
        c = Box(0, 0.1, 0.0, 0.5, 1.0, 0.6, 2)
        d = Box(0, 0.0, 0.0, 0.3, 1.0, 0.5, 1)
        params = FusionParams(iou_threshold=0.5)

        def quality(*per_source):
            ens = SourceEnsemble(
                sources=tuple(domain(i, {"i": boxes}) for i, boxes in enumerate(per_source, 1)),
                target_image_ids=("i",),
            )
            got = make_scorer(ens, params=params).quality((0, 1, 2))
            assert got == knowledge_vote_quality(ens.sources, ens, params)
            return got

        assert quality([a], [b], [c, d]) != quality([b], [a], [c, d])

    def test_equal_confidences_add_in_fused_order(self):
        # p (two sources) and q (one) fuse at 0.3 in one class; fused_order
        # puts q, with the lower x1, first, which rounds differently here
        r = Box(0, 0.0, 0.0, 0.2, 0.2, 0.9, 1)
        p = Box(1, 0.5, 0.0, 0.9, 0.4, 0.3, 1)
        q = Box(1, 0.0, 0.5, 0.4, 0.9, 0.3, 1)
        ens = SourceEnsemble(
            sources=(domain(1, {"i": [r, p, q]}), domain(2, {"i": [p._replace(source=2)]})),
            target_image_ids=("i",),
        )
        got = make_scorer(ens).quality((0, 1))
        assert got == knowledge_vote_quality(ens.sources, ens, PARAMS)
        assert got == (0.9 + 0.3) + 2 * 0.3 != (0.9 + 2 * 0.3) + 0.3


def tied_case(n_sources, seed):
    """Sources whose boxes make every tie the scorer must order like `wbf`.

    `Box.source` values collide across sources (each is 1 or 2), and
    confidences come from a pool of three values half the time. Each source
    starts its list with shifted copies of a shared list of boxes, at the
    same confidence, source and mostly index, so model order breaks their
    ties. img5 is missing from every source and img4 is an empty list in
    every source; source 1 lacks img3. Per-class gates, and gates that keep
    classes 0-2 and drop class 3.
    """
    rng = np.random.default_rng(seed)
    ids = tuple(f"img{j}" for j in range(6))
    pool = (0.35, 0.6, 0.85)

    def pooled(b):
        return b._replace(confidence=pool[int(rng.integers(0, 3))]) if rng.random() < 0.5 else b

    def shifted(b):
        d = 0.001 * int(rng.integers(0, 30))
        return b._replace(x1=round(b.x1 + d, 3), x2=round(b.x2 + d, 3)) if b.x2 + d <= 1 else b

    shared = {
        iid: [pooled(random_box(rng, source=1, n_classes=4)) for _ in range(3)] for iid in ids
    }
    sources = []
    for i in range(1, n_sources + 1):
        dets = {}
        for iid in ids[:4]:
            boxes = [shifted(b) for b in shared[iid] if rng.random() < 0.8]
            boxes += [
                pooled(random_box(rng, source=int(rng.integers(1, 3)), n_classes=4))
                for _ in range(int(rng.integers(0, 6)))
            ]
            dets[iid] = boxes
        dets["img4"] = []
        if i == 1:
            del dets["img3"]
        sources.append(domain(i, dets))
    ens = SourceEnsemble(sources=tuple(sources), target_image_ids=ids)
    gates = ConfidenceGates(gates={0: 0.3, 2: 0.55}, default_gate=0.1, classes=frozenset({0, 1, 2}))
    return ens, FusionParams(iou_threshold=0.5, gates=gates)


@pytest.mark.parametrize("n_sources", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_every_subset_quality_matches_knowledge_vote_and_oracle(n_sources, seed):
    ens, params = tied_case(n_sources, seed)
    subsets = consensus.read_subsets(n_sources, shapley=True)
    scorer = ConsensusScorer(ens.sources, ens.target_image_ids, params, subsets)
    one_by_one = make_scorer(ens, params)  # a pass per subset read
    for subset in subsets:
        sources = [ens.sources[p] for p in subset]
        got = scorer.quality(subset)
        assert got == knowledge_vote_quality(sources, ens, params)
        assert got == one_by_one.quality(subset)
        want = oracle_consensus_quality(sources, ens.target_image_ids, params.gates, 0.5)
        assert got == pytest.approx(want, abs=1e-12)  # c01's tolerance


@pytest.mark.parametrize("limit", [1, 3, 4096])
@pytest.mark.parametrize("n_sources,seed", [(3, 7), (4, 8), (5, 9)])
def test_batches_of_any_size_score_and_fuse_as_per_image_calls(monkeypatch, limit, n_sources, seed):
    # with 1 or 3 boxes per batch, every image with a box is a batch of its own
    monkeypatch.setattr(fusion, "BATCH_BOXES", limit)
    ens, params = tied_case(n_sources, seed)
    subsets = consensus.read_subsets(n_sources, shapley=True)
    scorer = ConsensusScorer(ens.sources, ens.target_image_ids, params, subsets)
    for subset in subsets:
        sources = [ens.sources[p] for p in subset]
        assert scorer.quality(subset) == knowledge_vote_quality(sources, ens, params)
    report = ContributionReport()
    report.alpha = {s.source_id: 0.0 if s.source_id == 2 else 0.5 / s.source_id
                    for s in ens.sources}
    weighted = replace(params, model_weights=tuple(report.alpha.values()))
    for rescale in ("none", "support_ratio"):
        weighted = replace(weighted, confidence_rescale=rescale)
        fused = weighted_fusion(ConsensusScorer(ens.sources, ens.target_image_ids,
                                                replace(params, confidence_rescale=rescale)),
                                report)
        assert list(fused) == list(ens.target_image_ids)
        per_model = [[s.for_image(iid) for iid in ens.target_image_ids] for s in ens.sources]
        assert list(fused.values()) == knowledge_vote(per_model, weighted)


def test_leave_one_out_over_seventy_sources():
    """Subset masks wider than 64 bits: each of 70 sources has a box on one shared
    object of img0, so that (image, class) group holds every source."""
    rng = np.random.default_rng(70)
    ids = ("img0", "img1", "img2")
    sources = []
    for i in range(1, 71):
        d = 0.001 * int(rng.integers(0, 40))
        shared = Box(0, 0.2 + d, 0.2, 0.5 + d, 0.6, round(float(rng.uniform(0.3, 1)), 3), i)
        dets = {"img0": [shared, random_box(rng, source=i)],
                "img1": [random_box(rng, source=i) for _ in range(int(rng.integers(0, 3)))]}
        sources.append(domain(i, dets))
    ens = SourceEnsemble(sources=tuple(sources), target_image_ids=ids)
    params = FusionParams(iou_threshold=0.5)
    report = consensus_focus_scores(make_scorer(ens, params))
    assert report.q_full == knowledge_vote_quality(ens.sources, ens, params)
    for i, src in enumerate(ens.sources):
        assert report.q_leave_one_out[src.source_id] == knowledge_vote_quality(
            without(ens, i), ens, params)
    assert len(set(report.q_leave_one_out.values())) > 1


@pytest.mark.parametrize("big", [2**53, 10**400], ids=["2**53", "10**400"])
def test_quality_keeps_ids_one_apart_past_2_to_53(big):
    """Class ids and sources that float64 cannot tell apart: classes big and
    big + 1 never fuse, and sources big and big + 1 both count as support."""
    shared = Box(big, 0.1, 0.1, 0.5, 0.5, 0.9, big)
    sources = [
        domain(1, {"img0": [shared, shared._replace(cls=big + 1, y2=0.6)]}),
        domain(2, {"img0": [shared._replace(source=big + 1, confidence=0.8)],
                   "img1": [shared._replace(cls=big + 1, source=big + 1)]}),
    ]
    ens = SourceEnsemble(sources=tuple(sources), target_image_ids=("img0", "img1"))
    for subset in ([0, 1], [0], [1]):
        got = make_scorer(ens).quality(subset)
        want = oracle_consensus_quality([sources[p] for p in subset], ens.target_image_ids,
                                        NO_GATES, PARAMS.iou_threshold)
        assert got == pytest.approx(want, abs=1e-12)
    # the shared box fuses with support 2; the other two stay alone
    assert make_scorer(ens).quality([0, 1]) == pytest.approx(2 * 0.85 + 0.9 + 0.9, abs=1e-12)
