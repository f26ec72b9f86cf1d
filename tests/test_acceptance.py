"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import csv
import filecmp
import json
import os
import time

import numpy as np
import pytest

from boxvote import data_io
from boxvote.cli import run_pipeline
from boxvote.consensus import (
    CF_EPSILON,
    ConsensusScorer,
    ContributionReport,
    SourceEnsemble,
    compute_weights,
    consensus_focus_scores,
    consensus_quality,
)
from boxvote.evaluation import average_precision, evaluate
from boxvote.fusion import ConfidenceGates, FusionParams, knowledge_vote, wbf
from boxvote.geometry import Box, DetectionSet
from boxvote.synth import generate, reference_scenarios, scaled
from oracles import (
    fused_box_key,
    oracle_average_precision,
    oracle_consensus_quality,
    random_box,
)

NO_GATES = ConfidenceGates()
PARAMS = FusionParams()


def _ok(n, message):
    print(f"\nACCEPTANCE PASS criterion {n}: {message}")


def _ensemble_from_scenario(name):
    scenario = reference_scenarios()[name]
    gt, domains = generate(scenario.spec)
    ensemble = SourceEnsemble(
        sources=tuple(domains),
        target_image_ids=tuple(sorted(domains[0].detections)),
    )
    return scenario, gt, ensemble


def _random_ensemble(rng, n_sources, n_images, max_boxes=4):
    from boxvote.consensus import SourceDomain

    ids = [f"img{j}" for j in range(n_images)]
    sources = []
    for i in range(1, n_sources + 1):
        dets = {
            iid: DetectionSet(
                iid,
                tuple(random_box(rng, source=i)
                      for _ in range(int(rng.integers(0, max_boxes + 1)))),
            )
            for iid in ids
        }
        sources.append(SourceDomain(i, f"s{i}", int(rng.integers(1, 100)), dets))
    return SourceEnsemble(sources=tuple(sources), target_image_ids=tuple(ids))


def test_c01_consensus_quality_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for _ in range(25):
        ens = _random_ensemble(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        got = consensus_quality(
            list(ens.sources), ens.target_image_ids, PARAMS
        )
        want = oracle_consensus_quality(
            list(ens.sources), ens.target_image_ids, NO_GATES,
            PARAMS.iou_threshold,
        )
        assert got == pytest.approx(want, abs=1e-12)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"{checked} random subsets match the brute-force oracle to 1e-12 "
           f"in {elapsed:.3f}s")


def test_c02_weight_simplex_and_worked_example():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        report = ContributionReport()
        report.cf = {i: float(rng.uniform(-2, 5)) for i in range(1, n + 1)}
        report.cf_clamped = {i: max(v, CF_EPSILON) for i, v in report.cf.items()}
        sizes = {i: int(rng.integers(1, 2000)) for i in range(1, n + 1)}
        target = int(rng.integers(1, 1000))
        report = compute_weights(report, sizes, target)
        assert abs(sum(report.alpha.values()) + report.alpha_extended - 1.0) <= 1e-9
        assert all(a >= 0.0 for a in report.alpha.values())
    worked = ContributionReport()
    worked.cf = {1: 2.0, 2: 1.0}
    worked.cf_clamped = {1: 2.0, 2: 1.0}
    worked = compute_weights(worked, {1: 200, 2: 100}, 100)
    assert worked.alpha_extended == 0.25
    assert worked.alpha[1] == 0.6
    assert worked.alpha[2] == 0.15
    _ok(2, "1000 random weight vectors on the simplex within 1e-9; "
           "worked example (0.25, 0.6, 0.15) exact")


def test_c03_leave_one_out_consistency_on_reference_scenarios():
    for name in ("three_good", "two_good_one_poison", "long_tail_gated"):
        scenario, _, ensemble = _ensemble_from_scenario(name)
        params = FusionParams(gates=scenario.gates)
        report = consensus_focus_scores(ConsensusScorer(
            ensemble.sources, ensemble.target_image_ids, params
        ))
        for i, src in enumerate(ensemble.sources):
            rest = list(ensemble.sources[:i]) + list(ensemble.sources[i + 1 :])
            direct = consensus_quality(
                rest, ensemble.target_image_ids, params
            )
            assert report.q_leave_one_out[src.source_id] == direct
    _ok(3, "leave-one-out qualities equal direct subset calls exactly "
           "on all reference scenarios")


def test_c04_poisonous_source_detection():
    start = time.perf_counter()
    scenario, gt, ensemble = _ensemble_from_scenario("two_good_one_poison")
    scorer = ConsensusScorer(
        ensemble.sources, ensemble.target_image_ids, FusionParams(gates=scenario.gates)
    )
    report = consensus_focus_scores(scorer)
    report = compute_weights(
        report,
        {s.source_id: s.dataset_size for s in ensemble.sources},
        len(ensemble.target_image_ids),
    )
    poison_id = next(
        s.source_id for s in ensemble.sources if s.name == "poison"
    )
    others = [report.alpha[i] for i in report.alpha if i != poison_id]
    assert report.alpha[poison_id] < min(others)

    from boxvote.consensus import weighted_fusion

    weighted = weighted_fusion(scorer, report)
    plain = {
        iid: wbf([s.for_image(iid) for s in ensemble.sources], PARAMS)
        for iid in ensemble.target_image_ids
    }

    def precision_at(fused, thresh):
        boxes = {
            iid: [Box(cls=f.cls, x1=f.x1, y1=f.y1, x2=f.x2, y2=f.y2,
                      confidence=f.confidence) for f in fs]
            for iid, fs in fused.items()
        }
        return evaluate(boxes, gt, thresh).aggregate.precision

    p_weighted = precision_at(weighted, 0.3)
    p_plain = precision_at(plain, 0.3)
    assert p_weighted >= p_plain
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(4, f"poisonous source has strictly smallest weight "
           f"({report.alpha[poison_id]:.4f} < {min(others):.4f}); "
           f"weighted precision@0.3 {p_weighted:.4f} >= plain WBF {p_plain:.4f} "
           f"in {elapsed:.2f}s")


def test_c05_f1_argmax_confidence_vs_nms(tmp_path):
    run_pipeline("two_good_one_poison", str(tmp_path))

    def argmax_conf(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        best_f1 = max(float(r["mean"]) for r in rows)
        return max(float(r["confidence"]) for r in rows
                   if float(r["mean"]) == best_f1)

    ours = argmax_conf(tmp_path / "eval_ours" / "f1_curve.csv")
    plain = argmax_conf(tmp_path / "eval_nms" / "f1_curve.csv")
    assert ours >= plain
    _ok(5, f"mean-F1 argmax confidence: consensus-weighted {ours:.4f} >= NMS {plain:.4f}")


def test_c06_fusion_algebra_property_suites():
    rng = np.random.default_rng(606)

    # single-model identity: disjoint grid boxes come back unchanged, n_b = 1
    for _ in range(1000):
        cells = rng.permutation(16)[: int(rng.integers(1, 6))]
        boxes = []
        for k, cell in enumerate(cells):
            cx, cy = (cell % 4) * 0.25, (cell // 4) * 0.25
            boxes.append(Box(cls=int(rng.integers(0, 3)), x1=cx + 0.02, y1=cy + 0.02,
                             x2=cx + 0.2, y2=cy + 0.2,
                             confidence=round(float(rng.uniform(0.1, 1.0)), 6)))
        out = wbf([DetectionSet("img", tuple(boxes))], FusionParams())
        got = sorted((f.cls, f.x1, f.y1, f.x2, f.y2, f.confidence) for f in out)
        want = sorted((b.cls, b.x1, b.y1, b.x2, b.y2, b.confidence) for b in boxes)
        assert got == want
        assert all(f.support_count == 1 for f in out)

    def models(n):
        return [
            DetectionSet("img", tuple(
                random_box(rng, source=i)
                for _ in range(int(rng.integers(0, 5)))
            ))
            for i in range(n)
        ]

    # uniform-weight reduction: zero-gated knowledge vote is plain WBF
    for _ in range(1000):
        ms = models(int(rng.integers(1, 4)))
        kv = knowledge_vote(ms, PARAMS)
        assert sorted(kv, key=fused_box_key) == sorted(wbf(ms, PARAMS), key=fused_box_key)

    # weight-scale invariance (exact for power-of-two scale factors)
    for _ in range(1000):
        ms = models(3)
        w = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(3))
        k = 2.0 ** int(rng.integers(-4, 9))
        a = wbf(ms, FusionParams(model_weights=w))
        b = wbf(ms, FusionParams(model_weights=tuple(k * x for x in w)))
        assert sorted(a, key=fused_box_key) == sorted(b, key=fused_box_key)

    # permutation invariance
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        ms = models(n)
        w = tuple(float(rng.uniform(0.1, 2.0)) for _ in range(n))
        perm = rng.permutation(n)
        a = wbf(ms, FusionParams(model_weights=w))
        b = wbf([ms[i] for i in perm],
                FusionParams(model_weights=tuple(w[i] for i in perm)))
        assert sorted(a, key=fused_box_key) == sorted(b, key=fused_box_key)

    # gate idempotence
    from boxvote.fusion import apply_gates

    for _ in range(1000):
        dets = DetectionSet("img", tuple(random_box(rng) for _ in range(8)))
        gates = ConfidenceGates(
            gates={0: float(rng.uniform(0, 1))}, default_gate=float(rng.uniform(0, 1))
        )
        once = apply_gates(dets, gates)
        assert apply_gates(once, gates) == once

    _ok(6, "identity / reduction / scale / permutation / idempotence suites, "
           "1000 randomized instances each, exact multiset equality")


def test_c07_evaluator_correctness():
    rng = np.random.default_rng(707)
    for _ in range(500):
        n = int(rng.integers(0, 21))
        flags = [bool(rng.random() < 0.5) for _ in range(n)]
        num_gt = int(rng.integers(sum(flags), sum(flags) + 6))
        assert average_precision(flags, num_gt) == pytest.approx(
            oracle_average_precision(flags, num_gt), abs=1e-12
        )

    from boxvote.evaluation import GroundTruth

    # perfect fixture
    gt_entries, fused = {}, {}
    for j in range(4):
        iid = f"img{j}"
        boxes = [random_box(rng, cls=c) for c in range(3)]
        gt_entries[iid] = tuple(boxes)
        fused[iid] = [
            Box(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2, confidence=1.0)
            for b in boxes
        ]
    agg = evaluate(fused, GroundTruth(entries=gt_entries), 0.0001).aggregate
    assert (agg.precision, agg.recall, agg.ap50, agg.ap5095) == (1.0, 1.0, 1.0, 1.0)

    # recall monotone in the confidence threshold, 500 random fixtures
    for _ in range(500):
        gt_e, f_e = {}, {}
        for j in range(2):
            iid = f"i{j}"
            gt_e[iid] = tuple(random_box(rng) for _ in range(int(rng.integers(1, 4))))
            f_e[iid] = [random_box(rng) for _ in range(int(rng.integers(0, 4)))]
        gtobj = GroundTruth(entries=gt_e)
        last = None
        for t in (0.0, 0.5, 1.0):
            r = evaluate(f_e, gtobj, t).aggregate.recall
            if last is not None:
                assert r <= last + 1e-12
            last = r
    _ok(7, "AP matches the interpolation oracle to 1e-12; perfect fixture scores "
           "1.0 everywhere; recall monotone over 500 random fixtures")


def _tree_digest(root):
    digest = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name == "timings.json":  # wall-clock, deliberately excluded
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                digest[rel] = fh.read()
    return digest


def test_c08_pipeline_determinism_across_threads(tmp_path):
    digests = []
    for run in range(4):
        out = tmp_path / f"run{run}"
        run_pipeline("two_good_one_poison", str(out))
        digests.append(_tree_digest(out))
    assert all(d == digests[0] for d in digests[1:])
    _ok(8, f"4 pipeline runs produced byte-identical trees "
           f"({len(digests[0])} files each; timings.json excluded as wall-clock)")


def test_c09_format_round_trips(tmp_path):
    run_pipeline("three_good", str(tmp_path / "pp"))
    # detections
    src = tmp_path / "pp" / "fuse_wbf" / "fused.txt"
    again = tmp_path / "dets.txt"
    data_io.write_detections(data_io.parse_detections(src), again)
    assert src.read_bytes() == again.read_bytes()
    # pseudo labels: the fused boxes, plus an integer support count >= 1 on every box line
    pl = tmp_path / "pp" / "consensus" / "pseudo_labels.txt"
    fused = tmp_path / "pp" / "consensus" / "fused.txt"
    boxes = data_io.parse_detections(pl)
    assert boxes == data_io.parse_detections(fused)
    again = tmp_path / "pl.txt"
    data_io.write_detections(boxes, again)
    assert fused.read_bytes() == again.read_bytes()
    rows = [line.split() for line in pl.read_text().splitlines() if not line.startswith("#")]
    assert rows and all(len(r) == 8 and int(r[7]) >= 1 for r in rows)
    # manifest
    man_path = tmp_path / "pp" / "data" / "manifest.json"
    manifest = data_io.parse_manifest(man_path)
    again = tmp_path / "pp" / "data" / "manifest_again.json"
    data_io.write_manifest(manifest, again)
    assert filecmp.cmp(man_path, again, shallow=False)
    os.remove(again)
    # contribution report
    rep_path = tmp_path / "pp" / "consensus" / "contribution_report.json"
    with open(rep_path, encoding="utf-8") as fh:
        assert (data_io.canonical_json(json.load(fh)) + "\n").encode() == rep_path.read_bytes()
    _ok(9, "detections, pseudo-labels (read back as fused.txt's bytes), manifest, and "
           "contribution report all round-trip byte-identically")


def test_c10_runtime_ratio_reported_at_scale(tmp_path):
    _, timings = run_pipeline("three_good", str(tmp_path), images=1000)
    doc = json.loads((tmp_path / "timings.json").read_text())
    assert "consensus_over_nms_ratio" in doc
    assert doc["consensus_over_nms_ratio"] > 0
    _ok(10, f"1000-image run: consensus/NMS wall-time ratio "
            f"{doc['consensus_over_nms_ratio']:.2f} reported in timings.json")
