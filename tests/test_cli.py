import json
import os

import pytest

from boxvote import data_io
from boxvote.cli import main


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(["simulate", "--scenario", "two_good_one_poison", "--out", str(out)])
    assert rc == 0
    return out


def manifest_path(scenario_dir):
    return str(scenario_dir / "manifest.json")


class TestSimulate:
    def test_artifacts_present(self, scenario_dir):
        names = sorted(os.listdir(scenario_dir))
        assert "manifest.json" in names
        assert "ground_truth.txt" in names
        assert any(n.startswith("source_") for n in names)

    def test_unknown_scenario_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
        assert rc == 2
        assert "three_good" in capsys.readouterr().err


class TestFuse:
    @pytest.mark.parametrize("algorithm", ["nms", "soft-nms", "wbf", "knowledge-vote"])
    def test_algorithms_produce_artifacts(self, scenario_dir, tmp_path, algorithm):
        out = tmp_path / algorithm
        rc = main([
            "fuse", "--manifest", manifest_path(scenario_dir),
            "--algorithm", algorithm, "--out", str(out),
        ])
        assert rc == 0
        assert (out / "fused.txt").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == algorithm
        assert summary["output_boxes"] > 0

    def test_unknown_algorithm_exit_2_names_valid_set(self, scenario_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "fuse", "--manifest", manifest_path(scenario_dir),
                "--algorithm", "magic", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        assert "knowledge-vote" in capsys.readouterr().err

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        rc = main([
            "fuse", "--manifest", str(tmp_path / "none.json"),
            "--algorithm", "nms", "--out", str(tmp_path / "o"),
        ])
        assert rc in (1, 2)

    def test_corrupt_detections_exit_3(self, scenario_dir, tmp_path):
        man = data_io.parse_manifest(manifest_path(scenario_dir))
        bad = tmp_path / "bad.txt"
        bad.write_text("img1 0 nope 0.1 0.5 0.5 0.9\n")
        doc = data_io.manifest_to_dict(man)
        for s in doc["sources"]:
            s["detections_path"] = os.path.join(str(scenario_dir), s["detections_path"])
        doc["target"]["ground_truth_path"] = os.path.join(
            str(scenario_dir), doc["target"]["ground_truth_path"]
        )
        doc["sources"][0]["detections_path"] = str(bad)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "nms",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_knowledge_vote_with_zero_gates_equals_wbf(self, scenario_dir, tmp_path):
        man = data_io.parse_manifest(manifest_path(scenario_dir))
        doc = data_io.manifest_to_dict(man)
        doc["gates"] = {"default": 0.0, "per_class": {}}
        for s in doc["sources"]:
            s["detections_path"] = os.path.join(str(scenario_dir), s["detections_path"])
        doc["target"]["ground_truth_path"] = os.path.join(
            str(scenario_dir), doc["target"]["ground_truth_path"]
        )
        mpath = tmp_path / "zero_gates.json"
        mpath.write_text(json.dumps(doc))
        for alg in ("knowledge-vote", "wbf"):
            assert main(["fuse", "--manifest", str(mpath), "--algorithm", alg,
                         "--out", str(tmp_path / alg)]) == 0
        kv = (tmp_path / "knowledge-vote" / "fused.txt").read_bytes()
        plain = (tmp_path / "wbf" / "fused.txt").read_bytes()
        assert kv == plain


class TestConsensus:
    def test_artifacts_and_poison_min_alpha(self, scenario_dir, tmp_path):
        out = tmp_path / "cons"
        rc = main(["consensus", "--manifest", manifest_path(scenario_dir),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "contribution_report.json").read_text())
        # source 3 is the poisonous one in this scenario
        assert report["alpha"]["3"] < min(report["alpha"]["1"], report["alpha"]["2"])
        assert (out / "fused.txt").exists()
        assert (out / "pseudo_labels.txt").exists()

    def test_shapley_flag_adds_values(self, scenario_dir, tmp_path):
        out = tmp_path / "shap"
        rc = main(["consensus", "--manifest", manifest_path(scenario_dir),
                   "--out", str(out), "--shapley"])
        assert rc == 0
        report = json.loads((out / "contribution_report.json").read_text())
        assert set(report["shapley"]) == {"1", "2", "3"}

    def test_single_source_exit_2(self, scenario_dir, tmp_path, capsys):
        man = data_io.parse_manifest(manifest_path(scenario_dir))
        doc = data_io.manifest_to_dict(man)
        doc["sources"] = doc["sources"][:1]
        doc["sources"][0]["detections_path"] = os.path.join(
            str(scenario_dir), doc["sources"][0]["detections_path"]
        )
        doc["target"]["ground_truth_path"] = os.path.join(
            str(scenario_dir), doc["target"]["ground_truth_path"]
        )
        mpath = tmp_path / "single.json"
        mpath.write_text(json.dumps(doc))
        rc = main(["consensus", "--manifest", str(mpath), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestEval:
    def test_metrics_and_curve_written(self, scenario_dir, tmp_path):
        fuse_out = tmp_path / "fuse"
        assert main(["fuse", "--manifest", manifest_path(scenario_dir),
                     "--algorithm", "wbf", "--out", str(fuse_out)]) == 0
        out = tmp_path / "eval"
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(fuse_out / "fused.txt"), "--out", str(out)])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["confidence_threshold"] == 0.0001
        assert 0.0 <= metrics["aggregate"]["map50"] <= 1.0
        header = (out / "f1_curve.csv").read_text().splitlines()[0]
        assert header.startswith("confidence,class_")

    def test_threshold_override(self, scenario_dir, tmp_path):
        fuse_out = tmp_path / "fuse"
        assert main(["fuse", "--manifest", manifest_path(scenario_dir),
                     "--algorithm", "wbf", "--out", str(fuse_out)]) == 0
        out = tmp_path / "eval"
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(fuse_out / "fused.txt"), "--out", str(out),
                   "--confidence-threshold", "0.0003"])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["confidence_threshold"] == 0.0003

    def test_missing_ground_truth_exit_2(self, scenario_dir, tmp_path):
        man = data_io.parse_manifest(manifest_path(scenario_dir))
        doc = data_io.manifest_to_dict(man)
        del doc["target"]["ground_truth_path"]
        for s in doc["sources"]:
            s["detections_path"] = os.path.join(str(scenario_dir), s["detections_path"])
        mpath = tmp_path / "nogt.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        rc = main(["eval", "--manifest", str(mpath), "--detections", str(dets),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestPipeline:
    def test_comparison_table_has_all_methods(self, tmp_path):
        out = tmp_path / "pp"
        rc = main(["pipeline", "--scenario", "two_good_one_poison", "--out", str(out)])
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        methods = [r.split(",")[0] for r in rows[1:]]
        assert methods == ["ours", "nms", "soft-nms", "wbf", "knowledge-vote"]
        timings = json.loads((out / "timings.json").read_text())
        assert "consensus_over_nms_ratio" in timings
        assert timings["evaluation"] > 0


def absolute_manifest_doc(scenario_dir):
    """The scenario's manifest as a dict, with every path made absolute."""
    doc = data_io.manifest_to_dict(data_io.parse_manifest(manifest_path(scenario_dir)))
    for s in doc["sources"]:
        s["detections_path"] = os.path.join(str(scenario_dir), s["detections_path"])
    doc["target"]["ground_truth_path"] = os.path.join(
        str(scenario_dir), doc["target"]["ground_truth_path"]
    )
    return doc


def set_gate_default(value):
    return lambda doc: doc["gates"].update(default=value)


def set_fusion(key, value):
    return lambda doc: doc["fusion"].update({key: value})


MANIFEST_MUTATIONS = [
    ("unchanged", lambda doc: None, 0),
    ("default gate not a number", set_gate_default("abc"), 2),
    ("default gate null", set_gate_default(None), 2),
    ("per-class gate not a number",
     lambda doc: doc["gates"].update(per_class={"class_0": "abc"}), 2),
    ("per-class gate a list",
     lambda doc: doc["gates"].update(per_class={"class_1": [0.5]}), 2),
    ("soft_nms_sigma zero", set_fusion("soft_nms_sigma", 0), 2),
    ("soft_nms_sigma negative", set_fusion("soft_nms_sigma", -0.5), 2),
    ("soft_nms_sigma NaN", set_fusion("soft_nms_sigma", float("nan")), 2),
    ("soft_nms_sigma infinite", set_fusion("soft_nms_sigma", float("inf")), 2),
    ("soft_nms_sigma not a number", set_fusion("soft_nms_sigma", "wide"), 2),
    ("iou_threshold not a number", set_fusion("iou_threshold", "abc"), 2),
    ("score_floor not a number", set_fusion("score_floor", {}), 2),
    ("model weight not a number", set_fusion("model_weights", [1, "x", 1]), 2),
]


@pytest.mark.parametrize(
    "mutate,code", [m[1:] for m in MANIFEST_MUTATIONS], ids=[m[0] for m in MANIFEST_MUTATIONS]
)
def test_manifest_mutation_exit_code(scenario_dir, tmp_path, capsys, mutate, code):
    doc = absolute_manifest_doc(scenario_dir)
    mutate(doc)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "soft-nms",
               "--out", str(tmp_path / "o")])
    assert rc == code
    if code == 2:
        assert "internal error" not in capsys.readouterr().err


class TestNonFiniteInput:
    def test_nan_detection_coordinate_exit_3(self, scenario_dir, tmp_path):
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 nan 0.1 0.5 0.5 0.9\n")
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(dets), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_nan_ground_truth_coordinate_exit_3(self, scenario_dir, tmp_path):
        doc = absolute_manifest_doc(scenario_dir)
        gt = tmp_path / "gt.txt"
        gt.write_text("img_00000 0 0.1 0.1 0.5 0.5\nimg_00001 1 0.1 nan 0.5 0.5\n")
        doc["target"]["ground_truth_path"] = str(gt)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        rc = main(["eval", "--manifest", str(mpath), "--detections", str(dets),
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_confidence_threshold_exit_2(self, scenario_dir, tmp_path, value):
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        out = tmp_path / "o"
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(dets), "--out", str(out),
                   f"--confidence-threshold={value}"])
        assert rc == 2
        assert not (out / "metrics.json").exists()
        rc = main(["pipeline", "--scenario", "two_good_one_poison",
                   "--out", str(tmp_path / "pp"), f"--confidence-threshold={value}"])
        assert rc == 2
