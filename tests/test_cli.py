import errno
import hashlib
import json
import logging
import os
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from boxvote import cli, consensus, data_io, fusion
from boxvote.cli import main
from boxvote.errors import ConfigError, ParseError
from boxvote.fusion import apply_gates, nms
from boxvote.geometry import DetectionSet
from oracles import oracle_wbf


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    rc = main(["simulate", "--scenario", "two_good_one_poison", "--out", str(out)])
    assert rc == 0
    return out


def manifest_path(scenario_dir):
    return str(scenario_dir / "manifest.json")


# sha256 of every file `simulate --images 50` writes, per reference scenario
SIMULATE_SHA256 = {
    "three_good": {
        "ground_truth.txt":
            "581df2acb3bd4a8279bd64ef81d0a6e75268c90163b83ad10358ed84e57c1bc5",
        "manifest.json":
            "8bf2d03c7a04e4cdb5b30ba39f94ff92a978457e9a373d81906807b2325db369",
        "source_alpha.txt":
            "7f30aa703a1f08e3d1bfb8f6ca3ac7b4e950928ac46185835ef6f483b8e973f7",
        "source_bravo.txt":
            "5f078edb352e3b41ef47a271ec7b3c361a0411c9678421ae85062f391d5c582a",
        "source_charlie.txt":
            "55351ac2f3cc4450e9f66315cc4ef68175b7cc75dfd11faafc251ede3f20b0c1",
    },
    "two_good_one_poison": {
        "ground_truth.txt":
            "29c8c0cc407d8ef2cbb7faa98364fa82e645a195869988f60f92b1f6cc579904",
        "manifest.json":
            "69fe9fb5f9b800b8dab1b1fbf419b6ec11043f0ce0fcf05fb460a3974f7fc45c",
        "source_good_a.txt":
            "d25a8dc63b20182b9b14e1a6232575185ea795fd2adb1bdaf3d94d367ab96c3f",
        "source_good_b.txt":
            "294cbacbfa2798eb7c5c478f0bb643514fb6cd286f9038174458631226d75db2",
        "source_poison.txt":
            "5dc639fe6cc010292b3f238c572e07bfe14e5d54c7309e8df4d0585f3f175f60",
    },
    "long_tail_gated": {
        "ground_truth.txt":
            "81f6796c5fcb30732076af5cbca0d5f49fffd72bc3cd48494a4ec791ad1f00b7",
        "manifest.json":
            "47db7461c3a65f435f507a512c3deae6a223a0a581eda902286b5bdd3fdc441e",
        "source_alpha.txt":
            "5d95ef66c1da3eff6ad8ad3d86389f3633e2f3a9a0e3d6c21d5292183d683255",
        "source_bravo.txt":
            "5ee9e43f1fd6155f1ee72d532adbc985f121f77b087a5c2e25af0ae71b65075e",
        "source_charlie.txt":
            "bd3c131437fca8892b906d2ea581f59969197eafd9cfaac39cf2e42c2198141e",
    },
}


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

    @pytest.mark.parametrize("scenario", sorted(SIMULATE_SHA256))
    def test_bytes_pinned(self, tmp_path, scenario):
        """Any change to which values the generator draws, or in what order, shows here."""
        assert main(["simulate", "--scenario", scenario, "--images", "50",
                     "--out", str(tmp_path)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert digests == SIMULATE_SHA256[scenario]

    @pytest.mark.parametrize("scenario", sorted(SIMULATE_SHA256))
    def test_ground_truth_reads_as_detections(self, tmp_path, scenario):
        """Ground truth and detections hold the same `Box`: with a confidence of 1
        appended to each line, the ground-truth file parses as detections to the
        same boxes. (The detection reader drops zero-area boxes; synthetic ground
        truth has none.)"""
        assert main(["simulate", "--scenario", scenario, "--images", "50",
                     "--out", str(tmp_path)]) == 0
        gt_path = tmp_path / "ground_truth.txt"
        dets_path = tmp_path / "ground_truth_with_confidence.txt"
        lines = gt_path.read_text().splitlines()
        dets_path.write_text("".join(f"{line} 1\n" for line in lines))
        gt = data_io.parse_ground_truth(gt_path)
        assert data_io.parse_detections(dets_path) == gt.entries


class TestFuse:
    @pytest.mark.parametrize("algorithm", ["nms", "knowledge-vote"])
    def test_empty_source_file_is_silent(self, scenario_dir, tmp_path, capsys, algorithm):
        doc = absolute_manifest_doc(scenario_dir)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        doc["sources"][0]["detections_path"] = str(empty)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "fuse"
        rc = main(["fuse", "--manifest", str(mpath), "--algorithm", algorithm, "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "summary.json").read_text())["output_boxes"] > 0

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
        # only the knowledge vote gates; this scenario's gates drop boxes
        assert (summary["gate_dropped_boxes"] > 0) == (algorithm == "knowledge-vote")

    @pytest.mark.parametrize("algorithm,name", [
        ("nms", "nms"), ("soft-nms", "soft_nms"), ("wbf", "wbf"), ("knowledge-vote", "wbf")])
    def test_run_fuse_calls_the_module_name_once(self, scenario_dir, monkeypatch, algorithm,
                                                 name):
        manifest = data_io.parse_manifest(manifest_path(scenario_dir))
        ensemble = data_io.load_ensemble(manifest)
        calls = {}
        for fusion_name in ("nms", "soft_nms", "wbf", "knowledge_vote"):
            fn = getattr(cli, fusion_name)

            def patched(per_model, *rest, fn=fn, fusion_name=fusion_name):
                calls.setdefault(fusion_name, []).append(per_model)
                return fn(per_model, *rest)

            monkeypatch.setattr(cli, fusion_name, patched)
        per_image, _ = cli.run_fuse(manifest, ensemble, algorithm)
        ids = ensemble.target_image_ids
        assert list(per_image) == list(ids)
        # one call with every target image: each source's boxes on each image,
        # sources in source order; the knowledge vote passes its gated sets to `wbf`
        want = [[s.for_image(iid) for iid in ids] for s in ensemble.sources]
        if algorithm == "knowledge-vote":
            want = [[apply_gates(boxes, manifest.fusion.gates) for boxes in images]
                    for images in want]
            assert want != [[s.for_image(iid) for iid in ids] for s in ensemble.sources]
        assert calls == {name: [want]}

    @pytest.mark.parametrize("algorithm", ["wbf", "knowledge-vote"])
    def test_run_fuse_equals_oracle_wbf_per_image(self, scenario_dir, algorithm):
        manifest = data_io.parse_manifest(manifest_path(scenario_dir))
        ensemble = data_io.load_ensemble(manifest)
        params = manifest.fusion
        assert params.model_weights is None and params.confidence_rescale == "none"
        per_image, summary = cli.run_fuse(manifest, ensemble, algorithm)
        ids = ensemble.target_image_ids
        assert list(per_image) == list(ids)
        dropped = reused = 0
        for iid in ids:
            per_model = [s.for_image(iid) for s in ensemble.sources]
            if algorithm == "knowledge-vote":
                gates = params.gates
                dropped += sum(
                    1 for boxes in per_model for b in boxes
                    if (gates.classes is not None and b.cls not in gates.classes)
                    or b.confidence < gates.gate(b.cls))
                per_model = [apply_gates(boxes, gates) for boxes in per_model]
            want = oracle_wbf([DetectionSet(iid, tuple(boxes)) for boxes in per_model],
                              (1.0,) * len(per_model), params.iou_threshold)
            assert [tuple(f) for f in per_image[iid]] == [row[:7] for row in want]
            for f, row in zip(per_image[iid], want):
                if len(row[7]) == 1:  # (cls, x1, y1, x2, y2, confidence) are the box's
                    b = row[7][0][1]
                    assert f[:6] == b[:6]
                    reused += 1
        assert summary["gate_dropped_boxes"] == dropped
        assert (dropped > 0) == (algorithm == "knowledge-vote")
        assert reused > 0

    @pytest.mark.parametrize("algorithm", ["wbf", "knowledge-vote"])
    def test_fuse_across_batches_writes_the_same_bytes(self, scenario_dir, tmp_path, monkeypatch,
                                                       algorithm):
        def fuse(out):
            assert main(["fuse", "--manifest", manifest_path(scenario_dir),
                         "--algorithm", algorithm, "--out", str(out)]) == 0
            return {name: (out / name).read_bytes() for name in ("fused.txt", "summary.json")}

        whole = fuse(tmp_path / "whole")
        batches = []
        monkeypatch.setattr(fusion, "BATCH_BOXES", 3)
        monkeypatch.setattr(fusion, "_wbf_image_batch",
                            lambda *a, fn=fusion._wbf_image_batch: batches.append(a) or fn(*a))
        assert fuse(tmp_path / "batched") == whole
        assert len(batches) > 1

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
        assert rc == 2

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


    def test_shapley_over_cap_exit_2_before_any_fusion(
        self, scenario_dir, tmp_path, capsys, monkeypatch
    ):
        doc = absolute_manifest_doc(scenario_dir)
        first = doc["sources"][0]
        doc["sources"] = [
            dict(first, name=f"copy_{i}") for i in range(consensus.MAX_SHAPLEY_SOURCES + 1)
        ]
        mpath = tmp_path / "wide.json"
        mpath.write_text(json.dumps(doc))
        calls = []
        for name in ("gated", "_wbf_batch", "wbf"):
            fn = getattr(consensus, name)
            monkeypatch.setattr(consensus, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
        out = tmp_path / "o"
        rc = main(["consensus", "--manifest", str(mpath), "--out", str(out), "--shapley"])
        assert rc == 2
        assert f"got {consensus.MAX_SHAPLEY_SOURCES + 1}" in capsys.readouterr().err
        assert len(calls) == 0  # neither gated nor fused
        assert not out.exists()


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

    def test_empty_detections_file_is_silent(self, scenario_dir, tmp_path, capsys):
        # no box to tokenize: np.loadtxt would warn "input contained no data"
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        capsys.readouterr()
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(empty), "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert metrics["aggregate"]["map50"] == 0.0

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

    def test_negative_ground_truth_class_exit_3(self, scenario_dir, tmp_path):
        doc = absolute_manifest_doc(scenario_dir)
        gt = tmp_path / "gt.txt"
        gt.write_text("img_00000 0 0.1 0.1 0.5 0.5\nimg_00001 -1 0.1 0.1 0.5 0.5\n")
        doc["target"]["ground_truth_path"] = str(gt)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        rc = main(["eval", "--manifest", str(mpath), "--detections", str(dets),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_reads_no_source_file(self, scenario_dir, tmp_path, monkeypatch):
        parsed = []
        real = data_io.parse_detections

        def counting(path, *args, **kwargs):
            parsed.append(str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(data_io, "parse_detections", counting)
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(dets), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert parsed == [str(dets)]

    def test_pseudo_labels_read_as_their_fused_file(self, tmp_path):
        # long_tail_gated's gates leave images without boxes: `# empty` lines
        data = tmp_path / "data"
        assert main(["simulate", "--scenario", "long_tail_gated", "--images", "20",
                     "--out", str(data)]) == 0
        man, cons = str(data / "manifest.json"), tmp_path / "consensus"
        assert main(["consensus", "--manifest", man, "--out", str(cons)]) == 0
        assert "# empty " in (cons / "pseudo_labels.txt").read_text()
        for name in ("pseudo_labels", "fused"):
            assert main(["eval", "--manifest", man, "--detections",
                         str(cons / f"{name}.txt"), "--out", str(tmp_path / name)]) == 0
        assert tree_bytes(tmp_path / "pseudo_labels") == tree_bytes(tmp_path / "fused")

    def test_bad_manifest_exits_2_before_any_box_file(self, scenario_dir, tmp_path,
                                                      monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a box file was read")

        monkeypatch.setattr(data_io, "parse_detections", unexpected)
        monkeypatch.setattr(data_io, "parse_ground_truth", unexpected)
        doc = absolute_manifest_doc(scenario_dir)
        doc["gates"]["default"] = "abc"
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 nope 0.1 0.5 0.5 0.9\n")
        out = tmp_path / "o"
        rc = main(["eval", "--manifest", str(mpath), "--detections", str(dets),
                   "--out", str(out)])
        assert rc == 2
        del doc["target"]["ground_truth_path"]
        doc["gates"]["default"] = 0.5
        mpath.write_text(json.dumps(doc))
        rc = main(["eval", "--manifest", str(mpath), "--detections", str(dets),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()


def tree_bytes(root):
    """Every file under root, by path relative to root, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


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

    def test_timings_cover_simulate_and_load(self, tmp_path):
        cli.run_pipeline("three_good", str(tmp_path), images=20)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert timings["simulate"] > 0
        assert timings["load"] > 0

    def test_stages_equal_the_standalone_commands(self, tmp_path):
        run = tmp_path / "pp"
        assert main(["pipeline", "--scenario", "two_good_one_poison", "--images", "20",
                     "--out", str(run)]) == 0
        man = str(run / "data" / "manifest.json")
        alone = tmp_path / "alone"
        for algorithm in cli.FUSE_ALGORITHMS:
            assert main(["fuse", "--manifest", man, "--algorithm", algorithm,
                         "--out", str(alone / f"fuse_{algorithm}")]) == 0
        assert main(["consensus", "--manifest", man, "--out", str(alone / "consensus")]) == 0
        stages = {"ours": "consensus", **{a: f"fuse_{a}" for a in cli.FUSE_ALGORITHMS}}
        for name, stage in stages.items():
            assert main(["eval", "--manifest", man,
                         "--detections", str(alone / stage / "fused.txt"),
                         "--out", str(alone / f"eval_{name}")]) == 0
        dirs = sorted(os.listdir(alone))
        assert len(dirs) == 10
        for d in dirs:
            assert tree_bytes(run / d) == tree_bytes(alone / d), d

    def test_zero_images_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="--images"):
            cli.run_pipeline("three_good", str(tmp_path / "pp"), images=0)
        assert not (tmp_path / "pp").exists()


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


def set_first_target_id(value):
    def mutate(doc):
        doc["target"]["image_ids"][0] = value
    return mutate


def set_filter_classes(value):
    return lambda doc: doc["filter"].update(mode="keep_listed", classes=value)


# (id, mutation, exit code, text that a code-2 message must contain: the field)
MANIFEST_MUTATIONS = [
    ("unchanged", lambda doc: None, 0, None),
    ("default gate not a number", set_gate_default("abc"), 2, "default gate"),
    ("default gate null", set_gate_default(None), 2, "default gate"),
    ("per-class gate not a number",
     lambda doc: doc["gates"].update(per_class={"class_0": "abc"}), 2, "class_0"),
    ("per-class gate a list",
     lambda doc: doc["gates"].update(per_class={"class_1": [0.5]}), 2, "class_1"),
    ("soft_nms_sigma zero", set_fusion("soft_nms_sigma", 0), 2, "soft_nms_sigma"),
    ("soft_nms_sigma negative", set_fusion("soft_nms_sigma", -0.5), 2, "soft_nms_sigma"),
    ("soft_nms_sigma NaN", set_fusion("soft_nms_sigma", float("nan")), 2, "soft_nms_sigma"),
    ("soft_nms_sigma infinite", set_fusion("soft_nms_sigma", float("inf")), 2,
     "soft_nms_sigma"),
    ("soft_nms_sigma not a number", set_fusion("soft_nms_sigma", "wide"), 2,
     "soft_nms_sigma"),
    ("iou_threshold not a number", set_fusion("iou_threshold", "abc"), 2, "iou_threshold"),
    ("score_floor not a number", set_fusion("score_floor", {}), 2, "score_floor"),
    ("model weight not a number", set_fusion("model_weights", [1, "x", 1]), 2,
     "model weight"),
    ("model_weights not a list", set_fusion("model_weights", 5), 2, "model_weights"),
    ("gates.per_class a list", lambda doc: doc["gates"].update(per_class=[0.5]), 2,
     "per_class"),
    ("source not an object", lambda doc: doc["sources"].append(7), 2, "source"),
    ("score_floor NaN", set_fusion("score_floor", float("nan")), 2, "score_floor"),
    ("score_floor above 1", set_fusion("score_floor", 1.5), 2, "score_floor"),
    ("score_floor negative", set_fusion("score_floor", -3), 2, "score_floor"),
    ("target not an object", lambda doc: doc.update(target=[1]), 2,
     "target must be an object"),
    ("filter.classes not a list", set_filter_classes(5), 2, "filter.classes"),
    ("filter.classes nested list", set_filter_classes([["class_0"]]), 2, "filter.classes"),
    ("target.image_ids not a list", lambda doc: doc["target"].update(image_ids=5), 2,
     "target.image_ids"),
    ("classes not strings", lambda doc: doc.update(classes=[["a"], ["b"]]), 2, "classes"),
    ("model weight negative", set_fusion("model_weights", [1, -1, 1]), 2, "model_weights"),
    ("model weight zero excludes a model", set_fusion("model_weights", [1, 0, 1]), 0, None),
    ("model weight boolean", set_fusion("model_weights", [1, True, 1]), 2, "model weight"),
    ("default gate boolean", set_gate_default(True), 2, "default gate"),
    ("per-class gate boolean",
     lambda doc: doc["gates"].update(per_class={"class_0": False}), 2, "class_0"),
    ("iou_threshold boolean", set_fusion("iou_threshold", True), 2, "iou_threshold"),
    ("duplicate target.image_ids",
     lambda doc: doc["target"]["image_ids"].append(doc["target"]["image_ids"][0]), 2,
     "target.image_ids"),
    ("source name not a string", lambda doc: doc["sources"][0].update(name=["a"]), 2,
     "source name"),
    ("detections_path not a string",
     lambda doc: doc["sources"][0].update(detections_path=5), 2, "detections_path"),
    ("dataset_size boolean", lambda doc: doc["sources"][0].update(dataset_size=True), 2,
     "dataset_size"),
    ("ground_truth_path not a string",
     lambda doc: doc["target"].update(ground_truth_path=5), 2, "ground_truth_path"),
    ("default gate a numeric string", set_gate_default("0.5"), 2, "default gate"),
    ("per-class gate a numeric string",
     lambda doc: doc["gates"].update(per_class={"class_0": "0.5"}), 2, "class_0"),
    ("iou_threshold a numeric string", set_fusion("iou_threshold", "0.6"), 2,
     "iou_threshold"),
    ("model weight a numeric string", set_fusion("model_weights", [1, "1", 1]), 2,
     "model weight"),
    ("iou_threshold an integer beyond the float range",
     set_fusion("iou_threshold", 10**400), 2, "iou_threshold"),
    ("dataset_size an integer beyond the float range",
     lambda doc: doc["sources"][0].update(dataset_size=10**400), 2, "dataset_size"),
    ("target.image_ids empty", lambda doc: doc["target"].update(image_ids=[]), 2,
     "target.image_ids"),
    ("model_weights shorter than the sources", set_fusion("model_weights", [1, 1]), 2,
     "fusion.model_weights"),
    ("model_weights with no positive weight", set_fusion("model_weights", [0, 0, 0]), 2,
     "fusion.model_weights"),
    # ids that no box line can carry: the reader splits on whitespace and skips `#` lines
    ("target.image_ids with an empty id", set_first_target_id(""), 2, "target.image_ids"),
    ("target.image_ids with whitespace", set_first_target_id("a b"), 2, "target.image_ids"),
    ("target.image_ids starting with #", set_first_target_id("#x"), 2, "target.image_ids"),
    ("default gate above 1", set_gate_default(1.5), 2, "default gate"),
    ("default gate NaN", set_gate_default(float("nan")), 2, "default gate"),
    ("per-class gate negative",
     lambda doc: doc["gates"].update(per_class={"class_0": -0.1}), 2, "class_0"),
    ("per-class gate NaN",
     lambda doc: doc["gates"].update(per_class={"class_1": float("nan")}), 2, "class_1"),
    ("keep_all filter listing a class",
     lambda doc: doc["filter"].update(mode="keep_all", classes=["class_1"]), 2,
     "keep_all filter"),
    ("filter class unknown", set_filter_classes(["class_9"]), 2, "filter references"),
    ("filter mode unknown", lambda doc: doc["filter"].update(mode="keep_some"), 2,
     "filter mode"),
    ("keep_listed filter listing no class", set_filter_classes([]), 2,
     "keep_listed filter"),
    ("classes empty", lambda doc: doc.update(classes=[]), 2, "'classes'"),
    ("classes duplicated", lambda doc: doc["classes"].append(doc["classes"][0]), 2,
     "class names"),
    ("sources empty", lambda doc: doc.update(sources=[]), 2, "'sources'"),
    ("dataset_size zero", lambda doc: doc["sources"][0].update(dataset_size=0), 2,
     "dataset_size"),
    ("dataset_size fractional", lambda doc: doc["sources"][0].update(dataset_size=2.5), 2,
     "dataset_size"),
]


@pytest.mark.parametrize(
    "mutate,code,needle",
    [m[1:] for m in MANIFEST_MUTATIONS],
    ids=[m[0] for m in MANIFEST_MUTATIONS],
)
def test_manifest_mutation_exit_code(scenario_dir, tmp_path, capsys, mutate, code, needle):
    doc = absolute_manifest_doc(scenario_dir)
    mutate(doc)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "soft-nms",
               "--out", str(tmp_path / "o")])
    assert rc == code
    if code == 2:
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert needle in err


@pytest.mark.parametrize("text,needle", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "manifest must be a JSON object"),
    ('"manifest"', "manifest must be a JSON object"),
], ids=["not JSON", "a list", "a string"])
def test_manifest_not_a_json_object_exit_2(tmp_path, capsys, text, needle):
    mpath = tmp_path / "m.json"
    mpath.write_text(text)
    rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "nms",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"{mpath}: {needle}" in err


def test_manifest_duplicate_key_exit_2(scenario_dir, tmp_path, capsys):
    doc = absolute_manifest_doc(scenario_dir)
    doc["gates"]["default"] = 0.25
    # json.dumps cannot repeat a key: put a first "default" in front of the real one
    text = json.dumps(doc).replace('"gates": {', '"gates": {"default": 0.99, ', 1)
    mpath = tmp_path / "m.json"
    mpath.write_text(text)
    out = tmp_path / "o"
    rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "knowledge-vote",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "duplicate key(s) ['default']" in err
    assert not out.exists()


def box_rows(path):
    """The fields of each box line of a text file, comment lines skipped."""
    return [line.split() for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]


def test_keep_listed_filter_keeps_only_its_classes(scenario_dir, tmp_path):
    doc = absolute_manifest_doc(scenario_dir)
    mpath = tmp_path / "all.json"
    mpath.write_text(json.dumps(doc))
    assert main(["fuse", "--manifest", str(mpath), "--algorithm", "knowledge-vote",
                 "--out", str(tmp_path / "kv_all")]) == 0
    doc["filter"] = {"mode": "keep_listed", "classes": ["class_2"]}
    mpath = tmp_path / "class_2.json"
    mpath.write_text(json.dumps(doc))
    kv, cons = tmp_path / "kv", tmp_path / "cons"
    assert main(["fuse", "--manifest", str(mpath), "--algorithm", "knowledge-vote",
                 "--out", str(kv)]) == 0
    assert main(["consensus", "--manifest", str(mpath), "--out", str(cons)]) == 0
    for path in (kv / "fused.txt", cons / "fused.txt", cons / "pseudo_labels.txt"):
        rows = box_rows(path)
        assert rows and {r[1] for r in rows} == {"2"}, path
    # classes never interact, so the knowledge vote keeps its class-2 rows as they were
    assert box_rows(kv / "fused.txt") == [
        r for r in box_rows(tmp_path / "kv_all" / "fused.txt") if r[1] == "2"
    ]
    # every source box on a target image that is of another class or under its gate
    targets = set(doc["target"]["image_ids"])
    gate = doc["gates"]["per_class"].get("class_2", doc["gates"]["default"])
    dropped = sum(
        r[0] in targets and (r[1] != "2" or float(r[6]) < gate)
        for s in doc["sources"]
        for r in box_rows(s["detections_path"])
    )
    summary = json.loads((kv / "summary.json").read_text())
    assert summary["gate_dropped_boxes"] == dropped
    unfiltered = json.loads((tmp_path / "kv_all" / "summary.json").read_text())
    assert dropped > unfiltered["gate_dropped_boxes"] > 0


@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-1", "0", "1"])
@pytest.mark.parametrize(
    "command",
    [["fuse", "--algorithm", "wbf"], ["fuse", "--algorithm", "nms"], ["consensus"]],
    ids=["fuse-wbf", "fuse-nms", "consensus"],
)
def test_iou_threshold_option_outside_unit_interval_exit_2(
    scenario_dir, tmp_path, capsys, command, value
):
    out = tmp_path / "o"
    rc = main([*command, "--manifest", manifest_path(scenario_dir), "--out", str(out),
               f"--iou-threshold={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "--iou-threshold" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.3", "nan"])
def test_iou_threshold_option_with_soft_nms_exit_2(scenario_dir, tmp_path, capsys, value):
    out = tmp_path / "o"
    rc = main(["fuse", "--algorithm", "soft-nms", "--manifest", manifest_path(scenario_dir),
               "--out", str(out), f"--iou-threshold={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "soft-NMS takes no IoU threshold" in err
    assert "internal error" not in err
    assert not out.exists()


def write_at_iou(scenario_dir, command, iou_threshold, out):
    """What the library writes for `command` at `iou_threshold`, without the CLI."""
    manifest = data_io.parse_manifest(manifest_path(scenario_dir))
    manifest.fusion = replace(manifest.fusion, iou_threshold=iou_threshold)
    ensemble = data_io.load_ensemble(manifest)
    if command == ["consensus"]:
        cli._write_consensus(str(out), *cli.run_consensus(manifest, ensemble))
    elif command[-1] == "wbf":
        cli._write_fuse(str(out), *cli.run_fuse(manifest, ensemble, "wbf"))
    else:  # NMS suppresses the boxes of every source together
        ids = ensemble.target_image_ids
        per_model = [[src.for_image(iid) for iid in ids] for src in ensemble.sources]
        per_image = dict(zip(ids, nms(per_model, manifest.fusion)))
        out.mkdir()
        data_io.write_detections(per_image, str(out / "fused.txt"))


@pytest.mark.parametrize(
    "command",
    [["fuse", "--algorithm", "wbf"], ["fuse", "--algorithm", "nms"], ["consensus"]],
    ids=["fuse-wbf", "fuse-nms", "consensus"],
)
def test_iou_threshold_option_takes_effect(scenario_dir, tmp_path, command):
    for name, option in (("default", []), ("option", ["--iou-threshold", "0.3"])):
        assert main([*command, "--manifest", manifest_path(scenario_dir),
                     "--out", str(tmp_path / name), *option]) == 0
    write_at_iou(scenario_dir, command, 0.3, tmp_path / "want")
    got, want = tree_bytes(tmp_path / "option"), tree_bytes(tmp_path / "want")
    assert {name: got[name] for name in want} == want
    assert got["fused.txt"] != tree_bytes(tmp_path / "default")["fused.txt"]


# a valid manifest and detection file, so only the threshold is out of range
EVAL_INPUTS = ["--manifest", "{scenario}/manifest.json",
               "--detections", "{scenario}/source_good_a.txt"]


@pytest.mark.parametrize(
    "argv,option",
    [
        (["simulate", "--scenario", "three_good", "--seed", "-1"], "--seed"),
        (["simulate", "--scenario", "three_good", "--images", "0"], "--images"),
        (["pipeline", "--scenario", "three_good", "--images", "0"], "--images"),
        (["eval", *EVAL_INPUTS, "--confidence-threshold", "2"], "--confidence-threshold"),
        (["eval", *EVAL_INPUTS, "--confidence-threshold", "-3"], "--confidence-threshold"),
        (["pipeline", "--scenario", "three_good", "--confidence-threshold", "7"],
         "--confidence-threshold"),
    ],
    ids=["simulate-seed-negative", "simulate-images-0", "pipeline-images-0",
         "eval-confidence-2", "eval-confidence-negative", "pipeline-confidence-7"],
)
def test_out_of_range_option_exit_2(scenario_dir, tmp_path, capsys, argv, option):
    out = tmp_path / "o"
    argv = [a.format(scenario=scenario_dir) for a in argv]
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert option in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fuse", "pipeline"])
def test_no_threads_option(scenario_dir, tmp_path, command):
    out = tmp_path / "o"
    argv = {
        "fuse": ["fuse", "--manifest", manifest_path(scenario_dir), "--algorithm", "nms"],
        "pipeline": ["pipeline", "--scenario", "three_good"],
    }[command]
    # parses without --threads, so the option alone makes the argparse error
    assert cli.build_parser().parse_args([*argv, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["consensus"]],
    ids=["consensus"],
)
def test_single_source_exit_2_leaves_no_output(scenario_dir, tmp_path, capsys, command):
    doc = absolute_manifest_doc(scenario_dir)
    doc["sources"] = doc["sources"][:1]
    mpath = tmp_path / "single.json"
    mpath.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main([*command, "--manifest", str(mpath), "--out", str(out)])
    assert rc == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_dataset_sizes_exit_2_naming_dataset_size(scenario_dir, tmp_path, capsys):
    doc = absolute_manifest_doc(scenario_dir)
    for s in doc["sources"]:
        s["dataset_size"] = 10**308
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["consensus", "--manifest", str(mpath), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dataset_size" in err and "model_weights" not in err
    assert not out.exists()


@pytest.mark.parametrize("weights", [[1, 1], [0, 0, 0]], ids=["short", "none-positive"])
def test_consensus_applies_the_model_weights_rule(scenario_dir, tmp_path, capsys, weights):
    doc = absolute_manifest_doc(scenario_dir)
    doc["fusion"]["model_weights"] = weights
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["consensus", "--manifest", str(mpath), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "fusion.model_weights" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["fuse", "--algorithm", "nms"], ["consensus"]],
    ids=["fuse-nms", "consensus"],
)
def test_no_target_image_in_any_file_exit_2(tmp_path, capsys, command):
    for name in ("a", "b"):
        (tmp_path / f"{name}.txt").write_text("# no boxes\n")
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({
        "classes": ["car"],
        "sources": [{"name": n, "detections_path": f"{n}.txt"} for n in ("a", "b")],
    }))
    out = tmp_path / "o"
    rc = main([*command, "--manifest", str(mpath), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "target image" in err
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["nms", "wbf", "knowledge-vote"])
def test_input_boxes_counts_the_target_images_only(tmp_path, algorithm):
    data = tmp_path / "data"
    assert main(["simulate", "--scenario", "three_good", "--images", "3",
                 "--out", str(data)]) == 0
    doc = json.loads((data / "manifest.json").read_text())
    doc["target"]["image_ids"] = ["img_00000"]
    (data / "one.json").write_text(json.dumps(doc))
    on_target = sum(
        line.split()[0] == "img_00000"
        for s in doc["sources"]
        for line in (data / s["detections_path"]).read_text().splitlines()
    )
    out = tmp_path / "o"
    assert main(["fuse", "--manifest", str(data / "one.json"), "--algorithm", algorithm,
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0 < summary["input_boxes"] == on_target
    assert summary["gate_dropped_boxes"] <= on_target


@pytest.mark.parametrize(
    "command",
    [["fuse", "--algorithm", "nms"], ["fuse", "--algorithm", "knowledge-vote"],
     ["consensus"]],
    ids=["fuse-nms", "fuse-knowledge-vote", "consensus"],
)
def test_listed_image_ids_read_no_ground_truth(scenario_dir, tmp_path, monkeypatch,
                                               command):
    def corrupt(path):
        raise ParseError("corrupt ground truth", str(path), 1)

    monkeypatch.setattr(data_io, "parse_ground_truth", corrupt)
    assert data_io.parse_manifest(manifest_path(scenario_dir)).target_image_ids
    rc = main([*command, "--manifest", manifest_path(scenario_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 0


@pytest.mark.parametrize("command", ["simulate", "fuse", "consensus", "pipeline", "eval"])
def test_out_not_a_directory_exit_2(scenario_dir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    dets = tmp_path / "d.txt"
    dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
    man = manifest_path(scenario_dir)
    argv = {
        "simulate": ["simulate", "--scenario", "three_good", "--images", "2"],
        "fuse": ["fuse", "--manifest", man, "--algorithm", "nms"],
        "consensus": ["consensus", "--manifest", man],
        "pipeline": ["pipeline", "--scenario", "three_good", "--images", "2"],
        "eval": ["eval", "--manifest", man, "--detections", str(dets)],
    }[command]
    # a directory below a regular file for eval; the regular file itself for the rest
    out = blocker / "sub" if command == "eval" else blocker
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"cannot create output directory {blocker}" in err
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command,name", [
    ("fuse", "fused.txt"),
    ("fuse", "summary.json"),
    ("consensus", "contribution_report.json"),
    ("consensus", "pseudo_labels.txt"),
    ("pipeline", "comparison.csv"),
])
def test_output_file_that_cannot_be_written_exit_2(scenario_dir, tmp_path, capsys, command,
                                                   name):
    out = tmp_path / "o"
    blocker = out / name
    blocker.mkdir(parents=True)
    man = manifest_path(scenario_dir)
    argv = {
        "fuse": ["fuse", "--manifest", man, "--algorithm", "wbf"],
        "consensus": ["consensus", "--manifest", man],
        "pipeline": ["pipeline", "--scenario", "three_good", "--images", "2"],
    }[command]
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"cannot write output file {blocker}" in err
    assert blocker.is_dir()


def test_readme_commands_parse():
    """Every `boxvote ...` command in README's sh blocks parses, continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [
        words[1:]
        for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        for words in map(shlex.split, block.replace("\\\n", " ").splitlines())
        if words[:1] == ["boxvote"]
    ]
    assert len(commands) >= 7
    parser = cli.build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README command does not parse: boxvote {shlex.join(words)}")


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


class TestBadInputFiles:
    def test_non_utf8_detections_exit_3(self, scenario_dir, tmp_path, capsys):
        dets = tmp_path / "d.txt"
        dets.write_bytes(b"img_00000 0 0.1 0.1 0.5 0.5 0.9\nimg_00000 0 0.1 0.1 0.5 0.5 0.8\xff\n")
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(dets), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(dets) in err and "UTF-8" in err

    def test_non_utf8_source_file_exit_3(self, scenario_dir, tmp_path):
        doc = absolute_manifest_doc(scenario_dir)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"img_00000 \xc3\x28 0.1 0.1 0.5 0.5 0.9\n")
        doc["sources"][0]["detections_path"] = str(bad)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "nms",
                   "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_non_utf8_ground_truth_names_the_line(self, scenario_dir, tmp_path, capsys):
        doc = absolute_manifest_doc(scenario_dir)
        gt = tmp_path / "gt.txt"
        gt.write_bytes(b"img_00000 0 0.1 0.1 0.5 0.5\nimg_00000 1 0.1 0.1 0.5 0.5\xff\n")
        doc["target"]["ground_truth_path"] = str(gt)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        rc = main(["eval", "--manifest", str(mpath), "--detections", str(dets),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{gt}:2: not UTF-8 text" in err
        assert "or later" not in err

    def test_nan_confidence_exit_3_names_the_line(self, scenario_dir, tmp_path, capsys):
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\nimg_00000 0 0.1 0.1 0.5 0.5 nan\n")
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(dets), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{dets}:2: confidence nan outside [0,1]" in capsys.readouterr().err

    def test_form_feed_inside_a_line_is_not_a_line_break(self, scenario_dir, tmp_path,
                                                         capsys):
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\fimg_00000 0 0.1 0.1 0.5 0.5 0.8\n")
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(dets), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert f"{dets}:1: expected 7 or 8 fields, got 14" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fuse", "eval"])
    @pytest.mark.parametrize("key", ["detections_path", "ground_truth_path"])
    def test_manifest_path_naming_a_directory_exit_2(self, scenario_dir, tmp_path, capsys,
                                                     key, command):
        doc = absolute_manifest_doc(scenario_dir)
        (tmp_path / "adir").mkdir()
        if key == "detections_path":
            doc["sources"][0]["detections_path"] = "adir"
        else:
            doc["target"]["ground_truth_path"] = "adir"
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        argv = {"fuse": ["fuse", "--algorithm", "nms"],
                "eval": ["eval", "--detections", str(dets)]}[command]
        rc = main([*argv, "--manifest", str(mpath), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        # the path as resolved against the manifest's directory
        assert f"not a regular file: {tmp_path / 'adir'}" in err

    def test_missing_detections_exit_2(self, scenario_dir, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        rc = main(["eval", "--manifest", manifest_path(scenario_dir),
                   "--detections", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(missing) in err

    @pytest.mark.parametrize("target", ["source", "ground truth", "detections"])
    def test_unreadable_input_file_exit_2(self, scenario_dir, tmp_path, capsys, monkeypatch,
                                          target):
        # `open` is patched rather than the file's mode, which root could read anyway
        doc = absolute_manifest_doc(scenario_dir)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.5 0.5 0.9\n")
        blocked = {"source": doc["sources"][0]["detections_path"],
                   "ground truth": doc["target"]["ground_truth_path"],
                   "detections": str(dets)}[target]
        refused = []

        def guarded_open(path, *args, **kwargs):
            if os.path.abspath(path) == os.path.abspath(blocked):
                refused.append(path)
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(data_io, "open", guarded_open, raising=False)
        argv = (["fuse", "--algorithm", "nms"] if target == "source"
                else ["eval", "--detections", str(dets)])
        rc = main([*argv, "--manifest", str(mpath), "--out", str(tmp_path / "o")])
        assert refused
        assert rc == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"cannot read input file {refused[0]}: Permission denied" in err

    def test_manifest_with_byte_order_mark_fuses_as_without(self, scenario_dir, tmp_path):
        doc = absolute_manifest_doc(scenario_dir)
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(doc), encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for mpath in (plain, marked):
            rc = main(["fuse", "--manifest", str(mpath), "--algorithm", "knowledge-vote",
                       "--out", str(tmp_path / mpath.stem)])
            assert rc == 0
        assert tree_bytes(tmp_path / "marked") == tree_bytes(tmp_path / "plain")

    def test_missing_manifest_names_the_file(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        rc = main(["fuse", "--manifest", str(missing), "--algorithm", "nms",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err


class TestObservability:
    def zero_area_eval(self, scenario_dir, tmp_path, *flags):
        dets = tmp_path / "d.txt"
        dets.write_text("img_00000 0 0.1 0.1 0.1 0.5 0.9\nimg_00000 0 0.1 0.1 0.5 0.5 0.8\n")
        return main([*flags, "eval", "--manifest", manifest_path(scenario_dir),
                     "--detections", str(dets), "--out", str(tmp_path / "o")])

    def test_log_level_sets_what_reaches_stderr(self, scenario_dir, tmp_path, capsys):
        handlers = list(logging.getLogger("boxvote").handlers)
        assert self.zero_area_eval(scenario_dir, tmp_path) == 0
        err = capsys.readouterr().err
        assert "WARNING boxvote.data_io:" in err and "dropped 1 zero-area box" in err
        assert self.zero_area_eval(scenario_dir, tmp_path, "--log-level", "error") == 0
        assert "zero-area" not in capsys.readouterr().err
        # each call removes the handler it added
        assert logging.getLogger("boxvote").handlers == handlers

    def test_debug_reraises_an_internal_fault(self, scenario_dir, tmp_path, capsys,
                                              monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken fusion")

        monkeypatch.setattr(cli, "run_fuse", broken)
        argv = ["fuse", "--manifest", manifest_path(scenario_dir), "--algorithm", "nms",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "internal error: broken fusion" in capsys.readouterr().err
        with pytest.raises(RuntimeError, match="broken fusion"):
            main(["--debug", *argv])


@pytest.mark.parametrize("algorithm", cli.FUSE_ALGORITHMS)
def test_fuse_keeps_class_ids_one_apart_past_2_to_53(tmp_path, algorithm):
    # float64 cannot tell 2**53 from 2**53 + 1
    classes = (2**53 + 1, 2**53)
    (tmp_path / "a.txt").write_text(
        "".join(f"img {c} 0.1 0.1 0.5 0.5 0.9\n" for c in classes))
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({
        "classes": ["car"], "sources": [{"name": "a", "detections_path": "a.txt"}]}))
    out = tmp_path / "o"
    assert main(["fuse", "--manifest", str(mpath), "--algorithm", algorithm,
                 "--out", str(out)]) == 0
    lines = (out / "fused.txt").read_text().splitlines()
    assert sorted(int(line.split()[1]) for line in lines) == sorted(classes)
