"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_boxvote()
import workloads  # noqa: E402

TINY = {"sparse-compare": 12, "poison-consensus": 12, "dense-fuse": 2}


def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads_and_metrics_run_prints():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_clean_and_prints_every_metric(name, trace):
    result = run.run(name, seed=3, seconds=0, trace=trace, images=TINY[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[k] for k in run.SELF_TIME_PARTS)
        assert parts == pytest.approx(m["trace.job_s"], rel=1e-9)
        assert m["error_rate"] == 0.0


def append_box(path):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("img_00000 0 0.1 0.1 0.2 0.2 0.5\n")


def change_class(path):
    """Same size, same line count: only a digest can tell."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    image_id, cls, rest = lines[0].split(" ", 2)
    lines[0] = f"{image_id} {(int(cls) + 1) % 3} {rest}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def corrupt_during(job_number, edit):
    """A run_cli that edits the first fused.txt written in the given job."""
    calls_per_job = len(workloads.WORKLOADS["dense-fuse"].calls("m", "o"))
    state = {"calls": 0}
    run_cli = workloads.run_cli

    def corrupting(argv):
        rc = run_cli(argv)
        state["calls"] += 1
        if state["calls"] == (job_number - 1) * calls_per_job + 1:
            edit(os.path.join(argv[argv.index("--out") + 1], "fused.txt"))
        return rc

    return corrupting


# Job 1 sets the reference digests at an unpinned seed, so it is checked by
# check_outputs alone; later jobs are also checked against the reference.
@pytest.mark.parametrize("job_number, edit, message", [
    (1, append_box, "fuse_nms: summary.json output_boxes"),
    (2, change_class, "fuse_nms/fused.txt: sha256"),
])
def test_corrupted_artifact_is_a_failed_job(monkeypatch, capsys, job_number, edit, message):
    monkeypatch.setattr(workloads, "run_cli", corrupt_during(job_number, edit))
    result = run.run("dense-fuse", seed=3, seconds=0, trace=False, images=2)
    assert result["failed"] == 1
    assert not result["correct"]
    assert message in capsys.readouterr().err


def test_pinned_digests_cover_every_workload():
    with open(run.PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    assert set(pins["digests"]) == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-fuse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
