"""The benchmark's workloads: how each writes its inputs and which CLI calls make one job.

A job is a fixed list of `boxvote` command lines on one manifest, run in
process through `boxvote.cli.main`. No call passes `--threads`, so the jobs
run whatever the CLI does by default.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace
from typing import Callable

from boxvote import cli, synth
from boxvote.fusion import ConfidenceGates

FUSE_ALGORITHMS = ("nms", "soft-nms", "wbf", "knowledge-vote")

# Boxes per image that each dense source adds on top of its true positives.
# With FP_CONF_RANGE (0.05, 0.6) and a 0.5 gate, about a fifth pass the gate.
DENSE_FP_RATE = 200.0
DENSE_GATE = 0.5


def run_cli(argv: list[str]) -> int:
    """Run one `boxvote` command line in process, with its chatter discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _simulate(scenario: str) -> Callable[[str, int, int], None]:
    def write(data_dir: str, seed: int, images: int) -> None:
        rc = run_cli([
            "simulate", "--scenario", scenario, "--images", str(images),
            "--seed", str(seed), "--out", data_dir,
        ])
        if rc != 0:
            raise RuntimeError(f"boxvote simulate exited {rc}")
    return write


def dense_scenario(seed: int, images: int) -> synth.NamedScenario:
    """`three_good`'s classes and sources, each emitting ~200 low-confidence boxes per image."""
    base = synth.reference_scenarios()["three_good"]
    spec = replace(
        base.spec,
        seed=seed,
        num_images=images,
        sources=tuple(replace(s, fp_rate=DENSE_FP_RATE) for s in base.spec.sources),
    )
    return synth.NamedScenario(
        spec=spec,
        gates=ConfidenceGates(default_gate=DENSE_GATE),
        description="three detectors with dense, mostly low-confidence output",
    )


def _write_dense(data_dir: str, seed: int, images: int) -> None:
    cli.write_scenario(dense_scenario(seed, images), data_dir)


def _fuse_calls(manifest: str, out: str) -> list[list[str]]:
    return [
        ["fuse", "--manifest", manifest, "--algorithm", a,
         "--out", os.path.join(out, f"fuse_{a}")]
        for a in FUSE_ALGORITHMS
    ]


def _compare_calls(manifest: str, out: str) -> list[list[str]]:
    calls = _fuse_calls(manifest, out)
    calls.append(["consensus", "--manifest", manifest,
                  "--out", os.path.join(out, "consensus")])
    for name in [f"fuse_{a}" for a in FUSE_ALGORITHMS] + ["consensus"]:
        calls.append([
            "eval", "--manifest", manifest,
            "--detections", os.path.join(out, name, "fused.txt"),
            "--out", os.path.join(out, f"eval_{name}"),
        ])
    return calls


def _shapley_calls(manifest: str, out: str) -> list[list[str]]:
    return [["consensus", "--manifest", manifest, "--shapley",
             "--out", os.path.join(out, "consensus")]]


@dataclass(frozen=True)
class Workload:
    name: str
    images: int
    write_inputs: Callable[[str, int, int], None]  # (data_dir, seed, images)
    calls: Callable[[str, str], list[list[str]]]  # (manifest, out_dir) -> argv lists


WORKLOADS = {
    w.name: w
    for w in (
        # Method comparison on sparse detector output: evaluation and the ten
        # manifest loads dominate, fusion is about a tenth.
        Workload("sparse-compare", 1000, _simulate("three_good"), _compare_calls),
        # Pseudo-labelling with exact Shapley scores: 11 consensus-quality
        # passes over 7 distinct source subsets, all through knowledge_vote.
        Workload("poison-consensus", 3000, _simulate("two_good_one_poison"),
                 _shapley_calls),
        # Dense output, where fusion cost is quadratic in boxes per image;
        # knowledge-vote sees the same data after its 0.5 gate.
        Workload("dense-fuse", 15, _write_dense, _fuse_calls),
    )
}
