"""Seeded synthetic scenarios: ground truth plus simulated source detectors.

Randomness comes from a single PCG64 stream (numpy Generator) seeded from the
scenario spec, drawn in a fixed order, so a spec maps to exactly one dataset
on every platform. The order is:

1. Ground truth, image by image: the box count (`integers`), then per box
   one uniform double for its class and four for its corners (w, h, cx, cy).
2. Each source in turn, image by image:
   - a poisonous source draws its box count (`poisson`), then per box a
     uniform double for its confidence, its class (`integers`) and four
     corner doubles;
   - any other source draws, per ground-truth box, one double for whether
     it is detected and, if it is, its confidence (`normal`) and four corner
     offsets (`normal`, always four, even at zero noise); then its false
     positives, drawn like a poisonous source's boxes.

Each draw takes the values that numpy's one-value-per-call methods would, with
fewer numpy calls and built-in floats; three equivalences make that so:

- `rng.uniform(low, high)` is `low + (high - low) * rng.random()`: numpy
  computes `lower + range * next_double` in C. That holds while the C code is
  not compiled with FMA contraction (numpy's x86-64 wheels have an X86_V2
  baseline, without FMA); `tests/test_synth.py` checks it against the
  per-draw oracle on any platform.
- `rng.choice(n, p=freq)` is `bisect_right(cdf, rng.random())` with `cdf`
  built as `Generator.choice` builds it: `freq.cumsum()`, divided by its last
  element.
- `rng.choice(class_ids)` is `class_ids[rng.integers(0, len(class_ids))]`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .consensus import SourceDomain
from .errors import ScenarioError
from .evaluation import GroundTruth
from .fusion import ConfidenceGates
from .geometry import Box, DetectionSet

FP_CONF_RANGE = (0.05, 0.6)
POISON_CONF_RANGE = (0.05, 0.95)
BOX_SIZE_RANGE = (0.04, 0.18)
BOXES_PER_IMAGE = (1, 4)  # ground-truth boxes per image, both ends included


@dataclass(frozen=True)
class ClassSpec:
    id: int
    frequency: float


@dataclass(frozen=True)
class SourceSpec:
    name: str
    dataset_size: int
    detect_prob: dict[int, float] = field(default_factory=dict)
    coord_noise: float = 0.0
    conf_mean: float = 0.8
    conf_std: float = 0.1
    fp_rate: float = 0.0  # Poisson boxes per image (all boxes, if poisonous)
    poisonous: bool = False


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    num_images: int
    classes: tuple[ClassSpec, ...]
    sources: tuple[SourceSpec, ...]


@dataclass(frozen=True)
class NamedScenario:
    """A pinned scenario plus the gates it is meant to be fused with."""

    spec: ScenarioSpec
    gates: ConfidenceGates
    description: str


def _check(spec: ScenarioSpec) -> None:
    if spec.num_images < 1:
        raise ScenarioError("num_images must be >= 1")
    if not spec.classes:
        raise ScenarioError("at least one class required")
    if not all(0 < c.frequency < math.inf for c in spec.classes):
        raise ScenarioError("class frequencies must be positive and finite")
    class_ids = {c.id for c in spec.classes}
    if len(class_ids) != len(spec.classes):
        raise ScenarioError("duplicate class id")
    if not spec.sources:
        raise ScenarioError("at least one source required")
    for s in spec.sources:
        if s.dataset_size < 1:
            raise ScenarioError(f"source {s.name!r}: dataset_size must be >= 1")
        for name in ("coord_noise", "conf_mean", "conf_std", "fp_rate"):
            if not math.isfinite(getattr(s, name)):
                raise ScenarioError(f"source {s.name!r}: {name} must be finite")
        if s.coord_noise < 0 or s.conf_std < 0 or s.fp_rate < 0:
            raise ScenarioError(f"source {s.name!r}: negative stddev or rate")
        for cls, p in s.detect_prob.items():
            if cls not in class_ids:
                raise ScenarioError(f"source {s.name!r}: detect_prob[{cls}] names no class")
            if not (0.0 <= p <= 1.0):
                raise ScenarioError(
                    f"source {s.name!r}: detect_prob[{cls}] outside [0,1]"
                )


def _uniform(low: float, high: float, u: float) -> float:
    """`rng.uniform(low, high)` for the double `u` that it would draw."""
    return low + (high - low) * u


def _random_box(rng, cls: int, source: int, conf: float) -> Box:
    lo, hi = BOX_SIZE_RANGE
    uw, uh, ux, uy = rng.random(4).tolist()
    w = _uniform(lo, hi, uw)
    h = _uniform(lo, hi, uh)
    cx = _uniform(w / 2, 1 - w / 2, ux)
    cy = _uniform(h / 2, 1 - h / 2, uy)
    return Box(cls, cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, conf, source)


def _jitter(rng, gt: Box, noise: float, source: int, conf: float) -> Box:
    # draw all four offsets even when noise is 0 to keep the stream layout fixed
    dx1, dy1, dx2, dy2 = (rng.normal(0.0, 1.0, 4) * noise).tolist()
    x1, x2 = sorted((gt.x1 + dx1, gt.x2 + dx2))
    y1, y2 = sorted((gt.y1 + dy1, gt.y2 + dy2))
    clamp = lambda v: min(1.0, max(0.0, v))
    return Box(
        cls=gt.cls,
        x1=clamp(x1),
        y1=clamp(y1),
        x2=clamp(x2),
        y2=clamp(y2),
        confidence=conf,
        source=source,
    )


def image_ids(num_images: int) -> list[str]:
    return [f"img_{j:05d}" for j in range(num_images)]


def generate(spec: ScenarioSpec) -> tuple[GroundTruth, list[SourceDomain]]:
    """Deterministically fabricate ground truth and per-source detections."""
    _check(spec)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    ids = image_ids(spec.num_images)
    class_ids = [c.id for c in spec.classes]
    n_classes = len(class_ids)
    freq = np.array([c.frequency for c in spec.classes], dtype=float)
    freq /= freq.sum()
    cdf = freq.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    lo, hi = BOXES_PER_IMAGE

    gt_entries: dict[str, tuple[Box, ...]] = {}
    for image_id in ids:
        n = int(rng.integers(lo, hi + 1))
        boxes = []
        for _ in range(n):
            cls = class_ids[bisect_right(cdf, rng.random())]
            boxes.append(_random_box(rng, cls, source=0, conf=1.0))
        gt_entries[image_id] = tuple(boxes)
    gt = GroundTruth(entries=gt_entries)

    domains = []
    for src_idx, src in enumerate(spec.sources, start=1):
        detections: dict[str, DetectionSet] = {}
        for image_id in ids:
            boxes: list[Box] = []
            if src.poisonous:
                k = int(rng.poisson(src.fp_rate))
                for _ in range(k):
                    conf = _uniform(*POISON_CONF_RANGE, rng.random())
                    cls = class_ids[int(rng.integers(0, n_classes))]
                    boxes.append(_random_box(rng, cls, src_idx, conf))
            else:
                for gt_box in gt_entries[image_id]:
                    p = src.detect_prob.get(gt_box.cls, 1.0)
                    if rng.random() < p:
                        conf = min(1.0, max(0.05, rng.normal(src.conf_mean, src.conf_std)))
                        boxes.append(_jitter(rng, gt_box, src.coord_noise, src_idx, conf))
                k = int(rng.poisson(src.fp_rate))
                for _ in range(k):
                    conf = _uniform(*FP_CONF_RANGE, rng.random())
                    cls = class_ids[int(rng.integers(0, n_classes))]
                    boxes.append(_random_box(rng, cls, src_idx, conf))
            detections[image_id] = DetectionSet(image_id, tuple(boxes))
        domains.append(
            SourceDomain(
                source_id=src_idx,
                name=src.name,
                dataset_size=src.dataset_size,
                detections=detections,
            )
        )
    return gt, domains


def scaled(scenario: NamedScenario, num_images: int) -> NamedScenario:
    """Same scenario with a different target image count (seed unchanged)."""
    return replace(scenario, spec=replace(scenario.spec, num_images=num_images))


def reference_scenarios() -> dict[str, NamedScenario]:
    """The pinned scenarios the acceptance suite runs against."""
    three_classes = (
        ClassSpec(0, 0.50),
        ClassSpec(1, 0.35),
        ClassSpec(2, 0.15),
    )
    good = dict(coord_noise=0.012, conf_mean=0.82, conf_std=0.08, fp_rate=0.4)
    scenarios = {
        "three_good": NamedScenario(
            spec=ScenarioSpec(
                seed=79041,
                num_images=12,
                classes=three_classes,
                sources=(
                    SourceSpec("alpha", 120, {0: 0.95, 1: 0.9, 2: 0.85}, **good),
                    SourceSpec("bravo", 100, {0: 0.9, 1: 0.92, 2: 0.8}, **good),
                    SourceSpec("charlie", 80, {0: 0.88, 1: 0.85, 2: 0.9}, **good),
                ),
            ),
            gates=ConfidenceGates(default_gate=0.25),
            description="three competent detectors, light noise",
        ),
        "two_good_one_poison": NamedScenario(
            spec=ScenarioSpec(
                seed=428811,
                num_images=10,
                classes=three_classes,
                sources=(
                    SourceSpec("good_a", 120, {0: 0.95, 1: 0.9, 2: 0.85}, **good),
                    SourceSpec("good_b", 100, {0: 0.9, 1: 0.93, 2: 0.88}, **good),
                    SourceSpec("poison", 100, fp_rate=3.0, poisonous=True),
                ),
            ),
            gates=ConfidenceGates(default_gate=0.25),
            description="two competent detectors plus one uncorrelated source",
        ),
        "long_tail_gated": NamedScenario(
            spec=ScenarioSpec(
                seed=615203,
                num_images=16,
                # head/mid/tail imbalance matching a 1333/4556/234 sample split
                classes=(
                    ClassSpec(0, 1333.0),
                    ClassSpec(1, 4556.0),
                    ClassSpec(2, 234.0),
                ),
                sources=(
                    SourceSpec("alpha", 150, {0: 0.9, 1: 0.95, 2: 0.7}, **good),
                    SourceSpec("bravo", 110, {0: 0.85, 1: 0.9, 2: 0.75}, **good),
                    SourceSpec("charlie", 90, {0: 0.9, 1: 0.88, 2: 0.65}, **good),
                ),
            ),
            # tolerant gate for the tail class, strict for the rest
            gates=ConfidenceGates(gates={2: 0.5}, default_gate=0.8),
            description="long-tailed classes with a tolerant tail gate",
        ),
    }
    return scenarios
