"""Source contribution scoring and consensus-weighted fusion.

Consensus quality of a subset of sources is the sum, over target images and
fused boxes, of support_count * fused confidence. Each source's contribution
is its leave-one-out marginal on that quantity; contributions and dataset
sizes then produce the normalized weights driving the final fusion pass,
whose fused boxes are the pseudo-labels.

All scoring goes through one `ConsensusScorer`, which does each piece of
work once:

- It gates every (source, target image) pair once, when it is built. The
  knowledge vote is `apply_gates` followed by `wbf`, so fusing the gated
  sets with `wbf` gives the knowledge vote's boxes.
- It computes the quality of each distinct source subset once. The
  leave-one-out report, the Shapley enumeration and the final weighted pass
  all read from it, so with `--shapley` three sources cost 7 quality passes,
  not 11. A subset is keyed by its sources' positions in ensemble order, so
  `wbf` sees the same model order and weights whichever caller asks first.
- Quality is summed in a fixed order: image order, then the fusion output's
  confidence-descending order. The result does not depend on which caller
  computed it.

A scorer lives for one scoring run, and it is the only input of the
scoring functions below: they read the sources, target ids, gated boxes
and fusion params from it. `cli.run_consensus` builds one per call and
drops it after. Nothing is cached across calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .errors import (
    AllZeroContributionError,
    ConfigError,
    DegenerateEnsembleError,
    EmptySubsetError,
)
from .fusion import (
    ConfidenceGates,
    FusedBox,
    FusionParams,
    LabelSpaceFilter,
    apply_gates,
    knowledge_vote,  # noqa: F401 - bench/spans.py wraps `consensus.knowledge_vote`
    wbf,
)
from .geometry import DetectionSet, running_sum

# Non-positive contributions are clamped to this before normalization, so
# every source keeps a representable (if negligible) weight.
CF_EPSILON = 1e-9

# Exact subset enumeration is exponential; cap it where it stays interactive.
MAX_SHAPLEY_SOURCES = 12


@dataclass(frozen=True)
class SourceDomain:
    """One source model: its id, name, training-set size, and detections."""

    source_id: int
    name: str
    dataset_size: int
    detections: dict[str, DetectionSet]

    def for_image(self, image_id: str) -> DetectionSet:
        return self.detections.get(image_id, DetectionSet(image_id, ()))


@dataclass(frozen=True)
class SourceEnsemble:
    """All source domains plus the ordered target image ids."""

    sources: tuple[SourceDomain, ...]
    target_image_ids: tuple[str, ...]

    def __post_init__(self):
        ids = [s.source_id for s in self.sources]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("source ids must be contiguous from 1")
        if not self.target_image_ids:
            raise ValueError("target image set is empty")


@dataclass
class ContributionReport:
    """Raw and clamped contributions plus the normalized weights per source."""

    q_full: float = 0.0
    q_leave_one_out: dict[int, float] = field(default_factory=dict)
    cf: dict[int, float] = field(default_factory=dict)
    cf_clamped: dict[int, float] = field(default_factory=dict)
    alpha: dict[int, float] = field(default_factory=dict)
    alpha_extended: float = 0.0
    shapley: dict[int, float] | None = None


class ConsensusScorer:
    """Gated boxes and memoized subset qualities of some sources under one set of settings.

    A subset is a sequence of positions in `sources`, in ascending order.
    Build one scorer per scoring run and drop it after.
    """

    def __init__(
        self,
        sources,
        target_image_ids,
        gates: ConfidenceGates,
        flt: LabelSpaceFilter,
        params: FusionParams,
    ):
        self.sources = tuple(sources)
        self.target_image_ids = tuple(target_image_ids)
        self.params = params
        self._quality_params = replace(params, model_weights=None, confidence_rescale="none")
        # _gated[p][k]: the boxes of source p on image k that pass filter and gates
        self._gated = [
            [apply_gates(s.for_image(iid), gates, flt) for iid in self.target_image_ids]
            for s in self.sources
        ]
        self._quality: dict[tuple[int, ...], float] = {}

    def fuse(self, positions, params: FusionParams):
        """WBF of the gated sources at `positions`: one fused list per image, in image order."""
        sets = [self._gated[p] for p in positions]
        for k in range(len(self.target_image_ids)):
            yield wbf([g[k] for g in sets], params)

    def quality(self, positions) -> float:
        """Consensus quality of the sources at `positions`, computed once per subset.

        Measured pre-weighting: the subset is fused with uniform weights and
        no confidence rescaling.
        """
        key = tuple(positions)
        if not key:
            raise EmptySubsetError("consensus quality of an empty subset")
        if key not in self._quality:
            total = 0.0
            for fused in self.fuse(key, self._quality_params):
                for fb in fused:
                    total += fb.support_count * fb.confidence
            self._quality[key] = total
        return self._quality[key]


def consensus_quality(
    subset,
    target_image_ids,
    gates: ConfidenceGates,
    flt: LabelSpaceFilter,
    params: FusionParams,
) -> float:
    """Sum of support_count * fused confidence over all images and fused boxes.

    Measured pre-weighting: the subset is fused with uniform weights and no
    confidence rescaling. Summation order is fixed (image order, then the
    fusion output's confidence-descending order).

    Not exported from the package: tests call it, and `bench/spans.py` wraps
    it by name.
    """
    scorer = ConsensusScorer(subset, target_image_ids, gates, flt, params)
    return scorer.quality(range(len(scorer.sources)))


def consensus_focus_scores(scorer: ConsensusScorer) -> ContributionReport:
    """Leave-one-out marginal contribution of every source.

    Reads the quality of the full ensemble and of each subset with one
    source withheld from `scorer`.
    """
    sources = scorer.sources
    if len(sources) < 2:
        raise DegenerateEnsembleError(
            "leave-one-out contribution needs at least 2 sources"
        )
    everyone = tuple(range(len(sources)))
    report = ContributionReport()
    report.q_full = scorer.quality(everyone)
    for i, src in enumerate(sources):
        q_loo = scorer.quality(everyone[:i] + everyone[i + 1 :])
        report.q_leave_one_out[src.source_id] = q_loo
        cf = report.q_full - q_loo
        report.cf[src.source_id] = cf
        report.cf_clamped[src.source_id] = max(cf, CF_EPSILON)
    return report


def check_shapley_size(n_sources: int) -> None:
    """Exact Shapley enumeration is capped at MAX_SHAPLEY_SOURCES sources."""
    if n_sources > MAX_SHAPLEY_SOURCES:
        raise DegenerateEnsembleError(
            f"exact enumeration limited to {MAX_SHAPLEY_SOURCES} sources, got {n_sources}"
        )


def shapley_scores(scorer: ConsensusScorer) -> dict[int, float]:
    """Exact Shapley value of consensus quality per source (small ensembles only).

    Reads every subset's quality from `scorer`.
    """
    sources = scorer.sources
    n = len(sources)
    check_shapley_size(n)

    def quality(positions) -> float:
        return scorer.quality(positions) if positions else 0.0

    fact = math.factorial
    values: dict[int, float] = {}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        phi = 0.0
        for r in range(n):
            coeff = fact(r) * fact(n - r - 1) / fact(n)
            for combo in itertools.combinations(others, r):
                phi += coeff * (quality(tuple(sorted((*combo, i)))) - quality(combo))
        values[sources[i].source_id] = phi
    return values


def compute_weights(
    report: ContributionReport,
    source_sizes: dict[int, int],
    target_size: int,
) -> ContributionReport:
    """Fill in the normalized weights from clamped contributions and set sizes.

    The extended-dataset weight is the target's share of all image counts;
    the rest is split among sources proportionally to size * contribution.
    A size-weighted total that overflows a float is a `ConfigError` naming `dataset_size`.
    """
    if target_size < 1:
        raise ValueError("target size must be >= 1")
    sizes_total = sum(source_sizes[i] for i in report.cf_clamped)
    report.alpha_extended = target_size / (target_size + sizes_total)
    numerators = {
        i: source_sizes[i] * report.cf_clamped[i] for i in report.cf_clamped
    }
    total = running_sum(numerators.values())
    if not math.isfinite(total):
        raise ConfigError("sources' dataset_size too large: size * contribution overflows")
    if total == 0.0:
        raise AllZeroContributionError("all size-weighted contributions are zero")
    remainder = 1.0 - report.alpha_extended
    report.alpha = {i: (remainder * num) / total for i, num in numerators.items()}
    return report


def weighted_fusion(
    scorer: ConsensusScorer, report: ContributionReport
) -> dict[str, list[FusedBox]]:
    """Final consensus-weighted knowledge-vote pass over every target image.

    Fuses the gated sets of `scorer` with the weights `report.alpha`; the
    result maps every target image id, in target order, to its fused boxes.
    """
    weights = tuple(report.alpha[s.source_id] for s in scorer.sources)
    fused = scorer.fuse(
        range(len(scorer.sources)), replace(scorer.params, model_weights=weights)
    )
    return dict(zip(scorer.target_image_ids, fused))
