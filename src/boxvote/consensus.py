"""Source contribution scoring and consensus-weighted fusion.

Consensus quality of a subset of sources is the sum, over target images and
fused boxes, of support_count * fused confidence. Each source's contribution
is its leave-one-out marginal on that quantity; contributions and dataset
sizes then produce the normalized weights driving the final fusion pass,
whose fused boxes are the pseudo-labels.

All scoring goes through one `ConsensusScorer`, which does each piece of
work once:

- It gates every (source, target image) pair once, when it is built, by
  `params.gates`. The knowledge vote is `apply_gates` followed by `wbf`, so
  fusing the gated sets gives the knowledge vote's boxes.
- It scores every subset the run reads in one pass over the images, on the
  first quality read: the full set and each leave-one-out subset, and with
  `--shapley` every non-empty subset (7 for three sources, not the 11 reads).
  Per image, it groups the gated boxes of all sources by class and sorts
  each group once. Quality fuses with uniform weights and no rescaling, and
  classes never interact in WBF, so a class group's clusters depend only on
  S & P: the sources of subset S among those, P, with boxes in the group.
  Each distinct S & P of an image is clustered once, with the same sweep
  (`fusion._wbf_clusters`) and the same cluster rule as `wbf`.
- Quality is summed in a fixed order: image order, then `wbf`'s output
  order (`fusion.fused_order`), with one running total per subset. These
  are the float operations of summing each subset's `wbf` output, so each
  quality is bit-equal to that sum, whichever caller reads it first.
- The final weighted pass, `weighted_fusion`, fuses the scorer's gated
  sets of all sources with `wbf`, the one producer of `FusedBox`es, image
  by image.

A scorer lives for one scoring run, and it is the only input of the
scoring functions below: they read the sources, target ids, gated boxes
and fusion params from it. `cli.run_consensus` builds one per call, names
the subsets the call reads (`read_subsets`, which caps `--shapley` at
`MAX_SHAPLEY_SOURCES` sources), and drops it after. Nothing is cached across
calls.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .errors import (
    AllZeroContributionError,
    ConfigError,
    DegenerateEnsembleError,
    EmptySubsetError,
)
from .fusion import (
    FusedBox,
    FusionParams,
    _wbf_fusions,
    _weighted_priority,
    apply_gates,
    knowledge_vote,  # noqa: F401 - bench/spans.py wraps `consensus.knowledge_vote`
    wbf,
)
from .geometry import Box, running_sum

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
    detections: dict[str, Collection[Box]]  # image id -> boxes

    def for_image(self, image_id: str) -> Collection[Box]:
        """The source's boxes on the image; `()` for an image it has none on."""
        return self.detections.get(image_id, ())


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
    """Gated boxes and the subset qualities of some sources under one set of settings.

    A subset is a sequence of positions in `sources`, in ascending order.
    `subsets` are the subsets the run reads: the first `quality` read scores
    them all, with the one asked for, in one pass over the images. A subset
    read after that pass is scored by a pass of its own. `weighted_fusion`
    fuses the gated sets of all sources. Build one scorer per scoring run
    and drop it after.
    """

    def __init__(self, sources, target_image_ids, params: FusionParams, subsets=()):
        self.sources = tuple(sources)
        self.target_image_ids = tuple(target_image_ids)
        self.params = params
        # _gated[p][k]: the boxes of source p on image k that pass params.gates
        self._gated = [
            [apply_gates(s.for_image(iid), params.gates) for iid in self.target_image_ids]
            for s in self.sources
        ]
        self._unscored = {tuple(s) for s in subsets}
        self._quality: dict[tuple[int, ...], float] = {}

    def quality(self, positions) -> float:
        """Consensus quality of the sources at `positions`, computed once per subset.

        Measured pre-weighting: the subset is fused with uniform weights and
        no confidence rescaling.
        """
        key = tuple(positions)
        if not key:
            raise EmptySubsetError("consensus quality of an empty subset")
        if key not in self._quality:
            self._unscored.add(key)
            self._score(sorted(self._unscored))
            self._unscored.clear()
        return self._quality[key]

    def _score(self, subsets) -> None:
        """Score `subsets` in one pass over the images, as `wbf` would fuse each.

        Each image's gated boxes are grouped by class and sorted by
        `_weighted_priority` once. Weights are uniform (`conf * 1.0 == conf`),
        so the items of a subset's positions keep the order of that subset's
        own group. Each distinct S & P of an image is clustered once, with S
        and P as bitmasks of positions. Each subset adds its terms in
        `fused_order`, image by image, into one running total.
        """
        threshold = self.params.iou_threshold
        masks = [sum(1 << p for p in s) for s in subsets]
        totals = [0.0] * len(subsets)
        for k in range(len(self.target_image_ids)):
            by_class: dict[int, list] = {}
            present: dict[int, int] = {}  # class -> mask of the positions with boxes of it
            for p, gated in enumerate(self._gated):
                for idx, b in enumerate(gated[k]):
                    by_class.setdefault(b.cls, []).append((b, idx, 1.0, p))
                    present[b.cls] = present.get(b.cls, 0) | 1 << p
            # (class, items in priority order, P, the (sort key, term)s clustered per S & P)
            groups = [
                (cls, sorted(by_class[cls], key=_weighted_priority), present[cls], {})
                for cls in sorted(by_class)
            ]
            for si, mask in enumerate(masks):
                terms = []
                for cls, items, p_mask, clustered in groups:
                    sub = mask & p_mask
                    if not sub:
                        continue
                    got = clustered.get(sub)
                    if got is None:
                        if sub != p_mask:
                            items = [item for item in items if sub >> item[3] & 1]
                        got = clustered[sub] = [
                            ((-conf, cls, x1, y1, x2, y2), n_b * conf)  # fused_order's key
                            for x1, y1, x2, y2, conf, n_b, _ in _wbf_fusions(cls, items, threshold)
                        ]
                    terms += got
                terms.sort(key=itemgetter(0))
                total = totals[si]
                for _, term in terms:
                    total += term
                totals[si] = total
        self._quality.update(zip(subsets, totals))


def consensus_quality(subset, target_image_ids, params: FusionParams) -> float:
    """Sum of support_count * fused confidence over all images and fused boxes.

    Measured pre-weighting: the subset is fused with uniform weights and no
    confidence rescaling. Summation order is fixed (image order, then the
    fusion output's confidence-descending order).

    Not exported from the package: tests call it, and `bench/spans.py` wraps
    it by name.
    """
    scorer = ConsensusScorer(subset, target_image_ids, params)
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


def read_subsets(n_sources: int, shapley: bool) -> list[tuple[int, ...]]:
    """The subsets a scoring run reads, as positions: the full set and each
    leave-one-out subset, or with `shapley` every non-empty subset, which
    `check_shapley_size` caps."""
    everyone = tuple(range(n_sources))
    if shapley:
        check_shapley_size(n_sources)
        return [c for r in range(1, n_sources + 1) for c in itertools.combinations(everyone, r)]
    return [everyone] + [everyone[:i] + everyone[i + 1 :] for i in everyone]


def check_shapley_size(n_sources: int) -> None:
    """Exact Shapley enumeration is capped at MAX_SHAPLEY_SOURCES sources."""
    if n_sources > MAX_SHAPLEY_SOURCES:
        raise DegenerateEnsembleError(
            f"exact enumeration limited to {MAX_SHAPLEY_SOURCES} sources, got {n_sources}"
        )


def shapley_scores(scorer: ConsensusScorer) -> dict[int, float]:
    """Exact Shapley value of consensus quality per source (small ensembles only).

    Reads every subset's quality from `scorer`. The size cap is checked here
    too, for a scorer built without `read_subsets`.
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

    Fuses the gated sets of `scorer` with `wbf` and the weights
    `report.alpha`, image by image; the result maps every target image id,
    in target order, to its fused boxes.
    """
    weights = tuple(report.alpha[s.source_id] for s in scorer.sources)
    params = replace(scorer.params, model_weights=weights)
    return {
        iid: wbf([gated[k] for gated in scorer._gated], params)
        for k, iid in enumerate(scorer.target_image_ids)
    }
