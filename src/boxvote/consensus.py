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
  The images run in batches, and the gated boxes of a batch are grouped by
  (image, class) and sorted once. Quality fuses with uniform weights and no
  rescaling, and classes never interact in WBF, so a class group's clusters
  depend only on S & P: the sources of subset S among those, P, with boxes
  in the group. Each distinct S & P of a group is one group of the batched
  WBF sweep (`fusion._wbf_batch`), which clusters as `wbf` does.
- Quality is summed in a fixed order: image order, then `wbf`'s output
  order (`fusion.fused_order`), with one running total per subset. A
  batch's clusters are sorted once, and each subset adds its terms with
  `np.add.accumulate`, which adds in order. These are the float operations
  of summing each subset's `wbf` output, so each quality is bit-equal to
  that sum, whichever caller reads it first.
- The final weighted pass, `weighted_fusion`, fuses the scorer's gated
  sets of all sources on every image in one `wbf` call.

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

import numpy as np

from .errors import (
    AllZeroContributionError,
    ConfigError,
    DegenerateEnsembleError,
    EmptySubsetError,
)
from .fusion import (
    FusedBox,
    FusionParams,
    _batches,
    _fused_rank,
    _gather,
    _wbf_batch,
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

        S and P are bitmasks of positions, as Python ints of any width. The
        images run in batches (`fusion._batches`) sized by a bound on the
        boxes of their restricted groups: a box enters at most one
        restriction per subset that holds its source.
        """
        n = len(self._gated)
        masks = [sum(1 << p for p in s) for s in subsets]
        reach = [max(1, sum(m >> p & 1 for m in masks)) for p in range(n)]
        sizes = [sum(len(gated[k]) * r for gated, r in zip(self._gated, reach))
                 for k in range(len(self.target_image_ids))]
        totals = [0.0] * len(subsets)
        restrictions: dict[int, tuple] = {}  # P -> _restrictions(P, ...)
        for batch in _batches(sizes):
            self._score_batch(batch, masks, totals, restrictions)
        self._quality.update(zip(subsets, totals))

    def _score_batch(self, images, masks, totals, restrictions) -> None:
        """Add the terms of a batch of images to each subset's running total.

        The batch's gated boxes are grouped by (image, class) and sorted by
        WBF's priority once (`fusion._gather`). Weights are uniform
        (`conf * 1.0 == conf`), so the boxes of a subset's sources keep the
        order of that subset's own group. Each distinct S & P of a group is
        one group of `fusion._wbf_batch`. The batch's clusters are sorted
        once, by image and then `fused_order`, and each subset adds the terms
        of its clusters in that order.
        """
        n = len(self._gated)
        rows = _gather([gated[k] for k in images for gated in self._gated], (1.0,) * n)
        if rows is None:
            return
        n_groups = len(rows.starts)
        group = np.repeat(np.arange(n_groups), np.diff(rows.starts, append=len(rows.conf)))
        pattern, p_masks = _source_sets(group, rows.model, n_groups, n)
        info = []
        for p_mask in p_masks:
            if p_mask not in restrictions:
                restrictions[p_mask] = _restrictions(p_mask, masks, n)
            info.append(restrictions[p_mask])
        local = np.array([i[0] for i in info])  # pattern, subset -> restriction, or -1
        holding = np.array([i[1] for i in info])  # pattern, position -> restrictions holding it
        held = np.concatenate([i[2] for i in info])
        offset = (np.cumsum(holding) - holding.ravel()).reshape(holding.shape)
        n_restricted = np.array([i[3] for i in info])[pattern]
        first = np.cumsum(n_restricted) - n_restricted  # each group's first restriction

        # each row enters each restriction of its group that holds its source
        u, m = pattern[group], rows.model
        c = holding[u, m]
        row = np.repeat(np.arange(len(m)), c)
        if not len(row):
            return
        j = held[np.repeat(offset[u, m] - (np.cumsum(c) - c), c) + np.arange(len(row))]
        restriction = first[group[row]] + j
        row = row[np.argsort(restriction, kind="stable")]  # priority order within each
        lengths = np.bincount(restriction, minlength=int(n_restricted.sum()))
        of = np.repeat(np.arange(n_groups), n_restricted)  # the group of each restriction
        cl = _wbf_batch(rows.box[:, row], rows.conf[row], np.ones(len(row)), rows.source[row],
                        lengths, rows.cls[rows.starts[of]], self.params.iou_threshold)

        head = rows.starts[of[np.repeat(np.arange(len(lengths)), cl.count)]]
        rank = np.empty(len(cl.conf), np.intp)  # each cluster's place in image, fused_order
        rank[_fused_rank(rows.image[head], rows.cls[head], cl.box, cl.conf)] = np.arange(len(rank))
        # every (subset, cluster) pair, ordered by subset and then rank
        chosen = local[pattern]  # group, subset -> the subset's restriction of the group, or -1
        subset, grp = np.nonzero(chosen.T >= 0)
        used = first[grp] + chosen[grp, subset]
        c = cl.count[used]
        subset = np.repeat(subset, c)
        cluster = np.repeat(np.cumsum(cl.count)[used] - np.cumsum(c), c) + np.arange(len(subset))
        by = np.argsort(subset * len(rank) + rank[cluster], kind="stable")
        subset, cluster = subset[by], cluster[by]
        # one row per subset: its running total, then its terms in order, then zeros
        n_terms = np.bincount(subset, minlength=len(totals))
        terms = np.zeros((len(totals), 1 + n_terms.max()))
        terms[:, 0] = totals
        at = np.arange(len(subset)) - (np.cumsum(n_terms) - n_terms)[subset]
        terms[subset, 1 + at] = cl.support[cluster] * cl.conf[cluster]
        totals[:] = np.add.accumulate(terms, axis=1)[:, -1].tolist()


def _source_sets(group, model, n_groups: int, n: int) -> tuple[np.ndarray, list[int]]:
    """P of each group, the positions of the sources with a box in it.

    Returns the index of each group's P among the distinct ones, and those
    as bitmasks of positions. The masks are Python ints, built from 64-bit
    words, so any number of sources fits.
    """
    present = np.zeros((n_groups, -(-n // 64) * 64), bool)
    present[group, model] = True
    words = np.packbits(present, axis=1, bitorder="little").view(np.uint64)
    by = np.lexsort(words.T)
    words = words[by]
    new = np.ones(n_groups, bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    pattern = np.empty(n_groups, np.intp)
    pattern[by] = np.cumsum(new) - 1
    return pattern, [int.from_bytes(row.tobytes(), "little") for row in words[new]]


def _restrictions(p_mask: int, masks, n: int) -> tuple:
    """The distinct non-empty S & P of a group whose sources are `p_mask`.

    Returns, with the restrictions numbered in first-seen order over
    `masks`: each subset's restriction (-1 for none), how many restrictions
    hold each of the `n` positions, those restrictions position by position,
    and how many there are.
    """
    index: dict[int, int] = {}
    local = [index.setdefault(m & p_mask, len(index)) if m & p_mask else -1 for m in masks]
    holds = [[j for j, sub in enumerate(index) if sub >> p & 1] for p in range(n)]
    return (np.array(local), [len(h) for h in holds],
            np.array([j for h in holds for j in h], dtype=np.intp), len(index))


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

    Fuses the gated sets of `scorer` on every image in one `wbf` call,
    with the weights `report.alpha`; the result maps every target image id,
    in target order, to its fused boxes.
    """
    weights = tuple(report.alpha[s.source_id] for s in scorer.sources)
    params = replace(scorer.params, model_weights=weights)
    return dict(zip(scorer.target_image_ids, wbf(scorer._gated, params)))
