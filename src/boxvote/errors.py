"""Exception hierarchy for the toolkit.

Config-shaped problems (bad manifest, degenerate ensembles) and data-shaped
problems (unparseable files, invalid boxes) are kept in separate branches so
the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class BoxvoteError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(BoxvoteError):
    """Bad configuration: manifest contents, parameters, ensemble shape."""


class DataError(BoxvoteError):
    """Bad input data: unparseable files, invalid boxes."""


class InvalidBoxError(DataError):
    """A box violates coordinate or confidence invariants beyond float slop."""


class ParseError(DataError):
    """A detection / ground-truth file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:" + (f"{line}: " if line is not None else " ")
        super().__init__(prefix + message)


class ManifestError(ConfigError):
    """The ensemble manifest is malformed or references missing resources."""


class WeightArityMismatchError(ConfigError):
    """model_weights length does not match the number of source models."""


class NegativeWeightError(WeightArityMismatchError):
    """A model weight is negative; a weight of 0 excludes its model."""


class EmptySubsetError(ConfigError):
    """Consensus quality requested for an empty source subset."""


class DegenerateEnsembleError(ConfigError):
    """Leave-one-out contribution is undefined for a single-source ensemble."""


class AllZeroContributionError(ConfigError):
    """Every size-weighted contribution is zero; weights are undefined."""


class MissingImageError(DataError):
    """A target image id has no entry where one is required."""


class ScenarioError(ConfigError):
    """A synthetic scenario spec violates its invariants."""


class EmptyGroundTruthError(ConfigError):
    """Evaluation requested against a ground truth with no boxes at all."""
