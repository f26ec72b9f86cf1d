"""Box representation, validation, IoU arithmetic, and the fixed-order float sum.

All coordinates are normalized corner coordinates (x1, y1, x2, y2) in [0, 1].
Everything here is a pure function on immutable values.

The box types, `Box` here, `fusion.FusedBox` and `evaluation.GroundTruthBox`,
are `typing.NamedTuple`s: immutable, hashable and equal by value. Every layer
builds them by the hundred thousand, and a named tuple constructs in about a
third of the time of a frozen dataclass, which sets each field through
`object.__setattr__`. Reading a field costs a little more (CPython 3.11 does
not specialize the named-tuple field getter), about 0.03 against 0.01 us,
which the cheaper construction more than pays for. `_replace` is their
copy-with-changes. Their equality is tuple equality: a box equals a plain
tuple of the same values, with the same hash. Boxes of different types never
compare equal, because their field counts differ (`GroundTruthBox` 5, `Box`
7, `FusedBox` 8). Code reads their fields by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidBoxError

# Coordinates up to this far outside [0, 1] are clamped; beyond it is an error.
CLAMP_SLOP = 1e-6


def running_sum(values) -> float:
    """Left-to-right float sum; the builtin sum compensates on Python >= 3.12.

    Every float total that reaches an artifact goes through here, so the
    bytes do not depend on the Python version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


class Box(NamedTuple):
    """One detection: class id, normalized corners, confidence, owning source."""

    cls: int
    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float
    source: int = 0


@dataclass(frozen=True)
class DetectionSet:
    """One image's generated boxes, in generation order; a collection of `boxes`.

    Only `synth.generate` builds these, because the bench counts generated
    boxes through `.boxes`. Past the file reader, boxes are plain tuples.
    """

    image_id: str
    boxes: tuple[Box, ...]

    def __iter__(self):
        return iter(self.boxes)

    def __len__(self) -> int:
        return len(self.boxes)

    def __contains__(self, box) -> bool:
        return box in self.boxes


def _clamp(v: float) -> float:
    return min(1.0, max(0.0, v))


def validate_box(b: Box) -> Box:
    """Return the box, clamping coordinates within CLAMP_SLOP of [0, 1].

    Raises InvalidBoxError on inverted corners, confidence outside [0, 1],
    or coordinates beyond the slop (NaN and infinities included). A box with
    ordered corners inside [0, 1] is returned as is; otherwise the corners
    are clamped, and a slop-sized inversion collapses onto the far corner.
    """
    x1, y1, x2, y2 = b.x1, b.y1, b.x2, b.y2
    for v in (x1, y1, x2, y2):
        if not (-CLAMP_SLOP <= v <= 1.0 + CLAMP_SLOP):  # also rejects NaN
            raise InvalidBoxError(f"coordinate {v!r} outside [0,1] beyond slop")
    if not (0.0 <= b.confidence <= 1.0):
        raise InvalidBoxError(f"confidence {b.confidence!r} outside [0,1]")
    if x1 > x2 + CLAMP_SLOP or y1 > y2 + CLAMP_SLOP:
        raise InvalidBoxError(f"inverted corners ({x1},{y1},{x2},{y2})")
    if 0.0 <= x1 <= x2 <= 1.0 and 0.0 <= y1 <= y2 <= 1.0:
        return b
    x2, y2 = _clamp(x2), _clamp(y2)
    return b._replace(x1=min(_clamp(x1), x2), y1=min(_clamp(y1), y2), x2=x2, y2=y2)


def iou(a, b) -> float:
    """Intersection over union of two corner-format boxes.

    Accepts any objects with x1/y1/x2/y2 attributes. Returns 0 when the
    union area is 0 (degenerate boxes).
    """
    # each field is read once: a named-tuple field read costs more than a local.
    # `b if b < a else a` is min(a, b) and `b if b > a else a` is max(a, b),
    # down to NaN and signed zeros, without a builtin call.
    ax1, ay1, ax2, ay2 = a.x1, a.y1, a.x2, a.y2
    bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
    iw = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    ih = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    w, h = ax2 - ax1, ay2 - ay1
    area_a = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
    w, h = bx2 - bx1, by2 - by1
    area_b = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union
