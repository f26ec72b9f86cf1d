"""Box representation, validation, and IoU arithmetic.

All coordinates are normalized corner coordinates (x1, y1, x2, y2) in [0, 1].
Everything here is a pure function on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidBoxError

# Coordinates up to this far outside [0, 1] are clamped; beyond it is an error.
CLAMP_SLOP = 1e-6


@dataclass(frozen=True)
class Box:
    """One detection: class id, normalized corners, confidence, owning source."""

    cls: int
    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float
    source: int = 0

    def area(self) -> float:
        return max(0.0, self.x2 - self.x1) * max(0.0, self.y2 - self.y1)


@dataclass(frozen=True)
class DetectionSet:
    """All boxes for one image, in ingestion order; iterates and sizes as `boxes`."""

    image_id: str
    boxes: tuple[Box, ...]

    def __iter__(self):
        return iter(self.boxes)

    def __len__(self) -> int:
        return len(self.boxes)


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
    return replace(b, x1=min(_clamp(x1), x2), y1=min(_clamp(y1), y2), x2=x2, y2=y2)


def iou(a, b) -> float:
    """Intersection over union of two corner-format boxes.

    Accepts any objects with x1/y1/x2/y2 attributes. Returns 0 when the
    union area is 0 (degenerate boxes).
    """
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = max(0.0, a.x2 - a.x1) * max(0.0, a.y2 - a.y1)
    area_b = max(0.0, b.x2 - b.x1) * max(0.0, b.y2 - b.y1)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union
