"""Box representation, validation, IoU arithmetic, and the fixed-order float sum.

All coordinates are normalized corner coordinates (x1, y1, x2, y2) in [0, 1].
Everything here is a pure function on immutable values. `iou` scores one
pair of boxes, and `pair_ious` many pairs at once with numpy, in the same
IEEE operations, so both give the same floats. `pair_chunks` lists those
pairs, for each box a run of partners, in chunks of bounded size.

The two box types, `Box` here (detections and ground truth) and
`fusion.FusedBox`, are `typing.NamedTuple`s: immutable, hashable and equal by
value. Every layer builds them by the hundred thousand, and a named tuple
constructs in about a third of the time of a frozen dataclass, which sets each
field through `object.__setattr__`. Reading a field costs a little more
(CPython 3.11 does not specialize the named-tuple field getter), about 0.03
against 0.01 us, which the cheaper construction more than pays for. `_replace`
is their copy-with-changes. Their equality is tuple equality: a box equals a
plain tuple of the same values, with the same hash. Both types have 7 fields,
so a `Box` and a `FusedBox` of the same values are equal too, although the
seventh field is a source in one and a support count in the other. Code reads
their fields by name.

Files and fusion inputs are held as columns, not as boxes: a `BoxTable`
holds one file's boxes, grouped by image id, and an `ImageRows` a list of
images' rows of one table, as each fusion takes a model's images.
`box_columns` is the one converter from box collections to columns, and
`named_rows` builds boxes from columns, for output.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

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
    boxes through `.boxes`. The file readers return a `BoxTable`.
    """

    image_id: str
    boxes: tuple[Box, ...]

    def __iter__(self):
        return iter(self.boxes)

    def __len__(self) -> int:
        return len(self.boxes)

    def __contains__(self, box) -> bool:
        return box in self.boxes


def exact_ids(values) -> np.ndarray:
    """The ids as int64, or, when one is past int64 or not an int, as an
    object array of the values themselves: either way every id is exact."""
    try:
        col = np.fromiter(values, np.int64, len(values))
        if col.tolist() == list(values):  # fromiter truncates a float such as 1.5
            return col
    except (OverflowError, TypeError, ValueError):
        pass
    return np.array(values, dtype=object)


def box_columns(boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cls, box, conf, source) of a sequence of `Box`-shaped tuples, in order.

    The one converter from boxes to columns. `box` holds the x1, y1, x2 and
    y2 rows, and `conf` the confidences, as float64. `cls` and `source` are
    exact (see `exact_ids`), so ids past 2**53 never merge. A NaN confidence is
    a ValueError: it has no place in confidence order.
    """
    fields = list(zip(*boxes)) or [()] * 7
    conf = np.array(fields[5], float)
    nan = np.flatnonzero(np.isnan(conf))
    if len(nan):
        raise ValueError(f"box {nan[0]} has confidence NaN; a confidence must be a number")
    return exact_ids(fields[0]), np.array(fields[1:5], float), conf, exact_ids(fields[6])


def runs(values) -> np.ndarray:
    """The first position of each run of equal values."""
    new = np.ones(len(values), bool)
    new[1:] = values[1:] != values[:-1]
    return np.flatnonzero(new)


def named_rows(kind, cls, box, conf, last) -> list:
    """A `kind` tuple (`Box` or `fusion.FusedBox`) per column: cls, the four
    rows of `box`, conf and `last` (the source or the support count)."""
    return list(map(tuple.__new__, repeat(kind), zip(
        cls.tolist(), *box.tolist(), conf.tolist(), last.tolist())))


class BoxTable(Mapping):
    """The boxes of one file or collection as columns, grouped by image id.

    Image k's rows are bounds[k] to bounds[k + 1] - 1, in their input order;
    `ids` are in first-seen order. The columns are those of `box_columns`.
    Read as a mapping, a table gives each image id's boxes as a `Box`
    tuple, built on each read: the writers, `SourceDomain.for_image` and
    tests read it so. The fusions and the matcher read the columns.
    """

    def __init__(self, ids, bounds, cls, box, conf, source):
        self.ids = tuple(ids)
        self.bounds = bounds
        self.cls, self.box, self.conf, self.source = cls, box, conf, source

    @cached_property
    def index(self) -> dict:
        """The position of each image id in `ids`."""
        return dict(zip(self.ids, range(len(self.ids))))

    def __getitem__(self, image_id) -> tuple[Box, ...]:
        k = self.index[image_id]
        return self.boxes(int(self.bounds[k]), int(self.bounds[k + 1]))

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def boxes(self, lo: int, hi: int) -> tuple[Box, ...]:
        """Rows lo to hi - 1 as `Box`es."""
        return tuple(named_rows(Box, self.cls[lo:hi], self.box[:, lo:hi], self.conf[lo:hi],
                                self.source[lo:hi]))

    def compress(self, keep) -> BoxTable:
        """The rows where `keep` is true; an image left without rows is left out."""
        kept = np.concatenate(([0], np.cumsum(keep)))[self.bounds]
        some = np.flatnonzero(np.diff(kept))
        return BoxTable([self.ids[k] for k in some.tolist()], np.append(kept[some], kept[-1]),
                        self.cls[keep], self.box[:, keep], self.conf[keep], self.source[keep])


class ImageRows(Sequence):
    """A list of images' rows of one `BoxTable`: image k's are lo[k] to hi[k] - 1.

    Read as a sequence, item k is image k's `Box` tuple. Every fusion takes
    a model's images as a sequence of box collections; it reads this one's
    columns in place and converts any other (`of`).
    """

    def __init__(self, table: BoxTable, lo, hi):
        self.table, self.lo, self.hi = table, lo, hi

    @classmethod
    def of(cls, images) -> ImageRows:
        """`images` itself if it is an ImageRows, else its box collections as columns."""
        if isinstance(images, ImageRows):
            return images
        lists = list(images)
        bounds = np.concatenate(([0], np.cumsum([len(boxes) for boxes in lists], dtype=np.intp)))
        table = BoxTable(range(len(lists)), bounds, *box_columns(chain.from_iterable(lists)))
        return cls(table, bounds[:-1], bounds[1:])

    @classmethod
    def over(cls, per_image, ids) -> ImageRows:
        """The rows of each of `ids` in `per_image`, a mapping of image ids to
        boxes: a BoxTable is read in place, any other is converted. An id that
        `per_image` lacks has no rows."""
        if not isinstance(per_image, BoxTable):
            return cls.of([per_image.get(i, ()) for i in ids])
        t = per_image
        k = np.fromiter(map(t.index.get, ids, repeat(len(t.ids))), np.intp, len(ids))
        return cls(t, np.append(t.bounds[:-1], 0)[k], np.append(t.bounds[1:], 0)[k])

    def __getitem__(self, k) -> tuple[Box, ...]:
        return self.table.boxes(int(self.lo[k]), int(self.hi[k]))

    def __len__(self) -> int:
        return len(self.lo)

    def __eq__(self, other) -> bool:
        """Equal to any sequence of equal box collections, as a list of them is."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def sizes(self) -> np.ndarray:
        return self.hi - self.lo

    def rows(self, start: int = 0, stop: int | None = None):
        """(image, row, place) of every row of images start to stop - 1, image
        after image: its image's position from `start`, its row in the table,
        and its place in the image's list."""
        lo, counts = self.lo[start:stop], self.sizes()[start:stop]
        image = np.repeat(np.arange(len(counts)), counts)
        place = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        return image, lo[image] + place, place

    def where(self, keep) -> ImageRows:
        """The same images with only the table rows where `keep` is true."""
        kept = np.concatenate(([0], np.cumsum(keep)))
        return ImageRows(self.table.compress(keep), kept[self.lo], kept[self.hi])


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


def box_areas(corners) -> np.ndarray:
    """`iou`'s area of each box whose corners are the x1, y1, x2 and y2 rows of `corners`."""
    return np.maximum(0.0, corners[2] - corners[0]) * np.maximum(0.0, corners[3] - corners[1])


def pair_ious(a, i, b, j) -> tuple[np.ndarray, np.ndarray]:
    """(k, ious): the positions k, ascending, of the pairs (box i[k] of `a`,
    box j[k] of `b`) whose IoU is > 0, and those IoUs.

    `a` and `b` hold their boxes' x1, y1, x2 and y2 rows. Each IoU equals
    iou(box i[k] of a, box j[k] of b) bit for bit: it takes the same IEEE
    operations, corner max/min, iw * ih, (area_a + area_b) - inter with
    `box_areas`, and a pair whose intersection is empty or whose union is not
    positive has no entry.
    """
    iw = np.minimum(a[2][i], b[2][j])
    iw -= np.maximum(a[0][i], b[0][j])
    ih = np.minimum(a[3][i], b[3][j])
    ih -= np.maximum(a[1][i], b[1][j])
    k = np.flatnonzero((iw > 0.0) & (ih > 0.0))
    inter = iw[k] * ih[k]
    union = box_areas(a)[i[k]]
    union += box_areas(b)[j[k]]
    union -= inter
    ov = np.zeros_like(inter)
    np.divide(inter, union, out=ov, where=union > 0.0)
    hit = ov > 0.0
    return k[hit], ov[hit]


def pair_chunks(first, counts, budget: int, heads=None):
    """Yield (a, b, r, k) per chunk of about `budget` pairs: rows a to b - 1,
    and one (r[t], k[t]) per pair, row r with each of its partners first[r]
    to first[r] + counts[r] - 1, in row and then partner order.

    A chunk starts only at a row of `heads`, ascending from row 0 (every row
    by default). Only without rows is a chunk empty."""
    n = len(counts)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(budget, ends[-1] if n else 0, budget), side="right")
    if heads is not None:
        cuts = heads[np.searchsorted(heads, cuts, side="right") - 1]
    # ascending; not np.unique, whose import of numpy.ma costs a megabyte
    bounds = [0, *cuts[np.diff(cuts, prepend=0) > 0].tolist(), n]
    for a, b in zip(bounds, bounds[1:]):
        c = counts[a:b]
        r = np.repeat(np.arange(a, b), c)
        yield a, b, r, np.arange(len(r)) + np.repeat(first[a:b] - (np.cumsum(c) - c), c)
