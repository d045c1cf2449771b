"""Occupancy-grid world: PGM map loading, collision queries, and a robot
index that the program no longer uses but the per-layer tracer still binds.

The world is a pixel grid (1 cell = 1 px = 1 distance unit). Cells are free
or obstacle; everything outside the grid counts as obstacle (closed world),
so the boundary behaves like a wall without a separate entity. Robot
positions live in continuous coordinates; cell (cx, cy) owns the square
[cx, cx+1) x [cy, cy+1) and its center sits at (cx + 0.5, cy + 0.5).

Each map lazily builds, in one transform, two fields that let queries skip
empty space: per cell and per ray quadrant, the side of the largest free
square anchored at the cell (the ray traversal hops across it), and their
minimum, the Chebyshev clearance (the disc and skip tests). Both are stored
as uint8, capped at 255.
"""

from __future__ import annotations

import math
import re
from bisect import insort
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import MapLoadError

# Pixel values below this threshold are obstacles.
OBSTACLE_THRESHOLD = 128


@dataclass(eq=False)
class GridMap:
    """Immutable free/obstacle grid. `occupancy[cy, cx]` is True for obstacles."""

    width: int
    height: int
    occupancy: np.ndarray
    _boxes: np.ndarray | None = field(default=None, init=False, repr=False)
    _clearance: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("map dimensions must be at least 1x1")
        if self.occupancy.shape != (self.height, self.width):
            raise ValueError("occupancy shape does not match dimensions")
        if self.occupancy.dtype != np.bool_:
            self.occupancy = self.occupancy.astype(np.bool_)
        self.occupancy.setflags(write=False)

    def is_obstacle(self, cx: int, cy: int) -> bool:
        """Occupancy of a cell; any out-of-range cell is an obstacle."""
        if cx < 0 or cy < 0 or cx >= self.width or cy >= self.height:
            return True
        return bool(self.occupancy[cy, cx])

    @property
    def boxes(self) -> np.ndarray:
        """Quadrant free boxes, shape (4, height, width): entry [q, cy, cx] is
        the side, in cells, of the largest obstacle-free square with a corner
        at cell (cx, cy) that extends into ray quadrant q, where bit 0 of q
        is set for -x and bit 1 for -y. An obstacle cell reads 0. Cells
        outside the map count as free here, and a ray clamps its box to the
        map itself. Sides are capped at 255; a capped side only shortens a
        hop.

        Built lazily once per map with `clearance`. On a map without
        obstacles both are read-only broadcasts of width + height + 2, which
        hold no map-sized buffer.
        """
        if self._boxes is None:
            self._boxes, self._clearance = _free_boxes(self.occupancy)
        return self._boxes

    @property
    def clearance(self) -> np.ndarray:
        """Per-cell Chebyshev distance (in cells) to the nearest obstacle cell
        center of the map itself, capped at 255: the element-wise minimum of
        the four `boxes` fields. The closed-world border is not part of the
        field (a map without obstacles reads width + height + 2 everywhere).

        Chebyshev distance lower-bounds Euclidean distance, so the field is a
        safe conservative skip test: if clearance[cy, cx] > d + 0.71, no
        obstacle cell center of the map lies within Euclidean distance d of
        any point in cell (cx, cy); the cap only fails the test sooner.
        Queries that must also clear the out-of-range cells use
        `clearance_at`.
        """
        if self._boxes is None:
            self._boxes, self._clearance = _free_boxes(self.occupancy)
        return self._clearance

    def clearance_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Clearance of the cells holding the points (xs, ys), counting
        out-of-range cells as obstacles: the smaller of `clearance` and the
        distance min(cx + 1, cy + 1, width - cx, height - cy) to the nearest
        out-of-range cell center; 0 for a point outside the map."""
        # Bounding before the cast keeps far-off points outside, and finite.
        cx = np.clip(np.floor(xs), -1, self.width).astype(np.int64)
        cy = np.clip(np.floor(ys), -1, self.height).astype(np.int64)
        border = np.minimum(
            np.minimum(cx + 1, cy + 1), np.minimum(self.width - cx, self.height - cy)
        )
        cells, inside = self._cells(self.clearance, cx, cy)
        return np.minimum(cells * inside, border)

    def blocked_at(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """`is_obstacle` over integer cell arrays, as bools: True outside the
        map."""
        cells, inside = self._cells(self.occupancy, cx, cy)
        return cells | ~inside

    def _cells(
        self, field: np.ndarray, cx: np.ndarray, cy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """`field` at the cells clamped into the map, and which cells lie in it."""
        inside = (cx >= 0) & (cy >= 0) & (cx < self.width) & (cy < self.height)
        cells = field[
            np.minimum(np.maximum(cy, 0), self.height - 1),
            np.minimum(np.maximum(cx, 0), self.width - 1),
        ]
        return cells, inside

    def disc_free(self, x: float, y: float, r: float) -> bool:
        """True iff no cell whose center is within Euclidean distance r of
        (x, y) is an obstacle (closed-world cells included). A point whose
        cell clears r + 0.71 in both the field and the border distance is
        free without a scan."""
        if r <= 0:
            raise ValueError("disc radius must be positive")
        cx = math.floor(x)
        cy = math.floor(y)
        w, h = self.width, self.height
        if 0 <= cx < w and 0 <= cy < h:
            # (x, y) is within sqrt(2)/2 of its cell center, so this bound
            # clears every obstacle center within r of the point itself,
            # out-of-range cells included.
            clear = min(self.clearance[cy, cx], cx + 1, cy + 1, w - cx, h - cy)
            if clear > r + 0.71:
                return True
        occ = self.occupancy
        r2 = r * r
        cy0 = math.ceil(y - r - 0.5)
        cy1 = math.floor(y + r - 0.5)
        cx0 = math.ceil(x - r - 0.5)
        cx1 = math.floor(x + r - 0.5)
        for cyi in range(cy0, cy1 + 1):
            dy = cyi + 0.5 - y
            dy2 = dy * dy
            if dy2 > r2:
                continue
            for cxi in range(cx0, cx1 + 1):
                dx = cxi + 0.5 - x
                if dx * dx + dy2 <= r2:
                    if cxi < 0 or cyi < 0 or cxi >= w or cyi >= h or occ[cyi, cxi]:
                        return False
        return True


def generate_arena(width: int, height: int) -> GridMap:
    """All-free grid; the closed-world boundary provides the surrounding wall.
    Its occupancy is a read-only broadcast of False: no map-sized buffer."""
    return GridMap(width, height, np.broadcast_to(np.False_, (height, width)))


def _free_boxes(occ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `GridMap.boxes` fields of `occ` as uint8, and their element-wise
    minimum, the Chebyshev clearance. Without obstacles, read-only int64
    broadcasts of width + height + 2, which fits any map; a zero-stride `occ`
    (a generated arena) is tested on its one element.

    A largest-free-square transform: the k-square at (x, y) in quadrant
    (+x, +y) is free iff row y is free from x to x + k - 1 and the two
    (k - 1)-squares at (x, y + 1) and (x + 1, y + 1) are, so
    S[y, x] = min(run[y, x], 1 + min(S[y + 1, x], S[y + 1, x + 1])), with
    run the free run along the row. The -x fields are built mirrored in x
    and the +y fields mirrored in y, so one sweep over the rows updates all
    four at once; the mirrors are undone at the end.
    """
    h, w = occ.shape
    if not (occ[0, 0] if occ.strides == (0, 0) else occ.any()):
        side = np.int64(w + h + 2)
        return np.broadcast_to(side, (4, h, w)), np.broadcast_to(side, (h, w))
    cap = 255
    boxes = np.empty((4, h, w), dtype=np.uint8)
    ar = np.arange(w)
    block = max(1, (1 << 16) // w)  # rows per pass: small temporaries
    for y0 in range(0, h, block):
        rows = occ[y0 : y0 + block]
        # Free run to the right: the first obstacle at or after x, minus x;
        # to the left: x minus the last obstacle at or before it.
        right = np.minimum.accumulate(np.where(rows, ar, w + cap)[:, ::-1], axis=1)
        left = ar - np.maximum.accumulate(np.where(rows, ar, -1 - cap), axis=1)
        np.minimum(right[:, ::-1] - ar, cap, out=boxes[2, y0 : y0 + block], casting="unsafe")
        np.minimum(left, cap, out=boxes[3, y0 : y0 + block, ::-1], casting="unsafe")
    boxes[0] = boxes[2, ::-1]
    boxes[1] = boxes[3, ::-1]
    # Mirrored, every field's quadrant points from row i to row i - 1 and
    # from column x to column x + 1. Capping 1 + S at 255 keeps every side
    # below the cap exact.
    step = np.empty((4, w), dtype=np.uint8)
    for i in range(1, h):
        np.minimum(boxes[:, i - 1], cap - 1, out=step)
        step += 1
        row = boxes[:, i]
        np.minimum(row, step, out=row)
        np.minimum(row[:, :-1], step[:, 1:], out=row[:, :-1])
    boxes[0] = boxes[0, ::-1]
    boxes[1] = boxes[1, ::-1, ::-1]
    boxes[3] = boxes[3, :, ::-1]
    clearance = np.minimum(boxes[0], boxes[1])
    np.minimum(clearance, boxes[2], out=clearance)
    np.minimum(clearance, boxes[3], out=clearance)
    return boxes, clearance


# --- PGM parsing ------------------------------------------------------------


class _PgmScanner:
    """Token scanner over PGM bytes; tracks byte offsets for error messages."""

    _WS = b" \t\r\n\x0b\x0c"

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _skip_separators(self) -> None:
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos]
            if c in self._WS:
                self.pos += 1
            elif c == 0x23:  # '#' comment to end of line
                nl = data.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            else:
                return

    def token(self, what: str) -> tuple[bytes, int]:
        self._skip_separators()
        data = self.data
        start = self.pos
        if start >= len(data):
            raise MapLoadError(f"truncated file: missing {what} at byte {start}")
        end = start
        n = len(data)
        while end < n and data[end] not in self._WS and data[end] != 0x23:
            end += 1
        self.pos = end
        return data[start:end], start

    def int_token(self, what: str, lo: int, hi: int) -> int:
        tok, off = self.token(what)
        try:
            value = int(tok)
        except ValueError:
            raise MapLoadError(
                f"bad {what} {tok!r} at byte {off}: not an integer"
            ) from None
        if not lo <= value <= hi:
            raise MapLoadError(f"bad {what} {value} at byte {off}: must be in [{lo}, {hi}]")
        return value


_P2_CHUNK = 1 << 20  # bytes of P2 pixel body parsed per numpy pass
_P2_CUT = re.compile(b"[" + re.escape(_PgmScanner._WS) + b"]")
_P2_BYTES = b"0123456789" + _PgmScanner._WS  # all a fast-parsed chunk may hold


def _p2_pixels_fast(data: bytes, start: int, count: int, maxval: int) -> np.ndarray | None:
    """The first `count` P2 pixel values after byte `start`, parsed with
    numpy's text parser in chunks cut before a whitespace byte, with no
    Python object per token. Returns None on anything unusual -- a byte that
    is neither an ASCII digit nor whitespace anywhere in a parsed chunk
    (comments included), a value above maxval, or too few tokens -- and the
    caller's token loop then gives the same pixels or the precise error.

    The guards stand in for quirks of `np.fromstring(..., sep=" ")`: it
    reads whitespace alone as one 0 (such chunks are skipped), reads `+` and
    `-` as signs and raises on most other bytes (only digits and whitespace
    pass), reads past the end of a short input when given `count=` (all
    tokens are read and the surplus dropped), and wraps silently in the
    narrow integer types (it parses as int64, where a token too long for it
    saturates at 2**63 - 1 and fails the maxval check)."""
    if len(data) - start < 2 * count - 1:  # too short for `count` tokens
        return None
    out = np.empty(count, dtype=np.uint8)
    filled = 0
    pos = start
    while filled < count and pos < len(data):
        cut = _P2_CUT.search(data, pos + _P2_CHUNK)
        stop = cut.start() if cut else len(data)
        chunk = data[pos:stop]
        pos = stop
        if chunk.translate(None, _P2_BYTES):
            return None
        if chunk.isspace():
            continue
        values = np.fromstring(chunk, dtype=np.int64, sep=" ")[: count - filled]
        if values.max() > maxval:
            return None
        out[filled : filled + values.size] = values
        filled += values.size
    return out if filled == count else None


def load_map(data: bytes) -> GridMap:
    """Parse a PGM image (ASCII ``P2`` or binary ``P5``, maxval <= 255) into a
    GridMap. A pixel is an obstacle iff its value is below 128. ``#`` comments
    are allowed between header tokens."""
    scan = _PgmScanner(data)
    magic, off = scan.token("magic")
    if magic not in (b"P2", b"P5"):
        raise MapLoadError(f"unsupported magic {magic!r} at byte {off}: expected P2 or P5")
    width = scan.int_token("width", 1, 1 << 30)
    height = scan.int_token("height", 1, 1 << 30)
    maxval = scan.int_token("maxval", 1, 255)
    count = width * height
    if magic == b"P5":
        if scan.pos >= len(data) or data[scan.pos] not in _PgmScanner._WS:
            raise MapLoadError(f"missing whitespace after maxval at byte {scan.pos}")
        start = scan.pos + 1
        if len(data) - start < count:
            raise MapLoadError(
                f"truncated pixel data at byte {len(data)}: "
                f"expected {count} bytes from byte {start}"
            )
        values = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
        if values.max(initial=0) > maxval:
            bad = start + int(np.argmax(values > maxval))
            raise MapLoadError(f"pixel above maxval at byte {bad}")
    else:
        values = _p2_pixels_fast(data, scan.pos, count, maxval)
        if values is None:
            # Grown per token: a header larger than its file fails unallocated.
            tokens = (scan.int_token("pixel value", 0, maxval) for _ in range(count))
            values = np.fromiter(tokens, dtype=np.uint8)
    occupancy = (values < OBSTACLE_THRESHOLD).reshape(height, width)
    return GridMap(width, height, occupancy)


# --- Spatial index ----------------------------------------------------------


class RobotIndex:
    """Uniform-grid index over robot centers.

    Buckets map a cell coordinate (floor(x / cell_size), floor(y / cell_size))
    to the ascending list of robot ids whose center lies in that cell.
    Nothing in the program keeps an index any more; it stays, with
    `rebuild_index`, only because perfbench/tracer.py binds it. The tests use
    it as the probe of the sequential spawn oracle.
    """

    __slots__ = ("cell_size", "buckets", "positions")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.positions: list[tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.positions)

    def bucket_of(self, x: float, y: float) -> tuple[int, int]:
        cs = self.cell_size
        return (math.floor(x / cs), math.floor(y / cs))

    def add(self, robot_id: int, x: float, y: float) -> None:
        """Insert the next robot; ids must arrive dense as 0..n-1."""
        if robot_id != len(self.positions):
            raise ValueError("robot ids must be added densely in order")
        self.positions.append((x, y))
        insort(self.buckets.setdefault(self.bucket_of(x, y), []), robot_id)

    def move(self, robot_id: int, x: float, y: float) -> None:
        ox, oy = self.positions[robot_id]
        self.positions[robot_id] = (x, y)
        old = self.bucket_of(ox, oy)
        new = self.bucket_of(x, y)
        if old != new:
            members = self.buckets[old]
            members.remove(robot_id)
            if not members:
                del self.buckets[old]
            insort(self.buckets.setdefault(new, []), robot_id)

    def any_within_strict(self, x: float, y: float, d: float) -> bool:
        """True iff some indexed robot has center strictly closer than d to
        (x, y). Early-exits."""
        cs = self.cell_size
        bx0 = math.floor((x - d) / cs)
        bx1 = math.floor((x + d) / cs)
        d2 = d * d
        positions = self.positions
        get = self.buckets.get
        for by in range(math.floor((y - d) / cs), math.floor((y + d) / cs) + 1):
            for bx in range(bx0, bx1 + 1):
                members = get((bx, by))
                if not members:
                    continue
                for j in members:
                    px, py = positions[j]
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy < d2:
                        return True
        return False


def rebuild_index(bodies: Sequence, cell_size: float) -> RobotIndex:
    """Fresh index over current body centers (bodies ordered by id)."""
    index = RobotIndex(cell_size)
    for body in bodies:
        index.add(body.id, body.pose.x, body.pose.y)
    return index
