"""Occupancy-grid world: PGM map loading, collision queries, spatial index.

The world is a pixel grid (1 cell = 1 px = 1 distance unit). Cells are free
or obstacle; everything outside the grid counts as obstacle (closed world),
so the boundary behaves like a wall without a separate entity. Robot
positions live in continuous coordinates; cell (cx, cy) owns the square
[cx, cx+1) x [cy, cy+1) and its center sits at (cx + 0.5, cy + 0.5).
"""

from __future__ import annotations

import math
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
    _clearance: np.ndarray | None = field(default=None, repr=False)

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
    def clearance(self) -> np.ndarray:
        """Per-cell Chebyshev distance (in cells) to the nearest obstacle cell
        center of the map itself; the closed-world border is not part of the
        field (a map without obstacles reads width + height + 2 everywhere).

        Chebyshev distance lower-bounds Euclidean distance, so the field is a
        safe conservative skip test: if clearance[cy, cx] > d + 0.71, no
        obstacle cell center of the map lies within Euclidean distance d of
        any point in cell (cx, cy). Queries that must also clear the
        out-of-range cells use `clearance_at`; the ray traversal computes
        where a ray enters the border in closed form. Built lazily once per
        map.
        """
        if self._clearance is None:
            self._clearance = _chebyshev_clearance(self.occupancy)
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
        return np.minimum(self._cells(self.clearance, cx, cy, 0), border)

    def blocked_at(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """`is_obstacle` over integer cell arrays: True outside the map."""
        return self._cells(self.occupancy, cx, cy, True)

    def _cells(self, field: np.ndarray, cx: np.ndarray, cy: np.ndarray, outside: int) -> np.ndarray:
        inside = (cx >= 0) & (cy >= 0) & (cx < self.width) & (cy < self.height)
        cells = field[np.clip(cy, 0, self.height - 1), np.clip(cx, 0, self.width - 1)]
        return np.where(inside, cells, outside)

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
    """All-free grid; the closed-world boundary provides the surrounding wall."""
    return GridMap(width, height, np.zeros((height, width), dtype=np.bool_))


def _chebyshev_clearance(occ: np.ndarray) -> np.ndarray:
    """Two-pass chamfer transform with unit weights (exact Chebyshev metric)
    to the nearest obstacle cell of `occ`."""
    h, w = occ.shape
    big = np.int32(w + h + 2)
    d = np.where(occ, np.int32(0), big).astype(np.int32)
    ar = np.arange(w, dtype=np.int32)
    for y in range(h):
        row = d[y]
        if y:
            up = d[y - 1]
            np.minimum(row, up + 1, out=row)
            np.minimum(row[1:], up[:-1] + 1, out=row[1:])
            np.minimum(row[:-1], up[1:] + 1, out=row[:-1])
        # left-to-right: row[x] = min over x' <= x of row[x'] + (x - x')
        row[:] = np.minimum.accumulate(row - ar) + ar
    for y in range(h - 1, -1, -1):
        row = d[y]
        if y < h - 1:
            dn = d[y + 1]
            np.minimum(row, dn + 1, out=row)
            np.minimum(row[1:], dn[:-1] + 1, out=row[1:])
            np.minimum(row[:-1], dn[1:] + 1, out=row[:-1])
        rev = row[::-1]
        rev[:] = np.minimum.accumulate(rev - ar) + ar
    return d


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
_IS_WS = np.zeros(256, dtype=np.bool_)
_IS_WS[np.frombuffer(_PgmScanner._WS, dtype=np.uint8)] = True


def _p2_pixels_fast(data: bytes, start: int, count: int, maxval: int) -> np.ndarray | None:
    """The first `count` P2 pixel values after byte `start`, parsed with
    numpy in chunks cut after a whitespace byte, with no Python object per
    token. Returns None on anything unusual -- a byte that is neither an
    ASCII digit nor whitespace anywhere in a parsed chunk (comments
    included), a token of more than 3 digits, a value above maxval, or too
    few tokens -- and the caller's token loop then gives the same pixels or
    the precise error."""
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    out = np.empty(count, dtype=np.uint8)
    filled = 0
    pos = 0
    end = body.size
    while filled < count and pos < end:
        stop = min(pos + _P2_CHUNK, end)
        chunk = body[pos:stop]
        ws = _IS_WS[chunk]
        if stop < end:  # cut after the chunk's last whitespace byte
            last = ws.size - 1 - int(np.argmax(ws[::-1]))
            if not ws[last]:
                return None
            chunk = chunk[: last + 1]
            ws = ws[: last + 1]
        pos += chunk.size
        digit = chunk - np.uint8(48)  # wraps non-digits to values above 9
        if not (ws | (digit <= 9)).all():
            return None
        # Every chunk starts after a whitespace byte or on the one that ends
        # the header, so a token starts wherever whitespace turns to digits.
        edges = np.flatnonzero(np.diff(ws, prepend=True, append=True))
        starts = edges[0::2]
        lengths = edges[1::2] - starts
        take = min(starts.size, count - filled)
        starts = starts[:take]
        lengths = lengths[:take]
        if take and lengths.max() > 3:
            return None
        value = digit[starts].astype(np.uint16)
        for k in (1, 2):
            longer = np.flatnonzero(lengths > k)
            value[longer] = value[longer] * 10 + digit[starts[longer] + k]
        if take and value.max() > maxval:
            return None
        out[filled : filled + take] = value
        filled += take
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
            values = np.empty(count, dtype=np.uint8)
            for i in range(count):
                values[i] = scan.int_token("pixel value", 0, maxval)
    occupancy = (values < OBSTACLE_THRESHOLD).reshape(height, width)
    return GridMap(width, height, occupancy)


# --- Spatial index ----------------------------------------------------------


class RobotIndex:
    """Uniform-grid index over robot centers.

    Buckets map a cell coordinate (floor(x / cell_size), floor(y / cell_size))
    to the ascending list of robot ids whose center lies in that cell. It
    serves spawn's rejection sampling and the scalar reference ops
    (`cast_ray`, `sense_all`); the tick itself keeps no index.
    """

    __slots__ = ("cell_size", "buckets", "positions", "radius")

    def __init__(self, cell_size: float, radius: float = 0.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.positions: list[tuple[float, float]] = []
        self.radius = radius

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

    def _bucket_range(self, x: float, y: float, d: float) -> tuple[int, int, int, int]:
        cs = self.cell_size
        return (
            math.floor((x - d) / cs),
            math.floor((x + d) / cs),
            math.floor((y - d) / cs),
            math.floor((y + d) / cs),
        )

    def neighbors_within(
        self, x: float, y: float, d: float, exclude: int | None = None
    ) -> list[int]:
        """Ids of robots whose center is within distance d of (x, y),
        ascending, with `exclude` omitted."""
        if d < 0:
            raise ValueError("query distance must be non-negative")
        bx0, bx1, by0, by1 = self._bucket_range(x, y, d)
        d2 = d * d
        positions = self.positions
        out: list[int] = []
        boxes = (bx1 - bx0 + 1) * (by1 - by0 + 1)
        if boxes <= 2 * len(self.buckets) + 8:
            get = self.buckets.get
            for by in range(by0, by1 + 1):
                for bx in range(bx0, bx1 + 1):
                    members = get((bx, by))
                    if not members:
                        continue
                    for j in members:
                        px, py = positions[j]
                        dx = px - x
                        dy = py - y
                        if dx * dx + dy * dy <= d2 and j != exclude:
                            out.append(j)
        else:
            for (bx, by), members in self.buckets.items():
                if bx0 <= bx <= bx1 and by0 <= by <= by1:
                    for j in members:
                        px, py = positions[j]
                        dx = px - x
                        dy = py - y
                        if dx * dx + dy * dy <= d2 and j != exclude:
                            out.append(j)
        out.sort()
        return out

    def any_within_strict(
        self, x: float, y: float, d: float, exclude: int | None = None
    ) -> bool:
        """True iff some robot other than `exclude` has center strictly
        closer than d to (x, y). Early-exits; used by move resolution."""
        bx0, bx1, by0, by1 = self._bucket_range(x, y, d)
        d2 = d * d
        positions = self.positions
        get = self.buckets.get
        for by in range(by0, by1 + 1):
            for bx in range(bx0, bx1 + 1):
                members = get((bx, by))
                if not members:
                    continue
                for j in members:
                    if j == exclude:
                        continue
                    px, py = positions[j]
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy < d2:
                        return True
        return False


def rebuild_index(bodies: Sequence, cell_size: float) -> RobotIndex:
    """Fresh index over current body centers (bodies ordered by id)."""
    radius = bodies[0].radius if bodies else 0.0
    index = RobotIndex(cell_size, radius=radius)
    for body in bodies:
        index.add(body.id, body.pose.x, body.pose.y)
    return index
