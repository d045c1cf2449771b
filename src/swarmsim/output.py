"""Run artifacts: trajectory CSV logs and PPM (P6) frame images.

Both formats are fixed to the byte: equal-seed runs on one platform produce
identical files, so logs can be diffed directly to verify reproducibility.
"""

from __future__ import annotations

import math
import os
from functools import cache

import numpy as np

from .rng import mix64

_GRAY = (160, 160, 160)


# `_micro` is exact while |v| * 1e6 < 2**53; a tick with a value at or past
# this bound, or a non-finite one, is printed by `_row_text`.
_EXACT_BOUND = 2.0**33
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for float64
_PAD = 0  # byte of the row matrix that is dropped before writing

# Blocks of 1000 rows of `_groups()`: row i of a block is the three-digit
# group i and one more byte, as the group's place in a number prints it.
# _FULL: a group below a non-zero one; _BARE: the top group of a whole part,
# leading zeros dropped (0 prints nothing); _UNITS: the units group as the
# top group (0 prints 0); _BARE_NEG, _UNITS_NEG: the same behind a minus;
# _POINT: the point and the first three decimals; _LAST: the last three
# decimals and the field's comma.
_FULL, _BARE, _UNITS, _BARE_NEG, _UNITS_NEG, _POINT, _LAST = range(0, 7000, 1000)


@cache
def _groups() -> np.ndarray:
    """The (7000, 4) read-only table of the blocks above, built on first use."""
    digits = np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(), np.uint8)
    digits = digits.reshape(1000, 3)
    bare = digits.copy()
    bare[:100, 0] = _PAD
    bare[:10, 1] = _PAD
    bare[0, 2] = _PAD
    units = bare.copy()
    units[0, 2] = ord("0")

    def block(lead: int, body: np.ndarray) -> np.ndarray:
        return np.concatenate((np.full((1000, 1), lead, dtype=np.uint8), body), axis=1)

    minus, point = ord("-"), ord(".")
    comma = np.full((1000, 1), ord(","), dtype=np.uint8)
    blocks = (
        block(_PAD, digits),  # _FULL
        block(_PAD, bare),  # _BARE
        block(_PAD, units),  # _UNITS
        block(minus, bare),  # _BARE_NEG
        block(minus, units),  # _UNITS_NEG
        block(point, digits),  # _POINT
        np.concatenate((digits, comma), axis=1),  # _LAST
    )
    table = np.concatenate(blocks)
    table.flags.writeable = False
    return table


def _row_text(tick: int, robot: int, x: float, y: float, theta: float, hit: bool) -> str:
    """One CSV row, without its line break, printed by f-string."""
    return f"{tick},{robot},{x:.6f},{y:.6f},{theta:.6f},{1 if hit else 0}"


def _whole_groups(
    values: np.ndarray, negative: np.ndarray | bool = False
) -> list[np.ndarray]:
    """`_groups()` rows of the non-negative int64 `values`, three digits each,
    top group first, as many groups as the largest value needs. A group
    with only zeros above it is the top one and prints no leading zeros; the
    top group carries the sign of the `negative` entries."""
    count = max(1, -(-len(str(int(values.max(initial=0)))) // 3))
    groups = []
    rest = values
    for g in range(count):
        high = rest // 1000
        groups.append(rest - high * 1000 + (high == 0) * (_UNITS if g == 0 else _BARE))
        rest = high
    groups[-1] = groups[-1] + np.multiply(negative, _BARE_NEG - _BARE)
    return groups[::-1]


def _micro(values: np.ndarray) -> np.ndarray:
    """round(|v| * 1e6), half to even, as int64: the digits of `f"{v:.6f}"`
    for each finite v with |v| < 2**33.

    Veltkamp's split gives |v| * 1e6 as the exact sum p + e (1e6 has 14
    significant bits, so both partial products are exact; Dekker, Numer.
    Math. 1971). rint(p) rounds half to even like the f-string and is off by
    one only where p is a tie: p - rint(p) == 0.5 with e > 0 rounds up, and
    -0.5 with e < 0 rounds down."""
    a = np.abs(values)
    p = a * 1e6
    c = a * _SPLIT
    high = c - (c - a)
    e = (high * 1e6 - p) + (a - high) * 1e6
    q = np.rint(p)
    r = p - q
    q += (r == 0.5) & (e > 0.0)
    q -= (r == -0.5) & (e < 0.0)
    return q.astype(np.int64)


def _fixed6(values: np.ndarray) -> np.ndarray:
    """`f"{v:.6f},"` of each finite v with |v| < 2**33, as a new last axis of
    ASCII bytes whose `_PAD` bytes are to be dropped. The sign comes from
    `signbit`, so a negative that rounds to zero prints `-0.000000`."""
    micro = _micro(values)
    rest = micro // 1000
    last = micro - rest * 1000 + _LAST
    whole = rest // 1000
    point = rest - whole * 1000 + _POINT
    groups = _whole_groups(whole, np.signbit(values)) + [point, last]
    return _groups().take(np.stack(groups, axis=-1), axis=0).reshape(*values.shape, -1)


class TrajectoryLogger:
    """CSV writer: one row per robot per tick, ordered by (tick, robot_id).

    Columns: tick,robot_id,x,y,theta,collided with x/y/theta printed to
    exactly six decimal places and collided as 0/1. The file opens (and the
    header is written) before the first tick so an unwritable path aborts
    the run up front.

    Rows are built as one byte matrix per tick with the digits of `_fixed6`.
    A tick with a value past its exactness bound is printed row by row by
    `_row_text`, the f-string the matrix reproduces byte for byte.
    """

    HEADER = "tick,robot_id,x,y,theta,collided\n"

    def __init__(self, path: str) -> None:
        self._file = open(path, "wb")
        self._file.write(self.HEADER.encode("ascii"))
        self._ids = np.empty((0, 0), dtype=np.uint8)

    def _id_fields(self, n: int) -> np.ndarray:
        """`robot_id,` of robots 0 to n - 1 as an (n, width) byte matrix,
        kept from one append to the next."""
        if self._ids.shape[0] != n:
            groups = np.stack(_whole_groups(np.arange(n, dtype=np.int64)), axis=-1)
            digits = _groups().take(groups, axis=0).reshape(n, -1)
            comma = np.full((n, 1), ord(","), dtype=np.uint8)
            self._ids = np.concatenate((digits, comma), axis=1)
        return self._ids

    def append(self, state) -> None:
        n = state.xs.size
        if not n:
            return
        tick = state.tick
        poses = np.stack((state.xs, state.ys, state.thetas), axis=1)
        if not (np.abs(poses) < _EXACT_BOUND).all():
            rows = zip(range(n), *poses.T.tolist(), state.collided.tolist())
            text = "".join(_row_text(tick, *row) + "\n" for row in rows)
            self._file.write(text.encode("ascii"))
            return
        fields = _fixed6(poses)
        ids = self._id_fields(n)
        prefix = np.frombuffer(f"{tick},".encode("ascii"), dtype=np.uint8)
        a, b, c, d, width = np.cumsum([prefix.size, ids.shape[1], fields[0].size, 1, 1])
        rows = np.empty((n, width), dtype=np.uint8)
        rows[:, :a] = prefix
        rows[:, a:b] = ids
        rows[:, b:c] = fields.reshape(n, -1)
        np.add(state.collided, ord("0"), out=rows[:, c], casting="unsafe")
        rows[:, d] = ord("\n")
        self._file.write(rows[rows != _PAD].tobytes())

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> TrajectoryLogger:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def robot_color(robot_id: int) -> tuple[int, int, int]:
    """Deterministic per-id color, channels in [40, 219] (never near-white)."""
    z = mix64(robot_id)
    return (
        40 + (z & 0xFF) % 180,
        40 + ((z >> 8) & 0xFF) % 180,
        40 + ((z >> 16) & 0xFF) % 180,
    )


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int, color) -> None:
    """Integer Bresenham, clipped per pixel."""
    h, w = img.shape[:2]
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < w and 0 <= y0 < h:
            img[y0, x0] = color
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_disc(img: np.ndarray, x: float, y: float, r: float, color) -> None:
    """Fill every pixel whose center lies within r of (x, y)."""
    h, w = img.shape[:2]
    cx0 = max(0, math.ceil(x - r - 0.5))
    cx1 = min(w - 1, math.floor(x + r - 0.5))
    cy0 = max(0, math.ceil(y - r - 0.5))
    cy1 = min(h - 1, math.floor(y + r - 0.5))
    if cx1 < cx0 or cy1 < cy0:
        return
    pxs = np.arange(cx0, cx1 + 1) + 0.5 - x
    pys = np.arange(cy0, cy1 + 1) + 0.5 - y
    mask = pys[:, None] ** 2 + pxs[None, :] ** 2 <= r * r
    img[cy0 : cy1 + 1, cx0 : cx1 + 1][mask] = color


def render_frame(state, spec=None, draw_rays: bool = False) -> bytes:
    """Render a SimState as a binary PPM (P6) image, one pixel per map cell:
    obstacles black, free space white, robots as filled discs in their
    per-id colors, and (optionally) sensor rays as 1 px gray lines."""
    grid = state.grid
    img = np.empty((grid.height, grid.width, 3), dtype=np.uint8)
    img[:] = np.where(grid.occupancy, 0, 255)[:, :, None]
    radius = state.radius
    if draw_rays and state.xs.size:
        if spec is None:
            raise ValueError("draw_rays needs the sensor spec")
        from .sensing import sense_batch

        xs, ys, thetas = state.xs, state.ys, state.thetas
        normalized, _ = sense_batch(grid, xs, ys, thetas, radius, spec)
        bearing = thetas[:, None] + np.asarray(spec.angles)
        dx = np.cos(bearing)
        dy = np.sin(bearing)
        ox = xs[:, None] + radius * dx
        oy = ys[:, None] + radius * dy
        dist = normalized * spec.max_range
        ends = (ox, oy, ox + dist * dx, oy + dist * dy)
        for x0, y0, x1, y1 in zip(*(np.floor(a).astype(np.int64).ravel().tolist() for a in ends)):
            _draw_line(img, x0, y0, x1, y1, _GRAY)
    for i, (x, y) in enumerate(zip(state.xs.tolist(), state.ys.tolist())):
        _draw_disc(img, x, y, radius, robot_color(i))
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def write_frame(sim, frames_dir: str) -> str:
    """Write the current state as frames_dir/frame_<tick>.ppm (rays included)."""
    os.makedirs(frames_dir, exist_ok=True)
    path = os.path.join(frames_dir, f"frame_{sim.state.tick:06d}.ppm")
    data = render_frame(sim.state, spec=sim.spec, draw_rays=True)
    with open(path, "wb") as handle:
        handle.write(data)
    return path
