"""IR proximity sensing: grid ray casting plus ray/robot-disc intersection.

A ray reports the distance to whichever comes first: the entry point into an
obstacle cell (continuous DDA traversal over cell boundaries), the nearest
other robot disc (closed-form ray-circle intersection), or the maximum range.
Distances are normalized by the range; exact wall/robot ties go to the wall.
The traversal hops across the free box that `GridMap.boxes` anchors at each
cell in the ray's quadrant and reports exactly the entry a one-cell DDA
would; the map border is just the first blocked cell past a box.

`cast_ray` / `sense_all` are the reference per-ray operations; they take the
robot centres as a plain list in id order and scan all of them. `sense_batch`
is the vectorized whole-swarm path the engine runs every tick; it computes
the same quantities with the same floating-point expressions (numpy's
float64 `cos`/`sin` give `math`'s bits), so the test suite requires it to
equal the scalar path bit for bit. Its disc hits take one path for
every belt, even or uneven: a lookup table over the sorted belt gives each
robot pair the few rays whose bearing can reach the other disc, and only
those rays get the exact ray-circle test.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from ._slots import slot_build, slot_init
from .kinematics import RobotBody
from .world import GridMap

KIND_NONE = "none"
KIND_WALL = "wall"
KIND_ROBOT = "robot"

# Integer hit codes used by the batch path.
HIT_NONE = -1
HIT_WALL = -2

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True, slots=True)
class SensorSpec:
    """Ray bearings relative to the heading, and the shared maximum range."""

    angles: tuple[float, ...]
    max_range: float

    def __post_init__(self) -> None:
        if len(self.angles) < 1:
            raise ValueError("a sensor belt needs at least one ray")
        if not all(-math.pi <= a < math.pi for a in self.angles):
            raise ValueError("sensor angles must lie in [-pi, pi)")
        if not (math.isfinite(self.max_range) and self.max_range > 0):
            raise ValueError("sensor range must be positive and finite")


def evenly_spaced_angles(count: int) -> tuple[float, ...]:
    """`count` bearings every 2*pi/count starting at 0 (dead ahead).

    Angles past half a turn are generated as exact negated mirrors of their
    counterparts, so mirrored ray pairs carry bit-identical magnitudes.
    """
    if count < 1:
        raise ValueError("sensor count must be at least 1")
    angles = []
    for i in range(count):
        if 2 * i < count:
            angles.append(2.0 * math.pi * i / count)
        elif 2 * i == count:
            angles.append(-math.pi)
        else:
            angles.append(-2.0 * math.pi * (count - i) / count)
    return tuple(angles)


@dataclass(frozen=True, slots=True)
class RayHit:
    """Distance in [0, range] and what was hit; robot is None unless kind is robot."""

    dist: float
    kind: str
    robot: int | None = None


@slot_init
@dataclass(frozen=True, slots=True)
class SensorReading:
    normalized: float
    kind: str
    robot: int | None = None


# Value types are immutable, so every ray that hits nothing shares one reading.
_NONE_READING = SensorReading(1.0, KIND_NONE)


def _wall_hit_scalar(
    grid: GridMap, ox: float, oy: float, dirx: float, diry: float, max_range: float
) -> float | None:
    """Distance along the ray to the first obstacle-cell entry, or None if no
    wall within range. Out-of-range cells count as obstacles; an origin already
    inside a blocked cell reports distance 0.
    """
    cx = math.floor(ox)
    cy = math.floor(oy)
    if grid.is_obstacle(cx, cy):
        return 0.0
    return _wall_resume_scalar(grid, ox, oy, dirx, diry, max_range, cx, cy)


def _wall_resume_scalar(
    grid: GridMap,
    ox: float,
    oy: float,
    dirx: float,
    diry: float,
    max_range: float,
    cx: int,
    cy: int,
) -> float | None:
    """Continue a traversal that has reached the free in-range cell (cx, cy);
    same result as `_wall_hit_scalar`.

    Traversal is a DDA over cell boundaries that hops across free boxes. Each
    iteration reads the side of the free square anchored at the cell in the
    ray's quadrant (`GridMap.boxes`), clamps that box to the map and moves
    to where the ray leaves it: the crossing (edge + off - o) * inv of the
    box's last column or last row, whichever comes first, x first on a tie,
    as the DDA steps. On the other axis the ray is in the first cell whose
    own crossing it has not passed (`_cell_at`). Every cell of the box is
    free, so the ray enters an obstacle, if at all, exactly where the
    one-cell DDA would: in the cell past the exit, at the exit crossing. A
    box that reaches past the map edge exits onto the closed-world border,
    so on a map without obstacles a ray ends in one iteration. Crossings
    are always computed from the origin, so hops never perturb the reported
    distance, and an entry at exactly max_range is still found.
    """
    w, h = grid.width, grid.height
    occ = grid.occupancy
    boxes = grid.boxes
    quadrant = (dirx < 0.0) + 2 * (diry < 0.0)
    if dirx > 0.0:
        step_x, off_x, inv_x = 1, 1.0, 1.0 / dirx
    elif dirx < 0.0:
        step_x, off_x, inv_x = -1, 0.0, 1.0 / dirx
    else:
        step_x, off_x, inv_x = 0, 0.0, 0.0  # axis-parallel: never crosses x
    if diry > 0.0:
        step_y, off_y, inv_y = 1, 1.0, 1.0 / diry
    elif diry < 0.0:
        step_y, off_y, inv_y = -1, 0.0, 1.0 / diry
    else:
        step_y, off_y, inv_y = 0, 0.0, 0.0
    while True:
        s = int(boxes[quadrant, cy, cx]) - 1
        # The box's last column and row, clamped to the map.
        ex = min(max(cx + step_x * s, 0), w - 1)
        ey = min(max(cy + step_y * s, 0), h - 1)
        t_x = (ex + off_x - ox) * inv_x if step_x else math.inf
        t_y = (ey + off_y - oy) * inv_y if step_y else math.inf
        if t_x <= t_y:
            t_enter = t_x
            if t_enter > max_range:
                return None
            # A row crossing at exactly t_enter comes after the x step.
            t_before = math.nextafter(t_enter, -math.inf)
            cy = _cell_at(oy, diry, off_y, inv_y, step_y, cy, ey, t_before)
            cx = ex + step_x
        else:
            t_enter = t_y
            if t_enter > max_range:
                return None
            cx = _cell_at(ox, dirx, off_x, inv_x, step_x, cx, ex, t_enter)
            cy = ey + step_y
        if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
            return t_enter


def _cell_at(
    o: float, d: float, off: float, inv: float, step: int, c0: int, ce: int, t: float
) -> int:
    """The cell on one axis, from c0 to ce, that a ray is in just after t:
    the first whose crossing (c + off - o) * inv lies past t, given that
    the crossing of ce does. The estimate floor(o + t * d) can round into a
    neighbouring cell only near a crossing, so one comparison each way
    settles it. An axis-parallel ray (step 0) stays in c0."""
    c = min(max(math.floor(o + t * d), min(c0, ce)), max(c0, ce))
    if (c + off - o) * inv <= t:
        c += step
    elif c != c0 and (c - step + off - o) * inv > t:
        c -= step
    return c


def _robot_hit_scalar(
    centers: Sequence[tuple[float, float]],
    rho: float,
    ox: float,
    oy: float,
    dirx: float,
    diry: float,
    max_range: float,
    self_id: int | None,
) -> tuple[float, int] | None:
    """Nearest ray/disc intersection among all robots but `self_id`, or
    None. Centres are scanned in id order, so the lowest id wins an exact
    distance tie."""
    best_t = math.inf
    best_id = -1
    rho2 = rho * rho
    for j, (px, py) in enumerate(centers):
        if j == self_id:
            continue
        to_x = px - ox
        to_y = py - oy
        b = to_x * dirx + to_y * diry
        disc2 = rho2 - (to_x * to_x + to_y * to_y - b * b)
        if disc2 < 0.0:
            continue
        t = b - math.sqrt(disc2)
        if 0.0 <= t <= max_range and t < best_t:
            best_t = t
            best_id = j
    if best_id < 0:
        return None
    return best_t, best_id


def cast_ray(
    grid: GridMap,
    centers: Sequence[tuple[float, float]],
    radius: float,
    origin: tuple[float, float],
    direction: float,
    max_range: float,
    self_id: int | None = None,
) -> RayHit:
    """Cast one ray from `origin` at absolute bearing `direction` against
    the walls and the discs of the given radius at `centers`, the (x, y)
    robot centres in id order; the disc of robot `self_id` is ignored."""
    ox, oy = origin
    dirx = math.cos(direction)
    diry = math.sin(direction)
    wall_t = _wall_hit_scalar(grid, ox, oy, dirx, diry, max_range)
    robot = _robot_hit_scalar(centers, radius, ox, oy, dirx, diry, max_range, self_id)
    if wall_t is not None and (robot is None or wall_t <= robot[0]):
        return RayHit(wall_t, KIND_WALL)
    if robot is not None:
        return RayHit(robot[0], KIND_ROBOT, robot[1])
    return RayHit(max_range, KIND_NONE)


def sense_all(
    body: RobotBody,
    spec: SensorSpec,
    grid: GridMap,
    centers: Sequence[tuple[float, float]],
) -> list[SensorReading]:
    """One reading per spec angle, in spec order, against the robots whose
    centres `centers` lists in id order (the body's own entry is skipped by
    id). Every robot has the body's radius. Ray i starts on the body
    perimeter at bearing theta + angles[i] and points outward, so a touching
    obstacle reads ~0."""
    pose = body.pose
    readings: list[SensorReading] = []
    for angle in spec.angles:
        bearing = pose.theta + angle
        ox = pose.x + body.radius * math.cos(bearing)
        oy = pose.y + body.radius * math.sin(bearing)
        hit = cast_ray(grid, centers, body.radius, (ox, oy), bearing, spec.max_range, body.id)
        readings.append(SensorReading(hit.dist / spec.max_range, hit.kind, hit.robot))
    return readings


# --- Vectorized batch path ---------------------------------------------------


# While more rays than this are live the batch wall pass steps them in
# arrays; the rest finish in the scalar loop. The two forms compute identical
# floats, so the cutover is invisible.
_SCALAR_DDA_LIMIT = 32


def _wall_batch(
    grid: GridMap,
    ox: np.ndarray,
    oy: np.ndarray,
    dirx: np.ndarray,
    diry: np.ndarray,
    ranges: np.ndarray,
) -> np.ndarray:
    """Box-hopping DDA for a flat batch of rays, each with its own range;
    returns entry distances (inf = no wall within range). The iteration of
    `_wall_resume_scalar` with masks instead of branches, both axes at once
    as the rows of (2, n) arrays, until few rays are left; those resume the
    scalar loop from their current cell."""
    w, h = grid.width, grid.height
    boxes = grid.boxes
    t_hit = np.full(ox.size, np.inf)
    cx = np.floor(ox).astype(np.int64)
    cy = np.floor(oy).astype(np.int64)
    start_blocked = grid.blocked_at(cx, cy)
    t_hit[start_blocked] = 0.0

    # Live rays, compacted; `slot` maps them back to output slots. A live ray
    # always sits in an in-range free cell, so the box lookup on its current
    # cell never needs clipping. Per-ray values are the columns of one float
    # and one int array, compacted together, and each axis is a row.
    idx = np.nonzero(~start_blocked)[0]
    n = idx.size
    floats = np.empty((9, n))
    ints = np.empty((6, n), dtype=np.int64)
    floats[[0, 1, 2, 3, 8]] = ox[idx], oy[idx], dirx[idx], diry[idx], ranges[idx]
    ints[[0, 1, 5]] = cx[idx], cy[idx], idx
    o, d, inv, off, ranges = floats[0:2], floats[2:4], floats[4:6], floats[6:8], floats[8]
    cell, step, quadrant, slot = ints[0:2], ints[2:4], ints[4], ints[5]
    quadrant[:] = (d[0] < 0.0) + 2 * (d[1] < 0.0)
    step[:] = np.sign(d)
    # On an axis the ray runs parallel to, off = 1 and inv = inf make every
    # crossing (c + off - o) * inv read +inf, as c + 1 - o > 0 in its cell.
    off[:] = step >= 0
    inv[:] = np.inf
    np.divide(1.0, d, out=inv, where=step != 0)
    last = np.array([[w - 1], [h - 1]])
    t_at = np.empty((2, n))

    while n > _SCALAR_DDA_LIMIT:
        s = boxes[quadrant, cell[1], cell[0]] - 1
        edge = np.minimum(np.maximum(cell + step * s, 0), last)
        t_edge = (edge + off - o) * inv
        go_x = t_edge[0] <= t_edge[1]
        t_enter = np.where(go_x, t_edge[0], t_edge[1])
        # `_cell_at` on both axes from the start cell to one past the edge,
        # which gives the exit axis its next cell too. A row crossing at
        # exactly t_enter comes after an x step there.
        t_at[0] = t_enter
        t_at[1] = np.where(go_x, np.nextafter(t_enter, -np.inf), t_enter)
        past = edge + step
        c = np.floor(o + t_at * d)
        c = np.minimum(np.maximum(c, np.minimum(cell, past)), np.maximum(cell, past))
        c = c.astype(np.int64)
        c += step * ((c + off - o) * inv <= t_at)
        back = c != cell
        back &= (c - step + off - o) * inv > t_at
        c -= step * back
        cell[:] = c
        blocked = grid.blocked_at(cell[0], cell[1])
        alive = t_enter <= ranges
        hit = np.flatnonzero(alive & blocked)
        t_hit[slot[hit]] = t_enter[hit]
        alive &= ~blocked
        if not alive.all():
            keep = np.nonzero(alive)[0]
            n = keep.size
            floats = floats[:, keep]
            ints = ints[:, keep]
            o, d, inv, off, ranges = floats[0:2], floats[2:4], floats[4:6], floats[6:8], floats[8]
            cell, step, quadrant, slot = ints[0:2], ints[2:4], ints[4], ints[5]
            t_at = t_at[:, :n]

    # Every live ray sits in a free in-range cell: the state the scalar loop
    # starts each iteration from.
    tail = zip(
        slot.tolist(), *o.tolist(), *d.tolist(), ranges.tolist(), *cell.tolist()
    )
    for i, *ray in tail:
        t = _wall_resume_scalar(grid, *ray)
        if t is not None:
            t_hit[i] = t
    return t_hit


# y bins per column in `_pairs_within`: a power of two, so scaling a y
# quotient by it is exact.
_Y_BINS = 4


def _pairs_within(
    xs: np.ndarray, ys: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The record (a, b, d2, dx, dy) of the robot pairs with center
    distance <= reach: each unordered pair once, in either orientation and
    in no set order, with its offsets dx = xs[b] - xs[a], dy = ys[b] - ys[a]
    and squared distance d2 = dx * dx + dy * dy (bit-equal under either
    orientation). Callers that need id order take np.minimum/np.maximum of
    a and b on the rows they keep.

    Columns `reach * (1 + 2**-20)` wide are split along y into `_Y_BINS`
    bins and sorted column by column, so each robot pairs with two runs of
    sorted slots: the rest of its own column up to `_Y_BINS` bins up, and
    the bins within `_Y_BINS` of its own in the next column. Each robot's
    two runs are laid out next to each other, so the first end's
    coordinates and ids are `np.repeat`s of the sorted arrays by the run
    lengths, and no index array of first ends is built. The margin
    keeps a pair at exactly `reach` in those runs: a quotient of magnitude
    up to 2**30 is off by at most 2**-23, so such a pair lies at most one
    column or `_Y_BINS` bins apart. The keys are sorted in the narrowest
    unsigned type that holds them; the sort is stable, so the order is the
    same at any width, and numpy radix-sorts keys of 16 bits or fewer."""
    n = xs.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0), np.empty(0), np.empty(0)
    m = _Y_BINS
    width = reach * (1.0 + 2.0**-20)
    # Bins are bounded before the cast. Clipping is 1-Lipschitz, so robots in
    # neighbouring bins stay neighbours: far-off robots only share the edge
    # bins, which adds candidates. Columns are at most 2**31 and spans at
    # most 2**31 + 2m + 1, so every key and bound below stays under 2**63.
    bx = np.clip(np.floor(xs / width), -(1 << 30), 1 << 30).astype(np.int64)
    by = np.clip(np.floor(ys / width * m), -(1 << 30), 1 << 30).astype(np.int64)
    by_min = by.min()
    span = by.max() - by_min + 2 * m + 1
    key = (bx - bx.min()) * span + (by - by_min + m)
    order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
    skey = key[order]
    slot = np.arange(n, dtype=np.int64)
    own_end = np.searchsorted(skey, skey + m, side="right")
    next_start = np.searchsorted(skey, skey + (span - m), side="left")
    next_end = np.searchsorted(skey, skey + (span + m), side="right")
    # Each slot's two runs side by side, the rest of its own column and then
    # its bins in the next column, so the first end of every pair is a
    # repeat of the sorted arrays. Output position p of a run pairs with
    # sorted slot p + shift.
    count = np.empty((n, 2), dtype=np.int64)
    count[:, 0] = own_end - slot - 1
    count[:, 1] = next_end - next_start
    per_slot = count[:, 0] + count[:, 1]
    end = np.cumsum(per_slot)
    start = end - per_slot
    shift = np.empty((n, 2), dtype=np.int64)
    shift[:, 0] = slot + 1 - start
    shift[:, 1] = next_start - count[:, 0] - start
    total = int(end[-1])
    sb = np.arange(total, dtype=np.int64) + np.repeat(shift.ravel(), count.ravel())
    sx = xs[order]
    sy = ys[order]
    dx = sx[sb] - np.repeat(sx, per_slot)
    dy = sy[sb] - np.repeat(sy, per_slot)
    # Two robots past ~1e154 in one edge bin square to inf: out of reach.
    with np.errstate(over="ignore"):
        d2 = dx * dx + dy * dy
    keep = np.flatnonzero(d2 <= reach * reach)
    return np.repeat(order, per_slot)[keep], order[sb[keep]], d2[keep], dx[keep], dy[keep]


# Bins per turn in the bearing-window table of `_disc_hits_windowed`. The
# windows stay supersets at any count; fewer bins only add spare candidates
# (about 11% more at 256 bins on a dense crowd).
_WINDOW_BINS = 1024


@lru_cache(maxsize=16)
def _window_table(angles: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The bearing-window table of `_disc_hits_windowed` for one belt, built
    once per belt: the sorted belt laid out over five turns from -5pi, and
    the ray of each slot. Heading-relative bearings lie in [-2pi, 3pi], so
    every window lies inside. Measured in bins from -5pi, `table[i]` is the
    first slot at or after bin i. Both arrays are read-only."""
    belt = np.asarray(angles, dtype=np.float64)
    order = np.argsort(belt, kind="stable")
    turns = 2.0 * math.pi * np.arange(-2, 3)
    slots = (belt[order][None, :] + turns[:, None]).ravel()
    ray_of_slot = np.tile(order, 5)
    per_rad = _WINDOW_BINS / (2.0 * math.pi)
    edges = np.arange(5 * _WINDOW_BINS + 1) / per_rad - 5.0 * math.pi
    table = np.searchsorted(slots, edges).astype(np.int32)
    table.setflags(write=False)
    ray_of_slot.setflags(write=False)
    return table, ray_of_slot


def _disc_hits_windowed(
    a: np.ndarray,
    b: np.ndarray,
    d2: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    ox: np.ndarray,
    oy: np.ndarray,
    dirx: np.ndarray,
    diry: np.ndarray,
    rho: float,
    max_range: float,
    angles: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray nearest disc hits for any belt: expand only the rays whose
    bearing can geometrically reach each candidate disc. Takes the record
    (a, b, d2, dx, dy) of `_pairs_within`, each unordered pair once in any
    order and orientation, and tests both directions as the two rows of
    (2, m) arrays: a's rays toward b (forward), then b's toward a
    (reverse). The bearings come from the record's offsets, and each row
    subtracts its own robots' headings.

    A ray from the perimeter at absolute angle psi passes within rho of a
    center at bearing phi, distance d, only if |sin(psi - phi)| <= rho / d
    with cos(psi - phi) > 0 (the perimeter offset drops out of the cross
    product). The half-width is bounded by the tangent of that angle,
    rho / sqrt(d2 - rho**2), which is at least the angle itself, capped at
    pi; a disc at d <= rho (a zero or NaN root) gets a full turn. The
    window is widened by 1e-6 rad (1.6e-4 table bins), orders of magnitude
    beyond float rounding (the reverse bearing, the heading term and the
    table bins included), so the exact test below never loses a candidate.
    The live windows, those with at least one ray, are found as ascending
    flat indices; one `searchsorted` at m splits them into forward and
    reverse, which give each window's robot and other end from a and b.
    Windows are expanded count by count: those with at least one ray, then
    with at least two, and so on. Smallest id wins exact distance ties,
    matching the scalar scan order. Every selection is by index array: at
    the densities seen here (a quarter to a half of the elements) a
    boolean mask costs several times more.
    """
    n, k = ox.shape
    m = a.size
    table, ray_of_slot = _window_table(angles)
    per_rad = _WINDOW_BINS / (2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_bins = np.fmin(rho / np.sqrt(d2 - rho * rho), math.pi)
    half_bins = (half_bins + 1e-6) * per_rad
    # Heading-relative bearings in table bins from -5pi: row 0 from a to b
    # (forward), row 1 from b to a (reverse).
    heading = thetas * per_rad - 5 * _WINDOW_BINS / 2
    rel = np.empty((2, m))
    np.multiply(np.arctan2(dy, dx), per_rad, out=rel[0])
    np.add(rel[0], _WINDOW_BINS / 2, out=rel[1])
    rel[0] -= heading[a]
    rel[1] -= heading[b]
    first = table[(rel - half_bins).astype(np.intp)].ravel()
    rel += half_bins
    counts = table[1:][rel.astype(np.intp)].ravel() - first
    np.minimum(counts, k, out=counts)  # a window wider than a turn (d <= rho)
    live = np.flatnonzero(counts > 0)
    # Live windows are ascending, so the forward ones come first.
    split = np.searchsorted(live, m)
    fwd = live[:split]
    rev = live[split:] - m
    base = np.concatenate((a[fwd], b[rev])) * k
    other = np.concatenate((b[fwd], a[rev]))
    first = first[live]
    counts = counts[live]
    rows: list[np.ndarray] = []  # flat ray slots robot * k + ray
    others: list[np.ndarray] = []
    for c in range(k):
        rows.append(base + ray_of_slot[first + c])
        others.append(other)
        more = np.flatnonzero(counts > c + 1)
        if not more.size:
            break
        base, first, counts, other = base[more], first[more], counts[more], other[more]
    flat = np.concatenate(rows)
    other = np.concatenate(others)
    ux = dirx.ravel()[flat]
    uy = diry.ravel()[flat]
    to_x = xs[other] - ox.ravel()[flat]
    to_y = ys[other] - oy.ravel()[flat]
    b = to_x * ux + to_y * uy
    disc2 = rho * rho - (to_x * to_x + to_y * to_y - b * b)
    ok = disc2 >= 0.0
    t = b - np.sqrt(np.maximum(disc2, 0.0))
    ok &= (t >= 0.0) & (t <= max_range)
    keep = np.flatnonzero(ok)
    flat = flat[keep]
    t = t[keep]
    other = other[keep]
    t_best = np.full(n * k, np.inf)
    np.minimum.at(t_best, flat, t)
    winners = np.flatnonzero(t == t_best[flat])
    id_best = np.full(n * k, _INT64_MAX, dtype=np.int64)
    np.minimum.at(id_best, flat[winners], other[winners])
    id_best[np.flatnonzero(np.isinf(t_best))] = HIT_NONE
    return t_best.reshape(n, k), id_best.reshape(n, k)


def sense_batch(
    grid: GridMap,
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    radius: float,
    spec: SensorSpec,
    pairs: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All readings for all robots against the given pose snapshot; headings
    must lie in [-pi, pi].

    Returns (normalized, hit) arrays of shape (n, k): normalized distances in
    [0, 1] and integer hit codes (HIT_NONE, HIT_WALL, or the hit robot id).
    `pairs` may pass in the record (a, b, d2, dx, dy) of `_pairs_within`, in
    any row order and orientation, at any reach of at least max_range +
    2 * radius, as the engine does at its move reach; farther pairs cost
    time but never change a reading. A record of any other shape raises
    ValueError. By default that search runs here. The disc-hit bearings and
    windows come from the record's offsets and squared distances (see
    `_disc_hits_windowed`), so no coordinates are gathered again for them.

    Robot disc hits come first. Each ray then looks for a wall only up to
    its nearest robot hit or the range: a wall entry at exactly that
    distance is still found (ties go to the wall), so every entry the pass
    returns wins, and only the rows that ran it are patched. Robots
    whose cell shows no obstacle and no border within their longest such
    reach (`GridMap.clearance_at`) skip the wall traversal entirely; the
    skip is conservative, never changing results. In the traversal, a ray
    whose first box reaches the border ends there in one iteration.
    """
    if not (np.abs(thetas) <= math.pi).all():
        raise ValueError("headings must lie in [-pi, pi]")
    if pairs is not None and (
        len(pairs) != 5 or len({np.shape(column) for column in pairs}) != 1
    ):
        raise ValueError("pairs must be the record (a, b, d2, dx, dy) of one pair search")
    k = len(spec.angles)
    max_range = spec.max_range
    angles = np.asarray(spec.angles)
    bearing = thetas[:, None] + angles[None, :]
    dirx = np.cos(bearing)
    diry = np.sin(bearing)
    ox = xs[:, None] + radius * dirx
    oy = ys[:, None] + radius * diry

    if pairs is None:
        pairs = _pairs_within(xs, ys, max_range + 2.0 * radius)
    # Robot ids, or HIT_NONE; `dist` is the robot distance or the range.
    rob_t, hit = _disc_hits_windowed(
        *pairs, xs, ys, thetas, ox, oy, dirx, diry, radius, max_range, tuple(spec.angles)
    )
    dist = np.minimum(rob_t, max_range)
    # Each robot's longest capped ray, column by column: a reduction along
    # the short axis of an (n, k) array is many times slower.
    longest = dist[:, 0].copy()
    for c in range(1, k):
        np.maximum(longest, dist[:, c], out=longest)
    need = grid.clearance_at(xs, ys) <= longest + radius + 2.0
    if need.any():
        idx = np.nonzero(need)[0]
        wall_t = _wall_batch(grid, *(a[idx].ravel() for a in (ox, oy, dirx, diry, dist)))
        # Capped at `dist`, every wall entry found wins.
        wall = np.flatnonzero(np.isfinite(wall_t))
        flat = (idx * k)[wall // k] + wall % k
        dist.ravel()[flat] = wall_t[wall]
        hit.ravel()[flat] = HIT_WALL
    return dist / max_range, hit


def readings_from_arrays(
    normalized: np.ndarray, hits: np.ndarray
) -> list[tuple[SensorReading, ...]]:
    """Materialize (n, k) rows of the batch matrices of `sense_batch` as one
    tuple of SensorReading objects per row, in row order. The wall readings
    and the robot readings are each built from columns by `slot_build`.
    Every `none` ray is the shared `_NONE_READING`: its distance is the
    range itself, so its normalized value is exactly 1.0."""
    k = hits.shape[1]
    codes = hits.ravel()
    values = normalized.ravel()
    flat = [_NONE_READING] * codes.size
    wall = np.flatnonzero(codes == HIT_WALL)
    built = slot_build(SensorReading, wall.size, values[wall].tolist(), repeat(KIND_WALL))
    deque(map(flat.__setitem__, wall.tolist(), built), maxlen=0)
    robot = np.flatnonzero(codes >= 0)
    built = slot_build(
        SensorReading, robot.size, values[robot].tolist(), repeat(KIND_ROBOT), codes[robot].tolist()
    )
    deque(map(flat.__setitem__, robot.tolist(), built), maxlen=0)
    return list(zip(*[iter(flat)] * k))
