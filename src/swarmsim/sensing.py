"""IR proximity sensing: grid ray casting plus ray/robot-disc intersection.

A ray reports the distance to whichever comes first: the entry point into an
obstacle cell (continuous DDA traversal over cell boundaries), the nearest
other robot disc (closed-form ray-circle intersection), or the maximum range.
Distances are normalized by the range; exact wall/robot ties go to the wall.

`cast_ray` / `sense_all` are the reference per-ray operations. `sense_batch`
is the vectorized whole-swarm path the engine runs every tick; it computes
the same quantities with the same floating-point expressions and is checked
against the scalar path by the test suite. Its disc hits take one path for
every belt, even or uneven: a lookup table over the sorted belt gives each
robot pair the few rays whose bearing can reach the other disc, and only
those rays get the exact ray-circle test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._slots import slot_init
from .kinematics import RobotBody
from .world import GridMap, RobotIndex

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
    if cx < 0 or cy < 0 or cx >= grid.width or cy >= grid.height or grid.occupancy[cy, cx]:
        return 0.0
    return _wall_resume_scalar(grid, ox, oy, dirx, diry, max_range, cx, cy, 0.0)


def _wall_resume_scalar(
    grid: GridMap,
    ox: float,
    oy: float,
    dirx: float,
    diry: float,
    max_range: float,
    cx: int,
    cy: int,
    t_cur: float,
) -> float | None:
    """Continue a traversal that has reached the free in-range cell (cx, cy)
    at distance t_cur; same result as `_wall_hit_scalar`.

    Traversal is a DDA over cell boundaries, accelerated by the map clearance
    field: inside a cell whose nearest obstacle center is D cells away, no
    entry into an obstacle of the map can occur within D - 2, so the ray
    skips ahead that far in one hop, after which no such entry comes before
    t_cur + 1. The closed-world border is not in the field: the ray's border
    entry t_b is computed up front with the crossing expression of the last
    row or column, so a hop that passes t_b - 1 ends the ray at t_b.
    Boundary-crossing distances are always computed directly from the
    origin, so hops do not perturb the reported distance, and an entry at
    exactly max_range is still found.
    """
    w, h = grid.width, grid.height
    occ = grid.occupancy
    clearance = grid.clearance
    if dirx > 0.0:
        step_x, off_x, inv_x = 1, 1.0, 1.0 / dirx
        t_b = (w - 1 + off_x - ox) * inv_x
    elif dirx < 0.0:
        step_x, off_x, inv_x = -1, 0.0, 1.0 / dirx
        t_b = (0 + off_x - ox) * inv_x
    else:
        step_x, off_x, inv_x = 0, 0.0, 0.0  # axis-parallel: never crosses x
        t_b = math.inf
    if diry > 0.0:
        step_y, off_y, inv_y = 1, 1.0, 1.0 / diry
        t_b = min(t_b, (h - 1 + off_y - oy) * inv_y)
    elif diry < 0.0:
        step_y, off_y, inv_y = -1, 0.0, 1.0 / diry
        t_b = min(t_b, (0 + off_y - oy) * inv_y)
    else:
        step_y, off_y, inv_y = 0, 0.0, 0.0
    # A hop past `stop` ends the ray: past t_b - 1 it meets the border
    # first, and past max_range the border is out of range too.
    stop = min(t_b - 1.0, max_range)
    while True:
        hop = float(clearance[cy, cx]) - 2.0
        if hop >= 1.0:
            t_cur = t_cur + hop
            if t_cur > stop:
                return t_b if t_b <= max_range else None
            cx = math.floor(ox + t_cur * dirx)
            cy = math.floor(oy + t_cur * diry)
            if not (0 <= cx < w and 0 <= cy < h):
                # The landing point lies inside the map; only rounding in a
                # ray within ~1e-12 of parallel to an edge floors it one cell
                # outside, and the clamp takes that back.
                cx = min(max(cx, 0), w - 1)
                cy = min(max(cy, 0), h - 1)
            continue
        t_x = (cx + off_x - ox) * inv_x if step_x else math.inf
        t_y = (cy + off_y - oy) * inv_y if step_y else math.inf
        if t_x <= t_y:
            t_enter = t_x
            if t_enter > max_range:
                return None
            cx += step_x
        else:
            t_enter = t_y
            if t_enter > max_range:
                return None
            cy += step_y
        if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
            return t_enter
        t_cur = t_enter


def _robot_hit_scalar(
    index: RobotIndex,
    ox: float,
    oy: float,
    dirx: float,
    diry: float,
    max_range: float,
    self_id: int | None,
) -> tuple[float, int] | None:
    """Nearest ray/disc intersection among indexed robots, or None. Ids break
    exact distance ties (candidates are scanned in ascending id order)."""
    rho = index.radius
    if rho <= 0.0 or not index.positions:
        return None
    best_t = math.inf
    best_id = -1
    rho2 = rho * rho
    for j in index.neighbors_within(ox, oy, max_range + rho, exclude=self_id):
        px, py = index.positions[j]
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
    index: RobotIndex,
    origin: tuple[float, float],
    direction: float,
    max_range: float,
    self_id: int | None = None,
) -> RayHit:
    """Cast one ray from `origin` at absolute bearing `direction`."""
    ox, oy = origin
    dirx = math.cos(direction)
    diry = math.sin(direction)
    wall_t = _wall_hit_scalar(grid, ox, oy, dirx, diry, max_range)
    robot = _robot_hit_scalar(index, ox, oy, dirx, diry, max_range, self_id)
    if wall_t is not None and (robot is None or wall_t <= robot[0]):
        return RayHit(wall_t, KIND_WALL)
    if robot is not None:
        return RayHit(robot[0], KIND_ROBOT, robot[1])
    return RayHit(max_range, KIND_NONE)


def sense_all(
    body: RobotBody, spec: SensorSpec, grid: GridMap, index: RobotIndex
) -> list[SensorReading]:
    """One reading per spec angle, in spec order. Ray i starts on the body
    perimeter at bearing theta + angles[i] and points outward, so a touching
    obstacle reads ~0."""
    pose = body.pose
    readings: list[SensorReading] = []
    inv_range = 1.0 / spec.max_range
    for angle in spec.angles:
        bearing = pose.theta + angle
        ox = pose.x + body.radius * math.cos(bearing)
        oy = pose.y + body.radius * math.sin(bearing)
        hit = cast_ray(grid, index, (ox, oy), bearing, spec.max_range, body.id)
        readings.append(SensorReading(hit.dist * inv_range, hit.kind, hit.robot))
    return readings


# --- Vectorized batch path ---------------------------------------------------


# While more rays than this are live the batch wall pass steps them in
# arrays; the rest finish in the scalar loop. The two forms compute identical
# floats, so the cutover is invisible.
_SCALAR_DDA_LIMIT = 384


def _wall_batch(
    grid: GridMap,
    ox: np.ndarray,
    oy: np.ndarray,
    dirx: np.ndarray,
    diry: np.ndarray,
    ranges: np.ndarray,
) -> np.ndarray:
    """Clearance-hopping DDA for a flat batch of rays, each with its own
    range; returns entry distances (inf = no wall within range). Same hop
    rule, closed-form border entry and crossing expressions as
    `_wall_resume_scalar`, evaluated with masks instead of branches until few
    rays are left; those resume the scalar loop from their current cell."""
    w, h = grid.width, grid.height
    clearance = grid.clearance
    t_hit = np.full(ox.size, np.inf)
    cx = np.floor(ox).astype(np.int64)
    cy = np.floor(oy).astype(np.int64)
    start_blocked = grid.blocked_at(cx, cy)
    t_hit[start_blocked] = 0.0

    # Compact the live rays; `idx` maps rows back to output slots. Live rays
    # always sit in an in-range free cell, so occupancy/clearance lookups on
    # the current cell never need clipping.
    idx = np.nonzero(~start_blocked)[0]
    cx = cx[idx]
    cy = cy[idx]
    ox = ox[idx]
    oy = oy[idx]
    dirx = dirx[idx]
    diry = diry[idx]
    ranges = ranges[idx]
    step_x = np.where(dirx > 0.0, 1, np.where(dirx < 0.0, -1, 0))
    step_y = np.where(diry > 0.0, 1, np.where(diry < 0.0, -1, 0))
    off_x = np.where(dirx > 0.0, 1.0, 0.0)
    off_y = np.where(diry > 0.0, 1.0, 0.0)
    with np.errstate(divide="ignore"):
        inv_x = np.where(step_x != 0, 1.0 / dirx, 0.0)
        inv_y = np.where(step_y != 0, 1.0 / diry, 0.0)
    par_x = step_x == 0
    par_y = step_y == 0
    edge_x = np.where(step_x > 0, w - 1, 0)
    edge_y = np.where(step_y > 0, h - 1, 0)
    t_b = np.minimum(
        np.where(par_x, np.inf, (edge_x + off_x - ox) * inv_x),
        np.where(par_y, np.inf, (edge_y + off_y - oy) * inv_y),
    )
    stop = np.minimum(t_b - 1.0, ranges)  # a hop past it ends the ray, as in the scalar loop
    t_cur = np.zeros(idx.size)

    while idx.size > _SCALAR_DDA_LIMIT:
        hop = clearance[cy, cx] - 2.0
        hopping = hop >= 1.0
        stepping = ~hopping
        t_cur = np.where(hopping, t_cur + hop, t_cur)
        ended = hopping & (t_cur > stop)
        if ended.any():
            at_border = np.flatnonzero(ended & (t_b <= ranges))
            t_hit[idx[at_border]] = t_b[at_border]
        alive = ~ended
        t_x = np.where(par_x, np.inf, (cx + off_x - ox) * inv_x)
        t_y = np.where(par_y, np.inf, (cy + off_y - oy) * inv_y)
        go_x = stepping & (t_x <= t_y)
        t_enter = np.where(go_x, t_x, t_y)
        alive &= ~(stepping & (t_enter > ranges))
        hop_move = hopping & alive
        if hop_move.any():
            # The clamp undoes a floor past the edge, as in the scalar loop.
            new_cx = np.clip(np.floor(ox + t_cur * dirx).astype(np.int64), 0, w - 1)
            new_cy = np.clip(np.floor(oy + t_cur * diry).astype(np.int64), 0, h - 1)
            cx = np.where(hop_move, new_cx, cx)
            cy = np.where(hop_move, new_cy, cy)
        go_x &= alive
        go_y = stepping & ~go_x & alive
        cx = cx + go_x * step_x
        cy = cy + go_y * step_y
        stepped = go_x | go_y
        t_cur = np.where(stepped, t_enter, t_cur)
        if stepped.any():
            hit = stepped & grid.blocked_at(cx, cy)
            if hit.any():
                t_hit[idx[hit]] = t_enter[hit]
                alive &= ~hit
        if not alive.all():
            keep = np.nonzero(alive)[0]
            idx = idx[keep]
            cx = cx[keep]
            cy = cy[keep]
            ox = ox[keep]
            oy = oy[keep]
            dirx = dirx[keep]
            diry = diry[keep]
            ranges = ranges[keep]
            step_x = step_x[keep]
            step_y = step_y[keep]
            off_x = off_x[keep]
            off_y = off_y[keep]
            inv_x = inv_x[keep]
            inv_y = inv_y[keep]
            par_x = par_x[keep]
            par_y = par_y[keep]
            t_b = t_b[keep]
            stop = stop[keep]
            t_cur = t_cur[keep]

    # Every live ray sits in a free in-range cell at t_cur: the state the
    # scalar loop starts each iteration from.
    tail = zip(
        idx.tolist(), ox.tolist(), oy.tolist(), dirx.tolist(), diry.tolist(),
        ranges.tolist(), cx.tolist(), cy.tolist(), t_cur.tolist(),
    )
    for slot, *ray in tail:
        t = _wall_resume_scalar(grid, *ray)
        if t is not None:
            t_hit[slot] = t
    return t_hit


# Forward half of the 3x3 bin neighbourhood (x, y offsets). With the later
# members of a robot's own bin, it reaches every unordered pair of robots in
# neighbouring bins exactly once.
_HALF_STENCIL = ((0, 1), (1, -1), (1, 0), (1, 1))


def _pairs_within(
    xs: np.ndarray, ys: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Robot pairs (a, b), a != b, with center distance <= reach, each
    unordered pair once, and their squared distances computed as
    dx * dx + dy * dy with dx = xs[b] - xs[a], dy = ys[b] - ys[a]. Uses
    coarse bins of size `reach`."""
    n = xs.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    # Bins are bounded before the cast. Clipping is 1-Lipschitz, so robots in
    # neighbouring bins stay neighbours: far-off robots only share the edge
    # bins, which adds candidates, and the keys below stay under 2**63.
    bx = np.clip(np.floor(xs / reach), -(1 << 30), 1 << 30).astype(np.int64)
    by = np.clip(np.floor(ys / reach), -(1 << 30), 1 << 30).astype(np.int64)
    span = by.max() - by.min() + 3
    key = (bx - bx.min() + 1) * span + (by - by.min() + 1)
    order = np.argsort(key, kind="stable")
    ukey, ustart, ucount = np.unique(key[order], return_index=True, return_counts=True)
    # Work in sorted slots: each robot pairs with a contiguous run of slots
    # per stencil bin, first with the later slots of its own bin.
    slot = np.arange(n, dtype=np.int64)
    slot_bin = np.repeat(np.arange(ukey.size, dtype=np.int64), ucount)
    sources = [slot]
    firsts = [slot + 1]
    counts = [ustart[slot_bin] + ucount[slot_bin] - slot - 1]
    for dx, dy in _HALF_STENCIL:
        target = ukey + (dx * span + dy)
        pos = np.searchsorted(ukey, target)
        found = pos < ukey.size
        found &= ukey[np.minimum(pos, ukey.size - 1)] == target
        src = np.flatnonzero(found[slot_bin])
        dst_bin = pos[slot_bin[src]]
        sources.append(src)
        firsts.append(ustart[dst_bin])
        counts.append(ucount[dst_bin])
    src = np.concatenate(sources)
    first = np.concatenate(firsts)
    count = np.concatenate(counts)
    total = int(count.sum())
    sa = np.repeat(src, count)
    sb = np.arange(total, dtype=np.int64) + np.repeat(first - (np.cumsum(count) - count), count)
    sx = xs[order]
    sy = ys[order]
    dx = sx[sb] - sx[sa]
    dy = sy[sb] - sy[sa]
    # Two robots past ~1e154 in one edge bin square to inf: out of reach.
    with np.errstate(over="ignore"):
        d2 = dx * dx + dy * dy
    keep = np.flatnonzero(d2 <= reach * reach)
    return order[sa[keep]], order[sb[keep]], d2[keep]


# Bins per turn in the bearing-window table of `_disc_hits_windowed`. The
# windows stay supersets at any count; fewer bins only add spare candidates
# (about 11% more at 256 bins on a dense crowd).
_WINDOW_BINS = 1024


def _disc_hits_windowed(
    pa: np.ndarray,
    pb: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    ox: np.ndarray,
    oy: np.ndarray,
    dirx: np.ndarray,
    diry: np.ndarray,
    rho: float,
    max_range: float,
    angles: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray nearest disc hits for any belt: expand only the rays whose
    bearing can geometrically reach each candidate disc. Takes each
    unordered pair (pa, pb) once and tests it in both directions.

    A ray from the perimeter at absolute angle psi passes within rho of a
    center at bearing phi, distance d, only if |sin(psi - phi)| <= rho / d
    with cos(psi - phi) > 0 (the perimeter offset drops out of the cross
    product). The window is widened by 1e-6 rad, orders of magnitude beyond
    float rounding (the reverse bearing phi + pi and the table bins
    included), so the exact test below never loses a candidate. Smallest id
    wins exact distance ties, matching the scalar scan order.
    """
    n, k = ox.shape
    dx = xs[pb] - xs[pa]
    dy = ys[pb] - ys[pa]
    d = np.sqrt(dx * dx + dy * dy)
    phi = np.arctan2(dy, dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_width = np.where(
            d > rho, np.arcsin(np.minimum(1.0, rho / d)), math.pi
        ) + 1e-6
    # The sorted belt laid out over five turns from -5pi. Heading-relative
    # bearings lie in [-2pi, 3pi], so every window lies inside. Measured in
    # bins from -5pi, `table[i]` is the first slot at or after bin i.
    order = np.argsort(angles, kind="stable")
    turns = 2.0 * math.pi * np.arange(-2, 3)
    slots = (angles[order][None, :] + turns[:, None]).ravel()
    ray_of_slot = np.tile(order, 5)
    per_rad = _WINDOW_BINS / (2.0 * math.pi)
    edges = np.arange(5 * _WINDOW_BINS + 1) / per_rad - 5.0 * math.pi
    table = np.searchsorted(slots, edges).astype(np.int32)
    half_bins = half_width * per_rad
    rows: list[np.ndarray] = []  # flat ray slots robot * k + ray
    others: list[np.ndarray] = []
    for robot, other, bearing in ((pa, pb, phi), (pb, pa, phi + math.pi)):
        rel = (bearing - thetas[robot] + 5.0 * math.pi) * per_rad
        lo = table[(rel - half_bins).astype(np.intp)]
        counts = table[(rel + half_bins).astype(np.intp) + 1] - lo
        np.minimum(counts, k, out=counts)  # a window wider than a turn (d <= rho)
        some = np.flatnonzero(counts > 0)
        counts = counts[some]
        slot = np.arange(int(counts.sum()), dtype=np.int64)
        slot += np.repeat(lo[some] - (np.cumsum(counts) - counts), counts)
        rows.append(np.repeat(robot[some] * k, counts) + ray_of_slot[slot])
        others.append(np.repeat(other[some], counts))
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
    winners = t == t_best[flat]
    id_best = np.full(n * k, _INT64_MAX, dtype=np.int64)
    np.minimum.at(id_best, flat[winners], other[winners])
    id_best[np.isinf(t_best)] = -1
    return t_best.reshape(n, k), id_best.reshape(n, k)


def sense_batch(
    grid: GridMap,
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    radius: float,
    spec: SensorSpec,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All readings for all robots against the given pose snapshot; headings
    must lie in [-pi, pi].

    Returns (normalized, hit) arrays of shape (n, k): normalized distances in
    [0, 1] and integer hit codes (HIT_NONE, HIT_WALL, or the hit robot id).
    `pairs` may pass in robot pairs (a, b) that include every pair
    `_pairs_within(xs, ys, max_range + 2 * radius)` returns, in any order;
    farther pairs cost time but never change a reading. By default that
    search runs here.

    Robot disc hits come first. Each ray then looks for a wall only up to
    its nearest robot hit: a wall entry at exactly that distance is still
    found (ties go to the wall) and any later one loses to the robot. Robots
    whose cell shows no obstacle and no border within their longest such
    reach (`GridMap.clearance_at`) skip the wall traversal entirely; the
    skip is conservative, never changing results. In the traversal, a ray
    whose first hop reaches the border ends there in closed form.
    """
    if not (np.abs(thetas) <= math.pi).all():
        raise ValueError("headings must lie in [-pi, pi]")
    n = xs.size
    k = len(spec.angles)
    max_range = spec.max_range
    angles = np.asarray(spec.angles)
    bearing = thetas[:, None] + angles[None, :]
    dirx = np.cos(bearing)
    diry = np.sin(bearing)
    ox = xs[:, None] + radius * dirx
    oy = ys[:, None] + radius * diry

    if pairs is None:
        pa, pb, _ = _pairs_within(xs, ys, max_range + 2.0 * radius)
    else:
        pa, pb = pairs
    rob_t, rob_id = _disc_hits_windowed(
        pa, pb, xs, ys, thetas, ox, oy, dirx, diry, radius, max_range, angles
    )

    cap = np.minimum(rob_t, max_range)
    wall_t = np.full((n, k), np.inf)
    need = grid.clearance_at(xs, ys) <= cap.max(axis=1) + radius + 2.0
    if need.any():
        idx = np.nonzero(need)[0]
        wall_t[idx] = _wall_batch(
            grid,
            ox[idx].ravel(),
            oy[idx].ravel(),
            dirx[idx].ravel(),
            diry[idx].ravel(),
            cap[idx].ravel(),
        ).reshape(idx.size, k)

    wall_first = wall_t <= rob_t  # inf vs inf -> wall side, masked below
    wall_hit = np.isfinite(wall_t)
    rob_hit = rob_id >= 0
    dist = np.where(
        wall_hit & wall_first,
        wall_t,
        np.where(rob_hit, rob_t, max_range),
    )
    hit = np.where(
        wall_hit & wall_first,
        np.int64(HIT_WALL),
        np.where(rob_hit, rob_id, np.int64(HIT_NONE)),
    )
    return dist / max_range, hit


def readings_from_arrays(
    normalized: np.ndarray, hits: np.ndarray
) -> Iterator[tuple[SensorReading, ...]]:
    """Materialize the (n, k) batch matrices of `sense_batch` as one tuple of
    SensorReading objects per robot, in id order. Rows are built as they are
    consumed. Every `none` ray is the shared `_NONE_READING`: its distance is
    the range itself, so its normalized value is exactly 1.0."""
    none = _NONE_READING
    for values, codes in zip(normalized.tolist(), hits.tolist()):
        yield tuple(
            [
                none
                if code == HIT_NONE
                else SensorReading(value, KIND_WALL)
                if code == HIT_WALL
                else SensorReading(value, KIND_ROBOT, code)
                for value, code in zip(values, codes)
            ]
        )
