"""IR proximity sensing: grid ray casting plus ray/robot-disc intersection.

A ray reports the distance to whichever comes first: the entry point into an
obstacle cell (continuous DDA traversal over cell boundaries), the nearest
other robot disc (closed-form ray-circle intersection), or the maximum range.
Distances are normalized by the range; exact wall/robot ties go to the wall.

`cast_ray` / `sense_all` are the reference per-ray operations. `sense_batch`
is the vectorized whole-swarm path the engine runs every tick; it computes
the same quantities with the same floating-point expressions and is checked
against the scalar path by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import RobotBody
from .world import GridMap, RobotIndex

KIND_NONE = "none"
KIND_WALL = "wall"
KIND_ROBOT = "robot"

# Integer hit codes used by the batch path.
HIT_NONE = -1
HIT_WALL = -2

# Below this population the batch path tests all robot pairs instead of
# binning; the candidate sets differ but the reduced result is identical.
_ALL_PAIRS_LIMIT = 64

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


@dataclass(frozen=True, slots=True)
class SensorReading:
    normalized: float
    kind: str
    robot: int | None = None


def _wall_hit_scalar(
    grid: GridMap, ox: float, oy: float, dirx: float, diry: float, max_range: float
) -> float | None:
    """Distance along the ray to the first obstacle-cell entry, or None if no
    wall within range. Out-of-range cells count as obstacles; an origin already
    inside a blocked cell reports distance 0.

    Traversal is a DDA over cell boundaries, accelerated by the map clearance
    field: inside a cell whose nearest obstacle center is D cells away, no
    entry can occur within D - 2, so the ray skips ahead that far in one hop.
    Boundary-crossing distances are always computed directly from the origin,
    so hops do not perturb the reported distance.
    """
    w, h = grid.width, grid.height
    occ = grid.occupancy
    clearance = grid.clearance
    cx = math.floor(ox)
    cy = math.floor(oy)
    if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
        return 0.0
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
    t_cur = 0.0
    while True:
        hop = float(clearance[cy, cx]) - 2.0
        if hop >= 1.0:
            t_cur = t_cur + hop
            if t_cur > max_range:
                return None
            cx = math.floor(ox + t_cur * dirx)
            cy = math.floor(oy + t_cur * diry)
            continue  # landing cell is guaranteed in range and free
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


# Below this many rays the batch wall pass loops the scalar traversal; the
# two forms compute identical floats, so the cutover is invisible.
_SCALAR_DDA_LIMIT = 384


def _wall_batch(
    grid: GridMap,
    ox: np.ndarray,
    oy: np.ndarray,
    dirx: np.ndarray,
    diry: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """Clearance-hopping DDA for a flat batch of rays; returns entry distances
    (inf = no wall). Same hop rule and crossing expressions as
    `_wall_hit_scalar`, evaluated with masks instead of branches."""
    m = ox.size
    if m <= _SCALAR_DDA_LIMIT:
        out = np.empty(m)
        for i in range(m):
            t = _wall_hit_scalar(grid, ox[i], oy[i], dirx[i], diry[i], max_range)
            out[i] = np.inf if t is None else t
        return out
    w, h = grid.width, grid.height
    occ = grid.occupancy
    clearance = grid.clearance
    t_hit = np.full(m, np.inf)
    cx = np.floor(ox).astype(np.int64)
    cy = np.floor(oy).astype(np.int64)

    inside = (cx >= 0) & (cy >= 0) & (cx < w) & (cy < h)
    start_blocked = ~inside
    start_blocked |= inside & occ[np.clip(cy, 0, h - 1), np.clip(cx, 0, w - 1)]
    t_hit[start_blocked] = 0.0

    # Compact the live rays; `idx` maps rows back to output slots. Live rays
    # always sit in an in-range free cell, so occupancy/clearance lookups on
    # the current cell never need clipping.
    idx = np.nonzero(~start_blocked)[0]
    if idx.size == 0:
        return t_hit
    cx = cx[idx]
    cy = cy[idx]
    ox = ox[idx]
    oy = oy[idx]
    dirx = dirx[idx]
    diry = diry[idx]
    step_x = np.where(dirx > 0.0, 1, np.where(dirx < 0.0, -1, 0))
    step_y = np.where(diry > 0.0, 1, np.where(diry < 0.0, -1, 0))
    off_x = np.where(dirx > 0.0, 1.0, 0.0)
    off_y = np.where(diry > 0.0, 1.0, 0.0)
    with np.errstate(divide="ignore"):
        inv_x = np.where(step_x != 0, 1.0 / dirx, 0.0)
        inv_y = np.where(step_y != 0, 1.0 / diry, 0.0)
    par_x = step_x == 0
    par_y = step_y == 0
    t_cur = np.zeros(idx.size)

    while idx.size:
        hop = clearance[cy, cx] - 2.0
        hopping = hop >= 1.0
        stepping = ~hopping
        t_cur = np.where(hopping, t_cur + hop, t_cur)
        alive = ~(hopping & (t_cur > max_range))
        t_x = np.where(par_x, np.inf, (cx + off_x - ox) * inv_x)
        t_y = np.where(par_y, np.inf, (cy + off_y - oy) * inv_y)
        go_x = stepping & (t_x <= t_y)
        t_enter = np.where(go_x, t_x, t_y)
        alive &= ~(stepping & (t_enter > max_range))
        hop_move = hopping & alive
        if hop_move.any():
            new_cx = np.floor(ox + t_cur * dirx).astype(np.int64)
            new_cy = np.floor(oy + t_cur * diry).astype(np.int64)
            cx = np.where(hop_move, new_cx, cx)
            cy = np.where(hop_move, new_cy, cy)
        go_x &= alive
        go_y = stepping & ~go_x & alive
        cx = cx + go_x * step_x
        cy = cy + go_y * step_y
        stepped = go_x | go_y
        t_cur = np.where(stepped, t_enter, t_cur)
        if stepped.any():
            ins = (cx >= 0) & (cy >= 0) & (cx < w) & (cy < h)
            hit = stepped & ~ins
            hit |= stepped & ins & occ[np.clip(cy, 0, h - 1), np.clip(cx, 0, w - 1)]
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
            step_x = step_x[keep]
            step_y = step_y[keep]
            off_x = off_x[keep]
            off_y = off_y[keep]
            inv_x = inv_x[keep]
            inv_y = inv_y[keep]
            par_x = par_x[keep]
            par_y = par_y[keep]
            t_cur = t_cur[keep]
    return t_hit


# Forward half of the 3x3 bin neighbourhood (x, y offsets). With the later
# members of a robot's own bin, it reaches every unordered pair of robots in
# neighbouring bins exactly once.
_HALF_STENCIL = ((0, 1), (1, -1), (1, 0), (1, 1))


def _pairs_within(
    xs: np.ndarray, ys: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray]:
    """Robot pairs (a, b), a != b, with center distance <= reach, each
    unordered pair once. Uses coarse bins of size `reach` above
    _ALL_PAIRS_LIMIT robots."""
    n = xs.size
    if n <= _ALL_PAIRS_LIMIT:
        pa, pb = np.triu_indices(n, 1)
        dx = xs[pb] - xs[pa]
        dy = ys[pb] - ys[pa]
        keep = dx * dx + dy * dy <= reach * reach
        return pa[keep], pb[keep]
    bx = np.floor(xs / reach).astype(np.int64)
    by = np.floor(ys / reach).astype(np.int64)
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
    keep = np.flatnonzero(dx * dx + dy * dy <= reach * reach)
    return order[sa[keep]], order[sb[keep]]


def _uniform_belt_spacing(angles: tuple[float, ...]) -> float | None:
    """2*pi/k if the belt sits on the uniform lattice l * 2*pi/k, else None."""
    k = len(angles)
    delta = 2.0 * math.pi / k
    for l, angle in enumerate(angles):
        if abs(math.remainder(angle - l * delta, 2.0 * math.pi)) > 1e-9:
            return None
    return delta


def _reduce_disc_hits(
    t_best: np.ndarray,
    id_best: np.ndarray,
    flat_ray: np.ndarray,
    t_vals: np.ndarray,
    hit_ids: np.ndarray,
    n: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fold candidate (ray, t, id) rows into per-ray minima; smallest id wins
    exact distance ties, matching the scalar scan order."""
    np.minimum.at(t_best, flat_ray, t_vals)
    winners = t_vals == t_best[flat_ray]
    id_slot = np.full(n * k, _INT64_MAX, dtype=np.int64)
    np.minimum.at(id_slot, flat_ray[winners], hit_ids[winners])
    hit = np.isfinite(t_best)
    id_best[hit] = id_slot[hit]
    return t_best.reshape(n, k), id_best.reshape(n, k)


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
    delta: float,
    n: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Disc hits for a uniform belt: expand only the rays whose bearing can
    geometrically reach each candidate disc. Takes each unordered pair
    (pa, pb) once and tests it in both directions.

    A ray from the perimeter at absolute angle psi passes within rho of a
    center at bearing phi, distance d, only if |sin(psi - phi)| <= rho / d
    with cos(psi - phi) > 0 (the perimeter offset drops out of the cross
    product). The window is widened by 1e-6 rad, orders of magnitude beyond
    float rounding (the reverse bearing phi + pi included), so the exact
    test below never loses a candidate.
    """
    t_best = np.full(n * k, np.inf)
    id_best = np.full(n * k, -1, dtype=np.int64)
    dx = xs[pb] - xs[pa]
    dy = ys[pb] - ys[pa]
    d = np.sqrt(dx * dx + dy * dy)
    phi = np.arctan2(dy, dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_width = np.where(
            d > rho, np.arcsin(np.minimum(1.0, rho / d)), math.pi
        ) + 1e-6
    pi = np.concatenate((pa, pb))
    pj = np.concatenate((pb, pa))
    rel = np.concatenate((phi, phi + math.pi)) - thetas[pi]
    half_width = np.concatenate((half_width, half_width))
    lo = np.ceil((rel - half_width) / delta).astype(np.int64)
    hi = np.floor((rel + half_width) / delta).astype(np.int64)
    counts = hi - lo + 1
    live = np.flatnonzero(counts > 0)
    if live.size == 0:
        return t_best.reshape(n, k), id_best.reshape(n, k)
    pi = pi[live]
    pj = pj[live]
    lo = lo[live]
    counts = counts[live]
    total = int(counts.sum())
    row_pair = np.repeat(np.arange(pi.size, dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    ray = (lo[row_pair] + within) % k
    robot = pi[row_pair]
    other = pj[row_pair]
    ux = dirx[robot, ray]
    uy = diry[robot, ray]
    to_x = xs[other] - ox[robot, ray]
    to_y = ys[other] - oy[robot, ray]
    b = to_x * ux + to_y * uy
    disc2 = rho * rho - (to_x * to_x + to_y * to_y - b * b)
    ok = disc2 >= 0.0
    t = b - np.sqrt(np.maximum(disc2, 0.0))
    ok &= (t >= 0.0) & (t <= max_range)
    if not ok.any():
        return t_best.reshape(n, k), id_best.reshape(n, k)
    keep = np.nonzero(ok)[0]
    return _reduce_disc_hits(
        t_best, id_best, robot[keep] * k + ray[keep], t[keep], other[keep], n, k
    )


def _disc_hits_batch(
    pi: np.ndarray,
    pj: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    ox: np.ndarray,
    oy: np.ndarray,
    dirx: np.ndarray,
    diry: np.ndarray,
    rho: float,
    max_range: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Disc hits for an arbitrary belt: dense (pairs, rays) test."""
    n, k = ox.shape
    t_best = np.full(n * k, np.inf)
    id_best = np.full(n * k, -1, dtype=np.int64)
    if pi.size == 0:
        return t_best.reshape(n, k), id_best.reshape(n, k)
    # (pairs, rays) matrices, heavily buffer-reused: to_x ends up holding the
    # intersection discriminant and b the entry distance.
    to_x = xs[pj][:, None] - ox[pi]
    to_y = ys[pj][:, None] - oy[pi]
    b = to_x * dirx[pi]
    b += to_y * diry[pi]
    np.multiply(to_x, to_x, out=to_x)
    np.multiply(to_y, to_y, out=to_y)
    to_x += to_y  # |to|^2
    np.multiply(b, b, out=to_y)  # b^2
    to_x -= to_y  # perpendicular distance squared
    np.subtract(rho * rho, to_x, out=to_x)  # discriminant
    ok = to_x >= 0.0
    np.maximum(to_x, 0.0, out=to_x)
    np.sqrt(to_x, out=to_x)
    b -= to_x  # entry distance
    ok &= b >= 0.0
    ok &= b <= max_range
    rows, cols = np.nonzero(ok)
    if rows.size == 0:
        return t_best.reshape(n, k), id_best.reshape(n, k)
    return _reduce_disc_hits(
        t_best, id_best, pi[rows] * k + cols, b[rows, cols], pj[rows], n, k
    )


def sense_batch(
    grid: GridMap,
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    radius: float,
    spec: SensorSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """All readings for all robots against the given pose snapshot.

    Returns (normalized, hit) arrays of shape (n, k): normalized distances in
    [0, 1] and integer hit codes (HIT_NONE, HIT_WALL, or the hit robot id).
    Robots whose clearance-field cell shows no obstacle within reach skip the
    wall traversal entirely; the skip is conservative, never changing results.
    """
    n = xs.size
    k = len(spec.angles)
    max_range = spec.max_range
    if n == 0:
        return np.empty((0, k)), np.empty((0, k), dtype=np.int64)
    angles = np.asarray(spec.angles)
    bearing = thetas[:, None] + angles[None, :]
    dirx = np.cos(bearing)
    diry = np.sin(bearing)
    ox = xs[:, None] + radius * dirx
    oy = ys[:, None] + radius * diry

    wall_t = np.full((n, k), np.inf)
    ccx = np.floor(xs).astype(np.int64)
    ccy = np.floor(ys).astype(np.int64)
    inside = (ccx >= 0) & (ccy >= 0) & (ccx < grid.width) & (ccy < grid.height)
    clear = np.zeros(n)
    if inside.any():
        clear[inside] = grid.clearance[
            np.clip(ccy, 0, grid.height - 1), np.clip(ccx, 0, grid.width - 1)
        ][inside]
    need = clear <= max_range + radius + 2.0
    if need.any():
        idx = np.nonzero(need)[0]
        wall_t[idx] = _wall_batch(
            grid,
            ox[idx].ravel(),
            oy[idx].ravel(),
            dirx[idx].ravel(),
            diry[idx].ravel(),
            max_range,
        ).reshape(idx.size, k)

    pa, pb = _pairs_within(xs, ys, max_range + 2.0 * radius)
    spacing = _uniform_belt_spacing(spec.angles)
    if spacing is not None:
        rob_t, rob_id = _disc_hits_windowed(
            pa, pb, xs, ys, thetas, ox, oy, dirx, diry, radius, max_range, spacing, n, k
        )
    else:
        rob_t, rob_id = _disc_hits_batch(
            np.concatenate((pa, pb)), np.concatenate((pb, pa)),
            xs, ys, ox, oy, dirx, diry, radius, max_range,
        )

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
    normalized_row: np.ndarray, hit_row: np.ndarray
) -> list[SensorReading]:
    """Materialize one robot's batch row as SensorReading objects."""
    out: list[SensorReading] = []
    for value, code in zip(normalized_row, hit_row):
        code = int(code)
        if code == HIT_NONE:
            out.append(SensorReading(float(value), KIND_NONE))
        elif code == HIT_WALL:
            out.append(SensorReading(float(value), KIND_WALL))
        else:
            out.append(SensorReading(float(value), KIND_ROBOT, code))
    return out
