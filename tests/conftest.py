"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the library's algorithms: ray distances
come from brute-force marching, neighbor queries from full O(n) scans, disc
tests from exhaustive cell enumeration, and the RNG reference is a separate
transcription of SplitMix64. Library results are checked against these.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmsim
from swarmsim import GridMap, Pose, RobotBody, SimState, generate_arena

MASK64 = (1 << 64) - 1

# Uneven e-puck-style belt: denser at the front, no ray dead ahead or astern.
EPUCK_ANGLES = (-2.64, -1.57, -0.80, -0.30, 0.30, 0.80, 1.57, 2.64)


def child_env() -> dict[str, str]:
    """This process's environment with the directory that holds the imported
    `swarmsim` package first on PYTHONPATH, so a child `python -m swarmsim`
    imports the same code without an installed package."""
    env = dict(os.environ)
    src = str(Path(swarmsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def workloads():
    """`perfbench/workloads.py`, loaded from its file without changing it."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while building
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


# --- independent SplitMix64 reference ----------------------------------------


def reference_splitmix64(seed: int):
    """Generator form of SplitMix64, written from the published constants."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield (z ^ (z >> 31)) & MASK64


# --- map helpers --------------------------------------------------------------


def grid_from_ascii(art: str) -> GridMap:
    """Build a GridMap from rows of '.' (free) and '#' (obstacle)."""
    rows = [line.strip() for line in art.strip().splitlines()]
    height = len(rows)
    width = len(rows[0])
    occ = np.zeros((height, width), dtype=bool)
    for y, row in enumerate(rows):
        assert len(row) == width, "ragged ascii map"
        for x, ch in enumerate(row):
            occ[y, x] = ch == "#"
    return GridMap(width, height, occ)


def random_grid(rng: random.Random, width: int, height: int, fill: float) -> GridMap:
    occ = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            if rng.random() < fill:
                occ[y, x] = True
    return GridMap(width, height, occ)


def place_bodies(
    rng: random.Random, grid: GridMap, count: int, radius: float, max_tries: int = 20000
) -> list[RobotBody]:
    """Rejection-place non-overlapping bodies in free space (test-only)."""
    bodies: list[RobotBody] = []
    tries = 0
    while len(bodies) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("test scene too dense")
        x = rng.uniform(0, grid.width)
        y = rng.uniform(0, grid.height)
        if not grid.disc_free(x, y, radius):
            continue
        if any(
            (b.pose.x - x) ** 2 + (b.pose.y - y) ** 2 < (2 * radius) ** 2 for b in bodies
        ):
            continue
        theta = rng.uniform(-math.pi, math.pi)
        bodies.append(RobotBody(len(bodies), Pose(x, y, theta), radius))
    return bodies


def centers_of(bodies: list[RobotBody]) -> list[tuple[float, float]]:
    """The (x, y) centres of `bodies`, in their order: the robot list the
    scalar reference ops take."""
    return [(b.pose.x, b.pose.y) for b in bodies]


def state_of(grid: GridMap, bodies: list[RobotBody]) -> SimState:
    """A tick-0 `SimState` holding the poses of `bodies`, in their order,
    at the first body's radius (test-only)."""
    poses = [(b.pose.x, b.pose.y, b.pose.theta) for b in bodies]
    xs, ys, thetas = np.array(poses, dtype=np.float64).reshape(-1, 3).T.copy()
    return SimState(
        tick=0,
        grid=grid,
        radius=bodies[0].radius if bodies else 1.0,
        xs=xs,
        ys=ys,
        thetas=thetas,
        inboxes=[[] for _ in bodies],
        rng_states=np.arange(len(bodies), dtype=np.uint64),
    )


# --- brute-force oracles -------------------------------------------------------


def disc_free_oracle(grid: GridMap, x: float, y: float, r: float) -> bool:
    """Exhaustive scan of the disc bounding box, closed world included."""
    cx0 = math.floor(x - r - 1)
    cx1 = math.ceil(x + r + 1)
    cy0 = math.floor(y - r - 1)
    cy1 = math.ceil(y + r + 1)
    for cy in range(cy0, cy1 + 1):
        for cx in range(cx0, cx1 + 1):
            dx = cx + 0.5 - x
            dy = cy + 0.5 - y
            if dx * dx + dy * dy <= r * r and grid.is_obstacle(cx, cy):
                return False
    return True


def neighbors_oracle(
    positions: list[tuple[float, float]],
    x: float,
    y: float,
    d: float,
    exclude: int | None = None,
) -> list[int]:
    """Naive O(n) scan; ids ascending."""
    out = []
    for i, (px, py) in enumerate(positions):
        if i == exclude:
            continue
        if (px - x) ** 2 + (py - y) ** 2 <= d * d:
            out.append(i)
    return out


def any_within_strict_oracle(
    positions: list[tuple[float, float]], x: float, y: float, d: float
) -> bool:
    """Naive O(n) scan: is some center strictly closer than d?"""
    return any((px - x) ** 2 + (py - y) ** 2 < d * d for px, py in positions)


def pairs_oracle(
    positions: list[tuple[float, float]], reach: float
) -> dict[tuple[int, int], float]:
    """Naive O(n^2) scan: {(i, j): d2} for every i < j with d2 <= reach^2,
    where d2 = dx * dx + dy * dy, dx = x_j - x_i and dy = y_j - y_i."""
    out = {}
    for j, (xj, yj) in enumerate(positions):
        for i, (xi, yi) in enumerate(positions[:j]):
            dx = xj - xi
            dy = yj - yi
            d2 = dx * dx + dy * dy
            if d2 <= reach * reach:
                out[(i, j)] = d2
    return out


# Pairs exactly `reach` apart across bin edges. In the first two, y / reach
# rounds two whole bins apart. In the last, y * (4 / reach) with the
# quotient rounded first puts the two five quarter bins apart.
PAIRS_AT_REACH = {
    "reach1": ([(0.0, 1.0 - 2.0**-53), (0.0, 2.0)], 1.0),
    "reach64": ([(0.0, 64.0 * (1.0 - 2.0**-53)), (0.0, 128.0)], 64.0),
    "y_bin_edge": ([(5.0, -9.00000075), (5.0, 3.00000025)], 12.000001),
}


def assert_pairs_match_oracle(positions: list[tuple[float, float]], reach: float) -> None:
    """`_pairs_within` returns exactly the oracle's pairs, once each in
    either orientation, with offsets and squared distances bit-equal to
    their expressions for the orientation it chose."""
    from swarmsim.sensing import _pairs_within

    xs = np.array([p[0] for p in positions], dtype=np.float64)
    ys = np.array([p[1] for p in positions], dtype=np.float64)
    a, b, d2, dx, dy = _pairs_within(xs, ys, reach)
    assert_pair_offsets(xs, ys, a, b, d2, dx, dy)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    got = dict(zip(zip(lo.tolist(), hi.tolist()), d2.tolist()))
    assert len(got) == lo.size and (lo < hi).all()
    assert got == pairs_oracle(positions, reach)


def assert_pair_offsets(xs, ys, a, b, d2, dx, dy) -> None:
    """The record's offsets and squared distances are bit-equal to
    xs[b] - xs[a], ys[b] - ys[a] and dx * dx + dy * dy."""
    assert np.array_equal(dx, xs[b] - xs[a]) and np.array_equal(dy, ys[b] - ys[a])
    with np.errstate(over="ignore"):
        assert np.array_equal(d2, dx * dx + dy * dy)


def shuffled_pair_search(seed: int):
    """A stand-in for `_pairs_within` that returns the same record (a, b,
    d2, dx, dy) with its rows in a seeded random order and a seeded half of
    them flipped: a and b swapped, dx and dy negated (exact), for consumers
    that must depend on neither the order nor the orientation."""
    from swarmsim.sensing import _pairs_within

    rng = np.random.default_rng(seed)

    def search(xs: np.ndarray, ys: np.ndarray, reach: float):
        record = _pairs_within(xs, ys, reach)
        perm = rng.permutation(record[0].size)
        a, b, d2, dx, dy = (column[perm] for column in record)
        flip = rng.random(a.size) < 0.5
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        return a, b, d2, np.where(flip, -dx, dx), np.where(flip, -dy, dy)

    return search


def march_ray_oracle(
    grid: GridMap,
    robots: list[tuple[float, float]],
    radius: float,
    origin: tuple[float, float],
    direction: float,
    max_range: float,
    self_id: int | None = None,
    step: float = 0.01,
):
    """Sample the ray every `step` px and report the first wall sample, plus
    the first sample inside each robot disc. Returns (wall_t or None,
    [(robot_t, robot_id), ...] sorted by (t, id)).
    """
    ox, oy = origin
    dx = math.cos(direction)
    dy = math.sin(direction)
    ts = np.arange(0.0, max_range + step, step)
    ts = ts[ts <= max_range]
    px = ox + ts * dx
    py = oy + ts * dy
    cx = np.floor(px).astype(np.int64)
    cy = np.floor(py).astype(np.int64)
    outside = (cx < 0) | (cy < 0) | (cx >= grid.width) | (cy >= grid.height)
    wall = outside.copy()
    inside = ~outside
    if inside.any():
        wall[inside] = grid.occupancy[cy[inside], cx[inside]]
    wall_idx = np.argmax(wall) if wall.any() else -1
    wall_t = float(ts[wall_idx]) if wall_idx >= 0 else None
    robot_hits = []
    for j, (rx, ry) in enumerate(robots):
        if j == self_id:
            continue
        in_disc = (px - rx) ** 2 + (py - ry) ** 2 <= radius * radius
        if in_disc.any():
            robot_hits.append((float(ts[np.argmax(in_disc)]), j))
    robot_hits.sort()
    return wall_t, robot_hits


def fine_march_confirms(
    grid: GridMap,
    robots: list[tuple[float, float]],
    radius: float,
    origin: tuple[float, float],
    direction: float,
    t_hit: float,
    kind: str,
    robot: int | None,
    window: float = 0.02,
    step: float = 1e-6,
) -> bool:
    """Re-march a narrow window around a reported hit at much finer step.

    The coarse 0.01 px march cannot see a ray clipping an obstacle-cell
    corner (or grazing a disc) over less than one step of path length; this
    confirms or refutes such sub-resolution hits by sampling alone.
    """
    ox, oy = origin
    dx = math.cos(direction)
    dy = math.sin(direction)
    ts = np.arange(max(0.0, t_hit - window), t_hit + window, step)
    px = ox + ts * dx
    py = oy + ts * dy
    if kind == "wall":
        cx = np.floor(px).astype(np.int64)
        cy = np.floor(py).astype(np.int64)
        outside = (cx < 0) | (cy < 0) | (cx >= grid.width) | (cy >= grid.height)
        hit = outside.copy()
        inside = ~outside
        if inside.any():
            hit[inside] = grid.occupancy[cy[inside], cx[inside]]
        return bool(hit.any())
    rx, ry = robots[robot]
    return bool(((px - rx) ** 2 + (py - ry) ** 2 <= radius * radius).any())


@pytest.fixture
def arena100() -> GridMap:
    return generate_arena(100, 100)
