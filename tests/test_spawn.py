"""Sampled spawn in arrays against the sequential loop it replaced.

`engine.spawn` draws rejection-sampling attempts in chunks and tests each
chunk in arrays. The oracle here is the loop it replaced: one attempt at a
time, three draws each, an exact `disc_free` test and a strict `RobotIndex`
probe of the robots placed so far. Poses, the master stream's final state
and the "map too dense" message must all be identical.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from swarmsim import GridMap, RngStream, SimConfig, SpawnError, generate_arena, spawn
from swarmsim.world import RobotIndex

from conftest import random_grid, shuffled_pair_search

SEEDS = range(11)


def sequential_spawn(config: SimConfig, grid: GridMap, master_rng: RngStream) -> list:
    """The sampled path as a loop over attempts: (x, y, theta) per robot."""
    n = config.robot_count
    r = config.robot_radius
    placed = []
    probe = RobotIndex(max(2.0 * r, 16.0))
    rejections = 0
    limit = 1000 * n
    two_pi = 2.0 * math.pi
    while len(placed) < n:
        x = master_rng.uniform() * grid.width
        y = master_rng.uniform() * grid.height
        theta = -math.pi + master_rng.uniform() * two_pi
        if grid.disc_free(x, y, r) and not probe.any_within_strict(x, y, 2.0 * r):
            probe.add(len(placed), x, y)
            placed.append((x, y, theta))
        else:
            rejections += 1
            if rejections > limit:
                raise SpawnError(
                    f"map too dense: placed {len(placed)} of {n} robots "
                    f"after {rejections} rejections"
                )
    return placed


def array_spawn(config: SimConfig, grid: GridMap, master_rng: RngStream) -> list:
    xs, ys, thetas = spawn(config, grid, master_rng)
    return list(zip(xs.tolist(), ys.tolist(), thetas.tolist()))


def _outcome(place, config: SimConfig, grid: GridMap) -> tuple[object, int]:
    """(poses or the SpawnError message, final master stream state)."""
    master = RngStream(config.seed)
    try:
        return place(config, grid, master), master.state
    except SpawnError as err:
        return str(err), master.state


def assert_matches_sequential(config: SimConfig, grid: GridMap) -> object:
    want = _outcome(sequential_spawn, config, grid)
    got = _outcome(array_spawn, config, grid)
    assert got == want, config
    return got[0]


@pytest.mark.parametrize("name", ["arena5k_avoid", "crowd2k_walk", "maze1k_beacon"])
def test_benchmark_workloads_spawn_as_the_sequential_loop(workloads, name):
    workload = workloads.WORKLOADS[name]
    for seed in SEEDS:
        config = workloads.make_config(workload, seed, "maze.pgm")
        if workload.maze:
            occ = workloads.maze_occupancy(seed)
            grid = GridMap(occ.shape[1], occ.shape[0], occ)
        else:
            grid = generate_arena(workload.arena, workload.arena)
        poses = assert_matches_sequential(config, grid)
        assert len(poses) == workload.robots


def _config(**kwargs) -> SimConfig:
    base = dict(ticks=1, controller_type="random_walk", arena_width=256, arena_height=256)
    base.update(kwargs)
    return SimConfig(**base)


@pytest.mark.parametrize(
    "count, side, radius",
    [(3, 256, 4.0), (1, 100, 4.0), (8, 100, 4.0), (30, 100, 3.0), (150, 200, 4.0), (200, 160, 4.0)],
)
def test_test_configs_spawn_as_the_sequential_loop(count, side, radius):
    grid = generate_arena(side, side)
    for seed in SEEDS:
        config = _config(robot_count=count, seed=seed, robot_radius=radius)
        assert len(assert_matches_sequential(config, grid)) == count


def test_maps_with_obstacles_spawn_as_the_sequential_loop():
    rng = random.Random(3)
    for seed in SEEDS:
        grid = random_grid(rng, rng.randint(40, 90), rng.randint(40, 90), rng.uniform(0.0, 0.04))
        config = _config(robot_count=rng.randint(5, 40), seed=seed, robot_radius=2.5)
        assert_matches_sequential(config, grid)


def test_dense_maps_fail_with_the_sequential_counts():
    # Small maps with more robots than fit: most configs run out of
    # rejections, and the counts in the message must be the loop's.
    rng = random.Random(5)
    failed = 0
    for seed in range(30):
        w, h = rng.randint(8, 24), rng.randint(8, 24)
        occ = np.array([[rng.random() < 0.05 for _ in range(w)] for _ in range(h)])
        config = _config(
            robot_count=rng.randint(2, 8),
            seed=seed,
            robot_radius=rng.uniform(1.5, 4.0),
            arena_width=w,
            arena_height=h,
        )
        outcome = assert_matches_sequential(config, GridMap(w, h, occ))
        failed += isinstance(outcome, str)
    assert failed >= 10


def test_crowded_chunk_accepts_in_attempt_order():
    # 200 robots on 120x120 at radius 3: chunks are large against the map,
    # so many attempts are close to an earlier attempt of their own chunk.
    grid = generate_arena(120, 120)
    for seed in SEEDS:
        config = _config(robot_count=200, seed=seed, robot_radius=3.0)
        assert len(assert_matches_sequential(config, grid)) == 200


def test_spawn_is_independent_of_pair_order(monkeypatch):
    # Crowded chunks, where attempts of one chunk pair up with each other,
    # and explicit positions where robot 2 is close to robots 0 and 1.
    from swarmsim import engine

    grid = generate_arena(120, 120)
    rng = random.Random(9)
    obstacles = random_grid(rng, 90, 90, 0.03)
    positions = [(40.0, 40.0, 0.0), (46.5, 40.0, 0.0), (43.0, 44.0, 0.0), (80.0, 80.0, 0.0)]
    configs = [_config(robot_count=200, seed=seed, robot_radius=3.0) for seed in range(4)]
    configs += [_config(robot_count=60, seed=seed, robot_radius=2.5) for seed in range(2)]
    configs.append(_config(robot_count=4, seed=0, spawn_positions=positions, robot_radius=3.0))
    grids = [grid] * 4 + [obstacles] * 2 + [grid]
    for seed, (config, where) in enumerate(zip(configs, grids)):
        want = _outcome(array_spawn, config, where)
        monkeypatch.setattr(engine, "_pairs_within", shuffled_pair_search(seed))
        assert _outcome(array_spawn, config, where) == want, config
        monkeypatch.undo()
    assert want[0] == "spawn.positions[2] is closer than two radii to robot 0"
