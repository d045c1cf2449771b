"""The three benchmark workloads and the inputs they generate from a seed.

Why each workload exists, and which layers it stresses or bypasses, is
written up in README.md beside this file. Everything here is a pure function
of the workload seed: the maze map, the configuration and the plugin
controller. The program under test receives only the map file, a
`SimConfig` and (for the beacon workload) a `Controller` object.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

import numpy as np

from swarmsim import (
    ActuatorCommand,
    BraitenbergController,
    Broadcast,
    ControlInput,
    ControlOutput,
    Limits,
    SensorSpec,
    SimConfig,
)

# Non-uniform e-puck-style belt: denser at the front, nothing dead ahead or
# astern, so the sensing layer has to take its dense (pairs x rays) path.
EPUCK_ANGLES = (-2.64, -1.57, -0.80, -0.30, 0.30, 0.80, 1.57, 2.64)

MAZE_SIZE = 1024  # px; P2 parsing of a 1024^2 map costs seconds today
MAZE_CELL = 64  # px between wall centre lines
MAZE_WALL = 4  # px wall thickness
MAZE_BRAID = 0.2  # share of the perfect maze's inner walls knocked out (loops)

# Every episode simulates EPISODE_TICKS ticks, so its final state is fixed by
# the seed; the first WARMUP_TICKS are not timed. Even one episode's 100
# timed ticks leave ten samples above the 90th percentile.
EPISODE_TICKS = 102
WARMUP_TICKS = 2

BEACON_RADIUS = 24.0
BEACON_DAMPING = 0.25  # speed factor is 1 / (1 + DAMPING * inbox size)


@dataclass(frozen=True)
class Workload:
    name: str
    robots: int
    controller_type: str
    arena: int | None = None  # side of an empty square arena, px
    maze: bool = False  # generated P2 maze map instead of an arena
    sensor_angles: tuple[float, ...] | None = None
    beacon: bool = False  # plugin controller that broadcasts every tick
    log: bool = False  # trajectory CSV appended every tick


WORKLOADS = {
    w.name: w
    for w in (
        Workload("arena5k_avoid", 5000, "braitenberg", arena=2048),
        Workload("crowd2k_walk", 2000, "random_walk", arena=512),
        Workload(
            "maze1k_beacon",
            1000,
            "braitenberg",
            maze=True,
            sensor_angles=EPUCK_ANGLES,
            beacon=True,
            log=True,
        ),
    )
}


def maze_occupancy(seed: int) -> np.ndarray:
    """A braided maze on a MAZE_CELL lattice: obstacle walls MAZE_WALL px
    thick, corridors about MAZE_CELL px wide, so every free point is within
    the sensor range of some wall. Deterministic in `seed`."""
    rng = random.Random(seed)
    cells = MAZE_SIZE // MAZE_CELL
    # east[y][x]: wall between (x, y) and (x+1, y); south[y][x]: (x, y)-(x, y+1)
    east = [[True] * cells for _ in range(cells)]
    south = [[True] * cells for _ in range(cells)]
    seen = [[False] * cells for _ in range(cells)]
    stack = [(rng.randrange(cells), rng.randrange(cells))]
    seen[stack[0][1]][stack[0][0]] = True
    while stack:  # iterative depth-first carve: a perfect maze
        x, y = stack[-1]
        options = [
            (nx, ny)
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if 0 <= nx < cells and 0 <= ny < cells and not seen[ny][nx]
        ]
        if not options:
            stack.pop()
            continue
        nx, ny = options[rng.randrange(len(options))]
        if nx != x:
            east[y][min(x, nx)] = False
        else:
            south[min(y, ny)][x] = False
        seen[ny][nx] = True
        stack.append((nx, ny))
    occ = np.zeros((MAZE_SIZE, MAZE_SIZE), dtype=bool)
    half = MAZE_WALL // 2
    for y in range(cells):
        for x in range(cells):
            x0, y0 = x * MAZE_CELL, y * MAZE_CELL
            if x + 1 < cells and east[y][x] and rng.random() >= MAZE_BRAID:
                wx = x0 + MAZE_CELL
                occ[y0 : y0 + MAZE_CELL + half, wx - half : wx + half] = True
            if y + 1 < cells and south[y][x] and rng.random() >= MAZE_BRAID:
                wy = y0 + MAZE_CELL
                occ[wy - half : wy + half, x0 : x0 + MAZE_CELL + half] = True
    return occ


def p2_bytes(occ: np.ndarray, seed: int) -> bytes:
    """ASCII PGM (P2): obstacles 0, free space 255, one image row per line."""
    h, w = occ.shape
    header = f"P2\n# perfbench maze seed {seed}\n{w} {h}\n255\n".encode("ascii")
    cells = np.where(occ, b"0", b"255")
    rows = (b" ".join(row) for row in cells.tolist())
    return header + b"\n".join(rows) + b"\n"


def write_maze(path: str, seed: int) -> tuple[str, float]:
    """Write the seed's maze as P2; return (sha256 hex, obstacle fraction)."""
    occ = maze_occupancy(seed)
    data = p2_bytes(occ, seed)
    tmp = f"{path}.{os.getpid()}.tmp"  # concurrent runs may share `path`
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest(), float(occ.mean())


def make_config(workload: Workload, seed: int, map_path: str | None) -> SimConfig:
    angles = workload.sensor_angles
    return SimConfig(
        robot_count=workload.robots,
        seed=seed,
        ticks=EPISODE_TICKS,
        controller_type=workload.controller_type,
        map_path=map_path if workload.maze else None,
        arena_width=workload.arena,
        arena_height=workload.arena,
        sensor_count=len(angles) if angles is not None else 8,
        sensor_angles=angles,
    )


class BeaconController:
    """Plugin controller: Braitenberg avoidance whose speed shrinks with the
    number of beacons heard last tick, plus a small broadcast every tick.
    A dropped, duplicated or misrouted message changes the poses, so
    messaging faults show in the state digest."""

    def __init__(self, config: SimConfig) -> None:
        spec = SensorSpec(tuple(config.sensor_angles), config.sensor_range)
        self.inner = BraitenbergController(Limits(config.v_max, config.w_max), spec)

    def step(self, control_input: ControlInput, rng) -> ControlOutput:
        command = self.inner.step(control_input, rng).command
        scale = 1.0 / (1.0 + BEACON_DAMPING * len(control_input.inbox))
        payload = control_input.tick.to_bytes(4, "little")
        return ControlOutput(
            ActuatorCommand(command.v * scale, command.w),
            Broadcast(payload, BEACON_RADIUS),
        )


def make_controller(workload: Workload, config: SimConfig):
    """The plugin controller for the workload, or None for the built-in one."""
    return BeaconController(config) if workload.beacon else None
