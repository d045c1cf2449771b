"""Golden per-tick digests: every rewrite of a hot path must keep them.

For each case the fixture `golden_digests.json` holds, after every tick, the
`state_digest` and the running `canceled_moves` and `messages_delivered`
counts. The cases cover both built-in controllers, a P2 and a P5 obstacle
map, explicit spawn positions, a broadcasting plugin controller and three
sensor belts: the uniform one, the e-puck one, and an unsorted custom belt
with a duplicate bearing and -pi.

The values hold on one platform only (recorded on x86-64 Linux with CPython
3.11 and numpy 2.4): the digest quantizes poses to 1e-6, and the README
promises only 1e-6 pose agreement across platforms. Regenerate the fixture
with `PYTHONPATH=src python tests/test_golden_digests.py --record`, and only
in a change that means to alter simulated behaviour.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from swarmsim import (
    ActuatorCommand,
    BraitenbergController,
    Broadcast,
    ControlOutput,
    Limits,
    SensorSpec,
    SimConfig,
    Simulation,
    state_digest,
)

from conftest import EPUCK_ANGLES

FIXTURE = Path(__file__).with_name("golden_digests.json")
TICKS = 30

CUSTOM_ANGLES = (0.5, -math.pi, 2.0, 0.5, -1.0, 0.0)

CASES = {
    "braitenberg_uniform": dict(
        robot_count=150, controller_type="braitenberg", arena_width=200, arena_height=200
    ),
    "random_walk": dict(
        robot_count=200, controller_type="random_walk", arena_width=160, arena_height=160
    ),
    "p2_map": dict(robot_count=120, controller_type="braitenberg"),
    "p5_map": dict(robot_count=140, controller_type="random_walk"),
    "spawn_positions": dict(
        robot_count=144, controller_type="random_walk", arena_width=128, arena_height=128
    ),
    "epuck_beacon": dict(
        robot_count=150,
        controller_type="braitenberg",
        arena_width=200,
        arena_height=200,
        sensor_count=len(EPUCK_ANGLES),
        sensor_angles=EPUCK_ANGLES,
    ),
    "custom_belt": dict(
        robot_count=150,
        controller_type="braitenberg",
        arena_width=200,
        arena_height=200,
        sensor_count=len(CUSTOM_ANGLES),
        sensor_angles=CUSTOM_ANGLES,
    ),
}


def _write_p2_map(path: Path) -> None:
    """192x192 P2 map: a border wall, two bars and a block."""
    occ = np.zeros((192, 192), dtype=bool)
    occ[[0, -1], :] = True
    occ[:, [0, -1]] = True
    occ[40:44, 20:120] = True
    occ[100:180, 140:146] = True
    occ[120:150, 40:70] = True
    rows = (" ".join("0" if cell else "255" for cell in row) for row in occ)
    path.write_text("P2\n192 192\n255\n" + "\n".join(rows) + "\n")


def _write_p5_map(path: Path) -> None:
    """160x128 binary P5 map: pillars on a lattice and a diagonal wall."""
    occ = np.zeros((128, 160), dtype=bool)
    for y in range(16, 128, 32):
        for x in range(16, 160, 32):
            occ[y : y + 6, x : x + 6] = True
    for k in range(60):
        occ[30 + k, 50 + k : 53 + k] = True
    pixels = np.where(occ, 0, 255).astype(np.uint8)
    path.write_bytes(b"P5\n160 128\n255\n" + pixels.tobytes())


def _lattice_poses() -> tuple[tuple[float, float, float], ...]:
    """12x12 robots 9 px apart (1 px gaps at radius 4), headings fanned out."""
    return tuple(
        (20.0 + 9.0 * (k % 12), 20.0 + 9.0 * (k // 12), -math.pi + (0.37 * k) % (2 * math.pi))
        for k in range(144)
    )


class _Beacon:
    """Braitenberg avoidance slowed by the inbox size, broadcasting every tick."""

    def __init__(self, config: SimConfig) -> None:
        spec = SensorSpec(tuple(config.sensor_angles), config.sensor_range)
        self.inner = BraitenbergController(Limits(config.v_max, config.w_max), spec)

    def step(self, control_input, rng):
        command = self.inner.step(control_input, rng).command
        scale = 1.0 / (1.0 + 0.25 * len(control_input.inbox))
        return ControlOutput(
            ActuatorCommand(command.v * scale, command.w),
            Broadcast(control_input.tick.to_bytes(4, "little"), 24.0),
        )


def case_simulation(name: str, work: Path) -> Simulation:
    """The case's simulation at tick 0; map files are written into `work`."""
    kwargs = dict(CASES[name])
    if name == "p2_map":
        map_path = work / "golden.pgm"
        _write_p2_map(map_path)
        kwargs["map_path"] = str(map_path)
    elif name == "p5_map":
        map_path = work / "golden_p5.pgm"
        _write_p5_map(map_path)
        kwargs["map_path"] = str(map_path)
    elif name == "spawn_positions":
        kwargs["spawn_positions"] = _lattice_poses()
    config = SimConfig(seed=7, ticks=TICKS, **kwargs)
    controller = _Beacon(config) if name == "epuck_beacon" else None
    return Simulation(config, controller=controller)


def run_case(name: str, work: Path) -> list[list[int]]:
    """[digest, canceled_moves, messages_delivered] after each tick."""
    sim = case_simulation(name, work)
    rows = []
    for _ in range(TICKS):
        sim.step()
        m = sim.state.metrics
        rows.append([state_digest(sim.state), m.canceled_moves, m.messages_delivered])
    return rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_per_tick_digests_match_golden(name, tmp_path):
    golden = json.loads(FIXTURE.read_text())[name]
    assert run_case(name, tmp_path) == golden


def test_golden_cases_exercise_contact_and_messages():
    golden = json.loads(FIXTURE.read_text())
    assert golden["random_walk"][-1][1] > 0
    assert golden["spawn_positions"][-1][1] > 0
    assert golden["epuck_beacon"][-1][2] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_digests.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n")
