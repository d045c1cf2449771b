"""Phase 4 (array accept, array cancel, then serial residue) against the
per-robot loop.

The oracle below is the tick as it ran before moves were resolved in
arrays: rebuild the index from the bodies, sense, step the controller, then
`apply_command` -> `resolve_move` -> `index.move` for every robot in id
order. Both simulations start from the same config, so every pose,
collision flag and counter must come out bit-equal, and the engine's index,
which is never rebuilt, must equal a fresh rebuild after every tick.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from swarmsim import (
    ActuatorCommand,
    BraitenbergController,
    ControlInput,
    ControlOutput,
    RandomWalkController,
    SimConfig,
    Simulation,
    apply_command,
    rebuild_index,
    resolve_move,
    sense_batch,
    state_digest,
)
from swarmsim.sensing import readings_from_arrays


def reference_step(sim: Simulation) -> None:
    """One tick with the per-robot move loop. Plugin controllers must not
    broadcast."""
    state = sim.state
    bodies = state.bodies
    n = len(bodies)
    state.index = rebuild_index(bodies, sim.cell_size)
    index = state.index
    xs = np.array([b.pose.x for b in bodies], dtype=np.float64)
    ys = np.array([b.pose.y for b in bodies], dtype=np.float64)
    thetas = np.array([b.pose.theta for b in bodies], dtype=np.float64)
    normalized, hits = sense_batch(state.grid, xs, ys, thetas, sim.config.robot_radius, sim.spec)
    controller = sim.controller
    if isinstance(controller, (BraitenbergController, RandomWalkController)):
        v_arr, w_arr = controller.step_batch(normalized, state.rng_streams)
    else:
        v_arr = np.empty(n)
        w_arr = np.empty(n)
        for i in range(n):
            output = controller.step(
                ControlInput(
                    readings=tuple(readings_from_arrays(normalized[i], hits[i])),
                    collided_last_tick=bodies[i].collided_last_tick,
                    inbox=(),
                    tick=state.tick,
                ),
                state.rng_streams[i],
            )
            assert output.broadcast is None
            v_arr[i] = output.command.v
            w_arr[i] = output.command.w
    canceled = 0
    for i in range(n):
        body = bodies[i]
        candidate = apply_command(
            body.pose, ActuatorCommand(float(v_arr[i]), float(w_arr[i])), sim.limits
        )
        moved_from = body.pose
        new_pose, collided = resolve_move(state.grid, index, body, candidate)
        if not collided and (new_pose.x != moved_from.x or new_pose.y != moved_from.y):
            index.move(i, new_pose.x, new_pose.y)
        body.pose = new_pose
        body.collided_last_tick = collided
        canceled += collided
    state.inboxes = [[] for _ in range(n)]
    state.metrics.canceled_moves += canceled
    state.metrics.ticks_run += 1
    state.tick += 1


class ScriptedController:
    """Plugin: commands drawn from the robot's own stream, covering v = 0,
    negative v, commands beyond the limits and large turns."""

    def __init__(self, v_max: float, w_max: float) -> None:
        self.v_max = v_max
        self.w_max = w_max

    def step(self, control_input, rng) -> ControlOutput:
        u = rng.uniform()
        kind = rng.uniform()
        if kind < 0.15:
            v = 0.0
        elif kind < 0.35:
            v = -self.v_max * u
        elif kind < 0.45:
            v = 3.0 * self.v_max
        elif kind < 0.5:
            v = -3.0 * self.v_max
        else:
            v = self.v_max * u
        w = (5.0 * u - 2.5) * self.w_max
        return ControlOutput(ActuatorCommand(v, w))


class FixedController:
    """Plugin: robot i always sends commands[i]. The engine steps plugin
    controllers in id order, so the call count identifies the robot."""

    def __init__(self, commands: list[tuple[float, float]]) -> None:
        self.commands = commands
        self.calls = 0

    def step(self, control_input, rng) -> ControlOutput:
        v, w = self.commands[self.calls % len(self.commands)]
        self.calls += 1
        return ControlOutput(ActuatorCommand(v, w))


def _pose_bits(sim: Simulation) -> list[tuple[str, str, str, bool]]:
    return [
        (b.pose.x.hex(), b.pose.y.hex(), b.pose.theta.hex(), b.collided_last_tick)
        for b in sim.state.bodies
    ]


def assert_matches_reference(config: SimConfig, make_controller, ticks: int) -> tuple[int, int]:
    """Step the engine and the oracle side by side; return the engine's
    (serial residue, robot-steps) totals."""
    sim = Simulation(config, controller=make_controller())
    ref = Simulation(config, controller=make_controller())
    for tick in range(ticks):
        sim.step()
        reference_step(ref)
        assert _pose_bits(sim) == _pose_bits(ref), f"tick {tick}"
        assert sim.state.metrics.canceled_moves == ref.state.metrics.canceled_moves
        fresh = rebuild_index(sim.state.bodies, sim.cell_size)
        assert sim.state.index.buckets == fresh.buckets, f"tick {tick}"
        assert sim.state.index.positions == fresh.positions, f"tick {tick}"
    assert state_digest(sim.state) == state_digest(ref.state)
    sim.check_invariants()
    metrics = sim.state.metrics
    return metrics.serial_moves, metrics.ticks_run * len(sim.state.bodies)


def _config(**kwargs) -> SimConfig:
    base = dict(
        robot_count=120,
        seed=11,
        ticks=0,
        controller_type="random_walk",
        arena_width=128,
        arena_height=128,
    )
    base.update(kwargs)
    return SimConfig(**base)


def _scripted(config: SimConfig):
    return lambda: ScriptedController(config.v_max, config.w_max)


@pytest.mark.parametrize("cell_size", [4.0, 16.0, 64.0])
@pytest.mark.parametrize("controller_type", ["random_walk", "braitenberg"])
def test_dense_swarm_matches_per_robot_loop(cell_size, controller_type):
    config = _config(controller_type=controller_type, index_cell_size=cell_size)
    serial, steps = assert_matches_reference(config, lambda: None, ticks=40)
    assert 0 < serial < steps  # both the array and the serial path ran


@pytest.mark.parametrize("cell_size", [4.0, 16.0, 64.0])
def test_scripted_commands_match_per_robot_loop(cell_size):
    # v = 0, negative v, clamped commands, turns wrapping past +-pi
    config = _config(robot_count=90, seed=5, index_cell_size=cell_size, w_max=1.0)
    serial, steps = assert_matches_reference(config, _scripted(config), ticks=40)
    assert 0 < serial < steps


@pytest.mark.parametrize("seed", [1, 2])
def test_sparse_arena_mostly_array_accepted(seed):
    config = _config(
        robot_count=300, seed=seed, arena_width=640, arena_height=640, controller_type="braitenberg"
    )
    serial, steps = assert_matches_reference(config, lambda: None, ticks=30)
    assert serial < steps // 4


@pytest.mark.parametrize("controller", ["random_walk", "scripted"])
def test_move_reach_beyond_sensing_reach_matches(controller):
    # sensors.range == v_max: the pair search the engine shares between
    # sensing and phase 4 runs at the move reach 2r + 2 v_max + margin, past
    # the sensing reach range + 2r.
    config = _config(sensor_range=2.0, v_max=2.0)
    r = config.robot_radius
    assert config.sensor_range + 2 * r < 2 * r + 2 * config.v_max
    make = _scripted(config) if controller == "scripted" else lambda: None
    serial, steps = assert_matches_reference(config, make, ticks=40)
    assert 0 < serial < steps


def _obstacle_p2(tmp_path, size: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    occ = np.zeros((size, size), dtype=bool)
    for _ in range(14):
        x, y = rng.integers(0, size - 12, size=2)
        w, h = rng.integers(2, 12, size=2)
        occ[y : y + h, x : x + w] = True
    rows = (" ".join("0" if cell else "255" for cell in row) for row in occ)
    path = tmp_path / "obstacles.pgm"
    path.write_text(f"P2\n{size} {size}\n255\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("cell_size", [4.0, 16.0, 64.0])
def test_obstacle_map_matches_per_robot_loop(tmp_path, cell_size):
    map_path = _obstacle_p2(tmp_path, 128, seed=3)
    config = _config(
        robot_count=80,
        arena_width=None,
        arena_height=None,
        map_path=map_path,
        robot_radius=3.0,
        index_cell_size=cell_size,
    )
    assert_matches_reference(config, lambda: None, ticks=40)
    assert_matches_reference(config, _scripted(config), ticks=40)


def test_map_edge_contacts_and_heading_wrap_match():
    r = 4.0
    # Discs touching the closed-world border, driving into it, along it and
    # away from it, with headings on and around +-pi.
    poses = (
        (r, 50.0, -math.pi),
        (r, 70.0, math.pi / 2),
        (60.0, r, -math.pi / 2),
        (124.0, 90.0, 0.0),
        (124.0, 110.0, 3.1),
        (90.0, 124.0, -3.1),
        (r, r, -2.5),
        (64.0, 64.0, math.pi - 1e-12),
    )
    commands = [
        (2.0, 0.0), (2.0, 0.0), (-2.0, 0.0), (2.0, 0.3),
        (1.5, 0.4), (1.0, -0.4), (2.0, 0.4), (2.0, 0.0),
    ]
    config = _config(robot_count=len(poses), spawn_positions=poses, robot_radius=r)
    assert_matches_reference(config, lambda: FixedController(commands), ticks=60)
    assert_matches_reference(config, _scripted(config), ticks=60)


@pytest.mark.parametrize("cell_size", [4.0, 16.0, 64.0])
def test_centres_exactly_two_radii_apart(cell_size):
    r = 4.0
    # Rows at exact 2r spacing with headings 0 and -pi (cos exactly +-1):
    # each robot's candidate lands exactly 2r from a neighbour's snapshot or
    # candidate, which must not block it (the test is strict).
    poses = []
    commands = []
    for k in range(8):
        poses.append((20.0 + 2 * r * k, 40.0, 0.0))
        commands.append((2.0, 0.0))
    for k in range(8):  # here the leader has the lowest id
        poses.append((44.0 + 2 * r * k, 80.0, -math.pi))
        commands.append((2.0, 0.0))
    # a pair closing a 2r + 4 gap head-on: both candidates end exactly 2r apart
    poses += [(40.0, 110.0, 0.0), (52.0, 110.0, -math.pi)]
    commands += [(2.0, 0.0), (2.0, 0.0)]
    # a mover whose candidate ends exactly 2r from a stationary robot
    poses += [(80.0, 20.0, 0.0), (90.0, 20.0, -math.pi)]
    commands += [(0.0, 0.0), (2.0, 0.0)]
    config = _config(
        robot_count=len(poses),
        spawn_positions=tuple(poses),
        robot_radius=r,
        index_cell_size=cell_size,
    )
    sim = Simulation(config, controller=FixedController(commands))
    sim.step()
    pair = sim.state.bodies[16:18]
    assert not pair[0].collided_last_tick and not pair[1].collided_last_tick
    assert pair[1].pose.x - pair[0].pose.x == 2 * r
    assert_matches_reference(config, lambda: FixedController(commands), ticks=20)


def test_cancel_rules_match_per_robot_loop():
    r = 4.0
    half_turn = -math.pi
    down = -math.pi / 2  # cos is 6e-17, so x stays bit-exact
    scenes = [
        # 0, 1: 0's candidate is 7 from the snapshot of the higher id 1,
        # which drives away: canceled in arrays, 1 accepted.
        ((20.0, 20.0, 0.0), (2.0, 0.0)),
        ((29.0, 20.0, 0.0), (2.0, 0.0)),
        # 2, 3: 3's candidate is 7.5 from the lower id 2's snapshot and 6.5
        # from its candidate: canceled in arrays; 2 is in the residue.
        ((20.0, 40.0, 0.0), (1.0, 0.0)),
        ((29.5, 40.0, half_turn), (2.0, 0.0)),
        # 4, 5: head-on, each candidate exactly 2r from the other's snapshot
        # and 6 from its candidate: both in the residue; 4 moves, 5 is blocked.
        ((20.0, 60.0, 0.0), (2.0, 0.0)),
        ((30.0, 60.0, half_turn), (2.0, 0.0)),
        # 6, 7: 7 follows the lower id 6. Its candidate is 6 from 6's
        # snapshot and exactly 2r from 6's candidate: residue, and it moves.
        ((20.0, 80.0, half_turn), (2.0, 0.0)),
        ((28.0, 80.0, half_turn), (2.0, 0.0)),
        # 8, 9: the same with 8.5 between the candidates.
        ((20.0, 100.0, half_turn), (2.0, 0.0)),
        ((28.0, 100.0, half_turn), (1.5, 0.0)),
        # 10, 11, 12: 10 is blocked by the snapshot of the standing robot 12
        # (canceled in arrays). 11's candidate is 7.76 from 10's candidate
        # only, so it moves because 10 stays put.
        ((100.0, 120.0, 0.0), (2.0, 0.0)),
        ((104.0, 129.5, down), (2.0, 0.0)),
        ((109.0, 118.0, 0.0), (0.0, 0.0)),
    ]
    poses = tuple(pose for pose, _ in scenes)
    commands = [command for _, command in scenes]
    config = _config(
        robot_count=len(poses),
        spawn_positions=poses,
        robot_radius=r,
        arena_width=160,
        arena_height=160,
    )
    sim = Simulation(config, controller=FixedController(commands))
    sim.step()
    collided = [i for i, b in enumerate(sim.state.bodies) if b.collided_last_tick]
    assert collided == [0, 3, 5, 10]
    # residue: 2, 4, 5, 7, 9, 11 and 12 (a standing robot near a candidate)
    assert sim.state.metrics.serial_moves == 7
    assert_matches_reference(config, lambda: FixedController(commands), ticks=30)
