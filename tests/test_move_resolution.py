"""Phase 4 (array accept, array cancel, then serial residue) against the
per-robot loop.

The oracle below is the tick as it ran before moves were resolved in
arrays: sense, step the controller, then `apply_command` -> `resolve_move`
for every robot in id order, each against the current centres of all the
other robots. Both simulations start from the same config, so every pose,
collision flag and counter must come out bit-equal.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from swarmsim import (
    ActuatorCommand,
    ControlInput,
    ControlOutput,
    Pose,
    RngStream,
    RobotBody,
    SimConfig,
    Simulation,
    apply_command,
    resolve_move,
    sense_batch,
    state_digest,
)
from swarmsim.sensing import HIT_NONE, HIT_WALL, SensorReading

from conftest import centers_of, shuffled_pair_search


def reference_readings(normalized_row: np.ndarray, hit_row: np.ndarray) -> tuple:
    """One robot's batch row as SensorReading objects, ray by ray."""
    readings = []
    for value, code in zip(normalized_row, hit_row):
        if code == HIT_NONE:
            readings.append(SensorReading(float(value), "none"))
        elif code == HIT_WALL:
            readings.append(SensorReading(float(value), "wall"))
        else:
            readings.append(SensorReading(float(value), "robot", int(code)))
    return tuple(readings)


def reference_step(sim: Simulation) -> None:
    """One tick with the per-robot move loop: robot i sees robots below i at
    their new positions and robots above i at the snapshot. Plugin
    controllers must not broadcast."""
    state = sim.state
    bodies = state.bodies
    n = len(bodies)
    centers = centers_of(bodies)
    xs = np.array([b.pose.x for b in bodies], dtype=np.float64)
    ys = np.array([b.pose.y for b in bodies], dtype=np.float64)
    thetas = np.array([b.pose.theta for b in bodies], dtype=np.float64)
    normalized, hits = sense_batch(state.grid, xs, ys, thetas, sim.config.robot_radius, sim.spec)
    # Every controller, the built-ins too, steps robot by robot through its
    # own `step`, on a stream object of its own per robot.
    streams = [RngStream(s) for s in state.rng_states.tolist()]
    v_arr = np.empty(n)
    w_arr = np.empty(n)
    for i in range(n):
        output = sim.controller.step(
            ControlInput(
                readings=reference_readings(normalized[i], hits[i]),
                collided_last_tick=bodies[i].collided_last_tick,
                inbox=(),
                tick=state.tick,
            ),
            streams[i],
        )
        assert output.broadcast is None
        v_arr[i] = output.command.v
        w_arr[i] = output.command.w
    state.rng_states[:] = [s.state for s in streams]
    canceled = 0
    for i in range(n):
        body = bodies[i]
        candidate = apply_command(
            body.pose, ActuatorCommand(float(v_arr[i]), float(w_arr[i])), sim.limits
        )
        others = centers[:i] + centers[i + 1 :]
        free = resolve_move(state.grid, others, candidate.x, candidate.y, body.radius)
        # A refused move keeps the old position and takes the candidate heading.
        if free:
            body.pose = candidate
        else:
            body.pose = Pose(body.pose.x, body.pose.y, candidate.theta)
        centers[i] = (body.pose.x, body.pose.y)
        body.collided_last_tick = not free
        canceled += not free
    # The engine's state is the pose arrays: hand the loop's poses back.
    state.xs = np.array([b.pose.x for b in bodies], dtype=np.float64)
    state.ys = np.array([b.pose.y for b in bodies], dtype=np.float64)
    state.thetas = np.array([b.pose.theta for b in bodies], dtype=np.float64)
    state.collided = np.array([b.collided_last_tick for b in bodies], dtype=bool)
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


def assert_matches_reference(
    config: SimConfig, make_controller, ticks: int
) -> tuple[int, int]:
    """Step the engine and the oracle side by side; return the engine's
    (serial residue, robot-steps) totals."""
    sim = Simulation(config, controller=make_controller())
    ref = Simulation(config, controller=make_controller())
    for tick in range(ticks):
        sim.step()
        reference_step(ref)
        assert _pose_bits(sim) == _pose_bits(ref), f"tick {tick}"
        assert sim.state.metrics.canceled_moves == ref.state.metrics.canceled_moves
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


# Sensor ranges: the engine's one pair search runs at the larger of the
# sensing reach (range + 2r) and the move reach (2r + 2 v_max), and phase 4
# filters it down to the move reach. At range 4 the two reaches coincide; at
# 64, the default, the search holds far more pairs than phase 4 keeps.
SENSOR_RANGES = [4.0, 16.0, 64.0]


@pytest.mark.parametrize("sensor_range", SENSOR_RANGES)
@pytest.mark.parametrize("controller_type", ["random_walk", "braitenberg"])
def test_dense_swarm_matches_per_robot_loop(sensor_range, controller_type):
    config = _config(controller_type=controller_type, sensor_range=sensor_range)
    serial, steps = assert_matches_reference(config, lambda: None, ticks=40)
    assert 0 < serial < steps  # both the array and the serial path ran


@pytest.mark.parametrize("sensor_range", SENSOR_RANGES)
def test_scripted_commands_match_per_robot_loop(sensor_range):
    # v = 0, negative v, clamped commands, turns wrapping past +-pi
    config = _config(robot_count=90, seed=5, w_max=1.0, sensor_range=sensor_range)
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


@pytest.mark.parametrize("sensor_range", SENSOR_RANGES)
def test_obstacle_map_matches_per_robot_loop(tmp_path, sensor_range):
    map_path = _obstacle_p2(tmp_path, 128, seed=3)
    config = _config(
        robot_count=80,
        arena_width=None,
        arena_height=None,
        map_path=map_path,
        robot_radius=3.0,
        sensor_range=sensor_range,
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


@pytest.mark.parametrize("sensor_range", SENSOR_RANGES)
def test_centres_exactly_two_radii_apart(sensor_range):
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
        sensor_range=sensor_range,
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


def test_single_file_queue_resolves_as_one_lower_id_chain():
    r = 4.0
    # Robots 2r + 1 apart: a follower's candidate is 7 px from the snapshot
    # of the next-lower id ahead of it and 9 px from that robot's candidate,
    # so the follower is in the residue and moves iff that robot moves.
    gap = 2 * r + 1.0
    poses = []
    commands = []
    # Queue 0-11 drives into the left border: the head is blocked by the
    # wall and every follower by the robot ahead, one link at a time.
    for k in range(12):
        poses.append((r + gap * k, 30.0, -math.pi))
        commands.append((2.0, 0.0))
    # Queue 12-23 has a free head, so the chain moves, up to the robot 18
    # that stands: 19 is canceled in arrays, which blocks 20-23 in turn.
    for k in range(12):
        poses.append((60.0 + gap * k, 70.0, -math.pi))
        commands.append((0.0, 0.0) if k == 6 else (2.0, 0.0))
    config = _config(
        robot_count=len(poses),
        spawn_positions=tuple(poses),
        robot_radius=r,
        arena_width=200,
        arena_height=100,
    )
    sim = Simulation(config, controller=FixedController(commands))
    sim.step()
    collided = [i for i, b in enumerate(sim.state.bodies) if b.collided_last_tick]
    assert collided == [*range(12), 19, 20, 21, 22, 23]
    # the residue: all of queue 0-11 and all of 12-23 but its head and 19
    assert sim.state.metrics.serial_moves == 12 + 10
    serial, _ = assert_matches_reference(config, lambda: FixedController(commands), ticks=40)
    assert serial >= 40 * 12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_phase_four_is_independent_of_pair_order(tmp_path, seed):
    # A crowd on an obstacle map, with commands past the limits in both
    # directions: each tick, `_resolve_moves` gets the pairs of the record
    # as the search returns it and shuffled and flipped, put in id order as
    # the engine does.
    from swarmsim.engine import _CONTACT_MARGIN, apply_commands
    from swarmsim.sensing import _pairs_within

    config = _config(
        robot_count=80,
        seed=seed,
        arena_width=None,
        arena_height=None,
        map_path=_obstacle_p2(tmp_path, 96, seed=seed),
        robot_radius=3.0,
    )
    sim = Simulation(config)
    rng = np.random.default_rng(seed)
    search = shuffled_pair_search(seed)
    reach = 2.0 * config.robot_radius + 2.0 * config.v_max + _CONTACT_MARGIN
    residue = 0
    for _ in range(20):
        state = sim.state
        xs, ys, thetas = state.xs, state.ys, state.thetas
        v = config.v_max * rng.uniform(-1.5, 3.0, xs.size)
        w = config.w_max * rng.uniform(-2.0, 2.0, xs.size)
        cx, cy, _ = apply_commands(xs, ys, thetas, v, w, sim.limits)
        a, b = _pairs_within(xs, ys, reach)[:2]
        want = sim._resolve_moves(xs, ys, cx, cy, np.minimum(a, b), np.maximum(a, b))
        for _ in range(2):
            a, b = search(xs, ys, reach)[:2]
            got = sim._resolve_moves(xs, ys, cx, cy, np.minimum(a, b), np.maximum(a, b))
            assert all(np.array_equal(g, e) for g, e in zip(got[:3], want[:3]))
            assert got[3] == want[3]
        residue += want[3]
        sim.step()
    assert residue > 0  # the serial residue ran


@pytest.mark.parametrize(
    "seed, jammed",
    [pytest.param(1, False, id="1"), pytest.param(2, False, id="2"), pytest.param(3, True, id="jammed")],
)
def test_tick_is_independent_of_pair_order(monkeypatch, tmp_path, seed, jammed):
    # The whole tick, sensing and phase 4, on a record shuffled and half
    # flipped every tick, against the search's own record. In the jammed
    # crowd (150 random walkers on 128 x 128, of whom 3-8% move a tick
    # after the first few) phase 1 carries the shuffled record over and
    # searches only the moved robots' pairs, shuffled too.
    from swarmsim import engine

    if jammed:
        config = _config(robot_count=150, seed=seed)
    else:
        config = _config(
            robot_count=80,
            seed=seed,
            arena_width=None,
            arena_height=None,
            map_path=_obstacle_p2(tmp_path, 96, seed=seed),
            robot_radius=3.0,
        )
    want = Simulation(config)
    digests = [state_digest(want.step()) for _ in range(20)]
    shuffled = shuffled_pair_search(seed)
    restricted = []

    def spy(xs, ys, reach, ids=None):
        if ids is not None:
            restricted.append(ids.size)
        return shuffled(xs, ys, reach, ids)

    monkeypatch.setattr(engine, "_pairs_within", spy)
    got = Simulation(config)
    for digest in digests:
        assert state_digest(got.step()) == digest
    assert got.state.metrics.serial_moves > 0
    if jammed:
        assert len(restricted) >= 15 and 0 < sum(restricted) < 0.1 * 150 * 20


def test_tick_with_a_serial_residue_builds_no_pose_or_body(monkeypatch):
    sim = Simulation(_config())
    built = []
    for cls in (RobotBody, Pose):

        def counting(self, *args, _init=cls.__init__, **kw):
            built.append(type(self).__name__)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    for _ in range(10):
        sim.step()
    assert sim.state.metrics.serial_moves > 0
    assert built == []
