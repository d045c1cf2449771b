"""Simulation loop: spawning, tick phases, determinism, fault handling."""

from __future__ import annotations

import dataclasses
import math
import platform
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from swarmsim import (
    ActuatorCommand,
    BraitenbergController,
    Broadcast,
    ConfigError,
    ControlInput,
    ControlOutput,
    ControllerError,
    Pose,
    RngStream,
    RobotBody,
    SimConfig,
    SimState,
    Simulation,
    SpawnError,
    generate_arena,
    run,
    sense_batch,
    spawn,
    state_digest,
    stream_seed,
    wrap_angle,
)
from swarmsim.engine import _BLOCK_READINGS
from swarmsim.rng import MASK64, uniform_batch

from conftest import assert_pair_offsets, child_env


def make_config(**kwargs) -> SimConfig:
    base = dict(
        robot_count=3,
        seed=42,
        ticks=10,
        controller_type="random_walk",
        arena_width=256,
        arena_height=256,
    )
    base.update(kwargs)
    return SimConfig(**base)


class ConstantController:
    """Test plugin: fixed command, optional broadcast every tick."""

    def __init__(self, v=1.0, w=0.0, broadcast=None):
        self.v = v
        self.w = w
        self.broadcast = broadcast
        self.seen_inputs = []

    def step(self, control_input, rng):
        self.seen_inputs.append(control_input)
        return ControlOutput(ActuatorCommand(self.v, self.w), self.broadcast)


# --- spawn ---------------------------------------------------------------------


def test_spawn_zero_robots():
    config = make_config(robot_count=0)
    assert [a.tolist() for a in spawn(config, generate_arena(64, 64), RngStream(1))] == [[]] * 3


def test_spawn_single_robot_valid(arena100):
    config = make_config(robot_count=1)
    xs, ys, thetas = spawn(config, arena100, RngStream(9))
    assert len(xs) == 1
    assert arena100.disc_free(float(xs[0]), float(ys[0]), config.robot_radius)
    assert -math.pi <= thetas[0] < math.pi


def test_spawn_deterministic(arena100):
    config = make_config(robot_count=5)
    first = spawn(config, arena100, RngStream(123))
    second = spawn(config, arena100, RngStream(123))
    assert [a.tolist() for a in first] == [a.tolist() for a in second]


def test_spawn_respects_spacing(arena100):
    config = make_config(robot_count=30, robot_radius=3.0)
    xs, ys, _ = spawn(config, arena100, RngStream(7))
    centers = list(zip(xs.tolist(), ys.tolist()))
    for i, (ax, ay) in enumerate(centers):
        for bx, by in centers[i + 1 :]:
            dist = math.hypot(ax - bx, ay - by)
            assert dist >= 2 * 3.0


def test_spawn_density_error_reports_progress():
    config = make_config(robot_count=50, robot_radius=4.0)
    grid = generate_arena(20, 20)
    with pytest.raises(SpawnError, match=r"placed \d+ of 50"):
        spawn(config, grid, RngStream(3))


def test_spawn_ids_dense_in_acceptance_order():
    config = make_config(robot_count=8, arena_width=100, arena_height=100)
    bodies = Simulation(config).state.bodies
    assert [b.id for b in bodies] == list(range(8))


def test_explicit_positions_bypass_sampling(arena100):
    config = make_config(
        robot_count=2,
        spawn_positions=((20.0, 20.0, 0.5), (40.0, 40.0, -1.0)),
    )
    xs, _, thetas = spawn(config, arena100, RngStream(1))
    assert xs[0] == 20.0 and thetas[1] == -1.0


def test_explicit_positions_validated(arena100):
    config = make_config(
        robot_count=2,
        robot_radius=4.0,
        spawn_positions=((20.0, 20.0, 0.0), (21.0, 20.0, 0.0)),
    )
    with pytest.raises(SpawnError, match="closer than two radii"):
        spawn(config, arena100, RngStream(1))
    config = make_config(
        robot_count=1, robot_radius=4.0, spawn_positions=((1.0, 1.0, 0.0),)
    )
    with pytest.raises(SpawnError, match="wall"):
        spawn(config, arena100, RngStream(1))


def _explicit(poses, **kwargs) -> SimConfig:
    return make_config(robot_count=len(poses), robot_radius=4.0, spawn_positions=poses, **kwargs)


def test_explicit_positions_wall_before_robot_at_same_index(arena100):
    # Position 1 is 4 px from position 0 and 2 px from the border wall.
    config = _explicit(((6.0, 20.0, 0.0), (2.0, 20.0, 0.0)))
    message = r"^spawn\.positions\[1\] overlaps a wall at \(2\.0, 20\.0\)$"
    with pytest.raises(SpawnError, match=message):
        spawn(config, arena100, RngStream(1))


def test_explicit_positions_name_first_index_and_lowest_earlier_partner(arena100):
    # Position 4 is 6 px from both 1 and 3, which lie right and left of it;
    # the pair (0, 5) has the lowest member but its later index comes after
    # 4, and position 6 sits in the wall even later.
    poses = (
        (80.0, 80.0, 0.0),
        (56.0, 50.0, 0.0),
        (20.0, 20.0, 0.0),
        (44.0, 50.0, 0.0),
        (50.0, 50.0, 0.0),
        (84.0, 80.0, 0.0),
        (1.0, 1.0, 0.0),
    )
    with pytest.raises(
        SpawnError, match=r"^spawn\.positions\[4\] is closer than two radii to robot 1$"
    ):
        spawn(_explicit(poses), arena100, RngStream(1))


def test_explicit_positions_lattice_overlap_at_last_index():
    # 64 x 64 positions 10 px apart; the last one moves to 1 px right of
    # position 453 (row 7, column 5), still 9 px from that row's column 6.
    poses = [(10.0 + 10.0 * (i % 64), 10.0 + 10.0 * (i // 64), 0.0) for i in range(4096)]
    config = _explicit(tuple(poses), arena_width=660, arena_height=660)
    assert len(spawn(config, generate_arena(660, 660), RngStream(1))[0]) == 4096
    poses[-1] = (61.0, 80.0, 0.0)
    config = _explicit(tuple(poses), arena_width=660, arena_height=660)
    with pytest.raises(
        SpawnError, match=r"^spawn\.positions\[4095\] is closer than two radii to robot 453$"
    ):
        spawn(config, generate_arena(660, 660), RngStream(1))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_explicit_positions_non_finite_rejected(value, slot):
    # Checked when the config is built, before any world or spawn.
    bad = [20.0, 40.0, 0.5]
    bad[slot] = value
    with pytest.raises(ConfigError, match=r"^spawn\.positions\[1\] is not finite"):
        _explicit(((20.0, 20.0, 0.0), tuple(bad)))


@pytest.mark.parametrize("far", [1e18, 1e300])
def test_explicit_positions_far_off_rejected_without_warnings(arena100, far):
    # Far-off positions are bounded before any integer cast; two of them
    # share an edge bin of the pair search.
    poses = ((50.0, 50.0, 0.0), (far, far, 0.0), (-far, far, 0.0), (far / 2, far, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape(f"spawn.positions[1] overlaps a wall at ({far!r}, {far!r})")
        with pytest.raises(SpawnError, match=f"^{message}$"):
            spawn(_explicit(poses), arena100, RngStream(1))
        poses = ((50.0, 50.0, 0.0), (52.0, 50.0, 0.0), (far, -far, 0.0), (-far, -far, 0.0))
        message = r"^spawn\.positions\[1\] is closer than two radii to robot 0$"
        with pytest.raises(SpawnError, match=message):
            spawn(_explicit(poses), arena100, RngStream(1))


# --- state from set-up on ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(robot_count=40),
        dict(robot_count=3, spawn_positions=((20.0, 20.0, 0.5), (40.0, 40.0, 4.0), (60.0, 9.0, -7.0))),
    ],
)
def test_setup_builds_no_bodies_and_first_read_matches_spawn(monkeypatch, kwargs):
    config = make_config(**kwargs)
    built = []
    for cls in (RobotBody, Pose, RngStream):

        def counting(self, *args, _init=cls.__init__, **kw):
            built.append(type(self).__name__)
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    sim = Simulation(config)
    assert built == ["RngStream"]  # the master stream; robot streams are one array
    bodies = sim.state.bodies
    assert built.count("RobotBody") == built.count("Pose") == config.robot_count
    xs, ys, thetas = spawn(config, generate_arena(256, 256), RngStream(config.seed))
    assert [b.id for b in bodies] == list(range(config.robot_count))
    assert [(b.pose.x, b.pose.y, b.pose.theta) for b in bodies] == list(
        zip(xs.tolist(), ys.tolist(), thetas.tolist())
    )
    assert all(b.radius == config.robot_radius for b in bodies)
    assert not any(b.collided_last_tick for b in bodies)
    if config.spawn_positions is not None:
        assert thetas.tolist() == [0.5, wrap_angle(4.0), wrap_angle(-7.0)]


def test_bodies_built_anew_on_every_read_from_the_arrays():
    config = make_config(robot_count=12, seed=4)
    sim = Simulation(config)
    state = sim.state

    def rows():
        return list(
            zip(state.xs.tolist(), state.ys.tolist(), state.thetas.tolist(), state.collided.tolist())
        )

    def seen(bodies):
        return [(b.pose.x, b.pose.y, b.pose.theta, b.collided_last_tick) for b in bodies]

    first = state.bodies
    before = rows()
    assert seen(first) == before
    first[0].pose = Pose(-5.0, -5.0, 0.0)  # reaches neither the arrays nor the tick
    first[1].collided_last_tick = True
    assert rows() == before
    again = state.bodies
    assert again is not first and seen(again) == before
    sim.step()
    untouched = Simulation(config)
    untouched.step()
    assert state_digest(state) == state_digest(untouched.state)
    after = state.bodies
    assert after is not state.bodies
    assert seen(after) == rows()
    assert [row[:3] for row in rows()] != [row[:3] for row in before]
    sim.check_invariants()


@pytest.mark.parametrize("controller", ["random_walk", "braitenberg"])
def test_open_arena_beyond_int32_runs(controller):
    # width + height + 2 exceeds 2**31 - 1; the arena holds no map-sized
    # array, and its clearance is tested on one element, not scanned.
    config = make_config(
        robot_count=50, controller_type=controller, arena_width=3_000_000_000, arena_height=64
    )
    sim = Simulation(config)
    for _ in range(5):
        sim.step()
        sim.check_invariants()
    assert sim.state.tick == 5


# --- tick ----------------------------------------------------------------------


def test_zero_robots_tick_only_advances_clock():
    sim = Simulation(make_config(robot_count=0))
    digest_before = state_digest(sim.state)
    sim.step()
    assert sim.state.tick == 1
    assert sim.state.metrics.ticks_run == 1
    assert state_digest(sim.state) == digest_before


def test_constant_controller_advances_ten_px_in_ten_ticks():
    config = make_config(robot_count=1, spawn_positions=((100.0, 100.0, 0.0),))
    sim = Simulation(config, controller=ConstantController(v=1.0, w=0.0))
    for _ in range(10):
        sim.step()
    body = sim.state.bodies[0]
    assert body.pose.x == pytest.approx(110.0)
    assert body.pose.y == pytest.approx(100.0)
    assert sim.state.metrics.canceled_moves == 0


def test_same_seed_same_digest_every_tick():
    config = make_config(robot_count=6, ticks=50)
    a = Simulation(config)
    b = Simulation(config)
    for _ in range(50):
        a.step()
        b.step()
        assert state_digest(a.state) == state_digest(b.state)


def test_different_seeds_diverge():
    a = Simulation(make_config(robot_count=6, seed=1))
    b = Simulation(make_config(robot_count=6, seed=2))
    for _ in range(3):
        a.step()
        b.step()
    assert state_digest(a.state) != state_digest(b.state)


def test_collision_flag_reaches_controller_next_tick():
    # robot glued to a wall, driving straight at it
    config = make_config(
        robot_count=1, robot_radius=4.0, spawn_positions=((5.0, 128.0, -math.pi),)
    )
    ctrl = ConstantController(v=2.0, w=0.0)
    sim = Simulation(config, controller=ctrl)
    sim.step()
    assert sim.state.bodies[0].collided_last_tick
    assert sim.state.metrics.canceled_moves == 1
    sim.step()
    assert ctrl.seen_inputs[1].collided_last_tick


def test_canceled_moves_counts_resolve_outcomes():
    config = make_config(
        robot_count=2,
        robot_radius=4.0,
        spawn_positions=((100.0, 100.0, 0.0), (110.0, 100.0, -math.pi)),
    )
    # both drive toward each other; the gap is 10 - 2*2 = 2 px of slack each tick
    sim = Simulation(config, controller=ConstantController(v=2.0))
    for _ in range(5):
        sim.step()
    metrics = sim.state.metrics
    assert metrics.canceled_moves > 0
    left, right = sim.state.bodies
    gap = right.pose.x - left.pose.x
    assert gap >= 8.0


def test_serial_moves_count_contested_robots_only():
    config = make_config(
        robot_count=3,
        robot_radius=4.0,
        spawn_positions=((100.0, 100.0, 0.0), (110.0, 100.0, -math.pi), (200.0, 200.0, 0.0)),
    )
    # robots 0 and 1 close in on each other; robot 2 drives in open space
    sim = Simulation(config, controller=ConstantController(v=2.0))
    for _ in range(4):
        sim.step()
    # Tick 1: neither robot is within 2r of the other's snapshot, so both go
    # through the serial path; robot 0 moves and robot 1 then hits it. From
    # tick 2 on, each candidate lies within 2r of the other's snapshot (and,
    # for robot 1, of robot 0's candidate too), so both are canceled in arrays.
    assert sim.state.metrics.serial_moves == 2
    assert sim.state.metrics.canceled_moves == 1 + 2 * 3
    report = run(make_config(robot_count=2, ticks=3))
    assert f"serial_moves={report.metrics.serial_moves}" in report.format_block()


# A block of 14 x 14 robots 0.2 px further apart than touching, where only
# the outer ring can move, and nine robots in open space (ids 196-204).
_JAM = tuple((20.0 + 8.2 * c, 20.0 + 8.2 * r, 0.0) for r in range(14) for c in range(14))
_OPEN = tuple((x, y, 0.0) for y in (170.0, 200.0, 230.0) for x in (170.0, 200.0, 230.0))


def _jammed_config() -> SimConfig:
    """205 random walkers of whom 15-35 move a tick over the first 12
    ticks: phase 1 carries its pair record over from the second tick on."""
    return make_config(robot_count=205, seed=5, spawn_positions=_JAM + _OPEN)


def _searched_per_tick(sim: Simulation, ticks: int) -> list[int]:
    counts = []
    for _ in range(ticks):
        before = sim.state.metrics.searched_robots
        sim.step()
        counts.append(sim.state.metrics.searched_robots - before)
    return counts


def test_searched_robots_count_every_robot_then_the_moved_ones():
    sim = Simulation(_jammed_config())
    counts = _searched_per_tick(sim, 8)
    assert counts[0] == 205
    assert all(0 < c <= 0.25 * 205 for c in counts[1:])
    # Every robot that moved in a tick is searched at the next.
    xs = sim.state.xs.copy()
    ys = sim.state.ys.copy()
    sim.step()
    moved = (sim.state.xs != xs) | (sim.state.ys != ys)
    assert _searched_per_tick(sim, 1) == [int(np.count_nonzero(moved))]
    report = run(dataclasses.replace(_jammed_config(), ticks=3))
    assert report.metrics.searched_robots == 205 + sum(counts[1:3])
    assert f"searched_robots={report.metrics.searched_robots}" in report.format_block()


def test_carried_pair_record_equals_a_fresh_search(monkeypatch):
    # Every tick's record, carried or searched, holds each pair within the
    # reach once, with the offsets of the snapshot it serves, bit for bit.
    from swarmsim import engine
    from swarmsim.sensing import _pairs_within

    served = []

    def spy(grid, xs, ys, thetas, radius, spec, pairs=None):
        served.append((xs, ys, pairs))
        return sense_batch(grid, xs, ys, thetas, radius, spec, pairs=pairs)

    monkeypatch.setattr(engine, "sense_batch", spy)
    config = _jammed_config()
    sim = Simulation(config)
    assert sum(c < 205 for c in _searched_per_tick(sim, 30)) == 29
    reach = config.sensor_range + 2.0 * config.robot_radius
    for xs, ys, (a, b, d2, dx, dy) in served:
        assert_pair_offsets(xs, ys, a, b, d2, dx, dy)
        got = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        assert len(got) == a.size
        want = _pairs_within(xs, ys, reach)[:2]
        assert got == set(zip(np.minimum(*want).tolist(), np.maximum(*want).tolist()))


def _restarted(config: SimConfig, state: SimState) -> Simulation:
    """A new Simulation of `config` whose state is a copy of `state`."""
    sim = Simulation(config)
    sim.state = SimState(
        tick=state.tick,
        grid=state.grid,
        radius=state.radius,
        xs=state.xs.copy(),
        ys=state.ys.copy(),
        thetas=state.thetas.copy(),
        inboxes=[list(inbox) for inbox in state.inboxes],
        rng_states=state.rng_states,
    )
    sim.state.collided = state.collided.copy()
    return sim


def _edit_in_place(sim: Simulation) -> None:
    # Robot 196 onto robot 200, 1 px to its right.
    xs, ys = sim.state.xs, sim.state.ys
    xs[196], ys[196] = xs[200] + 1.0, ys[200]


def _replace_ys(sim: Simulation) -> None:
    # Robot 197, which set out 30 px below robot 200, 1 px above it.
    ys = sim.state.ys.copy()
    ys[197] = ys[200] + 1.0
    sim.state.ys = ys


def _rewind_edited(sim: Simulation) -> None:
    # Back to the arrays the last tick searched, with robot 196 moved in
    # them, in place, onto robot 200: only private copies of those arrays
    # show that it moved since.
    searched = sim.state.xs, sim.state.ys
    sim.step()
    xs, ys = searched
    xs[196], ys[196] = xs[200] + 1.0, ys[200]
    sim.state.xs, sim.state.ys = xs, ys


def _other_count(sim: Simulation) -> None:
    # The same poses but the last robot's, which the robots before keep.
    state = sim.state
    n = state.xs.size - 1
    sim.state = SimState(
        tick=state.tick,
        grid=state.grid,
        radius=state.radius,
        xs=state.xs[:n].copy(),
        ys=state.ys[:n].copy(),
        thetas=state.thetas[:n].copy(),
        inboxes=state.inboxes[:n],
        rng_states=state.rng_states[:n],
    )


def _float32_xs(sim: Simulation) -> None:
    # x rounded to float32: a search on these arrays computes in float32,
    # and phase 4 returns float64 arrays again.
    sim.state.xs = sim.state.xs.astype(np.float32)


@pytest.mark.parametrize(
    "edit, full_searches",
    [
        pytest.param(edit, full, id=edit.__name__[1:])
        for edit, full in (
            (_edit_in_place, 0),
            (_replace_ys, 0),
            (_rewind_edited, 0),
            (_other_count, 1),
            (_float32_xs, 2),
        )
    ],
)
def test_state_edits_between_ticks_reach_the_next_tick(edit, full_searches):
    config = _jammed_config()
    sim = Simulation(config)
    for _ in range(3):
        sim.step()
    edit(sim)
    fresh = _restarted(config, sim.state)
    counts = []
    for _ in range(6):
        before = sim.state.metrics.searched_robots
        assert state_digest(sim.step()) == state_digest(fresh.step())
        assert np.array_equal(sim.state.collided, fresh.state.collided)
        counts.append(sim.state.metrics.searched_robots - before)
    # Every robot is searched on the first tick after a new robot count,
    # and on the first two after float32 arrays (in float32, then against
    # them); every other tick carries the record over.
    n = sim.state.xs.size
    assert [c == n for c in counts] == [True] * full_searches + [False] * (6 - full_searches)


def test_messages_delivered_next_tick_sorted():
    config = make_config(
        robot_count=3,
        spawn_positions=((50.0, 50.0, 0.0), (60.0, 50.0, 0.0), (200.0, 200.0, 0.0)),
    )
    ctrl = ConstantController(v=0.0, broadcast=Broadcast(b"ping", 30.0))
    sim = Simulation(config, controller=ctrl)
    sim.step()
    # delivery happened at end of tick 0; nothing in the inputs seen at tick 0
    assert all(inp.inbox == () for inp in ctrl.seen_inputs[:3])
    assert sim.state.metrics.messages_delivered == 2
    sim.step()
    by_robot = {}
    for inp in ctrl.seen_inputs[3:]:
        by_robot[len(by_robot)] = inp
    assert [m.sender for m in by_robot[0].inbox] == [1]
    assert [m.sender for m in by_robot[1].inbox] == [0]
    assert by_robot[2].inbox == ()
    assert sim.state.metrics.messages_delivered == 4  # two per tick, two ticks


def test_payload_cap_enforced_with_robot_and_tick():
    config = make_config(
        robot_count=1, spawn_positions=((50.0, 50.0, 0.0),), payload_cap=8
    )
    ctrl = ConstantController(v=0.0, broadcast=Broadcast(b"123456789", 10.0))
    sim = Simulation(config, controller=ctrl)
    with pytest.raises(ControllerError, match=r"robot 0 tick 0.*cap"):
        sim.step()


def test_default_payload_cap_is_4096():
    config = make_config(robot_count=1, spawn_positions=((50.0, 50.0, 0.0),))
    ok = Simulation(config, controller=ConstantController(v=0.0, broadcast=Broadcast(b"x" * 4096, 5.0)))
    ok.step()
    over = Simulation(config, controller=ConstantController(v=0.0, broadcast=Broadcast(b"x" * 4097, 5.0)))
    with pytest.raises(ControllerError, match="4097"):
        over.step()


def test_non_finite_command_aborts_with_robot_and_tick():
    config = make_config(robot_count=2, spawn_positions=((50.0, 50.0, 0.0), (80.0, 80.0, 0.0)))
    sim = Simulation(config, controller=ConstantController(v=math.nan))
    with pytest.raises(ControllerError, match=r"robot 0 tick 0"):
        sim.step()


def test_non_finite_batch_command_aborts_with_robot_and_tick():
    # A built-in controller built by hand bypasses the config's finite weights.
    config = make_config(controller_type="braitenberg")
    sim = Simulation(config)
    sim.controller = BraitenbergController(sim.limits, sim.spec, (math.nan,) * 8)
    with pytest.raises(
        ControllerError, match=r"^robot 0 tick 0: non-finite command \(v=[0-9.]+, w=nan\)$"
    ):
        sim.step()


class ScriptedController:
    """Test plugin: returns outputs[i] for robot i, counting calls in id order."""

    def __init__(self, outputs):
        self.outputs = outputs
        self.calls = 0

    def step(self, control_input, rng):
        output = self.outputs[self.calls % len(self.outputs)]
        self.calls += 1
        return output


def test_command_that_is_not_an_actuator_command_is_named():
    config = make_config(robot_count=1, spawn_positions=((50.0, 50.0, 0.0),))
    sim = Simulation(config, controller=ScriptedController([ControlOutput((1.0, 0.0))]))
    with pytest.raises(
        ControllerError, match=r"^robot 0 tick 0: command is tuple, not ActuatorCommand$"
    ):
        sim.step()


def test_first_faulty_robot_is_named_whatever_the_fault():
    # Robot 1 commands NaN, robot 4 broadcasts over the cap: robot 1 comes first.
    config = make_config(
        robot_count=5,
        spawn_positions=tuple((20.0 + 30.0 * i, 50.0, 0.0) for i in range(5)),
        payload_cap=8,
    )
    ok = ControlOutput(ActuatorCommand(0.0, 0.0))
    outputs = [
        ok,
        ControlOutput(ActuatorCommand(math.nan, 0.0)),
        ok,
        ok,
        ControlOutput(ActuatorCommand(0.0, 0.0), Broadcast(b"x" * 9, 5.0)),
    ]
    sim = Simulation(config, controller=ScriptedController(outputs))
    with pytest.raises(
        ControllerError, match=r"^robot 1 tick 0: non-finite command \(v=nan, w=0\.0\)$"
    ):
        sim.step()


@pytest.mark.parametrize(
    "output, message",
    [
        (
            ControlOutput(ActuatorCommand(0.0, 0.0), Broadcast(None, 5.0)),
            r"broadcast payload is NoneType, not bytes",
        ),
        (
            ControlOutput(ActuatorCommand(0.0, 0.0), Broadcast("abc", 5.0)),
            r"broadcast payload is str, not bytes",
        ),
        (
            ControlOutput(ActuatorCommand("1", 0.0)),
            r"non-finite command \(v='1', w=0\.0\)",
        ),
        (
            ControlOutput(ActuatorCommand(0.0, 0.0), Broadcast(b"x", "5")),
            r"broadcast radius '5' invalid",
        ),
        (
            ControlOutput(ActuatorCommand(0.0, 0.0), "hello"),
            r"broadcast is str, not Broadcast",
        ),
    ],
    ids=["payload-none", "payload-str", "command-str", "radius-str", "broadcast-str"],
)
def test_ill_typed_output_is_a_controller_error_naming_the_robot(output, message):
    config = make_config(
        robot_count=3, spawn_positions=tuple((20.0 + 30.0 * i, 50.0, 0.0) for i in range(3))
    )
    ok = ControlOutput(ActuatorCommand(0.0, 0.0))
    sim = Simulation(config, controller=ScriptedController([ok, output, ok]))
    with pytest.raises(ControllerError, match=rf"^robot 1 tick 0: {message}$"):
        sim.step()


@pytest.mark.parametrize(
    "output, message",
    [
        (
            ControlOutput(ActuatorCommand(10**400, 0.0)),
            rf"non-finite command \(v={10**400}, w=0\.0\)",
        ),
        (
            ControlOutput(ActuatorCommand(0.0, -(10**400))),
            rf"non-finite command \(v=0\.0, w=-{10**400}\)",
        ),
        (
            ControlOutput(ActuatorCommand(0.0, 0.0), Broadcast(b"x", 10**400)),
            rf"broadcast radius {10**400} invalid",
        ),
    ],
    ids=["v", "w", "radius"],
)
def test_int_too_large_for_a_float_is_a_controller_error(output, message):
    # math.isfinite raises OverflowError on such an int; it reads as non-finite.
    config = make_config(
        robot_count=3, spawn_positions=tuple((20.0 + 30.0 * i, 50.0, 0.0) for i in range(3))
    )
    ok = ControlOutput(ActuatorCommand(0.0, 0.0))
    sim = Simulation(config, controller=ScriptedController([ok, output, ok]))
    with pytest.raises(ControllerError, match=rf"^robot 1 tick 0: {message}$"):
        sim.step()


class RaisingAtController(ScriptedController):
    """Test plugin: as ScriptedController, but robot `raise_at`'s step raises."""

    def __init__(self, outputs, raise_at):
        super().__init__(outputs)
        self.raise_at = raise_at
        self.stepped = []

    def step(self, control_input, rng):
        self.stepped.append(self.calls)
        if self.calls == self.raise_at:
            raise RuntimeError("controller bug")
        return super().step(control_input, rng)


def test_faulty_output_stops_the_tick_before_later_robots_step():
    # Robot 3 commands NaN and robot 7's step raises: robot 3's fault is
    # reported and robot 7 never runs.
    config = make_config(
        robot_count=10,
        spawn_positions=tuple((20.0 + 30.0 * i, 50.0, 0.0) for i in range(10)),
        arena_width=400,
    )
    ok = ControlOutput(ActuatorCommand(0.0, 0.0))
    outputs = [ok] * 10
    outputs[3] = ControlOutput(ActuatorCommand(math.nan, 0.0))
    ctrl = RaisingAtController(outputs, raise_at=7)
    sim = Simulation(config, controller=ctrl)
    with pytest.raises(
        ControllerError, match=r"^robot 3 tick 0: non-finite command \(v=nan, w=0\.0\)$"
    ):
        sim.step()
    assert ctrl.stepped == [0, 1, 2, 3]


def test_fault_in_a_later_block_stops_the_tick_at_that_robot():
    # Readings and inputs are built a block of robots at a time; robot 70 sits
    # inside the third block of an 8-ray belt. Its fault is named, and robot
    # 71, whose step would raise, never runs.
    config = make_config(
        robot_count=100,
        spawn_positions=tuple(
            (20.0 + 30.0 * (i % 10), 20.0 + 30.0 * (i // 10), 0.0) for i in range(100)
        ),
        arena_width=400,
        arena_height=400,
    )
    assert 64 <= 70 < 96 and _BLOCK_READINGS // 8 == 32
    ok = ControlOutput(ActuatorCommand(0.0, 0.0))
    outputs = [ok] * 100
    outputs[70] = ControlOutput(ActuatorCommand(0.0, math.inf))
    ctrl = RaisingAtController(outputs, raise_at=71)
    sim = Simulation(config, controller=ctrl)
    with pytest.raises(
        ControllerError, match=r"^robot 70 tick 0: non-finite command \(v=0\.0, w=inf\)$"
    ):
        sim.step()
    assert ctrl.stepped == list(range(71))


class RecordingBeacon:
    """Test plugin: records every ControlInput; robot i (stepped in id order)
    drives and turns by id and broadcasts with a radius that varies by id
    and tick."""

    def __init__(self, robots: int) -> None:
        self.robots = robots
        self.inputs = []
        self.sent = []

    def step(self, control_input, rng):
        robot = len(self.inputs) % self.robots
        self.inputs.append(control_input)
        broadcast = None
        if (robot + control_input.tick) % 3:
            broadcast = Broadcast(bytes([robot % 256]), 4.0 + (robot * 5 + control_input.tick) % 17)
        self.sent.append(broadcast)
        w = 0.3 * rng.uniform() - 0.15
        return ControlOutput(ActuatorCommand(2.0 if robot % 4 else 0.5, w), broadcast)


def test_plugin_inputs_equal_a_per_robot_oracle(tmp_path):
    from conftest import EPUCK_ANGLES
    from test_controllers import deliver_messages_loop
    from test_move_resolution import reference_readings

    # A walled crowd: border, bars and a block, 180 robots, the uneven belt.
    occ = np.zeros((120, 140), dtype=bool)
    occ[[0, -1], :] = True
    occ[:, [0, -1]] = True
    occ[30:33, 10:90] = True
    occ[60:110, 100:104] = True
    occ[80:95, 30:50] = True
    map_path = tmp_path / "crowd.pgm"
    map_path.write_bytes(b"P5\n140 120\n255\n" + np.where(occ, 0, 255).astype(np.uint8).tobytes())
    config = make_config(
        robot_count=180,
        robot_radius=2.5,
        seed=12,
        map_path=str(map_path),
        arena_width=None,
        arena_height=None,
        sensor_count=len(EPUCK_ANGLES),
        sensor_angles=EPUCK_ANGLES,
        sensor_range=30.0,
    )
    n = config.robot_count
    ctrl = RecordingBeacon(n)
    sim = Simulation(config, controller=ctrl)
    inboxes = [[] for _ in range(n)]
    kinds = set()
    for tick in range(10):
        state = sim.state
        normalized, hits = sense_batch(
            state.grid, state.xs, state.ys, state.thetas, config.robot_radius, sim.spec
        )
        collided = state.collided.tolist()
        expected = [
            ControlInput(
                reference_readings(normalized[i], hits[i]), collided[i], tuple(inboxes[i]), tick
            )
            for i in range(n)
        ]
        sim.step()
        got = ctrl.inputs[-n:]
        for i, (have, want) in enumerate(zip(got, expected)):
            assert have == want, (tick, i)
            assert type(have.readings) is tuple and type(have.inbox) is tuple
            assert type(have.collided_last_tick) is bool
            kinds.update(r.kind for r in have.readings)
        points = list(zip(sim.state.xs.tolist(), sim.state.ys.tolist()))
        inboxes, _ = deliver_messages_loop(points, ctrl.sent[-n:])
    assert kinds == {"none", "wall", "robot"}
    assert any(i.collided_last_tick for i in ctrl.inputs[n:])
    assert sum(len(i.inbox) for i in ctrl.inputs[-n:]) > n


class StateSetter:
    """Test plugin: robot i (stepped in id order) turns by one draw of its
    stream, then on some ticks sets the stream's state to -1 or 2**64 + 5,
    which its next draw masks to 64 bits."""

    def __init__(self, robots: int) -> None:
        self.robots = robots
        self.commands = []

    def step(self, control_input, rng):
        robot = len(self.commands) % self.robots
        u = rng.uniform()
        phase = (robot + control_input.tick) % 5
        if phase == 0:
            rng.state = -1
        elif phase == 1:
            rng.state = 2**64 + 5
        self.commands.append(ActuatorCommand(2.0 * u, 0.4 * u - 0.2))
        return ControlOutput(self.commands[-1])


class OwnStreams:
    """Reference wrapper: steps `inner` on stream objects of its own, one per
    robot, that live across ticks, instead of the engine's shared one."""

    def __init__(self, inner, seeds) -> None:
        self.inner = inner
        self.streams = [RngStream(seed) for seed in seeds]
        self.calls = 0

    def step(self, control_input, rng):
        robot = self.calls % len(self.streams)
        self.calls += 1
        return self.inner.step(control_input, self.streams[robot])


def test_plugin_stream_state_is_written_back_masked():
    """40 robots with 8 rays step in blocks of 32 and 8."""
    config = make_config(robot_count=40, seed=21)
    n = config.robot_count
    plugin = StateSetter(n)
    sim = Simulation(config, controller=plugin)
    seeds = stream_seed(config.seed, np.arange(n, dtype=np.uint64)).tolist()
    reference = OwnStreams(StateSetter(n), seeds)
    ref_sim = Simulation(config, controller=reference)
    for tick in range(12):
        sim.step()
        ref_sim.step()
        assert plugin.commands == reference.inner.commands, tick
        assert state_digest(sim.state) == state_digest(ref_sim.state), tick
        assert sim.state.rng_states.tolist() == [s.state & MASK64 for s in reference.streams]
    assert {s.state for s in reference.streams} >= {-1, 2**64 + 5}
    assert len(set(plugin.commands)) > n


def test_sim_state_checks_its_stream_states():
    xs = np.array([10.0, 20.0, 30.0])

    def build(rng_states):
        grid = generate_arena(64, 64)
        return SimState(0, grid, 1.0, xs, xs.copy(), xs.copy(), [[]] * 3, rng_states)

    assert build([1, 2, MASK64]).rng_states.tolist() == [1, 2, MASK64]
    assert build([1, 2, MASK64]).rng_states.dtype == np.uint64
    # The state keeps its own copy: a tick advances it, not the caller's array.
    states = np.arange(3, dtype=np.uint64)
    state = build(states)
    uniform_batch(state.rng_states)
    assert states.tolist() == [0, 1, 2] and state.rng_states.tolist() != [0, 1, 2]
    for bad in (
        np.arange(2, dtype=np.uint64),
        np.zeros((3, 1), dtype=np.uint64),
        np.zeros((1, 3), dtype=np.uint64),
        np.uint64(5),
        [],
    ):
        with pytest.raises(ValueError, match=r"^rng_states shape .*, expected \(3,\)$"):
            build(bad)
    # The old form, one stream object per robot, fails here and not mid-tick.
    with pytest.raises(TypeError):
        build([RngStream(i) for i in range(3)])


def test_sim_state_steps_its_own_copy_of_read_only_streams():
    # A read-only broadcast of one state runs as a fresh array of it would,
    # and stays as it was.
    config = make_config(robot_count=3, seed=4, controller_type="random_walk")
    sim = Simulation(config)
    given = np.broadcast_to(np.uint64(5), (3,))
    sim.state = SimState(
        0, sim.state.grid, sim.state.radius, sim.state.xs, sim.state.ys,
        sim.state.thetas, [[]] * 3, given,
    )
    twin = Simulation(config)
    twin.state.rng_states[:] = 5
    for _ in range(3):
        sim.step()
        twin.step()
    assert state_digest(sim.state) == state_digest(twin.state)
    assert given.tolist() == [5, 5, 5]


def test_sim_state_checks_its_pose_shapes():
    xs = np.array([10.0, 20.0, 30.0])
    row = xs.reshape(1, 3)
    grid = generate_arena(64, 64)
    for poses in (
        (xs, xs[:2].copy(), xs.copy()),
        (xs, xs.copy(), np.zeros(4)),
        (xs, xs.reshape(3, 1), xs.copy()),
        (row, row, row),
    ):
        with pytest.raises(ValueError, match=r"^xs, ys and thetas shapes .*, expected one shape \(n,\)$"):
            SimState(0, grid, 1.0, *poses, [[]] * 3, np.zeros(3, dtype=np.uint64))



def test_sim_state_checks_its_inboxes_length():
    # A short list used to build ControlInputs without an inbox, and a
    # plugin failed mid-tick with AttributeError.
    xs = np.arange(5, dtype=np.float64) * 10.0 + 5.0
    grid = generate_arena(64, 64)
    streams = np.zeros(5, dtype=np.uint64)
    for inboxes in ([[]] * 3, [[]] * 6, []):
        message = rf"^inboxes length {len(inboxes)}, expected 5$"
        with pytest.raises(ValueError, match=message):
            SimState(0, grid, 1.0, xs, xs.copy(), xs.copy(), inboxes, streams)
    assert len(SimState(0, grid, 1.0, xs, xs.copy(), xs.copy(), [[]] * 5, streams).inboxes) == 5


@pytest.mark.parametrize("name", ["xs", "ys", "thetas"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sim_state_refuses_non_finite_poses(name, value):
    # Named at construction, with the lowest robot, instead of a cast error
    # deep in the tick.
    poses = {"xs": np.arange(5) * 10.0 + 5.0, "ys": np.full(5, 20.0), "thetas": np.zeros(5)}
    poses[name][[3, 1]] = value
    with pytest.raises(ValueError, match=rf"^{name}\[1\] is not finite: {value!r}$"):
        SimState(
            0, generate_arena(64, 64), 1.0, poses["xs"], poses["ys"], poses["thetas"],
            [[]] * 5, np.zeros(5, dtype=np.uint64),
        )

def test_no_overlap_invariant_over_run():
    config = make_config(robot_count=25, robot_radius=3.0, seed=5)
    sim = Simulation(config)
    for _ in range(200):
        sim.step()
        sim.check_invariants()


def test_check_invariants_names_the_overlapping_robot():
    # Robot 0 touches the border wall (the clearance fast path fails, the
    # exact disc test passes); robots 2 and 3 are exactly 2r apart.
    poses = ((4.0, 50.0, 0.0), (40.0, 50.0, 0.0), (60.0, 50.0, 0.0), (68.0, 50.0, 0.0))
    config = make_config(robot_count=4, robot_radius=4.0, spawn_positions=poses)
    sim = Simulation(config, controller=ConstantController(v=0.0))
    sim.step()
    sim.check_invariants()
    xs, ys = sim.state.xs, sim.state.ys  # the state the next tick reads

    def place(robot, x, y):
        xs[robot], ys[robot] = x, y

    place(3, 67.5, 50.0)
    with pytest.raises(AssertionError, match=r"^robot 2 overlaps a robot at tick 1$"):
        sim.check_invariants()
    place(1, 3.0, 80.5)  # across the border wall
    with pytest.raises(AssertionError, match=r"^robot 1 overlaps a wall at tick 1$"):
        sim.check_invariants()
    place(0, 10.0, 80.5)  # 7 px from robot 1
    with pytest.raises(AssertionError, match=r"^robot 0 overlaps a robot at tick 1$"):
        sim.check_invariants()
    place(0, 4.0, 50.0)
    place(2, 9.0, 80.5)  # robot 1 breaks both: the wall comes first
    with pytest.raises(AssertionError, match=r"^robot 1 overlaps a wall at tick 1$"):
        sim.check_invariants()


class RadiusBeacon:
    """Test plugin: robot i (the engine steps plugins in id order) broadcasts
    with a radius that varies by id and tick, and records what it sent."""

    def __init__(self, robots: int) -> None:
        self.robots = robots
        self.calls = 0
        self.sent = []

    def step(self, control_input, rng):
        robot = self.calls % self.robots
        self.calls += 1
        broadcast = None
        if (robot + control_input.tick) % 4:
            broadcast = Broadcast(bytes([robot]), 6.0 * ((robot * 7 + self.calls) % 9))
        self.sent.append(broadcast)
        return ControlOutput(ActuatorCommand(2.0, 0.3 * rng.uniform() - 0.15), broadcast)


def test_inboxes_match_per_sender_loop_at_end_of_tick():
    from test_controllers import deliver_messages_loop

    config = make_config(robot_count=80, seed=8, arena_width=120, arena_height=120)
    ctrl = RadiusBeacon(config.robot_count)
    sim = Simulation(config, controller=ctrl)
    for _ in range(8):
        sim.step()
        outboxes = ctrl.sent[-config.robot_count :]
        points = list(zip(sim.state.xs.tolist(), sim.state.ys.tolist()))
        expected, delivered = deliver_messages_loop(points, outboxes)
        assert sim.state.inboxes == expected
        assert delivered > 0


def test_robot_count_ids_radius_conserved():
    config = make_config(robot_count=10, robot_radius=2.5)
    sim = Simulation(config)
    for _ in range(30):
        sim.step()
    assert [b.id for b in sim.state.bodies] == list(range(10))
    assert all(b.radius == 2.5 for b in sim.state.bodies)


def test_braitenberg_batch_and_plugin_wrapper_agree():
    """A plugin that forwards to the built-in reproduces the batch path bit
    for bit, every tick. With 8 rays the plugin loop's blocks hold 32
    robots, so 70 robots run in blocks of 32, 32 and 6."""
    from swarmsim import BraitenbergController, Limits, SensorSpec, evenly_spaced_angles

    class Wrapper:
        def __init__(self, config):
            spec = SensorSpec(evenly_spaced_angles(config.sensor_count), config.sensor_range)
            self.inner = BraitenbergController(Limits(config.v_max, config.w_max), spec)

        def step(self, control_input, rng):
            return self.inner.step(control_input, rng)

    assert _BLOCK_READINGS // 8 == 32
    for robots in (8, 70):
        config = make_config(robot_count=robots, controller_type="braitenberg", seed=33)
        batch_sim = Simulation(config)
        plugin_sim = Simulation(config, controller=Wrapper(config))
        for tick in range(40):
            batch_sim.step()
            plugin_sim.step()
            assert state_digest(plugin_sim.state) == state_digest(batch_sim.state), (robots, tick)
        assert plugin_sim.state.collided.tolist() == batch_sim.state.collided.tolist()


def test_builtin_subclass_runs_its_own_step():
    """Only the exact built-in classes take the batch path: a subclass that
    overrides `step` is stepped robot by robot through it."""
    from swarmsim import BraitenbergController, Limits, SensorSpec, evenly_spaced_angles

    class Parked(BraitenbergController):
        def step(self, control_input, rng):
            return ControlOutput(ActuatorCommand(0.0, 0.0))

    config = make_config(
        robot_count=2,
        controller_type="braitenberg",
        spawn_positions=((100.0, 100.0, 0.0), (150.0, 150.0, 1.0)),
    )
    spec = SensorSpec(evenly_spaced_angles(config.sensor_count), config.sensor_range)
    sim = Simulation(config, controller=Parked(Limits(config.v_max, config.w_max), spec))
    for _ in range(3):
        sim.step()
    assert sim.state.xs.tolist() == [100.0, 150.0]
    assert sim.state.ys.tolist() == [100.0, 150.0]
    assert sim.state.thetas.tolist() == [0.0, 1.0]


def test_falsy_plugin_is_not_replaced():
    class Empty(ConstantController):
        def __len__(self):
            return 0

    plugin = Empty(v=0.0)
    config = make_config(robot_count=1, spawn_positions=((100.0, 100.0, 0.0),))
    sim = Simulation(config, controller=plugin)
    sim.step()
    assert sim.controller is plugin
    assert len(plugin.seen_inputs) == 1
    assert sim.state.xs.tolist() == [100.0]


def test_run_zero_ticks_reports():
    report = run(make_config(robot_count=2, ticks=0))
    assert report.metrics.ticks_run == 0
    assert report.metrics.wall_seconds >= 0.0
    assert report.metrics.steps_per_sec == 0.0


def test_run_report_contains_metrics_and_echo():
    report = run(make_config(robot_count=2, ticks=3))
    block = report.format_block()
    assert "ticks_run=3" in block
    assert "robots.count=2" in block
    assert report.peak_mem_bytes > 0


def test_hundred_robot_swarm_reports_throughput():
    report = run(make_config(robot_count=100, controller_type="braitenberg", ticks=20, arena_width=512, arena_height=512))
    assert report.metrics.ticks_run == 20
    assert report.metrics.steps_per_sec > 0


def test_run_from_pgm_map_file(tmp_path):
    # free arena with an obstacle block in the middle
    rows = []
    for y in range(64):
        rows.append(" ".join("0" if 24 <= x < 40 and 24 <= y < 40 else "255" for x in range(64)))
    pgm = ("P2\n64 64\n255\n" + "\n".join(rows) + "\n").encode()
    map_path = tmp_path / "arena.pgm"
    map_path.write_bytes(pgm)
    config = make_config(
        robot_count=6,
        ticks=300,
        arena_width=None,
        arena_height=None,
        map_path=str(map_path),
        robot_radius=2.0,
    )
    sim = Simulation(config)
    assert sim.state.grid.is_obstacle(30, 30)
    for _ in range(300):
        sim.step()
        sim.check_invariants()


def test_digest_quantization():
    config = make_config(robot_count=1, spawn_positions=((10.0, 20.0, 0.5),))
    sim = Simulation(config)
    digest = state_digest(sim.state)
    # reference FNV-1a over the quantized stream
    h = 0xCBF29CE484222325
    for value in (10.0, 20.0, 0.5):
        q = round(value * 1e6)
        for byte in int(q).to_bytes(8, "little", signed=True):
            h ^= byte
            h = (h * 0x100000001B3) & ((1 << 64) - 1)
    assert digest == h


def test_sense_phase_uses_snapshot_not_partial_moves():
    """Robot 0 moves first in phase 4; robot 1's phase-2 readings must have
    seen robot 0 at its snapshot position regardless of id order."""
    config = make_config(
        robot_count=2,
        robot_radius=2.0,
        sensor_range=64.0,
        spawn_positions=((100.0, 100.0, 0.0), (130.0, 100.0, -math.pi)),
    )
    ctrl = ConstantController(v=2.0, w=0.0)
    sim = Simulation(config, controller=ctrl)
    sim.step()
    first_inputs = ctrl.seen_inputs[:2]
    # both robots face each other 30 px apart; each ray origin sits on the
    # perimeter, so the gap each sees is 30 - 2*2 = 26 px
    assert first_inputs[0].readings[0].normalized == pytest.approx(26.0 / 64.0)
    assert first_inputs[1].readings[0].normalized == pytest.approx(26.0 / 64.0)


_FAULTS_PER_TICK = """
import resource
from swarmsim import SimConfig, Simulation

config = SimConfig(
    robot_count=2000, seed=1, ticks=30, controller_type="random_walk",
    arena_width=512, arena_height=512,
)
sim = Simulation(config)
for _ in range(10):
    sim.step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    sim.step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_steady_ticks_map_no_fresh_pages():
    # 2000 walkers on 512x512 in a fresh process. Set-up frees a large
    # untouched block so that glibc keeps the tick's temporaries in its heap;
    # without that, each tick faulted in thousands of fresh pages.
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap warm-up acts through glibc's dynamic mmap threshold")
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_TICK],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20
