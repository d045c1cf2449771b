"""Reference controllers and local broadcast messaging."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from swarmsim import (
    BraitenbergController,
    Broadcast,
    ControlInput,
    Limits,
    Message,
    RandomWalkController,
    RngStream,
    SensorReading,
    SensorSpec,
    SimConfig,
    Simulation,
    default_avoidance_weights,
    deliver_messages,
    evenly_spaced_angles,
    state_digest,
    stream_seed,
)

from conftest import (
    EPUCK_ANGLES,
    PAIRS_AT_REACH,
    neighbors_oracle,
    reference_splitmix64,
    shuffled_pair_search,
)

LIMITS = Limits(2.0, 0.4)
SPEC8 = SensorSpec(evenly_spaced_angles(8), 64.0)


def _input(values, kinds=None, collided=False, inbox=(), tick=0):
    kinds = kinds or ["none"] * len(values)
    readings = tuple(
        SensorReading(v, k, 1 if k == "robot" else None) for v, k in zip(values, kinds)
    )
    return ControlInput(readings, collided, tuple(inbox), tick)


# --- Braitenberg -------------------------------------------------------------------


def test_clear_view_full_speed_straight():
    ctrl = BraitenbergController(LIMITS, SPEC8)
    out = ctrl.step(_input([1.0] * 8), RngStream(0))
    assert out.command.v == LIMITS.v_max
    assert out.command.w == 0.0
    assert out.broadcast is None


def test_obstacle_on_left_turns_right():
    # positive-bearing rays (indexes 1..3 of the default belt) are the left side
    ctrl = BraitenbergController(LIMITS, SPEC8)
    values = [1.0] * 8
    values[2] = 0.4  # left-side ray sees something
    out = ctrl.step(_input(values), RngStream(0))
    assert out.command.w < 0.0


def test_obstacle_on_right_turns_left():
    ctrl = BraitenbergController(LIMITS, SPEC8)
    values = [1.0] * 8
    values[6] = 0.4
    out = ctrl.step(_input(values), RngStream(0))
    assert out.command.w > 0.0


def test_frontal_symmetric_straight_but_slow():
    ctrl = BraitenbergController(LIMITS, SPEC8)
    values = [1.0] * 8
    values[0] = 0.5
    values[1] = 0.7
    values[7] = 0.7
    out = ctrl.step(_input(values), RngStream(0))
    assert out.command.w == pytest.approx(0.0, abs=1e-12)
    assert out.command.v < LIMITS.v_max
    assert out.command.v == pytest.approx(LIMITS.v_max * 0.5)


def test_front_cone_is_min_over_three_default_rays():
    ctrl = BraitenbergController(LIMITS, SPEC8)
    assert ctrl.front == (0, 1, 7)
    values = [1.0] * 8
    values[1] = 0.25  # 45 degrees is inside the cone
    out = ctrl.step(_input(values), RngStream(0))
    assert out.command.v == pytest.approx(LIMITS.v_max * 0.25)


def test_turn_rate_clamped():
    weights = [0.0, -10.0, -10.0, -10.0, 0.0, 10.0, 10.0, 10.0]
    ctrl = BraitenbergController(LIMITS, SPEC8, weights)
    values = [0.0] * 8
    values[5] = 1.0
    values[6] = 1.0
    values[7] = 1.0
    out = ctrl.step(_input(values), RngStream(0))
    assert abs(out.command.w) <= LIMITS.w_max


def test_default_weights_antisymmetric_and_mirrored():
    angles = evenly_spaced_angles(8)
    weights = default_avoidance_weights(angles, LIMITS.w_max)
    assert weights[0] == 0.0 and weights[4] == 0.0  # front and rear
    for left, right in ((1, 7), (2, 6), (3, 5)):
        assert weights[left] == pytest.approx(-weights[right])
        assert weights[left] < 0.0 < weights[right]


def test_weight_count_must_match_belt():
    with pytest.raises(ValueError):
        BraitenbergController(LIMITS, SPEC8, [1.0, 2.0])


# 50 braitenberg robots on a 200x200 arena with the default 8-ray belt.
BELT8_CONFIG = SimConfig(
    robot_count=50,
    seed=1,
    ticks=5,
    controller_type="braitenberg",
    arena_width=200,
    arena_height=200,
)


@pytest.mark.parametrize(
    "angles",
    [
        pytest.param(evenly_spaced_angles(4), id="4"),
        pytest.param(evenly_spaced_angles(16), id="16"),
        pytest.param(EPUCK_ANGLES, id="epuck8"),
    ],
)
def test_simulation_refuses_a_braitenberg_built_for_another_belt(angles):
    # Four rays would steer from columns 0-3 of the 8-ray readings; sixteen
    # would index past them; the e-puck's eight would gate speed on rays 3
    # and 4, which on the even belt face backwards.
    controller = BraitenbergController(LIMITS, SensorSpec(angles, 64.0))
    with pytest.raises(ValueError, match=f"{len(angles)} weights for a belt of 8 rays") as info:
        Simulation(BELT8_CONFIG, controller=controller)
    assert str(angles) in str(info.value)
    assert str(evenly_spaced_angles(8)) in str(info.value)


def test_simulation_runs_a_braitenberg_built_for_its_belt():
    given = Simulation(BELT8_CONFIG, controller=BraitenbergController(LIMITS, SPEC8))
    built = Simulation(BELT8_CONFIG)
    for _ in range(BELT8_CONFIG.ticks):
        given.step()
        built.step()
    assert state_digest(given.state) == state_digest(built.state)


def test_braitenberg_deterministic_and_rng_free():
    ctrl = BraitenbergController(LIMITS, SPEC8)
    stream = RngStream(5)
    inp = _input([0.9, 1.0, 0.2, 1.0, 1.0, 0.6, 1.0, 1.0])
    first = ctrl.step(inp, stream)
    assert stream.state == RngStream(5).state  # no draws consumed
    assert ctrl.step(inp, stream) == first


def test_braitenberg_output_bounds_on_random_inputs():
    rng = random.Random(61)
    ctrl = BraitenbergController(LIMITS, SPEC8)
    for _ in range(500):
        values = [rng.uniform(0, 1) for _ in range(8)]
        out = ctrl.step(_input(values), RngStream(0))
        assert 0.0 <= out.command.v <= LIMITS.v_max
        assert abs(out.command.w) <= LIMITS.w_max


def test_braitenberg_invariant_to_sum_preserving_rear_permutation():
    # sensors 2 and 3 (both non-front) get the same weight, so swapping their
    # readings preserves the weighted sum and must not change the command
    weights = [0.0, -0.3, -0.2, -0.2, 0.0, 0.1, 0.2, 0.3]
    ctrl = BraitenbergController(LIMITS, SPEC8, weights)
    values = [1.0, 1.0, 0.8, 0.4, 0.9, 0.6, 0.8, 1.0]
    swapped = list(values)
    swapped[2], swapped[3] = values[3], values[2]
    a = ctrl.step(_input(values), RngStream(0))
    b = ctrl.step(_input(swapped), RngStream(0))
    assert a == b


def test_braitenberg_batch_matches_scalar():
    rng = random.Random(3)
    ctrl = BraitenbergController(LIMITS, SPEC8)
    n = 50
    matrix = np.array([[rng.uniform(0, 1) for _ in range(8)] for _ in range(n)])
    v, w = ctrl.step_batch(matrix, [])
    for i in range(n):
        out = ctrl.step(_input(list(matrix[i])), RngStream(0))
        assert v[i] == out.command.v
        assert w[i] == out.command.w


# --- random walk -------------------------------------------------------------------


def test_random_walk_full_speed_and_range():
    ctrl = RandomWalkController(LIMITS)
    stream = RngStream(8)
    for _ in range(500):
        out = ctrl.step(_input([1.0] * 8), stream)
        assert out.command.v == LIMITS.v_max
        assert -LIMITS.w_max <= out.command.w < LIMITS.w_max
        assert out.broadcast is None


def test_random_walk_deterministic_given_state():
    ctrl = RandomWalkController(LIMITS)
    a = ctrl.step(_input([1.0] * 8), RngStream(123))
    b = ctrl.step(_input([0.0] * 8), RngStream(123))
    assert a == b  # readings ignored, stream state decides


def test_random_walk_consumes_exactly_one_draw():
    ctrl = RandomWalkController(LIMITS)
    stream = RngStream(55)
    shadow = RngStream(55)
    ctrl.step(_input([1.0] * 8), stream)
    shadow.next_u64()
    assert stream.state == shadow.state


def test_random_walk_first_turn_matches_reference_for_robot_zero():
    # master seed 42, robot 0: the first turn command is pinned by the
    # independent SplitMix64 reference
    seed = stream_seed(42, 0)
    ref = reference_splitmix64(seed)
    expected = LIMITS.w_max * (2.0 * (next(ref) / 2**64) - 1.0)
    ctrl = RandomWalkController(LIMITS)
    out = ctrl.step(_input([1.0] * 8), RngStream(seed))
    assert out.command.w == expected


def test_random_walk_batch_matches_scalar():
    ctrl = RandomWalkController(LIMITS)
    states = stream_seed(9, np.arange(20, dtype=np.uint64))
    twins = [RngStream(stream_seed(9, i)) for i in range(20)]
    v, w = ctrl.step_batch(np.ones((20, 8)), states)
    for i in range(20):
        out = ctrl.step(_input([1.0] * 8), twins[i])
        assert v[i] == out.command.v and w[i] == out.command.w
    assert states.tolist() == [t.state for t in twins]


# --- messaging ---------------------------------------------------------------------


def _deliver(points, outboxes):
    xs = np.array([x for x, _ in points], dtype=np.float64)
    ys = np.array([y for _, y in points], dtype=np.float64)
    return deliver_messages(xs, ys, outboxes)


def test_no_outboxes_no_messages():
    inboxes, delivered = _deliver([(10, 10), (12, 10)], [None, None])
    assert inboxes == [[], []] and delivered == 0


def test_delivery_within_sender_radius():
    inboxes, delivered = _deliver([(10.0, 10.0), (13.0, 10.0)], [Broadcast(b"hi", 10.0), None])
    assert delivered == 1
    assert inboxes[0] == []
    assert inboxes[1] == [Message(0, b"hi")]


def test_zero_radius_reaches_nobody():
    inboxes, delivered = _deliver([(10.0, 10.0), (13.0, 10.0)], [Broadcast(b"x", 0.0), None])
    assert delivered == 0 and inboxes == [[], []]


def test_inboxes_sorted_by_sender():
    points = [(10.0, 10.0), (14.0, 10.0), (18.0, 10.0)]
    outboxes = [Broadcast(b"a", 50.0), Broadcast(b"b", 50.0), Broadcast(b"c", 50.0)]
    inboxes, delivered = _deliver(points, outboxes)
    assert delivered == 6
    assert [m.sender for m in inboxes[0]] == [1, 2]
    assert [m.sender for m in inboxes[1]] == [0, 2]
    assert [m.sender for m in inboxes[2]] == [0, 1]


def test_reciprocity_with_equal_radii():
    rng = random.Random(44)
    points = [(rng.uniform(0, 80), rng.uniform(0, 80)) for _ in range(30)]
    outboxes = [Broadcast(b"g", 12.0) for _ in points]
    inboxes, _ = _deliver(points, outboxes)
    got = {(m.sender, receiver) for receiver, box in enumerate(inboxes) for m in box}
    assert all((j, i) in got for (i, j) in got)


def test_delivery_matches_naive_all_pairs():
    rng = random.Random(123)
    points = [(rng.uniform(0, 150), rng.uniform(0, 150)) for _ in range(200)]
    outboxes = []
    for i in range(200):
        if rng.random() < 0.6:
            outboxes.append(Broadcast(bytes([i % 256]), rng.uniform(0, 25)))
        else:
            outboxes.append(None)
    inboxes, delivered = _deliver(points, outboxes)
    expected_total = 0
    for i, broadcast in enumerate(outboxes):
        if broadcast is None:
            continue
        receivers = neighbors_oracle(points, *points[i], broadcast.radius, exclude=i)
        expected_total += len(receivers)
        for j in receivers:
            assert Message(i, broadcast.payload) in inboxes[j]
    assert delivered == expected_total
    assert delivered == sum(len(box) for box in inboxes)


def deliver_messages_loop(points, outboxes):
    """Per-sender routing over the centres `points`, in id order: the form
    `deliver_messages` had before it routed in arrays; kept as its oracle."""
    inboxes = [[] for _ in range(len(outboxes))]
    delivered = 0
    for sender, broadcast in enumerate(outboxes):
        if broadcast is None:
            continue
        x, y = points[sender]
        r2 = broadcast.radius * broadcast.radius
        message = Message(sender, broadcast.payload)
        for receiver, (px, py) in enumerate(points):
            dx = px - x
            dy = py - y
            if dx * dx + dy * dy <= r2 and receiver != sender:
                inboxes[receiver].append(message)
                delivered += 1
    return inboxes, delivered


def _assert_same_routing(points, outboxes):
    got = _deliver(points, outboxes)
    assert got == deliver_messages_loop(points, outboxes)
    return got


@pytest.mark.parametrize("n", [5, 64, 65, 400, 1500])
def test_array_routing_equals_per_sender_loop(n):
    rng = random.Random(n)
    side = 30.0 * math.sqrt(n)
    points = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    # coincident centres, and pairs on exact radii
    points[n // 2] = points[0]
    points[-1] = (points[1][0] + 24.0, points[1][1])
    outboxes = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.3:
            outboxes.append(None)
        elif kind < 0.4:
            outboxes.append(Broadcast(b"0", 0.0))
        elif kind < 0.8:
            outboxes.append(Broadcast(bytes([i % 256]), 24.0))
        else:
            outboxes.append(Broadcast(b"r", rng.uniform(0.0, 60.0)))
    inboxes, delivered = _assert_same_routing(points, outboxes)
    assert delivered > 0


def test_array_routing_edge_cases():
    points = [(10.0, 10.0), (10.0, 10.0), (13.0, 14.0), (300.0, 5.0), (10.0, 10.0)]
    # radius 0 reaches coincident centres only
    inboxes, delivered = _assert_same_routing(points, [Broadcast(b"z", 0.0), None, None, None, None])
    assert delivered == 2 and inboxes[1] == inboxes[4] == [Message(0, b"z")]
    # exactly on the radius (a 3-4-5 triangle) is delivered
    inboxes, _ = _assert_same_routing(points, [None, None, Broadcast(b"e", 5.0), None, None])
    assert [i for i, box in enumerate(inboxes) if box] == [0, 1, 4]
    # a radius covering the whole arena reaches everyone else
    everyone = [Broadcast(bytes([i]), 1000.0) for i in range(len(points))]
    inboxes, delivered = _assert_same_routing(points, everyone)
    assert delivered == len(points) * (len(points) - 1)
    assert all([m.sender for m in box] == [j for j in range(5) if j != i] for i, box in enumerate(inboxes))
    # only None outboxes, and a lone sender
    assert _assert_same_routing(points, [None] * 5) == ([[]] * 5, 0)
    assert _assert_same_routing(points[:1], [Broadcast(b"x", 50.0)]) == ([[]], 0)
    with pytest.raises(
        ValueError, match=r"^broadcast radius of robot 0 must be non-negative; got -1\.0$"
    ):
        _deliver(points, [Broadcast(b"x", -1.0), None, None, None, None])
    # the lowest bad sender is named, NaN included
    bad = [None, Broadcast(b"x", 5.0), None, Broadcast(b"x", math.nan), Broadcast(b"x", -2.5)]
    with pytest.raises(
        ValueError, match=r"^broadcast radius of robot 3 must be non-negative; got nan$"
    ):
        _deliver(points, bad)


def test_int_radius_too_large_for_a_float_reads_as_an_infinity():
    points = [(10.0, 10.0), (13.0, 14.0), (300.0, 5.0), (-4000.0, 1e6)]
    huge = 10**400
    outboxes = [None, Broadcast(b"h", huge), None, None]
    inboxes, delivered = _assert_same_routing(points, outboxes)
    message = [Message(1, b"h")]
    assert delivered == 3 and inboxes == [message, [], message, message]
    bad = [None, Broadcast(b"x", 5.0), Broadcast(b"x", -huge), Broadcast(b"x", huge)]
    with pytest.raises(
        ValueError, match=rf"^broadcast radius of robot 2 must be non-negative; got -{huge}$"
    ):
        _deliver(points, bad)


@pytest.mark.parametrize("points, radius", PAIRS_AT_REACH.values(), ids=PAIRS_AT_REACH.keys())
def test_broadcast_reaches_a_robot_at_exactly_its_radius(points, radius):
    inboxes, delivered = _assert_same_routing(points, [Broadcast(b"x", radius), None])
    assert delivered == 1 and inboxes == [[], [Message(0, b"x")]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_routing_is_independent_of_pair_order(monkeypatch, seed):
    from swarmsim import controllers

    rng = random.Random(seed)
    points = [(rng.uniform(0, 120), rng.uniform(0, 120)) for _ in range(300)]
    points[7] = points[3]
    points[-1] = (points[1][0], points[1][1] + 20.0)
    outboxes = [
        None if rng.random() < 0.3 else Broadcast(bytes([i % 256]), rng.choice((0.0, 20.0, 35.5)))
        for i in range(len(points))
    ]
    want = _assert_same_routing(points, outboxes)
    assert want[1] > 0
    monkeypatch.setattr(controllers, "_pairs_within", shuffled_pair_search(seed))
    for _ in range(3):
        assert _deliver(points, outboxes) == want
