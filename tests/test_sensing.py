"""Ray casting against the marching oracle, and batch/scalar agreement."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from swarmsim import (
    GridMap,
    Pose,
    RobotBody,
    SensorSpec,
    cast_ray,
    evenly_spaced_angles,
    generate_arena,
    load_map,
    sense_all,
    sense_batch,
)
from swarmsim.sensing import (
    _NONE_READING,
    HIT_NONE,
    HIT_WALL,
    SensorReading,
    _pairs_within,
    readings_from_arrays,
)

from conftest import (
    EPUCK_ANGLES,
    PAIRS_AT_REACH,
    assert_pair_offsets,
    assert_pairs_match_oracle,
    centers_of,
    fine_march_confirms,
    grid_from_ascii,
    march_ray_oracle,
    pairs_oracle,
    place_bodies,
    random_grid,
    shuffled_pair_search,
)


# --- documented point cases -------------------------------------------------------


def test_free_ray_reports_full_range():
    grid = generate_arena(200, 200)
    hit = cast_ray(grid, [], 1.0, (100.0, 100.0), 0.37, 50.0)
    assert hit.dist == 50.0 and hit.kind == "none" and hit.robot is None


def test_wall_column_exact_distance():
    occ = np.zeros((41, 200), dtype=bool)
    occ[:, 10] = True
    grid = GridMap(200, 41, occ)
    hit = cast_ray(grid, [], 1.0, (5.5, 20.5), 0.0, 50.0)
    assert hit.dist == pytest.approx(4.5, abs=1e-12)
    assert hit.kind == "wall"


def test_robot_disc_closer_than_wall():
    occ = np.zeros((41, 200), dtype=bool)
    occ[:, 10] = True
    grid = GridMap(200, 41, occ)
    blocker = RobotBody(0, Pose(8.5, 20.5, 0.0), 2.0)
    hit = cast_ray(grid, centers_of([blocker]), 2.0, (5.5, 20.5), 0.0, 50.0)
    assert hit.dist == pytest.approx(1.0, abs=1e-12)
    assert hit.kind == "robot" and hit.robot == 0


def test_self_never_reported():
    grid = generate_arena(100, 100)
    me = RobotBody(0, Pose(50.0, 50.0, 0.0), 3.0)
    # ray starts on my perimeter pointing inward across my own disc
    hit = cast_ray(grid, centers_of([me]), 3.0, (53.0, 50.0), math.pi, 20.0, self_id=0)
    assert hit.kind == "none"


def test_touching_robot_reads_near_zero():
    grid = generate_arena(100, 100)
    a = RobotBody(0, Pose(50.0, 50.0, 0.0), 2.0)
    b = RobotBody(1, Pose(54.0, 50.0, 0.0), 2.0)
    readings = sense_all(a, SensorSpec((0.0,), 32.0), grid, centers_of([a, b]))
    assert readings[0].kind == "robot" and readings[0].robot == 1
    assert readings[0].normalized == pytest.approx(0.0, abs=1e-12)


def test_origin_inside_wall_cell_reads_zero():
    grid = grid_from_ascii(
        """
        .....
        ..#..
        .....
        """
    )
    hit = cast_ray(grid, [], 1.0, (2.5, 1.5), 0.0, 10.0)
    assert hit.dist == 0.0 and hit.kind == "wall"


def test_wall_beats_robot_on_tie():
    # wall entry at x=10 and a disc tangent at exactly the same point
    occ = np.zeros((21, 30), dtype=bool)
    occ[:, 10] = True
    grid = GridMap(30, 21, occ)
    blocker = RobotBody(0, Pose(12.0, 10.5, 0.0), 2.0)
    hit = cast_ray(grid, centers_of([blocker]), 2.0, (5.0, 10.5), 0.0, 20.0)
    assert hit.dist == 5.0
    assert hit.kind == "wall"


# --- sense_all --------------------------------------------------------------------


def test_lone_robot_all_readings_clear():
    grid = generate_arena(400, 400)
    body = RobotBody(0, Pose(200, 200, 0.8), 3.0)
    readings = sense_all(body, SensorSpec(evenly_spaced_angles(8), 64.0), grid, centers_of([body]))
    assert len(readings) == 8
    assert all(r.normalized == 1.0 and r.kind == "none" for r in readings)


def test_mirror_symmetry_facing_wall():
    grid = generate_arena(200, 200)
    # facing +x, wall is the closed-world boundary at x=200
    body = RobotBody(0, Pose(150.0, 100.0, 0.0), 3.0)
    spec = SensorSpec(evenly_spaced_angles(8), 64.0)
    readings = sense_all(body, spec, grid, centers_of([body]))
    # angles i and k-i are mirrored across the heading
    for i, j in ((1, 7), (2, 6), (3, 5)):
        assert readings[i].normalized == pytest.approx(readings[j].normalized, abs=1e-9)


def test_reading_count_and_order_follow_spec():
    grid = generate_arena(100, 100)
    body = RobotBody(0, Pose(50, 50, 0), 2.0)
    centers = centers_of([body])
    angles = (0.0, -1.0, 2.0, 0.5)
    readings = sense_all(body, SensorSpec(angles, 20.0), grid, centers)
    assert len(readings) == 4
    direct = [
        cast_ray(
            grid,
            centers,
            2.0,
            (50 + 2.0 * math.cos(a), 50 + 2.0 * math.sin(a)),
            a,
            20.0,
            self_id=0,
        ).dist
        / 20.0
        for a in angles
    ]
    assert [r.normalized for r in readings] == direct


def test_sensing_is_pure():
    rng = random.Random(10)
    grid = random_grid(rng, 40, 40, 0.08)
    bodies = place_bodies(rng, grid, 6, 1.5)
    centers = centers_of(bodies)
    spec = SensorSpec(evenly_spaced_angles(6), 30.0)
    first = [sense_all(b, spec, grid, centers) for b in bodies]
    second = [sense_all(b, spec, grid, centers) for b in bodies]
    assert first == second


def test_monotonicity_adding_obstacle_never_increases_readings():
    rng = random.Random(21)
    for _ in range(60):
        width, height = rng.randint(12, 40), rng.randint(12, 40)
        grid = random_grid(rng, width, height, 0.04)
        try:
            bodies = place_bodies(rng, grid, 3, 1.2, max_tries=4000)
        except RuntimeError:
            continue
        centers = centers_of(bodies)
        spec = SensorSpec(evenly_spaced_angles(5), 25.0)
        before = [sense_all(b, spec, grid, centers) for b in bodies]
        occ = grid.occupancy.copy()
        free_cells = np.argwhere(~occ)
        cy, cx = free_cells[rng.randrange(len(free_cells))]
        occ[cy, cx] = True
        denser = GridMap(width, height, occ)
        after = [sense_all(b, spec, denser, centers) for b in bodies]
        for rows_before, rows_after in zip(before, after):
            for rb, ra in zip(rows_before, rows_after):
                assert ra.normalized <= rb.normalized + 1e-12


# --- oracle equivalence ------------------------------------------------------------


def _random_scene(rng: random.Random):
    width = rng.randint(16, 60)
    height = rng.randint(16, 60)
    grid = random_grid(rng, width, height, rng.uniform(0.0, 0.15))
    radius = rng.uniform(1.0, 3.0)
    try:
        bodies = place_bodies(rng, grid, rng.randint(0, 6), radius, max_tries=4000)
    except RuntimeError:
        bodies = []
    return grid, bodies, radius


def _free_origin(rng: random.Random, grid: GridMap, bodies, radius: float):
    # free space per the cast_ray precondition: not in a wall cell and not
    # strictly inside any robot disc
    for _ in range(500):
        x = rng.uniform(0.5, grid.width - 0.5)
        y = rng.uniform(0.5, grid.height - 0.5)
        if grid.is_obstacle(math.floor(x), math.floor(y)):
            continue
        if any(
            (b.pose.x - x) ** 2 + (b.pose.y - y) ** 2 < radius * radius for b in bodies
        ):
            continue
        return x, y
    return None


def test_cast_ray_matches_marching_oracle():
    rng = random.Random(31415)
    checked = 0
    while checked < 300:
        grid, bodies, radius = _random_scene(rng)
        origin = _free_origin(rng, grid, bodies, radius)
        if origin is None:
            continue
        direction = rng.uniform(-math.pi, math.pi)
        max_range = rng.uniform(5.0, 40.0)
        positions = centers_of(bodies)
        hit = cast_ray(grid, positions, radius, origin, direction, max_range)
        wall_t, robot_hits = march_ray_oracle(
            grid, positions, radius, origin, direction, max_range
        )
        wall_c = wall_t if wall_t is not None else math.inf
        robot_c = robot_hits[0][0] if robot_hits else math.inf
        expected = min(wall_c, robot_c, max_range)
        if hit.dist < expected - 0.02:
            # the 0.01 px march cannot see corner clips shorter than its
            # step; the reported earlier hit must survive a far finer march
            assert fine_march_confirms(
                grid, positions, radius, origin, direction, hit.dist, hit.kind, hit.robot
            ), (origin, direction, hit)
        else:
            assert hit.dist == pytest.approx(expected, abs=0.02)
            if abs(wall_c - robot_c) > 0.05:
                if expected >= max_range - 0.05:
                    pass  # range-bound: kind may be none vs a hit just past range
                elif wall_c < robot_c:
                    assert hit.kind == "wall"
                else:
                    assert hit.kind == "robot"
        checked += 1


# --- batch path ---------------------------------------------------------------------


def _batch_inputs(bodies):
    xs = np.array([b.pose.x for b in bodies])
    ys = np.array([b.pose.y for b in bodies])
    thetas = np.array([b.pose.theta for b in bodies])
    return xs, ys, thetas


def _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits):
    centers = centers_of(bodies)
    for i, body in enumerate(bodies):
        for j, reading in enumerate(sense_all(body, spec, grid, centers)):
            assert normalized[i, j] == reading.normalized, (i, j)
            code = {"none": HIT_NONE, "wall": HIT_WALL}.get(reading.kind, reading.robot)
            assert int(hits[i, j]) == code, (i, j)


_UNIFORM8 = evenly_spaced_angles(8)

# Every belt shape the windowed disc-hit path must serve: even, uneven,
# unsorted, a single ray, a duplicate bearing with -pi, and a belt just off
# the even lattice.
BELTS = {
    "uniform8": _UNIFORM8,
    "uniform5": evenly_spaced_angles(5),
    "epuck": EPUCK_ANGLES,
    "unsorted": (0.0, -1.0, 2.0, 0.5),
    "single": (0.0,),
    "duplicate": (-math.pi, -math.pi, 0.0, 1.0),
    "uniform8_off_1e-7": _UNIFORM8[:3] + (_UNIFORM8[3] + 1e-7,) + _UNIFORM8[4:],
}


def _grazing_bodies(rng: random.Random, angles, radius: float, x0: float, y0: float):
    """Robot 0 at (x0, y0) with a random heading, and for each of its rays
    two discs tangent to the ray, one on each side: the ray meets them at
    the edge of their bearing windows. Last, two discs 40 px to the left
    whose centres lie within one radius, so each one's window spans a
    whole turn."""
    theta = rng.uniform(-math.pi, math.pi)
    bodies = [RobotBody(0, Pose(x0, y0, theta), radius)]
    for angle in angles:
        bearing = theta + angle
        ux, uy = math.cos(bearing), math.sin(bearing)
        for side in (1.0, -1.0):
            t = radius + rng.uniform(3.0, 20.0)
            x = x0 + t * ux - side * radius * uy
            y = y0 + t * uy + side * radius * ux
            pose = Pose(x, y, rng.uniform(-math.pi, math.pi))
            bodies.append(RobotBody(len(bodies), pose, radius))
    for dx in (0.0, 0.5 * radius):
        pose = Pose(x0 - 40.0 + dx, y0, rng.uniform(-math.pi, math.pi))
        bodies.append(RobotBody(len(bodies), pose, radius))
    return bodies


@pytest.mark.parametrize(
    "count,seed,angles",
    [
        # the uniform belt keeps the plain scene ids
        pytest.param(
            count, seed, angles,
            id=f"{count}-{seed}" if name == "uniform8" else f"{count}-{seed}-{name}",
        )
        for name, angles in BELTS.items()
        for count, seed in [(0, 1), (1, 2), (7, 3), (40, 4), (90, 5)]
    ],
)
def test_batch_matches_scalar(count, seed, angles):
    rng = random.Random(seed)
    width = rng.randint(40, 90)
    height = rng.randint(40, 90)
    grid = random_grid(rng, width, height, 0.05)
    radius = 1.4
    try:
        bodies = place_bodies(rng, grid, count, radius, max_tries=40000)
    except RuntimeError:
        pytest.skip("scene too dense for requested count")
    k = len(angles)
    spec = SensorSpec(angles, 24.0)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    assert normalized.shape == (count, k) and hits.shape == (count, k)
    _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits)

    # Discs that graze the rays, on an open arena.
    arena = generate_arena(120, 120)
    bodies = _grazing_bodies(rng, angles, radius, 60.0, 60.0)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(arena, xs, ys, thetas, radius, spec)
    _assert_batch_equals_scalar(arena, bodies, radius, spec, normalized, hits)


@pytest.mark.parametrize("angles", [_UNIFORM8, (0.0, -1.0, 2.0, 0.5)], ids=["uniform8", "unsorted"])
@pytest.mark.parametrize("low_below", [True, False])
def test_exact_robot_tie_goes_to_smaller_id(angles, low_below):
    # The bearing-0 ray of the robot at (10, 20) starts at (12, 20). Discs
    # centred at (20, 18) and (20, 22) both touch it at t = 8 exactly.
    radius = 2.0
    below, above = Pose(20.0, 18.0, 1.0), Pose(20.0, 22.0, -1.0)
    first, second = (below, above) if low_below else (above, below)
    bodies = [
        RobotBody(0, first, radius),
        RobotBody(1, second, radius),
        RobotBody(2, Pose(10.0, 20.0, 0.0), radius),
    ]
    grid = generate_arena(40, 40)
    spec = SensorSpec(angles, 30.0)
    ray = angles.index(0.0)
    reading = sense_all(bodies[2], spec, grid, centers_of(bodies))[ray]
    assert (reading.kind, reading.robot, reading.normalized) == ("robot", 0, 8.0 / 30.0)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    assert hits[2, ray] == 0 and normalized[2, ray] == 8.0 / 30.0
    _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits)


@pytest.mark.parametrize("angles", [_UNIFORM8, (0.0, -1.0, 2.0, 0.5)], ids=["uniform8", "unsorted"])
@pytest.mark.parametrize("viewer_first", [True, False])
def test_one_robot_sees_the_other_in_either_record_orientation(angles, viewer_first):
    # Robot 0's bearing-0 ray meets robot 1 at t = 6; robot 1 faces pi/8
    # off, so the direction back to robot 0 falls between its rays. The
    # one record row then has only its forward window live, or only its
    # reverse one.
    radius = 2.0
    bodies = [
        RobotBody(0, Pose(50.0, 50.0, 0.0), radius),
        RobotBody(1, Pose(60.0, 50.0, math.pi / 8), radius),
    ]
    grid = generate_arena(100, 100)
    spec = SensorSpec(angles, 24.0)
    xs, ys, thetas = _batch_inputs(bodies)
    a, b = (0, 1) if viewer_first else (1, 0)
    dx, dy = xs[b] - xs[a], ys[b] - ys[a]
    record = tuple(np.array([v]) for v in (a, b, dx * dx + dy * dy, dx, dy))
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec, pairs=record)
    ray = angles.index(0.0)
    assert hits[0, ray] == 1 and normalized[0, ray] == 6.0 / 24.0
    assert (hits[0] >= 0).sum() == 1 and (hits[1] == HIT_NONE).all()
    _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits)


def test_batch_rejects_headings_outside_pi():
    grid = generate_arena(40, 40)
    spec = SensorSpec(_UNIFORM8, 10.0)
    xs, ys = np.array([10.0, 30.0]), np.array([20.0, 20.0])
    sense_batch(grid, xs, ys, np.array([-math.pi, math.pi]), 2.0, spec)
    for bad in (3.2, -3.2, math.nan):
        with pytest.raises(ValueError, match="headings"):
            sense_batch(grid, xs, ys, np.array([0.0, bad]), 2.0, spec)


def test_batch_rejects_pose_arrays_of_other_shapes():
    grid = generate_arena(40, 40)
    spec = SensorSpec(_UNIFORM8, 10.0)
    two, one = np.array([10.0, 30.0]), np.array([20.0])
    for xs, ys, thetas in ((two, one, two), (two, two, one), (one, two, two)):
        with pytest.raises(ValueError, match=r"shapes .*expected one shape \(n,\)$"):
            sense_batch(grid, xs, ys, thetas * 0.0, 2.0, spec)
    with pytest.raises(ValueError, match="shapes"):
        sense_batch(grid, two[None], two[None], two[None] * 0.0, 2.0, spec)


@pytest.mark.parametrize("name", ["xs", "ys"])
def test_batch_rejects_non_finite_centres(name):
    grid = generate_arena(40, 40)
    spec = SensorSpec(_UNIFORM8, 10.0)
    poses = {"xs": np.array([10.0, 20.0, 30.0]), "ys": np.array([20.0, 20.0, 20.0])}
    poses[name][1:] = [math.nan, math.inf]
    with pytest.raises(ValueError, match=rf"^{name}\[1\] is not finite: nan$"):
        sense_batch(grid, poses["xs"], poses["ys"], np.zeros(3), 2.0, spec)


def test_batch_normalized_range():
    rng = random.Random(17)
    grid = random_grid(rng, 50, 50, 0.1)
    bodies = place_bodies(rng, grid, 10, 1.2, max_tries=40000)
    spec = SensorSpec(evenly_spaced_angles(8), 30.0)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, _ = sense_batch(grid, xs, ys, thetas, 1.2, spec)
    assert (normalized >= 0.0).all() and (normalized <= 1.0).all()


@pytest.mark.parametrize("angles", [_UNIFORM8, EPUCK_ANGLES], ids=["uniform8", "epuck"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_given_a_wider_pair_record_equals_its_own_search(angles, seed):
    # The engine passes the record of one search at the larger of the
    # sensing reach and the move reach; the readings must not move.
    rng = random.Random(seed)
    grid = random_grid(rng, 90, 90, 0.05)
    radius = 1.4
    bodies = place_bodies(rng, grid, 200, radius, max_tries=40000)
    spec = SensorSpec(angles, 4.0)
    xs, ys, thetas = _batch_inputs(bodies)
    want_normalized, want_hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    assert (want_hits >= 0).any() and (want_hits == HIT_WALL).any()
    reach = spec.max_range + 2.0 * radius
    move_reach = 2.0 * radius + 2.0 * spec.max_range + 1e-6  # v_max at the range
    own = _pairs_within(xs, ys, reach)[0].size
    for wider in (move_reach, 3.0 * reach, 200.0):
        pairs = _pairs_within(xs, ys, wider)
        assert pairs[0].size > own
        normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec, pairs=pairs)
        assert np.array_equal(normalized, want_normalized)
        assert np.array_equal(hits, want_hits)
    # The record is (a, b, d2, dx, dy); the ids and distances alone are not.
    for short in (pairs[:3], pairs[:2] + (pairs[2][:-1],) + pairs[3:]):
        with pytest.raises(ValueError, match="record"):
            sense_batch(grid, xs, ys, thetas, radius, spec, pairs=short)


@pytest.mark.parametrize("angles", [_UNIFORM8, EPUCK_ANGLES], ids=["uniform8", "epuck"])
def test_batch_at_the_tangent_bound_edge_equals_scalar(angles):
    # The window half-width bound rho / sqrt(d2 - rho**2) is inf for a pair
    # at exactly d2 == rho**2 and finite but past pi just above it; both
    # read as a full turn. Pairs a little farther get narrow finite bounds.
    radius = 2.0
    grid = generate_arena(120, 120)
    rng = random.Random(5)
    above = math.nextafter(22.0, math.inf)  # above - 20.0 is exact
    centers = [(20.0, 20.0), (22.0, 20.0), (20.0, 40.0), (above, 40.0)]
    centers += [(60.0, 60.0), (60.0, 62.0), (60.0, 80.0), (62.5, 80.0), (64.0, 80.0)]
    bodies = [
        RobotBody(i, Pose(x, y, rng.uniform(-math.pi, math.pi)), radius)
        for i, (x, y) in enumerate(centers)
    ]
    xs, ys, thetas = _batch_inputs(bodies)
    d2 = _pairs_within(xs, ys, 1.0 + 2.0 * radius)[2]
    assert (d2 == radius**2).sum() == 2 and ((d2 > radius**2) & (d2 < 4.000001)).sum() == 1
    spec = SensorSpec(angles, 1.0)
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    assert (hits >= 0).any()
    _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits)


def _window_edge_scene(seed: int, angles, radius: float, max_range: float):
    """Robots on a 200x200 arena that sit at the edges of the bearing
    windows: 40 at random in the middle; for 48 random rays of those, a
    disc on either side whose centre lies within a hair of rho of the ray's
    line (the exact test then decides by rounding) at a random distance
    along it; and around 6 of them, discs at d just below, at and just
    above rho, whose windows span a whole turn or sit on the tangent
    bound's pole."""
    rng = np.random.default_rng(seed)
    xs = list(rng.uniform(70.0, 130.0, 40))
    ys = list(rng.uniform(70.0, 130.0, 40))
    thetas = list(rng.uniform(-math.pi, math.pi, 40))
    reach = min(max_range, 60.0)
    for i, j in zip(rng.integers(0, 40, 48), rng.integers(0, len(angles), 48)):
        bearing = thetas[i] + angles[j]
        ux, uy = math.cos(bearing), math.sin(bearing)
        for side in (1.0, -1.0):
            t = rng.uniform(0.5, reach)
            off = side * radius * (1.0 + rng.choice((-2.0**-30, -2.0**-45, 0.0, 2.0**-45, 2.0**-30)))
            xs.append(xs[i] + radius * ux + t * ux - off * uy)
            ys.append(ys[i] + radius * uy + t * uy + off * ux)
            thetas.append(rng.uniform(-math.pi, math.pi))
    for i in rng.integers(0, 40, 6):
        for scale in (1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-40, 1.0 + 2.0**-20, 1.001):
            phi = rng.uniform(-math.pi, math.pi)
            xs.append(xs[i] + radius * scale * math.cos(phi))
            ys.append(ys[i] + radius * scale * math.sin(phi))
            thetas.append(rng.uniform(-math.pi, math.pi))
    return np.array(xs), np.array(ys), np.array(thetas)


def _exact_disc_hits_dense(xs, ys, thetas, radius, spec) -> set[tuple[int, int]]:
    """Every (flat ray slot robot * k + ray, robot) that the float64 exact
    ray-disc test of `_disc_hits_windowed` accepts, over every ray and every
    other robot, with that test's expressions."""
    n, k = xs.size, len(spec.angles)
    bearing = thetas[:, None] + np.asarray(spec.angles)[None, :]
    dirx, diry = np.cos(bearing), np.sin(bearing)
    ox, oy = xs[:, None] + radius * dirx, ys[:, None] + radius * diry
    flat = np.repeat(np.arange(n * k), n)
    other = np.tile(np.arange(n), n * k)
    keep = other != flat // k
    flat, other = flat[keep], other[keep]
    ux, uy = dirx.ravel()[flat], diry.ravel()[flat]
    to_x = xs[other] - ox.ravel()[flat]
    to_y = ys[other] - oy.ravel()[flat]
    b = to_x * ux + to_y * uy
    disc2 = radius * radius - (to_x * to_x + to_y * to_y - b * b)
    t = b - np.sqrt(np.maximum(disc2, 0.0))
    ok = (disc2 >= 0.0) & (t >= 0.0) & (t <= spec.max_range)
    return set(zip(flat[ok].tolist(), other[ok].tolist()))


@pytest.mark.parametrize("angles", [_UNIFORM8, EPUCK_ANGLES], ids=["uniform8", "epuck"])
@pytest.mark.parametrize(
    "radius, max_range",
    # Small discs far out have narrow windows, where the tangent bound
    # exceeds the half-angle by less than the float32 rounding; a range past
    # 2**60 computes the windows in float64.
    [(2.0, 24.0), (0.25, 60.0), (2.0, 1e20)],
    ids=["r2", "narrow", "float64"],
)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_windows_hold_every_exact_disc_hit(angles, radius, max_range, seed):
    from swarmsim.sensing import _window_candidates

    xs, ys, thetas = _window_edge_scene(seed, angles, radius, max_range)
    spec = SensorSpec(angles, max_range)
    pairs = _pairs_within(xs, ys, max_range + 2.0 * radius)
    flat, other = _window_candidates(*pairs, thetas, radius, max_range, angles)
    candidates = set(zip(flat.tolist(), other.tolist()))
    exact = _exact_disc_hits_dense(xs, ys, thetas, radius, spec)
    assert len(exact) > 100 and exact <= candidates
    # The windows still filter: most (ray, robot) pairs in reach are not
    # candidates.
    assert len(candidates) < 0.5 * len(angles) * 2 * pairs[0].size
    bodies = [
        RobotBody(i, Pose(x, y, theta), radius)
        for i, (x, y, theta) in enumerate(zip(xs.tolist(), ys.tolist(), thetas.tolist()))
    ]
    grid = generate_arena(200, 200)
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    assert (hits >= 0).any()
    _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits)


def test_windows_past_float32_range_hold_the_exact_hit():
    # Offsets of 4e38 and 3e38 overflow float32 to (inf, 3e38), whose
    # bearing is 0, not 0.64. At this scale the float64 exact test accepts
    # robot 0's ray toward robot 1 by rounding; the windows are then
    # computed in float64 and keep it.
    from swarmsim.sensing import _window_candidates

    radius, max_range = 1e19, 1e39
    xs, ys = np.array([0.0, 4e38]), np.array([0.0, 3e38])
    thetas = np.array([0.6435011087932827, 0.0])
    spec = SensorSpec((0.0,), max_range)
    assert _exact_disc_hits_dense(xs, ys, thetas, radius, spec) == {(0, 1)}
    pairs = _pairs_within(xs, ys, max_range + 2.0 * radius)
    flat, other = _window_candidates(*pairs, thetas, radius, max_range, spec.angles)
    assert (0, 1) in set(zip(flat.tolist(), other.tolist()))


# --- nearest-first order: robot hits cap the wall pass -----------------------------


def _walled_crowd(seed: int, radius: float):
    """A 100x100 map with a border wall and interior blocks, packed with a
    jittered lattice of robots 5.5 apart (1.5 px gaps at radius 2)."""
    rng = np.random.default_rng(seed)
    occ = np.zeros((100, 100), dtype=bool)
    occ[[0, -1], :] = True
    occ[:, [0, -1]] = True
    occ[30:34, 10:40] = True
    occ[60:90, 70:73] = True
    occ[75:78, 20:26] = True
    occ[46:49, 50:90] = True
    occ[8:40, 62:65] = True
    grid = GridMap(100, 100, occ)
    bodies = []
    for gy in np.arange(4.0, 97.0, 5.5):
        for gx in np.arange(4.0, 97.0, 5.5):
            x, y = gx + rng.uniform(-0.5, 0.5), gy + rng.uniform(-0.5, 0.5)
            if grid.disc_free(x, y, radius):
                theta = rng.uniform(-math.pi, math.pi)
                bodies.append(RobotBody(len(bodies), Pose(x, y, theta), radius))
    return grid, bodies


@pytest.mark.parametrize("angles", [_UNIFORM8, EPUCK_ANGLES])
@pytest.mark.parametrize("dda_limit", [0, None])
def test_batch_matches_scalar_in_walled_crowd(monkeypatch, angles, dda_limit):
    from swarmsim import sensing

    if dda_limit is not None:
        monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", dda_limit)
    radius = 2.0
    grid, bodies = _walled_crowd(7, radius)
    spec = SensorSpec(angles, 40.0)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    _assert_batch_equals_scalar(grid, bodies, radius, spec, normalized, hits)

    # Most rays meet a robot before any wall, and many robots have every ray
    # capped short of the clearance-field bound: their wall pass is skipped,
    # where without the cap it would run (clearance within range + r + 2).
    rob_hit = hits >= 0
    occluded = 0
    for i, j in zip(*np.nonzero(rob_hit)):
        body = bodies[i]
        bearing = body.pose.theta + angles[j]
        origin = (
            body.pose.x + radius * math.cos(bearing),
            body.pose.y + radius * math.sin(bearing),
        )
        occluded += cast_ray(grid, [], radius, origin, bearing, spec.max_range).kind == "wall"
    assert occluded > 0.5 * hits.size, occluded
    clear = grid.clearance[np.floor(ys).astype(int), np.floor(xs).astype(int)]
    reach = np.where(rob_hit, normalized * spec.max_range, spec.max_range).max(axis=1)
    newly_skipped = (clear > reach + radius + 2.0) & (clear <= spec.max_range + radius + 2.0)
    assert np.count_nonzero(newly_skipped) >= 20, np.count_nonzero(newly_skipped)


@pytest.mark.parametrize(
    "max_range, kinds_seen",
    [(40.0, {"wall", "robot"}), (4.0, {"none", "wall", "robot"})],
)
def test_readings_from_arrays_match_sense_all(max_range, kinds_seen):
    # The e-puck belt in the walled crowd; at the short range many rays hit
    # nothing.
    radius = 2.0
    grid, bodies = _walled_crowd(7, radius)
    spec = SensorSpec(EPUCK_ANGLES, max_range)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(grid, xs, ys, thetas, radius, spec)
    rows = readings_from_arrays(normalized, hits)
    assert len(rows) == len(bodies)
    centers = centers_of(bodies)
    kinds = set()
    for body, row in zip(bodies, rows):
        assert type(row) is tuple
        assert row == tuple(sense_all(body, spec, grid, centers)), body.id
        for got in row:
            if got.kind == "none":
                assert got is _NONE_READING and got.normalized == 1.0
            kinds.add(got.kind)
    assert kinds == kinds_seen
    assert _NONE_READING == SensorReading(1.0, "none")


def test_readings_from_arrays_returns_one_row_per_robot():
    normalized = np.array([[1.0, 0.25], [0.5, 1.0]])
    hits = np.array([[HIT_NONE, HIT_WALL], [1, HIT_NONE]])
    rows = readings_from_arrays(normalized, hits)
    assert rows == [
        (_NONE_READING, SensorReading(0.25, "wall")),
        (SensorReading(0.5, "robot", 1), _NONE_READING),
    ]
    assert rows[0][0] is _NONE_READING and rows[1][1] is _NONE_READING
    assert readings_from_arrays(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)) == []


@pytest.mark.parametrize("dda_limit", [0, None])
def test_batch_wall_wins_exact_tie_with_robot(monkeypatch, dda_limit):
    from swarmsim import sensing

    if dda_limit is not None:
        monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", dda_limit)
    # The wall face is at x = 30. Robot 1 is centred 4 px past it with
    # rho = 4, so the +x ray of robot 0 (origin x = 14) meets the wall and
    # the disc both at t = 16; its wall pass is capped at exactly 16.
    occ = np.zeros((41, 50), dtype=bool)
    occ[:, 30:36] = True
    grid = GridMap(50, 41, occ)
    bodies = [RobotBody(0, Pose(10.0, 20.5, 0.0), 4.0), RobotBody(1, Pose(34.0, 20.5, 0.0), 4.0)]
    spec = SensorSpec(evenly_spaced_angles(8), 40.0)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(grid, xs, ys, thetas, 4.0, spec)
    assert hits[0, 0] == HIT_WALL and normalized[0, 0] == 16.0 / 40.0
    _assert_batch_equals_scalar(grid, bodies, 4.0, spec, normalized, hits)


@pytest.mark.parametrize(
    "wall, robot_x, max_range, want",
    [
        (True, 34.0, 16.0, HIT_WALL),  # wall and disc both at exactly the range
        (False, 34.0, 16.0, 1),  # the disc at exactly the range
        (True, None, 16.0, HIT_WALL),  # the wall at exactly the range
        (True, 38.0, 16.0, HIT_WALL),  # the disc past the range
        (False, 34.0, math.nextafter(16.0, 0.0), HIT_NONE),  # just out of range
    ],
)
@pytest.mark.parametrize("dda_limit", [0, None])
def test_batch_merge_at_exact_distances(monkeypatch, wall, robot_x, max_range, want, dda_limit):
    from swarmsim import sensing

    if dda_limit is not None:
        monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", dda_limit)
    # As in the tie test above, the +x ray of robot 0 starts at x = 14, the
    # wall face is at x = 30 and a disc centred at x = 34 is met at 16.
    occ = np.zeros((41, 50), dtype=bool)
    occ[:, 30:36] = wall
    grid = GridMap(50, 41, occ)
    bodies = [RobotBody(0, Pose(10.0, 20.5, 0.0), 4.0)]
    if robot_x is not None:
        bodies.append(RobotBody(1, Pose(robot_x, 20.5, 0.0), 4.0))
    spec = SensorSpec(evenly_spaced_angles(8), max_range)
    xs, ys, thetas = _batch_inputs(bodies)
    normalized, hits = sense_batch(grid, xs, ys, thetas, 4.0, spec)
    assert hits[0, 0] == want
    assert normalized[0, 0] == min(16.0, max_range) / max_range
    _assert_batch_equals_scalar(grid, bodies, 4.0, spec, normalized, hits)


@pytest.mark.parametrize("angles", [_UNIFORM8, EPUCK_ANGLES], ids=["uniform8", "epuck"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_is_independent_of_pair_order(angles, seed):
    from swarmsim.sensing import _disc_hits_windowed

    radius = 2.0
    grid, bodies = _walled_crowd(seed, radius)
    spec = SensorSpec(angles, 24.0)
    xs, ys, thetas = _batch_inputs(bodies)
    pairs = _pairs_within(xs, ys, spec.max_range + 2.0 * radius)
    want = sense_batch(grid, xs, ys, thetas, radius, spec, pairs=pairs)
    assert (want[1] >= 0).any() and (want[1] == HIT_WALL).any()
    bearing = thetas[:, None] + np.asarray(angles)[None, :]
    dirx, diry = np.cos(bearing), np.sin(bearing)
    rays = (xs[:, None] + radius * dirx, ys[:, None] + radius * diry, dirx, diry)
    want_discs = _disc_hits_windowed(*pairs, xs, ys, thetas, *rays, radius, spec.max_range, angles)
    search = shuffled_pair_search(seed)
    for _ in range(3):
        shuffled = search(xs, ys, spec.max_range + 2.0 * radius)
        got = sense_batch(grid, xs, ys, thetas, radius, spec, pairs=shuffled)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        got_discs = _disc_hits_windowed(
            *shuffled, xs, ys, thetas, *rays, radius, spec.max_range, angles
        )
        assert all(np.array_equal(g, w) for g, w in zip(got_discs, want_discs))


# --- batch wall pass: array loop, then the scalar tail ------------------------------


class _CountingArray:
    """Counts reads; the scalar traversal reads the box field once per
    iteration, and the batch once per array round."""

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.array[key]


def _corridor_maze() -> GridMap:
    """160x97 P2 map: 3 px corridors between 1 px walls, one 3 px gap per
    wall at a staggered position."""
    occ = np.zeros((97, 160), dtype=bool)
    occ[:, [0, -1]] = True
    for y in range(0, 97, 4):
        occ[y, :] = True
        gap = 5 + (y * 37) % 148
        occ[y, gap : gap + 3] = False
    occ[[0, -1], :] = True
    rows = (" ".join("0" if cell else "255" for cell in row) for row in occ)
    return load_map(("P2\n160 97\n255\n" + "\n".join(rows) + "\n").encode())


def test_wall_batch_tail_handoff_matches_scalar(monkeypatch):
    from swarmsim import sensing
    from swarmsim.sensing import _wall_batch, _wall_hit_scalar

    grid = _corridor_maze()
    rng = np.random.default_rng(5)
    m = 1500
    ox = rng.uniform(1.0, 159.0, m)
    oy = (rng.integers(0, 24, m) * 4 + rng.uniform(1.0, 4.0, m)).astype(float)
    # rays along and nearly along the corridors, diagonals, random bearings
    angle = rng.choice([0.0, -math.pi, math.pi / 2, math.pi / 4], m)
    angle[: m // 3] += rng.normal(0.0, 1e-3, m // 3)
    angle[-m // 4 :] = rng.uniform(-math.pi, math.pi, m // 4)
    # origins inside a wall, on the map edge and outside the map
    oy[:20] = 4.5
    ox[20:30] = -0.5
    ox[30:40] = 0.0
    dirx = np.cos(angle)
    diry = np.sin(angle)

    def scalar(ranges):
        out = []
        for ray in zip(ox.tolist(), oy.tolist(), dirx.tolist(), diry.tolist(), ranges.tolist()):
            t = _wall_hit_scalar(grid, *ray)
            out.append(math.inf if t is None else t)
        return np.array(out)

    far = scalar(np.full(m, math.inf))
    mixed = rng.uniform(0.0, 150.0, m)
    mixed[::3] = far[::3]  # an entry at exactly the range is found
    mixed[1::7] = math.inf
    mixed[2::7] = 0.0
    cases = [np.full(m, math.inf), np.zeros(m), mixed]

    # the longest rays need 50+ traversal iterations: a box in a 3 px
    # corridor spans at most 3 cells
    counting = _CountingArray(grid.boxes)
    probe = SimpleNamespace(
        width=grid.width,
        height=grid.height,
        occupancy=grid.occupancy,
        boxes=counting,
        is_obstacle=grid.is_obstacle,
    )
    longest = 0
    for i in np.argsort(far)[-20:]:
        counting.reads = 0
        _wall_hit_scalar(probe, ox[i], oy[i], dirx[i], diry[i], math.inf)
        longest = max(longest, counting.reads)
    assert longest >= 50

    default = sensing._SCALAR_DDA_LIMIT
    assert 0 < default < m
    for ranges in cases:
        expected = scalar(ranges).tolist()
        for limit in (0, default, m + 1):
            monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", limit)
            assert _wall_batch(grid, ox, oy, dirx, diry, ranges).tolist() == expected, limit


# --- box exits and the border, against the border-merged traversal ----------------


def _merged_clearance(grid: GridMap) -> np.ndarray:
    """The clearance field with the distance to the nearest out-of-range cell
    merged in, as the traversal hopped on before the border left the field."""
    ar = np.arange(grid.width)
    ay = np.arange(grid.height)
    border = np.minimum(
        np.minimum(ar + 1, grid.width - ar)[None, :],
        np.minimum(ay + 1, grid.height - ay)[:, None],
    )
    return np.minimum(grid.clearance, border)


def _reference_wall_hit(grid, merged, ox, oy, dirx, diry, max_range) -> float:
    """Test-only reference: the clearance-hopping DDA on the border-merged
    field, so a ray walks its last cells to the border one crossing at a
    time. Returns inf for no wall within range."""
    w, h = grid.width, grid.height
    occ = grid.occupancy
    cx = math.floor(ox)
    cy = math.floor(oy)
    if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
        return 0.0
    if dirx > 0.0:
        step_x, off_x, inv_x = 1, 1.0, 1.0 / dirx
    elif dirx < 0.0:
        step_x, off_x, inv_x = -1, 0.0, 1.0 / dirx
    else:
        step_x, off_x, inv_x = 0, 0.0, 0.0
    if diry > 0.0:
        step_y, off_y, inv_y = 1, 1.0, 1.0 / diry
    elif diry < 0.0:
        step_y, off_y, inv_y = -1, 0.0, 1.0 / diry
    else:
        step_y, off_y, inv_y = 0, 0.0, 0.0
    t_cur = 0.0
    while True:
        hop = float(merged[cy, cx]) - 2.0
        if hop >= 1.0:
            t_cur = t_cur + hop
            if t_cur > max_range:
                return math.inf
            cx = math.floor(ox + t_cur * dirx)
            cy = math.floor(oy + t_cur * diry)
            continue
        t_x = (cx + off_x - ox) * inv_x if step_x else math.inf
        t_y = (cy + off_y - oy) * inv_y if step_y else math.inf
        if t_x <= t_y:
            t_enter = t_x
            if t_enter > max_range:
                return math.inf
            cx += step_x
        else:
            t_enter = t_y
            if t_enter > max_range:
                return math.inf
            cy += step_y
        if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
            return t_enter
        t_cur = t_enter


def _border_rays(rng, w: int, h: int, m: int):
    """Rays that probe the border: random ones, rays within 1e-9 rad of
    parallel to each edge from the outermost rows and columns, origins on an
    edge and just outside it, and axis-parallel rays."""
    ox = rng.uniform(-0.5, w + 0.5, m)
    oy = rng.uniform(-0.5, h + 0.5, m)
    angle = rng.uniform(-math.pi, math.pi, m)
    q = m // 8
    # along the bottom/top rows (x-bound bearings) and the outer columns
    tilt = rng.choice([1e-9, -1e-9, 1e-12, -1e-12, 1e-15, -1e-15, 3e-17, 0.0], 4 * q)
    oy[:q] = rng.uniform(0.0, min(1.0, h), q)
    oy[q : 2 * q] = h - rng.uniform(0.0, min(1.0, h), q)
    ox[2 * q : 3 * q] = rng.uniform(0.0, min(1.0, w), q)
    ox[3 * q : 4 * q] = w - rng.uniform(0.0, min(1.0, w), q)
    angle[: 2 * q] = rng.choice([0.0, -math.pi], 2 * q)
    angle[2 * q : 4 * q] = rng.choice([math.pi / 2, -math.pi / 2], 2 * q)
    angle[: 4 * q] += tilt
    # origins exactly on an edge, the last float inside it, and just outside
    edge_x = rng.choice([0.0, np.nextafter(w, 0.0), float(w), -1e-12, w + 1e-12], q)
    edge_y = rng.choice([0.0, np.nextafter(h, 0.0), float(h), -1e-12, h + 1e-12], q)
    ox[4 * q : 5 * q] = edge_x
    oy[5 * q : 6 * q] = edge_y
    dirx = np.cos(angle)
    diry = np.sin(angle)
    # axis-parallel: one direction component exactly 0.0
    dirx[6 * q : 7 * q] = 0.0
    diry[6 * q : 7 * q] = rng.choice([1.0, -1.0], q)
    diry[7 * q : 8 * q] = 0.0
    dirx[7 * q : 8 * q] = rng.choice([1.0, -1.0], q)
    return ox, oy, dirx, diry


def _assert_same_floats(got, want, context) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), context


def test_closed_form_border_matches_merged_traversal(monkeypatch):
    from swarmsim import sensing
    from swarmsim.sensing import _wall_batch, _wall_hit_scalar

    rng = np.random.default_rng(23)
    grids = [generate_arena(1, 1), generate_arena(37, 5), generate_arena(64, 64)]
    pyrng = random.Random(23)
    for _ in range(12):
        w, h = pyrng.randint(1, 48), pyrng.randint(1, 48)
        grids.append(random_grid(pyrng, w, h, pyrng.choice([0.02, 0.1, 0.3])))
    m = 400
    default = sensing._SCALAR_DDA_LIMIT
    for grid in grids:
        merged = _merged_clearance(grid)
        ox, oy, dirx, diry = _border_rays(rng, grid.width, grid.height, m)
        rays = list(zip(ox.tolist(), oy.tolist(), dirx.tolist(), diry.tolist()))
        far = np.array([_reference_wall_hit(grid, merged, *ray, math.inf) for ray in rays])
        assert np.isfinite(far).all()  # the closed world ends every ray
        mixed = rng.uniform(0.0, 60.0, m)
        mixed[::5] = math.inf
        for ranges in (np.full(m, math.inf), far, np.nextafter(far, -1.0), mixed):
            want = [
                _reference_wall_hit(grid, merged, *ray, t) for ray, t in zip(rays, ranges.tolist())
            ]
            scalar = [_wall_hit_scalar(grid, *ray, t) for ray, t in zip(rays, ranges.tolist())]
            scalar = [math.inf if t is None else t for t in scalar]
            _assert_same_floats(scalar, want, (grid.width, grid.height))
            for limit in (0, default, m + 1):
                monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", limit)
                got = _wall_batch(grid, ox, oy, dirx, diry, ranges)
                _assert_same_floats(got, want, (grid.width, grid.height, limit))
            monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", default)


def test_hop_landing_floored_past_the_edge_stays_in_the_map(monkeypatch):
    # A ray 2e-18 rad off the top edge, in the last row: from t = 1488 on,
    # oy + t * diry rounds up to exactly 50.0, one row outside the map, so
    # a cell taken from that estimate alone would leave the map early. The
    # ray must still meet the obstacle at x = 1500 in the last row (entry
    # at 1489.5), not end at the border entry (2000).
    from swarmsim import sensing
    from swarmsim.sensing import _wall_batch, _wall_hit_scalar

    occ = np.zeros((50, 3000), dtype=bool)
    occ[49, 1500] = True
    grid = GridMap(3000, 50, occ)
    oy = float(np.nextafter(50.0, 0.0))
    diry = (50.0 - oy) / 2000.0
    assert math.floor(oy + 1488.0 * diry) == 50
    want = _reference_wall_hit(grid, _merged_clearance(grid), 10.5, oy, 1.0, diry, math.inf)
    assert want == 1489.5
    assert _wall_hit_scalar(grid, 10.5, oy, 1.0, diry, math.inf) == want
    for limit in (0, sensing._SCALAR_DDA_LIMIT):
        monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", limit)
        ray = [np.array([v]) for v in (10.5, oy, 1.0, diry, math.inf)]
        assert _wall_batch(grid, *ray).tolist() == [want]


def test_border_bound_ray_reads_the_field_once(monkeypatch):
    # On a map without obstacles a ray's first box reaches the border, so the
    # ray ends at its border entry in one iteration, however shallow its
    # angle to the edge it meets.
    from swarmsim import sensing
    from swarmsim.sensing import _wall_batch, _wall_hit_scalar

    grid = generate_arena(300, 120)
    counting = _CountingArray(grid.boxes)
    grid._boxes = counting
    merged = _merged_clearance(generate_arena(300, 120))
    rng = np.random.default_rng(3)
    m = 200
    ox = rng.uniform(5.0, 295.0, m)
    oy = rng.uniform(110.0, 119.9, m)
    angle = rng.uniform(1e-4, 0.05, m) * rng.choice([1.0, -1.0], m)
    angle[::2] = math.pi / 2 - angle[::2]  # towards the top edge, steep ones too
    dirx = np.cos(angle)
    diry = np.sin(angle)
    want = []
    for ray in zip(ox.tolist(), oy.tolist(), dirx.tolist(), diry.tolist()):
        want.append(_reference_wall_hit(grid, merged, *ray, math.inf))
        counting.reads = 0
        assert _wall_hit_scalar(grid, *ray, math.inf) == want[-1]
        assert counting.reads == 1
    monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", 0)
    counting.reads = 0
    assert _wall_batch(grid, ox, oy, dirx, diry, np.full(m, math.inf)).tolist() == want
    assert counting.reads == 1


def _plain_dda(grid, ox, oy, dirx, diry, max_range) -> float:
    """Test-only reference: the DDA with no hops at all, one cell crossing
    per step with x first on a tie. Returns inf for no wall within range."""
    w, h = grid.width, grid.height
    occ = grid.occupancy
    cx = math.floor(ox)
    cy = math.floor(oy)
    if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
        return 0.0
    step_x = (dirx > 0.0) - (dirx < 0.0)
    step_y = (diry > 0.0) - (diry < 0.0)
    off_x = 1.0 if dirx > 0.0 else 0.0
    off_y = 1.0 if diry > 0.0 else 0.0
    inv_x = 1.0 / dirx if step_x else 0.0
    inv_y = 1.0 / diry if step_y else 0.0
    while True:
        t_x = (cx + off_x - ox) * inv_x if step_x else math.inf
        t_y = (cy + off_y - oy) * inv_y if step_y else math.inf
        if t_x <= t_y:
            t_enter = t_x
            cx += step_x
        else:
            t_enter = t_y
            cy += step_y
        if t_enter > max_range:
            return math.inf
        if cx < 0 or cy < 0 or cx >= w or cy >= h or occ[cy, cx]:
            return t_enter


def _exit_rule_rays(rng, grid):
    """Rays whose box exits test the crossing rule, as (ox, oy, dirx, diry)
    arrays: from cell centres along exact diagonals (every crossing a
    corner tie) and at +-45 and +-135 degrees, within 1e-15 rad of a lattice
    corner, axis-parallel or nearly so along lattice lines (wall faces among
    them), and towards the map edge from its outer cells. The last array
    flags the rays the pre-box reference can follow (see below)."""
    w, h = grid.width, grid.height
    rays = []
    diag = math.sqrt(0.5)
    free = [(cx, cy) for cy in range(h) for cx in range(w) if not grid.occupancy[cy, cx]]
    for cx, cy in rng.sample(free, min(len(free), 60)):
        x, y = cx + 0.5, cy + 0.5
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rays.append((x, y, sx * diag, sy * diag, True))
            angle = math.atan2(sy, sx)
            rays.append((x, y, math.cos(angle), math.sin(angle), True))
        for _ in range(2):
            tx, ty = rng.randint(-1, w + 1), rng.randint(-1, h + 1)
            angle = math.atan2(ty - y, tx - x)
            angle += rng.choice([0.0, 1e-15, -1e-15, 2e-16, -2e-16])
            rays.append((x, y, math.cos(angle), math.sin(angle), True))
    for _ in range(3 * (w + h)):
        tilt = rng.choice([0.0, 0.0, 1e-17, -1e-17, 1e-12, -1e-12])
        along = rng.choice([1.0, -1.0])
        # From a lattice line, a tilt too small to move o + t * d off it
        # towards the cells behind the line sends the reference's hop landing
        # back across the line, and it never ends.
        ends = tilt >= 0.0 or tilt < -1e-15
        rays.append((rng.uniform(0.0, w), float(rng.randint(0, h)), along, tilt, ends))
        rays.append((float(rng.randint(0, w)), rng.uniform(0.0, h), tilt, along, ends))
    for _ in range(2 * (w + h)):
        x = rng.choice([rng.uniform(0.0, 1.0), w - rng.uniform(0.0, 1.0), rng.uniform(0.0, w)])
        y = rng.choice([rng.uniform(0.0, 1.0), h - rng.uniform(0.0, 1.0), rng.uniform(0.0, h)])
        angle = rng.uniform(-math.pi, math.pi)
        rays.append((x, y, math.cos(angle), math.sin(angle), True))
    return [np.array(column) for column in zip(*rays)]


def test_box_exits_match_plain_dda(monkeypatch):
    # The plain DDA decides; the pre-box reference agrees on every ray it
    # can follow, and the sampled march wherever it resolves the entry.
    from swarmsim import sensing
    from swarmsim.sensing import _wall_batch, _wall_hit_scalar

    rng = random.Random(41)
    grids = [
        generate_arena(23, 17),
        random_grid(rng, 24, 19, 0.05),
        random_grid(rng, 31, 9, 0.2),
        random_grid(rng, 1, 12, 0.2),
        _corridor_maze(),
        grid_from_ascii(
            """
            ..........
            ..#.......
            ..........
            ......##..
            ......##..
            #.........
            """
        ),
    ]
    default = sensing._SCALAR_DDA_LIMIT
    for grid in grids:
        ox, oy, dirx, diry, followed = _exit_rule_rays(rng, grid)
        m = ox.size
        rays = list(zip(ox.tolist(), oy.tolist(), dirx.tolist(), diry.tolist()))
        far = np.array([_plain_dda(grid, *ray, math.inf) for ray in rays])
        assert np.isfinite(far).all()
        merged = _merged_clearance(grid)
        reference = [
            _reference_wall_hit(grid, merged, *rays[i], math.inf) for i in np.flatnonzero(followed)
        ]
        _assert_same_floats(reference, far[followed], (grid.width, grid.height))
        for ranges in (np.full(m, math.inf), far, np.nextafter(far, -1.0)):
            want = [_plain_dda(grid, *ray, t) for ray, t in zip(rays, ranges.tolist())]
            scalar = [_wall_hit_scalar(grid, *ray, t) for ray, t in zip(rays, ranges.tolist())]
            scalar = [math.inf if t is None else t for t in scalar]
            _assert_same_floats(scalar, want, (grid.width, grid.height))
            for limit in (0, default, m + 1):
                monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", limit)
                got = _wall_batch(grid, ox, oy, dirx, diry, ranges)
                _assert_same_floats(got, want, (grid.width, grid.height, limit))
            monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", default)
        for i in range(0, m, 11):
            hx, hy = ox[i] + far[i] * dirx[i], oy[i] + far[i] * diry[i]
            if abs(hx - round(hx)) < 1e-9 and abs(hy - round(hy)) < 1e-9:
                continue  # the entry is a lattice corner, which no sample resolves
            if 0.0 < min(abs(dirx[i]), abs(diry[i])) < 1e-9:
                continue  # a tilt the march's bearing cannot carry
            direction = math.atan2(diry[i], dirx[i])
            march, _ = march_ray_oracle(grid, [], 1.0, (ox[i], oy[i]), direction, far[i] + 0.05)
            if march is None or abs(march - far[i]) > 0.02:
                assert fine_march_confirms(
                    grid, [], 1.0, (ox[i], oy[i]), direction, far[i], "wall", None
                ), (grid.width, grid.height, i)


def test_ray_along_a_lattice_line_ends(monkeypatch):
    # A ray that starts on the line y = 8 and tilts 1e-17 below it enters
    # row 7 at t = 0, while oy + t * diry still rounds to 8.0 for every t
    # in the map. The clearance-hopping traversal landed it back in row 8
    # and stepped it into row 7 at t = 0 again, forever; the box loop's
    # exit rule keeps it in row 7 until the obstacle at (3, 7).
    from swarmsim import sensing
    from swarmsim.sensing import _wall_batch, _wall_hit_scalar

    occ = np.zeros((19, 24), dtype=bool)
    occ[7, 3] = True
    occ[2, 12] = True
    grid = GridMap(24, 19, occ)
    ray = (22.71436727971072, 8.0, -1.0, -1e-17)
    want = _plain_dda(grid, *ray, math.inf)
    assert want == 22.71436727971072 - 4.0
    assert _wall_hit_scalar(grid, *ray, math.inf) == want
    for limit in (0, sensing._SCALAR_DDA_LIMIT):
        monkeypatch.setattr(sensing, "_SCALAR_DDA_LIMIT", limit)
        arrays = [np.array([v]) for v in (*ray, math.inf)]
        assert _wall_batch(grid, *arrays).tolist() == [want]


def test_sensor_spec_validation():
    with pytest.raises(ValueError):
        SensorSpec((), 10.0)
    with pytest.raises(ValueError):
        SensorSpec((math.pi,), 10.0)  # half-open interval
    with pytest.raises(ValueError):
        SensorSpec((0.0,), 0.0)
    assert evenly_spaced_angles(8)[0] == 0.0
    with pytest.raises(ValueError):
        evenly_spaced_angles(0)


# --- candidate pairs ------------------------------------------------------------


def _brute_force_pairs(xs: np.ndarray, ys: np.ndarray, reach: float) -> set[tuple[int, int]]:
    out: set[tuple[int, int]] = set()
    for lo in range(0, xs.size, 500):
        dx = xs[None, :] - xs[lo : lo + 500, None]
        dy = ys[None, :] - ys[lo : lo + 500, None]
        rows, cols = np.nonzero(dx * dx + dy * dy <= reach * reach)
        out.update((int(i) + lo, int(j)) for i, j in zip(rows, cols) if i + lo != j)
    return out


def _spy_run_bounds(monkeypatch) -> list[str]:
    """Records, in order, each `np.bincount` and `np.searchsorted` call:
    `_pairs_within` finds its run bounds with one count of the keys or
    with three binary searches."""
    calls: list[str] = []
    for name in ("bincount", "searchsorted"):

        def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return calls


_COUNTED = ["bincount"]
_SEARCHED = ["searchsorted"] * 3


@pytest.mark.parametrize(
    "n, spread, bounds",
    [pytest.param(n, 1.5, _SEARCHED, id=f"{n}") for n in (65, 500, 3000)]
    + [pytest.param(n, 0.5, _COUNTED, id=f"counted-{n}") for n in (65, 500, 3000)],
)
def test_pairs_within_equal_brute_force(monkeypatch, n, spread, bounds):
    rng = np.random.default_rng(n)
    reach = 5.0
    side = reach * np.sqrt(n) * spread
    xs = rng.uniform(-side / 2, side / 2, n)  # negative coordinates included
    ys = rng.uniform(-side / 2, side / 2, n)
    k = n // 10
    # coincident centres
    xs[1:k:3] = xs[0:k - 1:3]
    ys[1:k:3] = ys[0:k - 1:3]
    # centres exactly on bin edges
    xs[k : 2 * k] = np.round(xs[k : 2 * k] / reach) * reach
    ys[k : 2 * k : 2] = np.round(ys[k : 2 * k : 2] / reach) * reach
    # pairs exactly `reach` apart: a 3-4-5 triangle and an axis-aligned offset
    for m in range(2 * k, 3 * k - 1, 2):
        xs[m] = np.round(xs[m])
        ys[m] = np.round(ys[m])
        if m % 4:
            xs[m + 1], ys[m + 1] = xs[m] + 3.0, ys[m] + 4.0
        else:
            xs[m + 1], ys[m + 1] = xs[m], ys[m] - reach
    want = _brute_force_pairs(xs, ys, reach)
    calls = _spy_run_bounds(monkeypatch)
    record = _pairs_within(xs, ys, reach)
    monkeypatch.undo()
    assert calls == bounds
    assert set(_unordered_pairs(xs, ys, *record)) == want
    exact = sum(1 for i, j in want if (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 == reach**2)
    assert exact >= k // 2


def _unordered_pairs(xs, ys, a, b, d2, dx, dy) -> list[tuple[int, int]]:
    """Both orientations of every pair of a search record, after checking
    that each unordered pair comes once and that the offsets and squared
    distances are those of the record's own orientation, bit for bit
    (phase 4 filters on these distances)."""
    assert_pair_offsets(xs, ys, a, b, d2, dx, dy)
    assert (a != b).all()
    got = list(zip(a.tolist(), b.tolist())) + list(zip(b.tolist(), a.tolist()))
    assert len(got) == len(set(got))  # each unordered pair once
    return got


def test_pairs_within_small_swarm_all_pairs():
    xs = np.array([0.0, 3.0, 0.0, 100.0, 0.0])
    ys = np.array([0.0, 4.0, 0.0, 100.0, -5.0])
    got = _unordered_pairs(xs, ys, *_pairs_within(xs, ys, 5.0))
    assert sorted(p for p in got if p[0] < p[1]) == [(0, 1), (0, 2), (0, 4), (1, 2), (2, 4)]
    for n in (0, 1):
        assert all(column.size == 0 for column in _pairs_within(xs[:n], ys[:n], 5.0))


def test_pairs_within_far_off_coordinates_equal_brute_force():
    rng = np.random.default_rng(17)
    near = rng.uniform(0.0, 30.0, (40, 2))
    far = [(s * v, t * v) for v in (1e18, 1e300) for s in (1, -1) for t in (1, -1)]
    far += [(1e300, 1e300), (1e300, 1e300), (5e299, 1e300), (-1e18, 1e18 + 256.0)]
    far += [(1e18, -3.0), (1e18 + 2.0, -3.0), (4.0e9, 1.0), (4.0e9 + 3.0, 1.0)]
    xs = np.concatenate([near[:, 0], [x for x, _ in far]])
    ys = np.concatenate([near[:, 1], [y for _, y in far]])
    reach = 5.0
    want = set()
    for i in range(xs.size):  # Python floats: a far-off square is inf, no warning
        for j in range(xs.size):
            dx = float(xs[j]) - float(xs[i])
            dy = float(ys[j]) - float(ys[i])
            if i != j and dx * dx + dy * dy <= reach * reach:
                want.add((i, j))
    assert {(48, 49), (52, 53), (54, 55)} <= want  # far-off pairs within reach
    assert set(_unordered_pairs(xs, ys, *_pairs_within(xs, ys, reach))) == want


@pytest.mark.parametrize(
    "width, reach, spread, bounds",
    [
        pytest.param(np.uint8, 5.0, 3.0, _COUNTED, id="uint8-5.0-3.0"),
        pytest.param(np.uint16, 5.0, 50.0, _SEARCHED, id="uint16-5.0-50.0"),
        pytest.param(np.uint16, 5.0, 10.0, _COUNTED, id="uint16-5.0-10.0"),
        pytest.param(np.uint32, 1.0, 900.0, _SEARCHED, id="uint32-1.0-900.0"),
    ],
)
def test_pairs_within_sorts_keys_of_each_width_equal_brute_force(
    monkeypatch, width, reach, spread, bounds
):
    # The bin keys are sorted in the narrowest unsigned type that holds
    # them; the far-off coordinates test reaches uint64.
    rng = np.random.default_rng(int(spread))
    xs = rng.uniform(0.0, spread * reach, 400)
    ys = rng.uniform(0.0, spread * reach, 400)
    # Every seventh robot half a reach above the one before it.
    xs[1::7] = xs[:-1:7]
    ys[1::7] = ys[:-1:7] + 0.5 * reach
    sorted_dtypes = []
    argsort = np.argsort

    def spy(keys, *args, **kwargs):
        sorted_dtypes.append(keys.dtype)
        return argsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    calls = _spy_run_bounds(monkeypatch)
    record = _pairs_within(xs, ys, reach)
    monkeypatch.undo()
    assert sorted_dtypes == [np.dtype(width)]
    assert calls == bounds
    assert set(_unordered_pairs(xs, ys, *record)) == _brute_force_pairs(xs, ys, reach)


@pytest.mark.parametrize("positions, reach", PAIRS_AT_REACH.values(), ids=PAIRS_AT_REACH.keys())
def test_pairs_within_keeps_a_pair_at_reach_across_rounded_bins(positions, reach):
    assert pairs_oracle(positions, reach).keys() == {(0, 1)}
    assert_pairs_match_oracle(positions, reach)


def _edge_positions(rng, n: int, reach: float, offset: float) -> list[tuple[float, float]]:
    """n robots near `offset` reaches from the origin, each coordinate on a
    multiple of reach / 4 or of the search's y-bin width, or on the float
    just below or above it. About half of them share a coordinate with an
    earlier robot, so many pairs lie exactly along an axis."""
    scale = reach if math.isfinite(reach) else 1.0
    widths = (scale / 4.0, scale * (1.0 + 2.0**-20) / 4.0)
    base = offset * scale * rng.choice((-1.0, 1.0), size=2)
    positions: list[tuple[float, float]] = []
    for _ in range(n):
        point = []
        for axis in range(2):
            edge = float(base[axis] + rng.integers(-4, 5) * widths[rng.integers(2)])
            side = rng.integers(3)
            if side:
                edge = math.nextafter(edge, math.inf if side == 1 else -math.inf)
            point.append(edge)
        if positions and rng.integers(2):
            axis = rng.integers(2)
            point[axis] = positions[rng.integers(len(positions))][axis]
        positions.append(tuple(point))
    return positions


@pytest.mark.parametrize("reach", [0.1, 1.0, 2.5, 12.000001, 72.0, 1e6, math.inf])
def test_pairs_within_on_bin_edges_equal_the_oracle(reach):
    # Offsets in reaches: 2**30 is the clip of the bin axes, 3e9 and 1e12
    # lie past it.
    rng = np.random.default_rng(int(min(reach, 1e9) * 1e6))
    for offset in (0.0, 1e3, 2.0**30, 3e9, 1e12):
        for n, trials in ((0, 1), (1, 2), (2, 40), (30, 40)):
            for _ in range(trials):
                assert_pairs_match_oracle(_edge_positions(rng, n, reach, offset), reach)


@pytest.mark.parametrize("reach", [1.0, 2.5, 72.0])
def test_pairs_within_counted_and_searched_bounds_give_one_record(monkeypatch, reach):
    # The same runs either way, so the same record row for row, on bin
    # edges and in dense and sparse swarms.
    from swarmsim import sensing

    rng = np.random.default_rng(int(reach * 10))
    scenes = [_edge_positions(rng, 30, reach, offset) for offset in (0.0, 1e3) for _ in range(20)]
    for spread in (0.3, 1.0, 4.0):
        side = 20.0 * reach * spread
        scenes.append(list(zip(rng.uniform(-side, side, 400), rng.uniform(-side, side, 400))))
    for positions in scenes:
        xs, ys = (np.array(column, dtype=np.float64) for column in zip(*positions))
        records = []
        for keys_per_robot in (0, 10**9):
            monkeypatch.setattr(sensing, "_COUNT_KEYS_PER_ROBOT", keys_per_robot)
            records.append(_pairs_within(xs, ys, reach))
        assert all(np.array_equal(u, v) for u, v in zip(*records))
