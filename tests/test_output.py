"""Trajectory logs and PPM frame rendering."""

from __future__ import annotations

import hashlib
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from swarmsim import (
    Pose,
    RobotBody,
    SensorSpec,
    SimConfig,
    Simulation,
    TrajectoryLogger,
    evenly_spaced_angles,
    generate_arena,
    render_frame,
    robot_color,
    run,
)

import test_golden_digests as golden
from conftest import place_bodies, random_grid, state_of


def _config(**kwargs) -> SimConfig:
    base = dict(
        robot_count=1,
        seed=3,
        ticks=2,
        controller_type="random_walk",
        arena_width=128,
        arena_height=128,
    )
    base.update(kwargs)
    return SimConfig(**base)


# --- trajectory log -------------------------------------------------------------


def test_log_row_count_one_robot_two_ticks(tmp_path):
    path = tmp_path / "run.csv"
    run(_config(log_path=str(path)))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "tick,robot_id,x,y,theta,collided"


def test_log_format_six_decimals_and_order(tmp_path):
    path = tmp_path / "run.csv"
    run(_config(robot_count=3, ticks=4, log_path=str(path)))
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 12
    seen = []
    for line in lines:
        tick, rid, x, y, theta, collided = line.split(",")
        seen.append((int(tick), int(rid)))
        for field in (x, y, theta):
            whole, frac = field.split(".")
            assert len(frac) == 6
        assert collided in ("0", "1")
        assert -3.141593 <= float(theta) <= 3.141593
    assert seen == sorted(seen)
    assert {t for t, _ in seen} == {1, 2, 3, 4}


def test_equal_seed_runs_byte_identical_logs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(_config(robot_count=5, ticks=50, log_path=str(a)))
    run(_config(robot_count=5, ticks=50, log_path=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_log_path_aborts_before_tick_zero(tmp_path):
    bad = tmp_path / "missing_dir" / "run.csv"
    with pytest.raises(OSError):
        run(_config(log_path=str(bad)))


def fstring_rows(state) -> bytes:
    """The rows `TrajectoryLogger.append` wrote before it built them in
    arrays, one f-string per robot; kept as its oracle."""
    poses = zip(
        state.xs.tolist(), state.ys.tolist(), state.thetas.tolist(), state.collided.tolist()
    )
    rows = [
        f"{state.tick},{i},{x:.6f},{y:.6f},{theta:.6f},{1 if hit else 0}\n"
        for i, (x, y, theta, hit) in enumerate(poses)
    ]
    return "".join(rows).encode("ascii")


def _logged(path, states) -> bytes:
    with TrajectoryLogger(str(path)) as logger:
        for state in states:
            logger.append(state)
    return path.read_bytes()


def _assert_rows_match(path, values, tick=1, chunk=60_000):
    """Log `values` three to a row (x, y, theta) and compare each chunk of
    rows with the oracle's bytes."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate((values, np.zeros(-values.size % 3))).reshape(-1, 3)
    rng = np.random.default_rng(values.shape[0])
    header = TrajectoryLogger.HEADER.encode("ascii")
    for start in range(0, values.shape[0], chunk):
        block = values[start : start + chunk]
        state = SimpleNamespace(
            tick=tick,
            xs=block[:, 0].copy(),
            ys=block[:, 1].copy(),
            thetas=block[:, 2].copy(),
            collided=rng.random(block.shape[0]) < 0.5,
        )
        got = _logged(path, [state])
        want = header + fstring_rows(state)
        if got != want:  # report the first row that differs, not 4 MB of text
            pairs = zip(got.split(b"\n"), want.split(b"\n"))
            assert next(((a, b) for a, b in pairs if a != b), None) is None
            assert len(got) == len(want)


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate(
        (values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf))
    )


def test_log_rows_match_fstrings_on_every_tie_and_its_neighbours(tmp_path):
    # k / 2**7 times 1e6 ends in .5 for odd k: every exact decimal tie of
    # :.6f in +-8192, and the two floats beside each.
    ties = np.arange(-8192 * 128, 8192 * 128 + 1) / 128.0
    _assert_rows_match(tmp_path / "ties.csv", _with_neighbours(ties))


def test_log_rows_match_fstrings_near_half_micro_values(tmp_path):
    # (k + 0.5) * 1e-6 is not exact in binary: it lies just above or just
    # below the tie, which only the split's error term tells apart.
    half = (np.arange(-150_000, 150_000) + 0.5) * 1e-6
    wide = (np.arange(-2_000, 2_000) * 1_000_003 + 0.5) * 1e-6
    _assert_rows_match(tmp_path / "half.csv", _with_neighbours(np.concatenate((half, wide))))


def test_log_rows_match_fstrings_on_signs_and_random_values(tmp_path):
    rng = np.random.default_rng(2024)
    special = [
        7.75e-05,
        -7.75e-05,
        0.0,
        -0.0,
        -1e-300,
        -5e-324,
        -4.999999e-07,
        -5e-07,
        5e-07,
        -5.000001e-07,
        0.9999995,
        -0.9999995,
        999.9999995,
        2.0**33 - 2.0**-20,
        -(2.0**33) + 2.0**-20,
        math.pi,
        -math.pi,
    ]
    randoms = [
        rng.uniform(-5000.0, 5000.0, 150_000),
        rng.uniform(-math.pi, math.pi, 60_000),
        rng.standard_normal(60_000) * 1e-6,
        np.exp(rng.uniform(-40.0, 22.9, 60_000)) * rng.choice([-1.0, 1.0], 60_000),
    ]
    _assert_rows_match(tmp_path / "random.csv", np.concatenate([special, *randoms]), tick=987654)


def test_log_rows_past_the_exact_bound_are_fstrings(tmp_path):
    # A tick with a value at or past 2**33, or a non-finite one, is printed
    # by f-string, row by row.
    bound = 2.0**33
    values = [
        [bound, 1.0, 0.5],
        [bound - 2.0**-20, -(bound - 2.0**-20), 0.0],
        [-bound, 2.0, -0.5],
        [3.0, 1e300, -3.0],
        [1.5, 2.5, math.inf],
        [math.nan, -math.inf, 1.0],
        [1.25, -1.25, -0.0],
        [1e10 + 0.25, 7.5, 3.0],
        [1.5e10 + 2.0**-9, -(1.5e10 + 2.0**-9), 0.125],  # past 2**53 once scaled
    ]
    _assert_rows_match(tmp_path / "far.csv", values, tick=3)


def test_wide_arena_log_matches_fstrings(tmp_path):
    # An open arena four times 2**33 wide: most robots lie past the bound.
    path = tmp_path / "wide.csv"
    config = _config(
        robot_count=40,
        ticks=5,
        controller_type="braitenberg",
        arena_width=4 * 2**33,
        arena_height=64,
        log_path=str(path),
    )
    sim = Simulation(config)
    assert (sim.state.xs >= 2.0**33).any() and (sim.state.xs < 2.0**33).any()
    expected = [TrajectoryLogger.HEADER.encode("ascii")]
    for _ in range(config.ticks):
        sim.step()
        expected.append(fstring_rows(sim.state))
    run(config)
    assert path.read_bytes() == b"".join(expected)


def _assert_run_logs_match(tmp_path, sim, ticks):
    oracle = [TrajectoryLogger.HEADER.encode("ascii")]
    path = tmp_path / "run.csv"
    with TrajectoryLogger(str(path)) as logger:
        for _ in range(ticks):
            sim.step()
            logger.append(sim.state)
            oracle.append(fstring_rows(sim.state))
    assert path.read_bytes() == b"".join(oracle)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_golden_scenario_logs_match_fstrings(tmp_path, name):
    _assert_run_logs_match(tmp_path, golden.case_simulation(name, tmp_path), golden.TICKS)


def test_maze_log_matches_fstrings(tmp_path, workloads):
    # The benchmark's maze, 1000 robots and its broadcasting plugin, 30 ticks.
    occ = workloads.maze_occupancy(1)
    map_path = tmp_path / "maze.pgm"
    pixels = np.where(occ, 0, 255).astype(np.uint8)
    map_path.write_bytes(b"P5\n%d %d\n255\n" % (occ.shape[1], occ.shape[0]) + pixels.tobytes())
    workload = workloads.WORKLOADS["maze1k_beacon"]
    config = workloads.make_config(workload, 1, str(map_path))
    sim = Simulation(config, controller=workloads.make_controller(workload, config))
    _assert_run_logs_match(tmp_path, sim, 30)


# --- render_frame ----------------------------------------------------------------


def test_one_pixel_free_map_renders_white():
    state = state_of(generate_arena(1, 1), [])
    data = render_frame(state)
    assert data == b"P6\n1 1\n255\n\xff\xff\xff"


def test_obstacles_black_and_size_identity():
    rng = random.Random(5)
    grid = random_grid(rng, 9, 7, 0.3)
    state = state_of(grid, [])
    data = render_frame(state)
    header = f"P6\n9 7\n255\n".encode()
    assert data.startswith(header)
    assert len(data) == len(header) + 3 * 9 * 7
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(7, 9, 3)
    for y in range(7):
        for x in range(9):
            expected = (0, 0, 0) if grid.occupancy[y, x] else (255, 255, 255)
            assert tuple(pixels[y, x]) == expected


def test_render_deterministic():
    rng = random.Random(6)
    grid = random_grid(rng, 40, 30, 0.1)
    bodies = place_bodies(rng, grid, 4, 2.0)
    state = state_of(grid, bodies)
    spec = SensorSpec(evenly_spaced_angles(8), 32.0)
    assert render_frame(state, spec, draw_rays=True) == render_frame(
        state, spec, draw_rays=True
    )


def test_robot_colors_never_near_white():
    for rid in range(500):
        r, g, b = robot_color(rid)
        assert not (r > 230 and g > 230 and b > 230)
        assert all(0 <= c <= 255 for c in (r, g, b))


def test_disc_pixel_lower_bound():
    rng = random.Random(11)
    radius = 3.0
    grid = generate_arena(200, 200)
    bodies = place_bodies(rng, grid, 100, radius)
    state = state_of(grid, bodies)
    data = render_frame(state)
    header_len = len(b"P6\n200 200\n255\n")
    pixels = np.frombuffer(data[header_len:], dtype=np.uint8).reshape(200, 200, 3)
    non_white = int((pixels != 255).any(axis=2).sum())
    lower = 0
    for body in bodies:
        count = 0
        for py in range(200):
            for px in range(200):
                if (px + 0.5 - body.pose.x) ** 2 + (py + 0.5 - body.pose.y) ** 2 <= (
                    radius - 1
                ) ** 2:
                    count += 1
        lower += count
    assert non_white >= lower


def test_byte_size_identity_on_random_states():
    rng = random.Random(999)
    for _ in range(20):
        width = rng.randint(1, 60)
        height = rng.randint(1, 60)
        grid = random_grid(rng, width, height, rng.uniform(0, 0.4))
        try:
            bodies = place_bodies(rng, grid, rng.randint(0, 4), 1.0, max_tries=2000)
        except RuntimeError:
            bodies = []
        state = state_of(grid, bodies)
        data = render_frame(state)
        header = f"P6\n{width} {height}\n255\n".encode()
        assert len(data) == len(header) + 3 * width * height


def test_rays_drawn_as_gray_pixels():
    grid = generate_arena(64, 64)
    bodies = [RobotBody(0, Pose(32.0, 32.0, 0.0), 2.0)]
    state = state_of(grid, bodies)
    spec = SensorSpec((0.0,), 16.0)
    with_rays = render_frame(state, spec, draw_rays=True)
    without = render_frame(state)
    assert with_rays != without
    header_len = len(b"P6\n64 64\n255\n")
    pixels = np.frombuffer(with_rays[header_len:], dtype=np.uint8).reshape(64, 64, 3)
    assert (pixels[32, 40] == (160, 160, 160)).all()


def test_frames_written_by_run(tmp_path):
    frames = tmp_path / "frames"
    run(_config(ticks=4, frames_every=2, frames_dir=str(frames)))
    names = sorted(p.name for p in frames.iterdir())
    assert names == ["frame_000000.ppm", "frame_000002.ppm", "frame_000004.ppm"]
    for name in names:
        assert (frames / name).read_bytes().startswith(b"P6\n128 128\n255\n")


def _frame_sims(tmp_path):
    """A run with no robots, and one with 40 on a map with obstacles after
    three ticks."""
    rng = random.Random(17)
    grid = random_grid(rng, 80, 60, 0.03)
    pixels = bytes(0 if blocked else 255 for blocked in grid.occupancy.ravel().tolist())
    map_path = tmp_path / "map.pgm"
    map_path.write_bytes(b"P5\n80 60\n255\n" + pixels)
    empty = Simulation(_config(robot_count=0, arena_width=20, arena_height=12))
    crowd = Simulation(
        _config(
            robot_count=40,
            robot_radius=2.0,
            seed=8,
            controller_type="braitenberg",
            map_path=str(map_path),
            arena_width=None,
            arena_height=None,
        )
    )
    for _ in range(3):
        crowd.step()
    return empty, crowd


# sha256 of (frame without rays, frame with rays), recorded before the
# renderer read the pose arrays instead of `state.bodies`.
_FRAME_HASHES = {
    "empty": (
        "760c4e20ad6674415631f95bcc80ec42ca2579bef870faf33f19e453108bf734",
        "760c4e20ad6674415631f95bcc80ec42ca2579bef870faf33f19e453108bf734",
    ),
    "crowd": (
        "0c4750ae092758d0eb6fdb26e896c5d0c33638dcce9aed47048235441cd8a5ba",
        "744f9c3eac3aee61caf3c044999e97f6da361f6372d6361036ba811cdd823246",
    ),
}


def test_frames_match_recorded_bytes(tmp_path):
    for name, sim in zip(("empty", "crowd"), _frame_sims(tmp_path)):
        got = (
            hashlib.sha256(render_frame(sim.state)).hexdigest(),
            hashlib.sha256(render_frame(sim.state, sim.spec, draw_rays=True)).hexdigest(),
        )
        assert got == _FRAME_HASHES[name], name
