"""Grid map loading, collision queries, the robot index, and the pair
search."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from swarmsim import (
    GridMap,
    MapLoadError,
    Pose,
    RobotBody,
    RobotIndex,
    SensorSpec,
    evenly_spaced_angles,
    generate_arena,
    load_map,
    rebuild_index,
    sense_all,
    sense_batch,
)
from swarmsim.sensing import HIT_NONE, HIT_WALL

from conftest import (
    any_within_strict_oracle,
    assert_pairs_match_oracle,
    disc_free_oracle,
    grid_from_ascii,
    pairs_oracle,
    random_grid,
)


# --- PGM loading ---------------------------------------------------------------


def test_p2_all_white_is_free():
    grid = load_map(b"P2\n2 2\n255\n255 255 255 255\n")
    assert (grid.width, grid.height) == (2, 2)
    assert not grid.occupancy.any()


def test_p2_single_black_pixel_is_obstacle():
    grid = load_map(b"P2\n1 1\n255\n0\n")
    assert grid.is_obstacle(0, 0)


def test_threshold_boundary_127_obstacle_128_free():
    grid = load_map(b"P2\n2 1\n255\n127 128\n")
    assert grid.is_obstacle(0, 0)
    assert not grid.is_obstacle(1, 0)


def test_p5_binary_roundtrip_with_comments():
    payload = bytes([0, 255, 128, 127, 200, 5])
    data = b"P5\n# a map\n3 2\n# more\n255\n" + payload
    grid = load_map(data)
    expected = np.array([[True, False, False], [True, False, True]])
    assert (grid.occupancy == expected).all()


def test_p2_comments_between_tokens():
    grid = load_map(b"P2 # magic\n# then\n2 # width\n1\n255\n1 255\n")
    assert grid.is_obstacle(0, 0) and not grid.is_obstacle(1, 0)


def test_unsupported_magic_names_offset():
    with pytest.raises(MapLoadError, match=r"magic.*byte 0"):
        load_map(b"P7\n1 1\n255\n\x00")


def test_maxval_zero_rejected():
    with pytest.raises(MapLoadError, match="maxval"):
        load_map(b"P2\n1 1\n0\n0\n")


def test_maxval_above_255_rejected():
    with pytest.raises(MapLoadError, match="maxval"):
        load_map(b"P2\n1 1\n65535\n12 34\n")


def test_truncated_p5_payload_names_offset():
    data = b"P5\n2 2\n255\n\x00\x01"
    with pytest.raises(MapLoadError, match=r"byte \d+"):
        load_map(data)


def test_truncated_p2_tokens():
    with pytest.raises(MapLoadError, match=r"byte \d+"):
        load_map(b"P2\n2 2\n255\n1 2 3\n")


def _load_outcome(data: bytes):
    try:
        grid = load_map(data)
    except MapLoadError as exc:
        return str(exc)
    return grid.width, grid.height, grid.occupancy.tobytes()


def test_p2_numpy_body_parse_matches_token_loop(monkeypatch):
    """The chunked numpy parse of P2 pixels gives the token loop's grid or,
    where it gives up (comments, long tokens, bad values, truncation), the
    loop's exact error message."""
    from swarmsim import world

    rng = random.Random(7)
    cases = []
    for _ in range(400):
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        maxval = rng.choice([1, 99, 127, 255])
        count = w * h + rng.randint(-1, 1)
        tokens = [str(rng.randint(0, maxval + (rng.random() < 0.03))) for _ in range(count)]
        tokens = ["0" + t if rng.random() < 0.05 else t for t in tokens]
        body = "".join(rng.choice([" ", "\n", "\t", "\r\n", "  ", "\x0b"]) + t for t in tokens)
        if rng.random() < 0.05:
            body += " # trailing comment 1 2 3"
        cases.append(f"P2\n{w} {h}\n{maxval}{body}\n".encode())
    for chunk in (1, 2, 5, 1 << 20):
        monkeypatch.setattr(world, "_P2_CHUNK", chunk)
        fast = [_load_outcome(data) for data in cases]
        with monkeypatch.context() as m:
            m.setattr(world, "_p2_pixels_fast", lambda *args: None)
            slow = [_load_outcome(data) for data in cases]
        assert fast == slow
    assert any(isinstance(out, str) for out in slow)
    assert any(not isinstance(out, str) for out in slow)
    # the numpy parse itself handles plain bodies, without the fallback
    assert world._p2_pixels_fast(b"P2\n3 1\n255\n0 127\t255\n", 10, 3, 255).tolist() == [0, 127, 255]


def test_p2_pixel_above_maxval_rejected():
    with pytest.raises(MapLoadError, match="pixel"):
        load_map(b"P2\n1 1\n100\n101\n")


# --- is_obstacle / closed world --------------------------------------------------


def test_out_of_range_is_obstacle(arena100):
    assert arena100.is_obstacle(-1, 0)
    assert arena100.is_obstacle(100, 99)
    assert arena100.is_obstacle(0, -1)
    assert arena100.is_obstacle(50, 100)
    assert not arena100.is_obstacle(0, 0)


# --- disc_free -------------------------------------------------------------------


def test_disc_free_open_space(arena100):
    assert arena100.disc_free(50.0, 50.0, 3.0)


def test_disc_near_obstacle_cell_blocked():
    grid = grid_from_ascii(
        """
        ..........
        ..........
        .....#....
        ..........
        ..........
        """
    )
    # obstacle cell center (5.5, 2.5); a disc centered 1 px away with r=3
    assert not grid.disc_free(4.5, 2.5, 3.0)


def test_disc_near_border_blocked(arena100):
    assert not arena100.disc_free(1.0, 1.0, 3.0)


def test_disc_free_matches_bruteforce_on_random_scenes():
    rng = random.Random(2024)
    for _ in range(1000):
        grid = random_grid(rng, rng.randint(4, 24), rng.randint(4, 24), rng.uniform(0, 0.2))
        x = rng.uniform(-2, grid.width + 2)
        y = rng.uniform(-2, grid.height + 2)
        r = rng.uniform(0.3, 6.0)
        assert grid.disc_free(x, y, r) == disc_free_oracle(grid, x, y, r), (
            grid.occupancy,
            x,
            y,
            r,
        )


def _chebyshev_oracle(grid, cx: int, cy: int) -> tuple[int, int]:
    """(distance to the nearest obstacle cell of the map, width + height + 2
    without one; distance to the nearest out-of-range cell), both Chebyshev
    between cell centers, by exhaustive scan."""
    inner = grid.width + grid.height + 2
    for oy, ox in np.argwhere(grid.occupancy):
        inner = min(inner, max(abs(int(ox) - cx), abs(int(oy) - cy)))
    return inner, min(cx + 1, cy + 1, grid.width - cx, grid.height - cy)


def test_clearance_field_is_exact_chebyshev():
    # The field covers the map's own obstacles only; the border is left to
    # the queries (below) and to the ray traversal.
    rng = random.Random(7)
    for _ in range(50):
        grid = random_grid(rng, rng.randint(2, 16), rng.randint(2, 16), rng.uniform(0, 0.3))
        field = grid.clearance
        for cy in range(grid.height):
            for cx in range(grid.width):
                assert field[cy, cx] == _chebyshev_oracle(grid, cx, cy)[0]
        if grid.occupancy.any():
            assert field.dtype == np.uint8
            assert np.array_equal(field, grid.boxes.min(axis=0))
    assert (generate_arena(7, 5).clearance == 14).all()


def _box_oracle(grid, q: int, cx: int, cy: int) -> int:
    """Side of the largest obstacle-free square with a corner at (cx, cy)
    that extends into quadrant q (bit 0: -x, bit 1: -y), out-of-range cells
    free, capped at 255, by growing the square one ring at a time."""
    sx = -1 if q & 1 else 1
    sy = -1 if q & 2 else 1
    side = 0
    while side < 255:
        if side > grid.width + grid.height:
            return 255  # every further ring lies outside the map
        ring = [(cx + sx * side, cy + sy * k) for k in range(side + 1)]
        ring += [(cx + sx * k, cy + sy * side) for k in range(side)]
        if any(
            0 <= x < grid.width and 0 <= y < grid.height and grid.occupancy[y, x]
            for x, y in ring
        ):
            break
        side += 1
    return side


def test_quadrant_boxes_match_brute_force():
    rng = random.Random(19)
    grids = [
        grid_from_ascii("#"),
        grid_from_ascii("##\n##"),  # every cell an obstacle
        grid_from_ascii("..#.##...#"),  # one row
        grid_from_ascii("\n".join(".#..#.#")),  # one column
    ]
    for _ in range(60):
        w, h = rng.randint(1, 16), rng.randint(1, 16)
        grids.append(random_grid(rng, w, h, rng.uniform(0.0, 0.3)))
    for grid in grids:
        if not grid.occupancy.any():
            continue  # the constant field of an obstacle-free map, below
        boxes = grid.boxes
        assert boxes.shape == (4, grid.height, grid.width)
        assert boxes.dtype == np.uint8
        for q in range(4):
            for cy in range(grid.height):
                for cx in range(grid.width):
                    want = _box_oracle(grid, q, cx, cy)
                    assert boxes[q, cy, cx] == want, (grid.width, grid.height, q, cx, cy)
    open_grid = random_grid(rng, 5, 3, 0.0)
    assert open_grid.boxes.shape == (4, 3, 5)
    assert (open_grid.boxes == 5 + 3 + 2).all()


def test_far_cells_of_a_large_map_read_the_cap():
    # One obstacle on a 600x600 map: cells farther than 255 from it read
    # 255, and every query that uses the fields still matches its oracle.
    occ = np.zeros((600, 600), dtype=bool)
    occ[100, 150] = True
    grid = GridMap(600, 600, occ)
    assert grid.clearance[100, 150] == 0
    assert grid.clearance[100, 150 + 254] == 254
    assert grid.clearance[599, 599] == grid.clearance[100, 405] == 255
    assert grid.boxes[0, 101, 151] == 255  # the quadrant that points away
    assert grid.boxes[3, 101, 151] == 1
    rng = random.Random(29)
    xs = np.array([rng.uniform(-1.0, 601.0) for _ in range(300)])
    ys = np.array([rng.uniform(-1.0, 601.0) for _ in range(300)])
    clear = grid.clearance_at(xs, ys)
    for x, y, got in zip(xs.tolist(), ys.tolist(), clear.tolist()):
        cx, cy = math.floor(x), math.floor(y)
        if 0 <= cx < 600 and 0 <= cy < 600:
            inner, border = _chebyshev_oracle(grid, cx, cy)
            assert got == min(inner, border, 255), (x, y)
        else:
            assert got == 0
    for x, y in [(150.5, 100.5), (151.9, 102.0), (405.0, 100.5), (300.0, 300.0)]:
        for r in (0.5, 2.0, 254.0, 256.0, 300.0):
            assert grid.disc_free(x, y, r) == disc_free_oracle(grid, x, y, r), (x, y, r)
    # Sensing with a range past the cap, against the scalar reference.
    spec = SensorSpec(evenly_spaced_angles(16), 400.0)
    bodies = [
        RobotBody(i, Pose(x, y, rng.uniform(-math.pi, math.pi)), 2.0)
        for i, (x, y) in enumerate([(150.5, 120.0), (500.0, 500.0), (20.0, 580.0), (300.0, 100.5)])
    ]
    xs = np.array([b.pose.x for b in bodies])
    ys = np.array([b.pose.y for b in bodies])
    thetas = np.array([b.pose.theta for b in bodies])
    normalized, hits = sense_batch(grid, xs, ys, thetas, 2.0, spec)
    centers = [(b.pose.x, b.pose.y) for b in bodies]
    for i, body in enumerate(bodies):
        for j, reading in enumerate(sense_all(body, spec, grid, centers)):
            assert normalized[i, j] == reading.normalized, (i, j)
            code = {"none": HIT_NONE, "wall": HIT_WALL}.get(reading.kind, reading.robot)
            assert hits[i, j] == code, (i, j)
    assert (normalized[hits == HIT_WALL] * 400.0 > 255.0).any()  # hits past the cap


def test_array_lookups_match_scalar_queries():
    rng = random.Random(11)
    # A generated arena's fields are read-only int64 broadcasts.
    grids = [random_grid(rng, 13, 9, 0.2), random_grid(rng, 13, 9, 0.0), generate_arena(13, 9)]
    assert grids[2].clearance.dtype == np.int64 and grids[2].clearance.strides == (0, 0)
    for grid in grids:
        xs = np.array([rng.uniform(-3.0, 16.0) for _ in range(400)] + [0.0, -1e-9, 13.0, 12.999])
        ys = np.array([rng.uniform(-3.0, 12.0) for _ in range(400)] + [0.0, 4.5, 4.5, 8.999])
        cx = np.floor(xs).astype(np.int64)
        cy = np.floor(ys).astype(np.int64)
        inside = (cx >= 0) & (cy >= 0) & (cx < 13) & (cy < 9)
        assert 0 < np.count_nonzero(inside) < xs.size
        blocked = grid.blocked_at(cx, cy)
        # Bools: the wall pass negates this with `~`, which would be a
        # bitwise not on integers.
        assert blocked.dtype == np.bool_
        clear = grid.clearance_at(xs, ys)
        for i in range(xs.size):
            assert blocked[i] == grid.is_obstacle(int(cx[i]), int(cy[i]))
            if inside[i]:
                border = min(cx[i] + 1, cy[i] + 1, 13 - cx[i], 9 - cy[i])
                assert clear[i] == min(grid.clearance[cy[i], cx[i]], border)
            else:
                assert clear[i] == 0


def test_lookups_keep_the_border_merged_values():
    # The values callers read are those of a field that counts out-of-range
    # cells as obstacles: the border-merged clearance, and exact disc tests.
    rng = random.Random(13)
    for _ in range(40):
        grid = random_grid(rng, rng.randint(2, 16), rng.randint(2, 16), rng.choice([0.0, 0.1]))
        w, h = grid.width, grid.height
        merged = np.array(
            [[min(_chebyshev_oracle(grid, cx, cy)) for cx in range(w)] for cy in range(h)]
        )
        xs = np.array([rng.uniform(-2.0, w + 2.0) for _ in range(60)])
        ys = np.array([rng.uniform(-2.0, h + 2.0) for _ in range(60)])
        clear = grid.clearance_at(xs, ys)
        for x, y, got in zip(xs.tolist(), ys.tolist(), clear.tolist()):
            cx, cy = math.floor(x), math.floor(y)
            inside = 0 <= cx < w and 0 <= cy < h
            assert got == (merged[cy, cx] if inside else 0), (x, y)
            for r in (0.5, 1.5, 3.0):
                assert grid.disc_free(x, y, r) == disc_free_oracle(grid, x, y, r), (x, y, r)
    # Far-off points read 0 without overflowing the cell cast.
    far = np.array([1e18, -1e18, 1e300, -1e300])
    assert grid.clearance_at(far, far[::-1]).tolist() == [0, 0, 0, 0]


def test_open_arena_holds_no_map_sized_buffer():
    # As arrays, the occupancy of an 8192x8192 arena would take 64 MiB and
    # its clearance field 256 MiB; both are read-only broadcasts of one value.
    side = 8192
    tracemalloc.start()
    try:
        grid = generate_arena(side, side)
        assert grid.occupancy.strides == (0, 0)
        clearance = grid.clearance
        boxes = grid.boxes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for field in (grid.occupancy, clearance):
        assert field.shape == (side, side)
        assert field.strides == (0, 0)
        assert not field.flags.writeable
    assert boxes.shape == (4, side, side)
    assert boxes.strides == (0, 0, 0)
    assert not boxes.flags.writeable
    assert boxes[3, side - 1, side - 1] == 2 * side + 2
    assert not grid.occupancy.any()
    assert clearance[0, 0] == clearance[side - 1, side - 1] == 2 * side + 2
    # The border still bounds every query.
    xs = np.array([0.0, 0.5, 8191.9, 4096.0, -0.1, 8192.0, 4096.5])
    ys = np.array([0.0, 4096.0, 8191.9, 0.2, 10.0, 5.0, 4096.5])
    assert grid.clearance_at(xs, ys).tolist() == [1, 1, 1, 1, 0, 0, 4096]
    cx = np.array([-1, 0, 8191, 8192, 5, 4096])
    cy = np.array([0, 0, 8191, 3, -1, 4096])
    assert grid.blocked_at(cx, cy).tolist() == [True, False, False, True, True, False]
    rng = random.Random(17)
    for _ in range(200):
        x = rng.choice([rng.uniform(-1.0, 6.0), rng.uniform(side - 6.0, side + 1.0)])
        y = rng.uniform(-1.0, side + 1.0)
        r = rng.uniform(0.5, 4.0)
        assert grid.disc_free(x, y, r) == disc_free_oracle(grid, x, y, r), (x, y, r)
        assert grid.disc_free(y, x, r) == disc_free_oracle(grid, y, x, r), (y, x, r)
    assert grid.disc_free(4096.0, 4096.0, 100.0)


def test_immutable_occupancy(arena100):
    with pytest.raises(ValueError):
        arena100.occupancy[0, 0] = True


# --- RobotIndex -------------------------------------------------------------------


def _bodies(points: list[tuple[float, float]], radius: float = 2.0) -> list[RobotBody]:
    return [RobotBody(i, Pose(x, y, 0.0), radius) for i, (x, y) in enumerate(points)]


def test_rebuild_empty():
    index = rebuild_index([], 16.0)
    assert not index.buckets
    assert not index.any_within_strict(5, 5, 100)


def test_two_close_robots_share_bucket_sorted():
    index = rebuild_index(_bodies([(8.0, 8.0), (11.0, 8.0)]), 16.0)
    assert index.buckets == {(0, 0): [0, 1]}


def test_bucket_membership_matches_floor_division():
    rng = random.Random(5)
    points = [(rng.uniform(0, 500), rng.uniform(0, 500)) for _ in range(1000)]
    cell = 13.0
    index = rebuild_index(_bodies(points), cell)
    for i, (x, y) in enumerate(points):
        expected = (math.floor(x / cell), math.floor(y / cell))
        assert i in index.buckets[expected]
    for members in index.buckets.values():
        assert members == sorted(members)


def test_neighbors_basic_distance_filter():
    points = [(50.0, 50.0), (50.0, 55.0), (50.0, 70.0)]
    index = rebuild_index(_bodies(points), 16.0)
    assert not index.any_within_strict(50.0, 40.0, 10.0)  # robot 0 exactly 10 away
    assert index.any_within_strict(50.0, 40.0, 10.5)
    assert pairs_oracle(points, 10.0) == {(0, 1): 25.0}
    assert_pairs_match_oracle(points, 10.0)


def test_neighbors_exclude_and_sorted():
    points = [(30.0, 30.0), (31.0, 30.0), (29.0, 30.0), (30.0, 31.0)]
    index = rebuild_index(_bodies(points), 4.0)
    assert index.buckets == {(7, 7): [0, 1, 2, 3]}
    # every unordered pair once, no robot paired with itself
    assert len(pairs_oracle(points, 5.0)) == 6
    assert_pairs_match_oracle(points, 5.0)


def test_neighbors_match_naive_scan_on_random_configs():
    # Spawn's probe and the tick's pair search, against naive scans.
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.randint(0, 60)
        points = [(rng.uniform(-20, 120), rng.uniform(-20, 120)) for _ in range(n)]
        cell = rng.choice([3.0, 8.0, 16.0, 37.5])
        index = rebuild_index(_bodies(points), cell)
        x = rng.uniform(-30, 130)
        y = rng.uniform(-30, 130)
        d = rng.uniform(0, 60)
        assert index.any_within_strict(x, y, d) == any_within_strict_oracle(
            points, x, y, d
        ), (trial, points, x, y, d)
        assert_pairs_match_oracle(points, d)


def test_move_keeps_invariants():
    rng = random.Random(12)
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(40)]
    index = rebuild_index(_bodies(points), 16.0)
    positions = list(points)
    for _ in range(500):
        i = rng.randrange(40)
        nx, ny = rng.uniform(0, 100), rng.uniform(0, 100)
        index.move(i, nx, ny)
        positions[i] = (nx, ny)
    for members in index.buckets.values():
        assert members == sorted(members)
    seen: list[int] = []
    for members in index.buckets.values():
        seen.extend(members)
    assert sorted(seen) == list(range(40))
    for x in range(0, 101, 10):
        for y in range(0, 101, 10):
            for d in (3.0, 9.0, 33.0):
                assert index.any_within_strict(x, y, d) == any_within_strict_oracle(
                    positions, x, y, d
                ), (x, y, d)


def test_any_within_strict_is_strict():
    index = rebuild_index(_bodies([(10.0, 10.0)]), 16.0)
    assert not index.any_within_strict(14.0, 10.0, 4.0)  # exactly d away
    assert index.any_within_strict(13.9, 10.0, 4.0)


def test_cell_size_validation():
    with pytest.raises(ValueError):
        RobotIndex(0.0)
    with pytest.raises(ValueError):
        rebuild_index([], -1.0)


def test_generate_arena_all_free():
    grid = generate_arena(64, 32)
    assert grid.width == 64 and grid.height == 32
    assert not grid.occupancy.any()
    assert grid.is_obstacle(-1, 5) and grid.is_obstacle(64, 5)


def test_p2_header_larger_than_its_file_allocates_nothing():
    # 2**60 pixels announced, two given: the loader fails at the first
    # missing token without allocating anything of the announced size.
    with pytest.raises(MapLoadError, match=r"^truncated file: missing pixel value at byte 32$"):
        load_map(b"P2 1073741824 1073741824 255 0 0")
