"""Grid map loading, collision queries, and spatial index behavior."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from swarmsim import (
    MapLoadError,
    Pose,
    RobotBody,
    RobotIndex,
    generate_arena,
    load_map,
    rebuild_index,
)

from conftest import disc_free_oracle, grid_from_ascii, neighbors_oracle, random_grid


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
    assert (generate_arena(7, 5).clearance == 14).all()


def test_array_lookups_match_scalar_queries():
    rng = random.Random(11)
    for fill in (0.2, 0.0):
        grid = random_grid(rng, 13, 9, fill)
        xs = np.array([rng.uniform(-3.0, 16.0) for _ in range(400)] + [0.0, -1e-9, 13.0, 12.999])
        ys = np.array([rng.uniform(-3.0, 12.0) for _ in range(400)] + [0.0, 4.5, 4.5, 8.999])
        cx = np.floor(xs).astype(np.int64)
        cy = np.floor(ys).astype(np.int64)
        inside = (cx >= 0) & (cy >= 0) & (cx < 13) & (cy < 9)
        assert 0 < np.count_nonzero(inside) < xs.size
        blocked = grid.blocked_at(cx, cy)
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


def test_immutable_occupancy(arena100):
    with pytest.raises(ValueError):
        arena100.occupancy[0, 0] = True


# --- RobotIndex -------------------------------------------------------------------


def _bodies(points: list[tuple[float, float]], radius: float = 2.0) -> list[RobotBody]:
    return [RobotBody(i, Pose(x, y, 0.0), radius) for i, (x, y) in enumerate(points)]


def test_rebuild_empty():
    index = rebuild_index([], 16.0)
    assert not index.buckets
    assert index.neighbors_within(5, 5, 100) == []


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
    index = rebuild_index(_bodies([(50.0, 50.0), (50.0, 55.0), (50.0, 70.0)]), 16.0)
    assert index.neighbors_within(50.0, 50.0, 10.0, exclude=0) == [1]


def test_neighbors_exclude_and_sorted():
    points = [(30.0, 30.0), (31.0, 30.0), (29.0, 30.0), (30.0, 31.0)]
    index = rebuild_index(_bodies(points), 4.0)
    assert index.neighbors_within(30.0, 30.0, 5.0) == [0, 1, 2, 3]
    assert index.neighbors_within(30.0, 30.0, 5.0, exclude=2) == [0, 1, 3]


def test_neighbors_match_naive_scan_on_random_configs():
    rng = random.Random(99)
    for trial in range(1000):
        n = rng.randint(0, 60)
        points = [(rng.uniform(-20, 120), rng.uniform(-20, 120)) for _ in range(n)]
        cell = rng.choice([3.0, 8.0, 16.0, 37.5])
        index = rebuild_index(_bodies(points), cell)
        x = rng.uniform(-30, 130)
        y = rng.uniform(-30, 130)
        d = rng.uniform(0, 60)
        exclude = rng.randrange(n) if n and rng.random() < 0.5 else None
        assert index.neighbors_within(x, y, d, exclude) == neighbors_oracle(
            points, x, y, d, exclude
        ), (trial, points, x, y, d, exclude)


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
    x, y, d = 50.0, 50.0, 33.0
    assert index.neighbors_within(x, y, d) == neighbors_oracle(positions, x, y, d)


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
