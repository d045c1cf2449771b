"""The benchmark's workloads still build valid configurations, and the
maze's map fields stay small.

`perfbench/workloads.py` constructs `SimConfig` directly, and a config
checks its own rules when it is built. This test loads the module from its
file, without changing it, and builds every workload's config for the seeds
the golden digests cover, so a stricter rule that the benchmark breaks fails
here rather than only in a benchmark run.
"""

from __future__ import annotations

import tracemalloc

import pytest

from swarmsim import GridMap, SimConfig, load_map, world

@pytest.mark.parametrize("name", ["arena5k_avoid", "crowd2k_walk", "maze1k_beacon"])
def test_make_config_builds_every_seed(workloads, name):
    workload = workloads.WORKLOADS[name]
    for seed in range(11):
        config = workloads.make_config(workload, seed, "maze.pgm")
        assert isinstance(config, SimConfig)
        assert config.seed == seed
        assert config.robot_count == workload.robots
        assert (config.map_path is not None) == workload.maze


def test_maze_fields_stay_within_their_memory(workloads):
    # The maze's peak RSS bound is 5%, so its map fields are held to a byte
    # budget here: four uint8 box fields and the uint8 clearance, 5 MiB in
    # all on the 1024x1024 maze (the earlier int32 clearance alone took
    # 4 MiB). The build's temporaries stay under 2 MiB on top (measured:
    # 6.1 MiB peak with numpy 2.4).
    occ = workloads.maze_occupancy(1)
    grid = GridMap(occ.shape[1], occ.shape[0], occ)
    tracemalloc.start()
    try:
        boxes = grid.boxes
        clearance = grid.clearance
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert boxes.nbytes + clearance.nbytes <= 5 << 20
    assert resident <= (5 << 20) + (64 << 10)
    assert peak < 7 << 20


def test_maze_map_takes_the_numpy_p2_parse(workloads):
    # The token loop parsed this map in seconds (see MAZE_SIZE in
    # perfbench/workloads.py); a guard that sent it there again would slow
    # the maze's set-up a lot without changing any digest.
    for seed in range(3):
        occ = workloads.maze_occupancy(seed)
        data = workloads.p2_bytes(occ, seed)
        scan = world._PgmScanner(data)
        for what in ("magic", "width", "height", "maxval"):
            scan.token(what)
        assert world._p2_pixels_fast(data, scan.pos, occ.size, 255) is not None
        assert (load_map(data).occupancy == occ).all()
