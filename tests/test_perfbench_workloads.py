"""The benchmark's workloads still build valid configurations.

`perfbench/workloads.py` constructs `SimConfig` directly, and a config
checks its own rules when it is built. This test loads the module from its
file, without changing it, and builds every workload's config for the seeds
the golden digests cover, so a stricter rule that the benchmark breaks fails
here rather than only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from swarmsim import SimConfig

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while building
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["arena5k_avoid", "crowd2k_walk", "maze1k_beacon"])
def test_make_config_builds_every_seed(workloads, name):
    workload = workloads.WORKLOADS[name]
    for seed in range(11):
        config = workloads.make_config(workload, seed, "maze.pgm")
        assert isinstance(config, SimConfig)
        assert config.seed == seed
        assert config.robot_count == workload.robots
        assert (config.map_path is not None) == workload.maze
