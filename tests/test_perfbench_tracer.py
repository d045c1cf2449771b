"""The benchmark's tracer still binds every name it wraps.

`perfbench/tracer.py` rebinds functions of `swarmsim.engine` and methods of
the world and controller classes by name. This smoke test installs it, runs
one tick and restores the originals, so removing or renaming a traced name
fails here rather than only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import swarmsim.engine as engine
from swarmsim import SimConfig, Simulation

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_steps_and_restores():
    module = _load_tracer()
    originals = {attr: getattr(engine, attr) for attr, _, _ in module._ENGINE_NAMES}
    config = SimConfig(
        robot_count=20,
        seed=4,
        ticks=1,
        controller_type="braitenberg",
        arena_width=200,
        arena_height=200,
    )
    tracer = module.Tracer()
    tracer.install()
    try:
        sim = Simulation(config)
        with tracer.span("engine.step"):
            sim.step()
        tracer.end_tick(0)
    finally:
        tracer.enable(False)
    for attr, original in originals.items():
        assert getattr(engine, attr) is original
    names = {span[1] for span in tracer.spans}
    assert {"world.load_map", "engine.spawn", "sensing.sense_batch"} <= names
    assert sim.state.tick == 1
    sim.check_invariants()
