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
from swarmsim import (
    ActuatorCommand,
    Broadcast,
    ControlOutput,
    SimConfig,
    Simulation,
    state_digest,
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_tick(module, config: SimConfig, plugin=None) -> tuple[Simulation, object]:
    """Install the tracer, build `config` (with `plugin` as its controller,
    if given) and run one tick under it, then restore the originals."""
    tracer = module.Tracer()
    tracer.install(type(plugin) if plugin is not None else None)
    try:
        sim = Simulation(config, controller=plugin)
        with tracer.span("engine.step"):
            sim.step()
        tracer.end_tick(0)
    finally:
        tracer.enable(False)
    return sim, tracer


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
    sim, tracer = _traced_tick(module, config)
    for attr, original in originals.items():
        assert getattr(engine, attr) is original
    names = {span[1] for span in tracer.spans}
    assert {"world.load_map", "engine.spawn", "sensing.sense_batch"} <= names
    assert sim.state.tick == 1
    sim.check_invariants()


def test_tracer_reaches_the_per_robot_wrappers_in_a_crowd():
    # 40 walkers on 64x64: spawn scans the walls exactly for the attempts
    # near the border, and the first tick sends robots through the serial
    # residue.
    module = _load_tracer()
    config = SimConfig(
        robot_count=40,
        seed=4,
        ticks=1,
        controller_type="random_walk",
        arena_width=64,
        arena_height=64,
    )
    sim, tracer = _traced_tick(module, config)
    counts: dict[str, int] = {}
    for _, name, _, count, _ in tracer.call_rows:
        counts[name] = counts.get(name, 0) + count
    assert counts.get("kinematics.resolve_move", 0) > 0
    assert counts.get("world.disc_free", 0) > 0
    assert counts["kinematics.resolve_move"] == sim.state.metrics.serial_moves
    untraced = Simulation(config)
    untraced.step()
    assert state_digest(sim.state) == state_digest(untraced.state)


class SlowdownPlugin:
    """Plugin controller: forward speed falls with the nearest reading and
    the messages heard, and every robot broadcasts."""

    def step(self, control_input, rng):
        nearest = min(reading.normalized for reading in control_input.readings)
        v = 2.0 * nearest / (1.0 + len(control_input.inbox))
        return ControlOutput(ActuatorCommand(v, 0.1), Broadcast(b"hi", 30.0))


def test_tracer_counts_plugin_steps_and_restores_the_class():
    # The path of a traced `maze1k_beacon` episode: `Tracer.install(plugin_class)`.
    module = _load_tracer()
    original = SlowdownPlugin.step
    config = SimConfig(
        robot_count=15,
        seed=4,
        ticks=1,
        controller_type="random_walk",
        arena_width=120,
        arena_height=120,
    )
    sim, tracer = _traced_tick(module, config, SlowdownPlugin())
    assert SlowdownPlugin.step is original
    steps = [row for row in tracer.call_rows if row[1] == "controllers.step"]
    assert sum(row[3] for row in steps) == config.robot_count
    assert sim.state.metrics.messages_delivered > 0
    untraced = Simulation(config, controller=SlowdownPlugin())
    untraced.step()
    assert state_digest(sim.state) == state_digest(untraced.state)
