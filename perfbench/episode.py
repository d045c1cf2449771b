"""One benchmark episode, run in a fresh process by run.py.

An episode builds the workload's `Simulation` (several times where that is
quick), steps it a fixed number of ticks with a host-speed probe before each
(hostspeed.py), checks the invariants and prints one JSON line: the set-up
times and per-tick latencies, raw and scaled to the reference host speed,
the final state digest and counters, the number of threads the process
ended with, and the peak resident set size of this process alone. With
--traced 1 it also installs the tracer, writes the spans to a file and adds
the per-layer numbers.

    python3 perfbench/episode.py --workload NAME --seed N --work DIR \
        [--map PATH] [--traced 0|1]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
from swarmsim import Simulation, TrajectoryLogger, state_digest  # noqa: E402
from workloads import (  # noqa: E402
    EPISODE_TICKS,
    WARMUP_TICKS,
    WORKLOADS,
    Workload,
    make_config,
    make_controller,
)

SHARE_EVERY = 10  # ticks between pose snapshots for the workload shares
SETUP_BUDGET_S = 2.0  # set up again while the set-ups so far took less
SETUP_MAX = 16
SETUP_PROBES = 3  # probes timed before and after each set-up

# Per-tick means reported in ms, from the traced spans: metric -> span name.
_TICK_MS = {
    "world.rebuild_index_ms": "world.rebuild_index",
    "world.index_move_ms": "world.index_move",
    "world.disc_free_ms": "world.disc_free",
    "world.any_within_strict_ms": "world.any_within_strict",
    "sensing.sense_batch_ms": "sensing.sense_batch",
    "kinematics.apply_command_ms": "kinematics.apply_command",
    "kinematics.resolve_move_ms": "kinematics.resolve_move",
    "controllers.step_ms": "controllers.step",
    "controllers.deliver_messages_ms": "controllers.deliver_messages",
    "output.log_append_ms": "output.log_append",
    "engine.step_ms": "engine.step",
    "engine.self_ms": "engine.self",
}
# Per-tick mean call counts: metric -> span name.
_TICK_CALLS = {
    "world.index_move_calls": "world.index_move",
    "kinematics.moves_attempted": "kinematics.resolve_move",
}
_SETUP_S = {
    "world.load_map_s": "world.load_map",
    "world.clearance_s": "world.clearance",
    "engine.spawn_s": "engine.spawn",
}


def snapshot_shares(sim: Simulation) -> tuple[float, float, float]:
    """Workload properties of the current poses, computed here with numpy
    and independent of the program's own index: the share of robots the
    sensing wall pass cannot skip, the mean number of other robots within
    sensor reach, and the share of robots with a neighbour close enough to
    interact in move resolution this tick."""
    config = sim.config
    r = config.robot_radius
    bodies = sim.state.bodies
    xs = np.array([b.pose.x for b in bodies])
    ys = np.array([b.pose.y for b in bodies])
    grid = sim.state.grid
    cx = np.clip(np.floor(xs).astype(np.int64), 0, grid.width - 1)
    cy = np.clip(np.floor(ys).astype(np.int64), 0, grid.height - 1)
    wall_pass = float(np.mean(grid.clearance[cy, cx] <= config.sensor_range + r + 2.0))
    reach2 = (config.sensor_range + 2.0 * r) ** 2
    contact2 = (2.0 * r + 2.0 * config.v_max) ** 2
    pairs = 0
    in_contact = 0
    for lo in range(0, xs.size, 256):
        d2 = (xs[lo : lo + 256, None] - xs[None, :]) ** 2
        d2 += (ys[lo : lo + 256, None] - ys[None, :]) ** 2
        rows = np.arange(d2.shape[0])
        d2[rows, rows + lo] = np.inf  # a robot is not its own neighbour
        pairs += int(np.count_nonzero(d2 <= reach2))
        in_contact += int(np.count_nonzero((d2 <= contact2).any(axis=1)))
    return wall_pass, pairs / xs.size, in_contact / xs.size


def layer_metrics(
    tracer, tick_spans: dict[int, int], canceled: float, delivered: float
) -> dict[str, float]:
    """Per-layer numbers of one traced episode: per-tick means over the
    traced ticks, set-up spans in seconds. `canceled` and `delivered` are
    the engine's own counters per timed tick."""
    timed = len(tick_spans)
    totals = tracer.tick_totals(tick_spans).values()
    layer = {}
    for metric, name in _TICK_MS.items():
        layer[metric] = 1e3 * sum(t.get(name, (0, 0.0))[1] for t in totals) / timed
    for metric, name in _TICK_CALLS.items():
        layer[metric] = sum(t.get(name, (0, 0.0))[0] for t in totals) / timed
    for metric, name in _SETUP_S.items():
        spans = tracer.spans_named(name)
        layer[metric] = spans[0][3] - spans[0][2] if spans else 0.0
    attempted = layer["kinematics.moves_attempted"]
    layer["kinematics.moves_canceled"] = canceled
    layer["kinematics.accept_ratio"] = 1.0 - canceled / attempted
    layer["controllers.messages_delivered"] = delivered
    return layer


def run_episode(workload: Workload, seed: int, map_path: str | None, work: Path, traced: bool) -> dict:
    config = make_config(workload, seed, map_path)
    controller = make_controller(workload, config)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(type(controller) if controller is not None else None)

    def span(name: str, on: bool = True):
        return tracer.span(name) if tracer is not None and on else nullcontext()

    clock = time.perf_counter
    probe = hostspeed.Probe()

    def set_up() -> Simulation:
        """Construct the simulation once, timed and scaled by the probes
        just before and after it."""
        probes = [probe() for _ in range(SETUP_PROBES)]
        with span("engine.setup"):
            t0 = clock()
            sim = Simulation(config, controller=controller)
            raw = clock() - t0
        probes += [probe() for _ in range(SETUP_PROBES)]
        setup_raw.append(raw)
        setup_s.append(raw * hostspeed.PROBE_REF_S / statistics.median(probes))
        return sim

    setup_raw: list[float] = []
    setup_s: list[float] = []
    sim = set_up()
    if tracer is not None:
        tracer.end_tick(-1)

    log_path = work / f"trajectory_{os.getpid()}.csv"
    logger = TrajectoryLogger(str(log_path)) if workload.log else None
    metrics = sim.state.metrics
    tick_s: list[float] = []
    step_s: list[float] = []
    probe_s: list[float] = []
    tick_spans: dict[int, int] = {}
    shares: list[tuple[float, float, float]] = []
    try:
        for tick in range(EPISODE_TICKS):
            if tick == WARMUP_TICKS:
                before = (metrics.canceled_moves, metrics.messages_delivered)
            # A traced episode traces every other tick, so the untraced ticks
            # between them give the tracing overhead under the same host load.
            traced_tick = tracer is not None and tick % 2 == 0
            if tracer is not None:
                tracer.enable(traced_tick)
                if tick % SHARE_EVERY == 0:
                    shares.append(snapshot_shares(sim))
            probe_time = probe()
            with span("tick", traced_tick) as tick_span:
                t0 = clock()
                with span("engine.step", traced_tick):
                    sim.step()
                t1 = clock()
                if logger is not None:
                    logger.append(sim.state)
                t2 = clock()
            if tick >= WARMUP_TICKS:
                tick_s.append(t2 - t0)
                step_s.append(t1 - t0)
                probe_s.append(probe_time)
            if traced_tick:
                tracer.end_tick(tick)
                if tick >= WARMUP_TICKS:
                    tick_spans[tick] = tick_span[0]
    finally:
        if logger is not None:
            logger.close()
    log_bytes = 0
    if logger is not None:
        log_bytes = log_path.stat().st_size - len(TrajectoryLogger.HEADER)
        log_path.unlink()

    # The probes measure the host only while the program runs no thread of
    # its own between ticks.
    task_dir = Path("/proc/self/task")
    threads = len(os.listdir(task_dir)) if task_dir.is_dir() else threading.active_count()

    invariant_error = None
    try:
        with span("engine.check_invariants"):
            sim.check_invariants()
    except AssertionError as exc:
        invariant_error = str(exc)

    result = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "robots": len(sim.state.bodies),
        "tick_s": hostspeed.scale_ticks(tick_s, probe_s),
        "tick_raw_s": tick_s,
        "step_s": step_s,
        "threads": threads,
        "digest": f"{state_digest(sim.state):016x}",
        "canceled_moves": metrics.canceled_moves,
        "messages_delivered": metrics.messages_delivered,
        "invariant_error": invariant_error,
    }
    if tracer is not None:
        timed = len(step_s)
        canceled = (metrics.canceled_moves - before[0]) / timed
        delivered = (metrics.messages_delivered - before[1]) / timed
        layer = layer_metrics(tracer, tick_spans, canceled, delivered)
        traced_steps = [t for i, t in enumerate(step_s, WARMUP_TICKS) if i in tick_spans]
        plain_steps = [t for i, t in enumerate(step_s, WARMUP_TICKS) if i not in tick_spans]
        layer["engine.tracing_overhead"] = statistics.median(traced_steps) / statistics.median(plain_steps)
        layer["output.log_bytes"] = log_bytes / EPISODE_TICKS
        for i, name in enumerate(
            ("sensing.wall_pass_share", "sensing.pairs_per_robot", "kinematics.contact_share")
        ):
            layer[name] = float(np.mean([s[i] for s in shares]))
        result["per_layer"] = layer
        trace_path = work / f"trace_{workload.name}_seed{seed}_pid{os.getpid()}.json"
        tracer.dump(str(trace_path), {"workload": workload.name, "seed": seed, "map": map_path})
        result["trace_path"] = str(trace_path)
    # ru_maxrss is in KiB on Linux; this process ran only this episode.
    result["peak_rss_bytes"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    # Where set-up is short, set up again for more set-up samples. This comes
    # after the peak RSS is read, which thus covers one set-up and the ticks.
    if not traced:
        while sum(setup_raw) < SETUP_BUDGET_S and len(setup_raw) < SETUP_MAX:
            sim = None
            gc.collect()
            controller = make_controller(workload, config)
            sim = set_up()
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for logs and traces")
    parser.add_argument("--map", default=None, help="map file for maze workloads")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_episode(
        WORKLOADS[args.workload], args.seed, args.map, Path(args.work), bool(args.traced)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
