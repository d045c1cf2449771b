"""swarmsim benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. The runner generates the workload's inputs from the
seed, then runs episodes (see episode.py), each in a fresh child process,
until S seconds have passed, and at least MIN_EPISODES of them. Every episode
is checked: it must not raise, must pass `check_invariants()`, and its final
state digest and counters must equal the golden reference in golden.json
(when the seed has one), every other episode of this run, and every earlier
run of the same seed in this checkout.

Times are wall times scaled to a reference host speed by a probe timed
between ticks (hostspeed.py); the raw wall times are printed above the
result line.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
episodes alternate untraced and traced and the last line carries the
per-layer metrics. README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
MAX_LOOP_S = 120  # start no episode expected to end later than this
DEADLINE_S = 170  # kill an episode still running this long after the start
MIN_EPISODES = 2  # episodes per run, however short --seconds is
DEFAULT_SEED = 1

COMPUTED = ("sensing.wall_pass_share", "sensing.pairs_per_robot", "kinematics.contact_share")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def fingerprint(episode: dict) -> dict:
    return {
        "digest": episode["digest"],
        "canceled_moves": episode["canceled_moves"],
        "messages_delivered": episode["messages_delivered"],
    }


class Checker:
    """Compares each episode's final state with every reference it has."""

    def __init__(self, workload: str, ticks: int, seed: int) -> None:
        golden = json.loads((BENCH_DIR / "golden.json").read_text())["workloads"].get(workload)
        self.golden = None
        self.stale = None
        if golden is not None:
            self.golden = golden["seeds"].get(str(seed))
            if golden["ticks"] != ticks:
                self.stale = f"golden.json records {golden['ticks']} ticks, the workload runs {ticks}"
        self.seen_path = WORK / "seen.json"
        self.seen = json.loads(self.seen_path.read_text()) if self.seen_path.exists() else {}
        self.key = f"{workload}/ticks{ticks}/seed{seed}"
        self.first: dict | None = None

    def problem(self, episode: dict) -> str | None:
        if self.stale:
            return self.stale
        if episode["invariant_error"]:
            return f"invariants: {episode['invariant_error']}"
        got = fingerprint(episode)
        for label, want in (
            ("golden reference", self.golden),
            ("earlier run of this seed", self.seen.get(self.key)),
            ("first episode of this run", self.first),
        ):
            if want is not None and got != want:
                return f"differs from the {label}: got {got}, want {want}"
        if self.first is None:
            self.first = got
            if self.key not in self.seen:
                self.seen[self.key] = got
                tmp = self.seen_path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
                os.replace(tmp, self.seen_path)
        return None


def run_child(
    workload: str, seed: int, map_path: str | None, traced: bool, timeout: float
) -> tuple[dict | None, str]:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "episode.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--work",
        str(WORK),
        "--traced",
        "1" if traced else "0",
    ]
    if map_path is not None:
        cmd += ["--map", map_path]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return None, f"episode timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"episode exited {proc.returncode}: {tail}"
    return json.loads(lines[-1]), ""


def end_to_end(episodes: list[dict], scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics over the episodes: times scaled to the
    reference host speed, or with `scaled=False` the raw wall times."""
    tick_key, setup_key = ("tick_s", "setup_s") if scaled else ("tick_raw_s", "setup_raw_s")
    ticks = sorted(t for e in episodes for t in e[tick_key])
    steps = sum(e["robots"] * len(e[tick_key]) for e in episodes)
    return {
        "steps_per_sec": steps / sum(ticks),
        "tick_ms_p50": 1e3 * percentile(ticks, 0.5),
        "tick_ms_p90": 1e3 * percentile(ticks, 0.9),
        "setup_s": statistics.median(s for e in episodes for s in e[setup_key]),
        "peak_rss_bytes": statistics.median(e["peak_rss_bytes"] for e in episodes),
    }


def per_layer(traced: list[dict]) -> dict[str, float]:
    layers = [e["per_layer"] for e in traced]
    return {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swarmsim" / "__init__.py").is_file():
        print(f"perfbench: no swarmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import EPISODE_TICKS, WORKLOADS, write_maze

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    map_path = None
    if workload.maze:
        map_path = str(WORK / f"maze_seed{args.seed}.pgm")
        sha, fraction = write_maze(map_path, args.seed)
        print(f"input: P2 maze {map_path} sha256={sha} obstacle_fraction={fraction:.4f}")
    else:
        print(f"input: empty {workload.arena}x{workload.arena} arena, no map file")

    checker = Checker(workload.name, EPISODE_TICKS, args.seed)
    passed: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    started = time.perf_counter()
    longest = 0.0

    def want_more() -> bool:
        elapsed = time.perf_counter() - started
        if elapsed + longest > MAX_LOOP_S:
            return False
        if args.trace:
            enough = bool(passed[False] and passed[True])
        else:
            enough = len(passed[False]) >= MIN_EPISODES
        # The minimum is waived once an episode has failed: more attempts
        # would fail the same way.
        return (not enough and not failed) or elapsed + longest <= args.seconds

    while want_more():
        traced = bool(args.trace) and attempted % 2 == 1
        t0 = time.perf_counter()
        timeout = DEADLINE_S - (t0 - started)
        episode, error = run_child(workload.name, args.seed, map_path, traced, timeout)
        wall = time.perf_counter() - t0
        longest = max(longest, wall)
        attempted += 1
        if episode is not None:
            error = checker.problem(episode) or ""
            if not error and episode["threads"] != 1:
                error = f"the episode ended with {episode['threads']} threads; hostspeed.py assumes 1"
        kind = "traced" if traced else "untraced"
        if error:
            failed += 1
            print(f"episode {attempted} ({kind}): FAILED: {error}")
            continue
        passed[traced].append(episode)
        print(
            f"episode {attempted} ({kind}): wall_s={wall:.2f} "
            f"setup_raw_s={statistics.median(episode['setup_raw_s']):.4f} "
            f"setups={len(episode['setup_s'])} "
            f"ticks_timed={len(episode['tick_s'])} digest={episode['digest']} "
            f"canceled_moves={episode['canceled_moves']} "
            f"messages_delivered={episode['messages_delivered']} "
            f"peak_rss_bytes={episode['peak_rss_bytes']}"
            + (f" trace={episode['trace_path']}" if traced else "")
        )

    print(f"failed_run_share={failed}/{attempted}={failed / attempted:.4f}")
    if args.trace:
        if not (passed[False] and passed[True]):
            print("perfbench: no traced/untraced episode pair passed", file=sys.stderr)
            return 1
        values = per_layer(passed[True])
    else:
        if not passed[False]:
            print("perfbench: no episode passed", file=sys.stderr)
            return 1
        values = end_to_end(passed[False])
        timed = sum(len(e["tick_s"]) for e in passed[False])
        print(f"tick samples={timed} from {len(passed[False])} episodes")
        raw = end_to_end(passed[False], scaled=False)
        print("raw wall times, not scaled by the host-speed probe: "
              + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    values = {name: values[name] for name in units}
    for name, value in values.items():
        note = "  (computed from pose snapshots)" if name in COMPUTED else ""
        print(f"{name} = {value!r} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
