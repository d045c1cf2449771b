"""Record golden.json: the final state of one untraced episode per
(workload, seed), which every later benchmark run of that seed must match.

    python3 perfbench/record_golden.py [SEED ...]

Only run this when a change is meant to alter simulated behaviour, and say
so in the change; a speed-only change must leave golden.json untouched.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, DEFAULT_SEED, ROOT, WORK, fingerprint, run_child


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [DEFAULT_SEED]
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import EPISODE_TICKS, WORKLOADS, write_maze

    WORK.mkdir(exist_ok=True)
    table = {name: {"ticks": EPISODE_TICKS, "seeds": {}} for name in WORKLOADS}
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            map_path = None
            if workload.maze:
                map_path = str(WORK / f"maze_seed{seed}.pgm")
                write_maze(map_path, seed)
            episode, error = run_child(name, seed, map_path, traced=False, timeout=600)
            if episode is None or episode["invariant_error"]:
                print(f"{name} seed {seed}: {error or episode['invariant_error']}", file=sys.stderr)
                return 1
            table[name]["seeds"][str(seed)] = fingerprint(episode)
            print(name, seed, table[name]["seeds"][str(seed)])
    golden = {"default_seed": DEFAULT_SEED, "workloads": table}
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
