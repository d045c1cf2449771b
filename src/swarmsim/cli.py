"""Command-line entry point.

Exit codes: 0 success, 1 configuration error (bad flags, bad config file),
2 runtime error (map load, spawn, controller fault, I/O during the run).
Errors print one machine-parseable line to stderr:
``error: config: <reason>`` or ``error: runtime: <reason>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .bench import bench, format_csv
from .config import parse_config
from .engine import run
from .errors import ConfigError, SimulationError


# (flag, config key): each given flag is appended as `--set key=VALUE`, after
# the --set overrides and in this order, so the config parses its value.
_SHORTHANDS = (
    ("--seed", "seed"),
    ("--ticks", "ticks"),
    ("--log", "log.path"),
    ("--frames-every", "frames.every"),
    ("--frames-dir", "frames.dir"),
)


def _print(text: str, end: str = "\n") -> None:
    """Print to stdout. A reader that closed the pipe early ends the output,
    not the run: stdout then points at os.devnull, so the interpreter's
    final flush stays quiet too."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsim",
        description="Deterministic headless 2D swarm-robotics simulator.",
    )
    parser.add_argument("--config", required=True, help="properties file describing the run")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; later wins)",
    )
    for flag, key in _SHORTHANDS:
        parser.add_argument(flag, dest=key, metavar="VALUE", help=f"same as --set {key}=VALUE")
    parser.add_argument(
        "--bench",
        metavar="N1,N2,...",
        help="run the scaling benchmark over these robot counts and print CSV",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the report block")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; -h exits 0, bad flags exit 1
        return 0 if exc.code == 0 else 1

    overrides = list(args.overrides)
    for _, key in _SHORTHANDS:
        value = getattr(args, key)
        if value is not None:
            overrides.append(f"{key}={value}")

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: config: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1

    if args.bench is not None:
        try:
            sizes = [int(part) for part in args.bench.split(",") if part.strip()]
        except ValueError:
            print(f"error: config: --bench expects integers, got {args.bench!r}", file=sys.stderr)
            return 1
        try:
            rows = bench(config, sizes)
        except ValueError as exc:  # no sizes, or a negative one
            print(f"error: config: {exc}", file=sys.stderr)
            return 1
        _print(format_csv(rows), end="")
        return 0

    try:
        report = run(config)
    except SimulationError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        _print(report.format_block())
    return 0


def console_entry() -> None:
    sys.exit(main())
