"""Scaling benchmark: rerun one base config across population sizes.

Emits one CSV row per size. wall_seconds prints as its repr, which parses
back to the same float, so the definitional identity steps = n * ticks / wall
holds exactly on the parsed file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .config import SimConfig
from .engine import run

DEFAULT_SIZES = (1, 100, 1000, 5000)

CSV_HEADER = "n,ticks,wall_seconds,steps_per_sec,peak_mem_bytes,error"


@dataclass(frozen=True, slots=True)
class BenchRow:
    n: int
    ticks: int
    wall_seconds: float | None
    peak_mem_bytes: int | None
    error: str | None = None

    def format_csv(self) -> str:
        if self.error is not None:
            reason = self.error.replace(",", ";").replace("\n", " ")
            return f"{self.n},{self.ticks},,,,{reason}"
        wall = self.wall_seconds
        steps = self.n * self.ticks / wall if wall > 0 else 0.0
        return (
            f"{self.n},{self.ticks},{wall!r},{format(steps, '.6g')},"
            f"{self.peak_mem_bytes},"
        )


def bench(base_config: SimConfig, sizes: Sequence[int] = DEFAULT_SIZES) -> list[BenchRow]:
    """Run base_config for its `ticks` once per population size; per-size
    failures become error rows and the remaining sizes still run."""
    if not sizes or min(sizes) < 0:
        raise ValueError(f"bench needs one or more population sizes >= 0, got {list(sizes)}")
    run_ticks = base_config.ticks
    rows: list[BenchRow] = []
    for n in sizes:
        config = replace(
            base_config,
            robot_count=n,
            log_path=None,
            frames_every=None,
            frames_dir=None,
            spawn_positions=None,
        )
        try:
            report = run(config)
        except Exception as exc:  # keep benching the other sizes
            rows.append(BenchRow(n, run_ticks, None, None, error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(
            BenchRow(n, run_ticks, report.metrics.wall_seconds, report.peak_mem_bytes)
        )
    return rows


def format_csv(rows: Sequence[BenchRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.format_csv() for row in rows)]) + "\n"
