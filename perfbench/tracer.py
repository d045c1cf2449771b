"""Per-layer tracing from outside the program.

`Tracer.install` rebinds the public functions the engine calls (the names
bound in `swarmsim.engine`, plus a few methods on the world and controller
classes) to timing wrappers. Nothing under `src/` is edited: the wrappers
call the originals with the same arguments and return their results
unchanged, which the benchmark checks by comparing final state digests of
traced and untraced episodes.

Calls made once per tick or once per set-up are recorded as spans (name,
start, end, parent span id). Calls made once per robot are aggregated per
tick into a call count and a total time, keyed by their parent's name.
Everything is kept in memory and written out by `Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import swarmsim.engine as engine
from swarmsim import (
    BraitenbergController,
    GridMap,
    RandomWalkController,
    RobotIndex,
    TrajectoryLogger,
)

# (name bound in swarmsim.engine, span name, called once per robot?);
# load_world is wrapped separately, see Tracer.install.
_ENGINE_NAMES = (
    ("spawn", "engine.spawn", False),
    ("rebuild_index", "world.rebuild_index", False),
    ("sense_batch", "sensing.sense_batch", False),
    ("apply_command", "kinematics.apply_command", True),
    ("resolve_move", "kinematics.resolve_move", True),
    ("deliver_messages", "controllers.deliver_messages", False),
)
# (class, method, span name, called once per robot?)
_METHODS = (
    (RobotIndex, "move", "world.index_move", True),
    (RobotIndex, "any_within_strict", "world.any_within_strict", True),
    (GridMap, "disc_free", "world.disc_free", True),
    (BraitenbergController, "step_batch", "controllers.step", False),
    (RandomWalkController, "step_batch", "controllers.step", False),
    (TrajectoryLogger, "append", "output.log_append", False),
)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self.open: list[tuple[int, str]] = [(-1, "root")]  # stack of (id, name)
        self.calls: dict[tuple[str, str], list] = {}  # this tick's aggregates
        self.call_rows: list[list] = []  # [tick, name, parent name, count, seconds]
        self.bindings: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self.open[-1][0]
        sid = len(self.spans)
        record = [sid, name, self.clock(), 0.0, parent]
        self.spans.append(record)
        self.open.append((sid, name))
        try:
            yield record
        finally:
            self.open.pop()
            record[3] = self.clock()

    def _wrap_span(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_calls(self, fn, name: str):
        open_ = self.open
        calls = self.calls
        clock = self.clock

        def traced(*args, **kwargs):
            key = (name, open_[-1][1])
            open_.append((-1, name))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_.pop()
                cell = calls.get(key)
                if cell is None:
                    calls[key] = [1, dt]
                else:
                    cell[0] += 1
                    cell[1] += dt

        return traced

    def _wrap(self, fn, name: str, per_robot: bool):
        return self._wrap_calls(fn, name) if per_robot else self._wrap_span(fn, name)

    def install(self, plugin_class: type | None = None) -> None:
        """Rebind the traced names in this process. The load_world wrapper
        also touches `grid.clearance` so the field is timed on its own."""
        traced_load = self._wrap_span(engine.load_world, "world.load_map")

        def load_then_clearance(config):
            grid = traced_load(config)
            with self.span("world.clearance"):
                grid.clearance
            return grid

        bindings = [(engine, "load_world", load_then_clearance)]
        for attr, name, per_robot in _ENGINE_NAMES:
            bindings.append((engine, attr, self._wrap(getattr(engine, attr), name, per_robot)))
        for owner, attr, name, per_robot in _METHODS:
            bindings.append((owner, attr, self._wrap(getattr(owner, attr), name, per_robot)))
        if plugin_class is not None:
            bindings.append(
                (plugin_class, "step", self._wrap_calls(plugin_class.step, "controllers.step"))
            )
        self.bindings = [(owner, attr, getattr(owner, attr), fn) for owner, attr, fn in bindings]
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Switch between the wrappers and the original functions."""
        for owner, attr, original, traced in self.bindings:
            setattr(owner, attr, traced if on else original)

    def end_tick(self, tick: int) -> None:
        """Move the per-robot aggregates collected since the last call into
        rows for `tick`."""
        for (name, parent), (count, seconds) in self.calls.items():
            self.call_rows.append([tick, name, parent, count, seconds])
        self.calls.clear()

    # -- reading -------------------------------------------------------------

    def tick_totals(self, tick_spans: dict[int, int]) -> dict[int, dict[str, list]]:
        """tick -> name -> [calls, seconds] for every span or per-robot
        aggregate recorded inside that tick's span, plus "engine.self": the
        engine.step time not covered by its direct children."""
        by_id = {s[0]: s for s in self.spans}
        tick_of = {sid: tick for tick, sid in tick_spans.items()}
        out: dict[int, dict[str, list]] = {tick: {} for tick in tick_spans}
        children = dict.fromkeys(tick_spans, 0.0)

        def add(tick: int, name: str, count: int, seconds: float) -> None:
            cell = out[tick].setdefault(name, [0, 0.0])
            cell[0] += count
            cell[1] += seconds

        for _, name, start, end, parent in self.spans:
            p = parent
            while p >= 0 and p not in tick_of:
                p = by_id[p][4]
            if p < 0:
                continue
            add(tick_of[p], name, 1, end - start)
            if parent >= 0 and by_id[parent][1] == "engine.step":
                children[tick_of[p]] += end - start
        for tick, name, parent, count, seconds in self.call_rows:
            if tick in out:
                add(tick, name, count, seconds)
                if parent == "engine.step":
                    children[tick] += seconds
        for tick, totals in out.items():
            add(tick, "engine.self", 1, totals["engine.step"][1] - children[tick])
        return out

    def spans_named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == name]

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
                    "spans": self.spans,
                    "call_fields": ["tick", "name", "parent_name", "count", "total_s"],
                    "calls": self.call_rows,
                },
                handle,
            )
