"""Deterministic fixed-timestep simulation loop.

Tick phases, in order:

1. freeze the pose snapshot: the pose arrays phase 4 left behind. The
   spatial index, built once at set-up, is still exact from last tick;
2. sense every robot against the snapshot (batch ray casting);
3. step every controller on the phase-2 readings plus last tick's inbox
   and collision flag;
4. resolve moves with the semantics of a serial pass in ascending id
   order -- each robot sees lower ids at their new positions and higher ids
   at the snapshot. Array accept, array cancel, then serial residue: one
   array pass accepts the robots that no order could block and cancels the
   robots that every order blocks; the rest run `resolve_move` one by one in
   id order;
5. deliver broadcasts using end-of-tick positions (arrive next tick);
6. accumulate metrics.

Everything is headless and free-running: no wall-clock pacing, wall time is
only measured for the throughput report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .controllers import (
    Broadcast,
    BraitenbergController,
    ControlInput,
    ControlOutput,
    Controller,
    Message,
    RandomWalkController,
    deliver_messages,
)
from .errors import ControllerError, SpawnError
from .kinematics import (  # noqa: F401 -- apply_command: kept bound for per-layer profilers
    Limits,
    Pose,
    RobotBody,
    apply_command,
    apply_commands,
    resolve_move,
    wrap_angle,
)
from .rng import MASK64, RngStream, stream_seed
from .sensing import (
    SensorSpec,
    _pairs_within,
    evenly_spaced_angles,
    readings_from_arrays,
    sense_batch,
)
from .world import GridMap, RobotIndex, generate_arena, load_map, rebuild_index

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Added to the phase-4 pair reach, far above the rounding in |candidate -
# snapshot| <= v_max, so the pair search never misses a contact.
_CONTACT_MARGIN = 1e-6


@dataclass(slots=True)
class Metrics:
    canceled_moves: int = 0
    messages_delivered: int = 0
    serial_moves: int = 0
    ticks_run: int = 0
    wall_seconds: float = 0.0
    steps_per_sec: float = 0.0


@dataclass(slots=True)
class SimState:
    tick: int
    grid: GridMap
    bodies: list[RobotBody]
    index: RobotIndex
    inboxes: list[list[Message]]
    rng_streams: list[RngStream]
    master_rng: RngStream
    metrics: Metrics = field(default_factory=Metrics)


@dataclass(slots=True)
class RunReport:
    """Metrics plus a config echo and a best-effort peak-memory estimate."""

    metrics: Metrics
    config_items: tuple[tuple[str, str], ...]
    peak_mem_bytes: int

    def format_block(self) -> str:
        m = self.metrics
        lines = [
            f"ticks_run={m.ticks_run}",
            f"wall_seconds={m.wall_seconds!r}",
            f"steps_per_sec={m.steps_per_sec!r}",
            f"canceled_moves={m.canceled_moves}",
            f"serial_moves={m.serial_moves}",
            f"messages_delivered={m.messages_delivered}",
            f"peak_mem_bytes={self.peak_mem_bytes}",
        ]
        lines.extend(f"{key}={value}" for key, value in self.config_items)
        return "\n".join(lines)


def load_world(config: SimConfig) -> GridMap:
    if config.map_path is not None:
        with open(config.map_path, "rb") as handle:
            return load_map(handle.read())
    return generate_arena(config.arena_width, config.arena_height)


def spawn(config: SimConfig, grid: GridMap, master_rng: RngStream) -> list[RobotBody]:
    """Place robots: explicit positions if configured, otherwise rejection
    sampling from the master stream (3 draws per attempt: x, y, heading).
    Accepts a position iff the disc is wall-free and at least two radii from
    every already-accepted center."""
    n = config.robot_count
    r = config.robot_radius
    if config.spawn_positions is not None:
        if len(config.spawn_positions) != n:
            raise SpawnError(
                f"spawn.positions lists {len(config.spawn_positions)} poses "
                f"but robots.count is {n}"
            )
        bodies = []
        for i, (x, y, theta) in enumerate(config.spawn_positions):
            if not grid.disc_free(x, y, r):
                raise SpawnError(f"spawn.positions[{i}] overlaps a wall at ({x}, {y})")
            for other in bodies:
                dx = other.pose.x - x
                dy = other.pose.y - y
                if dx * dx + dy * dy < (2.0 * r) * (2.0 * r):
                    raise SpawnError(
                        f"spawn.positions[{i}] is closer than two radii to robot {other.id}"
                    )
            bodies.append(RobotBody(i, Pose(x, y, wrap_angle(theta)), r))
        return bodies
    bodies = []
    probe = RobotIndex(max(2.0 * r, 16.0), radius=r)
    rejections = 0
    limit = 1000 * n
    two_pi = 2.0 * math.pi
    while len(bodies) < n:
        x = master_rng.uniform() * grid.width
        y = master_rng.uniform() * grid.height
        theta = -math.pi + master_rng.uniform() * two_pi
        if grid.disc_free(x, y, r) and not probe.any_within_strict(x, y, 2.0 * r):
            rid = len(bodies)
            bodies.append(RobotBody(rid, Pose(x, y, theta), r))
            probe.add(rid, x, y)
        else:
            rejections += 1
            if rejections > limit:
                raise SpawnError(
                    f"map too dense: placed {len(bodies)} of {n} robots "
                    f"after {rejections} rejections"
                )
    return bodies


def _build_controller(config: SimConfig, limits: Limits, spec: SensorSpec) -> Controller:
    if config.controller_type == "braitenberg":
        return BraitenbergController(limits, spec, config.controller_weights)
    if config.controller_type == "random_walk":
        return RandomWalkController(limits)
    raise ValueError(f"unknown controller type {config.controller_type!r}")


class Simulation:
    """One configured run: owns the world, bodies, streams, and controller.

    Only `step` moves the bodies: the spatial index and the pose arrays are
    built from them once and then kept in step tick by tick, so a pose
    edited from outside between ticks would not be seen."""

    def __init__(self, config: SimConfig, controller: Controller | None = None) -> None:
        self.config = config
        grid = load_world(config)
        master_rng = RngStream(config.seed)
        bodies = spawn(config, grid, master_rng)
        streams = [RngStream(stream_seed(config.seed, body.id)) for body in bodies]
        self.limits = Limits(config.v_max, config.w_max)
        angles = (
            tuple(config.sensor_angles)
            if config.sensor_angles is not None
            else evenly_spaced_angles(config.sensor_count)
        )
        self.spec = SensorSpec(angles, config.sensor_range)
        self.controller = controller or _build_controller(config, self.limits, self.spec)
        self.cell_size = (
            config.index_cell_size
            if config.index_cell_size is not None
            else max(2.0 * config.robot_radius, 16.0)
        )
        self.payload_cap = config.payload_cap
        self.state = SimState(
            tick=0,
            grid=grid,
            bodies=bodies,
            index=rebuild_index(bodies, self.cell_size),
            inboxes=[[] for _ in bodies],
            rng_streams=streams,
            master_rng=master_rng,
        )
        # Pose snapshot of the next tick, in id order; phase 4 keeps these
        # arrays, the bodies and the index in step.
        self._xs = np.array([b.pose.x for b in bodies], dtype=np.float64)
        self._ys = np.array([b.pose.y for b in bodies], dtype=np.float64)
        self._thetas = np.array([b.pose.theta for b in bodies], dtype=np.float64)

    # -- one tick --------------------------------------------------------

    def step(self) -> SimState:
        state = self.state
        bodies = state.bodies
        n = len(bodies)
        grid = state.grid

        # Phase 1: snapshot. The index already holds these positions.
        index = state.index
        xs, ys, thetas = self._xs, self._ys, self._thetas

        # One pair search serves phases 2 and 4. Every j that can come
        # strictly within 2r of i's candidate, from its snapshot or its
        # candidate, is within `move_reach` of i's snapshot. Sensing reads
        # the whole list (a superset of its own reach is allowed when
        # `sensors.range` is below the move reach); phase 4 filters it on
        # the squared distances the search already computed.
        r = self.config.robot_radius
        move_reach = 2.0 * r + 2.0 * self.limits.v_max + _CONTACT_MARGIN
        pa, pb, d2 = _pairs_within(xs, ys, max(self.spec.max_range + 2.0 * r, move_reach))

        # Phase 2: sense against the snapshot.
        normalized, hits = sense_batch(grid, xs, ys, thetas, r, self.spec, pairs=(pa, pb))

        # Phase 3: controllers.
        controller = self.controller
        outboxes: list[Broadcast | None] | None = None
        if isinstance(controller, (BraitenbergController, RandomWalkController)):
            v_arr, w_arr = controller.step_batch(normalized, state.rng_streams)
        else:
            v_arr = np.empty(n)
            w_arr = np.empty(n)
            outboxes = [None] * n
            for i in range(n):
                control_input = ControlInput(
                    readings=tuple(readings_from_arrays(normalized[i], hits[i])),
                    collided_last_tick=bodies[i].collided_last_tick,
                    inbox=tuple(state.inboxes[i]),
                    tick=state.tick,
                )
                output = controller.step(control_input, state.rng_streams[i])
                self._validate_output(output, i, state.tick)
                v_arr[i] = output.command.v
                w_arr[i] = output.command.w
                outboxes[i] = output.broadcast
        bad = np.nonzero(~(np.isfinite(v_arr) & np.isfinite(w_arr)))[0]
        if bad.size:
            robot = int(bad[0])
            raise ControllerError(
                f"robot {robot} tick {state.tick}: non-finite command "
                f"(v={v_arr[robot]!r}, w={w_arr[robot]!r})"
            )

        # Phase 4: move resolution.
        cx, cy, ctheta = apply_commands(xs, ys, thetas, v_arr, w_arr, self.limits)
        near = d2 <= move_reach * move_reach
        fx, fy, at_candidate, serial = self._resolve_moves(
            xs, ys, cx, cy, ctheta, pa[near], pb[near]
        )
        collided = ~at_candidate
        for body, x, y, theta, hit in zip(
            bodies, fx.tolist(), fy.tolist(), ctheta.tolist(), collided.tolist()
        ):
            body.pose = Pose(x, y, theta)
            body.collided_last_tick = hit
        self._xs, self._ys, self._thetas = fx, fy, ctheta

        # Phase 5: messaging at end-of-tick positions (index is up to date).
        delivered = 0
        if outboxes is not None and any(b is not None for b in outboxes):
            state.inboxes, delivered = deliver_messages(index, outboxes)
        elif any(state.inboxes):
            state.inboxes = [[] for _ in range(n)]

        # Phase 6: metrics.
        metrics = state.metrics
        metrics.canceled_moves += int(np.count_nonzero(collided))
        metrics.serial_moves += serial
        metrics.messages_delivered += delivered
        metrics.ticks_run += 1
        state.tick += 1
        return state

    def _resolve_moves(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        cx: np.ndarray,
        cy: np.ndarray,
        ctheta: np.ndarray,
        pa: np.ndarray,
        pb: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Phase 4 with the outcome of a serial pass in ascending id order.

        Every robot ends the tick at its candidate or at its snapshot, so
        two classes are decided in arrays:

        - accept: the candidate passes the clearance fast path of
          `GridMap.disc_free` and no other robot's snapshot or candidate is
          strictly within two radii of it;
        - cancel: the candidate is strictly within two radii of the snapshot
          of some higher id, or of both the snapshot and the candidate of
          some lower id. It keeps its snapshot position and never touches
          the index.

        The rest, the serial residue, run `resolve_move` in id order against
        the index. Before each, its array-accepted lower-id neighbours are
        moved into the index; the other accepted robots are committed in
        bulk at the end.

        Returns the end-of-tick positions, the mask of robots that end at
        their candidate and the size of the serial residue. Leaves the index
        exact for the end of tick.
        """
        state = self.state
        grid = state.grid
        index = state.index
        bodies = state.bodies
        r = self.config.robot_radius
        d2 = (2.0 * r) * (2.0 * r)

        accept = grid.clearance_at(cx, cy) > r + 0.71

        # (pa, pb): every unordered snapshot pair within the contact reach.
        # Distances use the expression of `RobotIndex.any_within_strict`, so the
        # strict test agrees with the serial path bit for bit.
        cdx = cx[pb] - cx[pa]
        cdy = cy[pb] - cy[pa]
        candidates_close = cdx * cdx + cdy * cdy < d2
        a_lower = pa < pb
        cancel = np.zeros(accept.size, dtype=bool)
        for i, j, i_lower in ((pa, pb, a_lower), (pb, pa, ~a_lower)):
            sdx = xs[j] - cx[i]
            sdy = ys[j] - cy[i]
            snapshot_close = sdx * sdx + sdy * sdy < d2
            accept[i[candidates_close | snapshot_close]] = False
            # j > i is still at its snapshot when i resolves; j < i ends at its
            # snapshot or its candidate. Either way no serial order moves i.
            cancel[i[snapshot_close & (i_lower | candidates_close)]] = True
        contested = ~(accept | cancel)
        residue = np.flatnonzero(contested)

        # Array-accepted lower-id neighbours of each residue robot, grouped by
        # robot and ascending within a group.
        high = np.maximum(pa, pb)
        low = np.minimum(pa, pb)
        lower = contested[high] & accept[low]
        li = high[lower]
        lj = low[lower]
        order = np.lexsort((lj, li))
        li = li[order]
        lj = lj[order].tolist()
        lo = np.searchsorted(li, residue, side="left").tolist()
        hi = np.searchsorted(li, residue, side="right").tolist()

        pending = accept.tolist()  # accepted, index still at the snapshot
        xs_l = xs.tolist()
        ys_l = ys.tolist()
        cx_l = cx.tolist()
        cy_l = cy.tolist()
        ct_l = ctheta.tolist()
        moved: list[int] = []
        for i, a, b in zip(residue.tolist(), lo, hi):
            for j in lj[a:b]:
                if pending[j]:
                    index.move(j, cx_l[j], cy_l[j])
                    pending[j] = False
            x = cx_l[i]
            y = cy_l[i]
            _, hit = resolve_move(grid, index, bodies[i], Pose(x, y, ct_l[i]))
            if not hit:
                moved.append(i)
                if x != xs_l[i] or y != ys_l[i]:
                    index.move(i, x, y)
        at_candidate = accept.copy()
        at_candidate[moved] = True
        fx = np.where(at_candidate, cx, xs)
        fy = np.where(at_candidate, cy, ys)
        # Accepted robots still at their snapshot in the index that change
        # bucket (the same floor(pos / cell_size) as `RobotIndex.bucket_of`).
        cs = index.cell_size
        rebucket = np.array(pending, dtype=bool)
        rebucket &= (np.floor(cx / cs) != np.floor(xs / cs)) | (
            np.floor(cy / cs) != np.floor(ys / cs)
        )
        index.move_all(fx, fy, np.flatnonzero(rebucket).tolist())
        return fx, fy, at_candidate, int(residue.size)

    def _validate_output(self, output: ControlOutput, robot: int, tick: int) -> None:
        if not isinstance(output, ControlOutput):
            raise ControllerError(f"robot {robot} tick {tick}: step returned {type(output).__name__}")
        broadcast = output.broadcast
        if broadcast is None:
            return
        if len(broadcast.payload) > self.payload_cap:
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast payload of "
                f"{len(broadcast.payload)} bytes exceeds cap {self.payload_cap}"
            )
        if not (math.isfinite(broadcast.radius) and broadcast.radius >= 0.0):
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast radius {broadcast.radius!r} invalid"
            )

    # -- invariants ------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the no-overlap and in-free-space invariants right now."""
        state = self.state
        r = self.config.robot_radius
        for body in state.bodies:
            if not state.grid.disc_free(body.pose.x, body.pose.y, r):
                raise AssertionError(f"robot {body.id} overlaps a wall at tick {state.tick}")
            if state.index.any_within_strict(body.pose.x, body.pose.y, 2.0 * r, exclude=body.id):
                raise AssertionError(f"robot {body.id} overlaps a robot at tick {state.tick}")


def state_digest(state: SimState) -> int:
    """64-bit FNV-1a over the pose stream in id order, with x, y, theta each
    quantized to 1e-6 and packed as signed little-endian 64-bit integers."""
    h = _FNV_OFFSET
    for body in state.bodies:
        pose = body.pose
        for value in (pose.x, pose.y, pose.theta):
            q = round(value * 1e6)
            for byte in int(q).to_bytes(8, "little", signed=True):
                h ^= byte
                h = (h * _FNV_PRIME) & MASK64
    return h


def peak_rss_bytes() -> int:
    """Best-effort peak resident set size of this process, in bytes."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys

    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def run(config: SimConfig, controller: Controller | None = None) -> RunReport:
    """Load the world, spawn, run `config.ticks` ticks, write any configured
    logs and frames, and return the report."""
    from .output import TrajectoryLogger, write_frame

    sim = Simulation(config, controller=controller)
    logger = None
    if config.log_path is not None:
        logger = TrajectoryLogger(config.log_path)
    try:
        frames_every = config.frames_every
        if frames_every is not None:
            write_frame(sim, config.frames_dir)
        started = time.perf_counter()
        for _ in range(config.ticks):
            sim.step()
            if logger is not None:
                logger.append(sim.state)
            if frames_every is not None and sim.state.tick % frames_every == 0:
                write_frame(sim, config.frames_dir)
        wall = time.perf_counter() - started
    finally:
        if logger is not None:
            logger.close()
    metrics = sim.state.metrics
    metrics.wall_seconds = wall
    total_steps = metrics.ticks_run * len(sim.state.bodies)
    metrics.steps_per_sec = total_steps / wall if wall > 0.0 and total_steps else 0.0
    from .config import config_items

    return RunReport(
        metrics=metrics,
        config_items=config_items(config),
        peak_mem_bytes=peak_rss_bytes(),
    )
