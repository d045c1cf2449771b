"""Deterministic fixed-timestep simulation loop.

Tick phases, in order:

1. freeze the pose snapshot: the pose arrays of `SimState`, as phase 4 of
   the last tick left them (`SimState.bodies` is a view of them built on
   read). One pair search over it, the tick's only spatial structure,
   serves phases 2 and 4;
2. sense every robot against the snapshot (batch ray casting);
3. step every controller on the phase-2 readings plus last tick's inbox
   and collision flag;
4. resolve moves with the semantics of a serial pass in ascending id
   order -- each robot sees lower ids at their new positions and higher ids
   at the snapshot. Array accept, array cancel, then serial residue: one
   array pass accepts the robots that no order could block and cancels the
   robots that every order blocks; the rest run `resolve_move` one by one in
   id order, each against its lower-id conflicts from the pair list;
5. deliver broadcasts using end-of-tick positions (arrive next tick);
6. accumulate metrics.

Everything is headless and free-running: no wall-clock pacing, wall time is
only measured for the throughput report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
    ActuatorCommand,
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
from .world import (  # noqa: F401 -- rebuild_index: kept bound for per-layer profilers
    GridMap,
    RobotIndex,
    generate_arena,
    load_map,
    rebuild_index,
)

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


class SimState:
    """The world between ticks. Robot poses live in the arrays `xs`, `ys`,
    `thetas` and `collided`, in id order, which each tick replaces through
    `set_poses`. `bodies` is a view of them, rewritten on its first read
    after they change, so a tick that nobody inspects builds no `Pose`
    objects; a pose edited through `bodies` does not reach the arrays."""

    __slots__ = (
        "tick",
        "grid",
        "inboxes",
        "rng_streams",
        "master_rng",
        "metrics",
        "xs",
        "ys",
        "thetas",
        "collided",
        "_bodies",
        "_stale",
    )

    def __init__(
        self,
        tick: int,
        grid: GridMap,
        bodies: list[RobotBody],
        inboxes: list[list[Message]],
        rng_streams: list[RngStream],
        master_rng: RngStream,
        metrics: Metrics | None = None,
    ) -> None:
        self.tick = tick
        self.grid = grid
        self.inboxes = inboxes
        self.rng_streams = rng_streams
        self.master_rng = master_rng
        self.metrics = metrics if metrics is not None else Metrics()
        self.xs = np.array([b.pose.x for b in bodies], dtype=np.float64)
        self.ys = np.array([b.pose.y for b in bodies], dtype=np.float64)
        self.thetas = np.array([b.pose.theta for b in bodies], dtype=np.float64)
        self.collided = np.array([b.collided_last_tick for b in bodies], dtype=bool)
        self._bodies = bodies
        self._stale = False

    @property
    def bodies(self) -> list[RobotBody]:
        if self._stale:
            self._stale = False
            for body, x, y, theta, hit in zip(
                self._bodies,
                self.xs.tolist(),
                self.ys.tolist(),
                self.thetas.tolist(),
                self.collided.tolist(),
            ):
                body.pose = Pose(x, y, theta)
                body.collided_last_tick = hit
        return self._bodies

    def set_poses(
        self, xs: np.ndarray, ys: np.ndarray, thetas: np.ndarray, collided: np.ndarray
    ) -> None:
        """Replace the pose arrays; `bodies` follows on its next read."""
        self.xs, self.ys, self.thetas, self.collided = xs, ys, thetas, collided
        self._stale = True


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


def _overlaps(
    grid: GridMap, xs: np.ndarray, ys: np.ndarray, r: float
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The discs of radius r at (xs, ys) that overlap a wall, ascending, and
    the pairs (lo < hi) whose centers are strictly closer than 2r."""
    # The clearance fast path of `GridMap.disc_free`, then its exact scan.
    near_wall = np.flatnonzero(grid.clearance_at(xs, ys) <= r + 0.71).tolist()
    wall = [i for i in near_wall if not grid.disc_free(xs[i], ys[i], r)]
    # Pair distances as in `RobotIndex.any_within_strict`, strictly below 2r.
    d = 2.0 * r
    pa, pb, d2 = _pairs_within(xs, ys, d)
    close = d2 < d * d
    return wall, np.minimum(pa[close], pb[close]), np.maximum(pa[close], pb[close])


def spawn(config: SimConfig, grid: GridMap, master_rng: RngStream) -> list[RobotBody]:
    """Place robots: explicit positions if configured, otherwise rejection
    sampling from the master stream (3 draws per attempt: x, y, heading).
    Accepts a position iff the disc is wall-free and at least two radii from
    every already-accepted center. Explicit positions are checked in one
    array pass that names the first one a placement in order would reject."""
    n = config.robot_count
    r = config.robot_radius
    if config.spawn_positions is not None:
        poses = np.array(config.spawn_positions, dtype=np.float64).reshape(n, 3)
        finite = np.isfinite(poses).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise SpawnError(f"spawn.positions[{i}] is not finite: {config.spawn_positions[i]}")
        wall, lo, hi = _overlaps(grid, poses[:, 0], poses[:, 1], r)
        robot = int(hi.min(initial=n))
        if wall and wall[0] <= robot:
            x, y, _ = config.spawn_positions[wall[0]]
            raise SpawnError(f"spawn.positions[{wall[0]}] overlaps a wall at ({x}, {y})")
        if robot < n:
            raise SpawnError(
                f"spawn.positions[{robot}] is closer than two radii to robot "
                f"{int(lo[hi == robot].min())}"
            )
        positions = enumerate(config.spawn_positions)
        return [RobotBody(i, Pose(x, y, wrap_angle(theta)), r) for i, (x, y, theta) in positions]
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
    if config.controller_type == "random_walk":
        return RandomWalkController(limits)
    return BraitenbergController(limits, spec, config.controller_weights)


class _Conflicts:
    """What `resolve_move` queries in place of a spatial index for one robot
    of the serial residue: the end-of-tick positions of its lower-id
    conflicts, the only robots that can block it."""

    __slots__ = ("points",)

    def __init__(self, points: list[tuple[float, float]]) -> None:
        self.points = points

    def any_within_strict(
        self, x: float, y: float, d: float, exclude: int | None = None
    ) -> bool:
        """`RobotIndex.any_within_strict` over `points`, with its distance
        expression; the points never hold the querying robot itself."""
        d2 = d * d
        for px, py in self.points:
            dx = px - x
            dy = py - y
            if dx * dx + dy * dy < d2:
                return True
        return False


class Simulation:
    """One configured run: owns the world, bodies, streams, and controller.

    Only `step` moves the robots, by replacing the pose arrays of `state`;
    a pose edited through `state.bodies` is not seen by the next tick."""

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
        if controller is None:
            controller = _build_controller(config, self.limits, self.spec)
        self.controller = controller
        self.state = SimState(
            tick=0,
            grid=grid,
            bodies=bodies,
            inboxes=[[] for _ in bodies],
            rng_streams=streams,
            master_rng=master_rng,
        )

    # -- one tick --------------------------------------------------------

    def step(self) -> SimState:
        state = self.state
        grid = state.grid

        # Phase 1: snapshot, the arrays the last tick left.
        xs, ys, thetas = state.xs, state.ys, state.thetas
        n = xs.size

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
        # Only the built-in classes themselves: a subclass may override `step`.
        if type(controller) in (BraitenbergController, RandomWalkController):
            v_arr, w_arr = controller.step_batch(normalized, state.rng_streams)
            bad = np.flatnonzero(~(np.isfinite(v_arr) & np.isfinite(w_arr)))
            if bad.size:
                robot = int(bad[0])
                raise ControllerError(
                    f"robot {robot} tick {state.tick}: non-finite command "
                    f"(v={float(v_arr[robot])!r}, w={float(w_arr[robot])!r})"
                )
        else:
            # Robot i's readings are built just before robot i steps, and its
            # output is checked before robot i + 1 runs.
            tick = state.tick
            vs: list[float] = []
            ws: list[float] = []
            outboxes = []
            rows = zip(
                readings_from_arrays(normalized, hits),
                state.collided.tolist(),
                state.inboxes,
                state.rng_streams,
            )
            for i, (readings, collided_last, inbox, stream) in enumerate(rows):
                output = controller.step(
                    ControlInput(readings, collided_last, tuple(inbox), tick), stream
                )
                self._validate_output(output, i, tick)
                command = output.command
                vs.append(command.v)
                ws.append(command.w)
                outboxes.append(output.broadcast)
            v_arr = np.array(vs, dtype=np.float64)
            w_arr = np.array(ws, dtype=np.float64)

        # Phase 4: move resolution.
        cx, cy, ctheta = apply_commands(xs, ys, thetas, v_arr, w_arr, self.limits)
        near = d2 <= move_reach * move_reach
        fx, fy, at_candidate, serial = self._resolve_moves(
            xs, ys, thetas, cx, cy, ctheta, pa[near], pb[near]
        )
        collided = ~at_candidate
        state.set_poses(fx, fy, ctheta, collided)

        # Phase 5: messaging at end-of-tick positions.
        delivered = 0
        if outboxes is not None and any(b is not None for b in outboxes):
            state.inboxes, delivered = deliver_messages(fx, fy, outboxes)
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
        thetas: np.ndarray,
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
          some lower id. It keeps its snapshot position.

        The rest, the serial residue, run `resolve_move` in id order. Only
        lower ids can block a residue robot: a higher id whose snapshot is
        close would have canceled it, and a higher id close only at its
        candidate is still at its snapshot when it resolves. So each one is
        tested against its lower-id conflicts from the pair list, those whose
        snapshot or candidate is strictly within two radii of its candidate,
        at their end-of-tick positions.

        Returns the end-of-tick positions, the mask of robots that end at
        their candidate and the size of the serial residue.
        """
        grid = self.state.grid
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
        conflict = candidates_close.copy()  # the lower id can block the higher
        for i, j, i_lower in ((pa, pb, a_lower), (pb, pa, ~a_lower)):
            sdx = xs[j] - cx[i]
            sdy = ys[j] - cy[i]
            snapshot_close = sdx * sdx + sdy * sdy < d2
            accept[i[candidates_close | snapshot_close]] = False
            # j > i is still at its snapshot when i resolves; j < i ends at its
            # snapshot or its candidate. Either way no serial order moves i.
            cancel[i[snapshot_close & (i_lower | candidates_close)]] = True
            conflict |= snapshot_close & ~i_lower
        contested = ~(accept | cancel)
        residue = np.flatnonzero(contested)
        if not residue.size:
            return np.where(accept, cx, xs), np.where(accept, cy, ys), accept, 0

        # Lower-id conflicts of each residue robot, grouped by robot.
        high = np.maximum(pa, pb)
        conflict &= contested[high]
        li = high[conflict]
        order = np.argsort(li, kind="stable")
        li = li[order]
        lj = np.minimum(pa, pb)[conflict][order].tolist()
        lo = np.searchsorted(li, residue, side="left").tolist()
        hi = np.searchsorted(li, residue, side="right").tolist()

        # End-of-tick positions as decided so far: the residue stays at its
        # snapshot here until it is resolved.
        fx_l = np.where(accept, cx, xs).tolist()
        fy_l = np.where(accept, cy, ys).tolist()
        moved: list[int] = []
        for i, x, y, theta, sx, sy, stheta, a, b in zip(
            residue.tolist(),
            cx[residue].tolist(),
            cy[residue].tolist(),
            ctheta[residue].tolist(),
            xs[residue].tolist(),
            ys[residue].tolist(),
            thetas[residue].tolist(),
            lo,
            hi,
        ):
            conflicts = _Conflicts([(fx_l[j], fy_l[j]) for j in lj[a:b]])
            body = RobotBody(i, Pose(sx, sy, stheta), r)
            _, hit = resolve_move(grid, conflicts, body, Pose(x, y, theta))
            if not hit:
                moved.append(i)
                fx_l[i] = x
                fy_l[i] = y
        at_candidate = accept.copy()
        at_candidate[moved] = True
        fx = np.where(at_candidate, cx, xs)
        fy = np.where(at_candidate, cy, ys)
        return fx, fy, at_candidate, int(residue.size)

    def _validate_output(self, output: ControlOutput, robot: int, tick: int) -> None:
        """Check one plugin output in full, so the first robot with a fault
        is the one named."""
        if not isinstance(output, ControlOutput):
            raise ControllerError(f"robot {robot} tick {tick}: step returned {type(output).__name__}")
        command = output.command
        if not isinstance(command, ActuatorCommand):
            raise ControllerError(
                f"robot {robot} tick {tick}: command is {type(command).__name__}, "
                f"not ActuatorCommand"
            )
        if not (math.isfinite(command.v) and math.isfinite(command.w)):
            raise ControllerError(
                f"robot {robot} tick {tick}: non-finite command "
                f"(v={command.v!r}, w={command.w!r})"
            )
        broadcast = output.broadcast
        if broadcast is None:
            return
        cap = self.config.payload_cap
        if len(broadcast.payload) > cap:
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast payload of "
                f"{len(broadcast.payload)} bytes exceeds cap {cap}"
            )
        if not (math.isfinite(broadcast.radius) and broadcast.radius >= 0.0):
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast radius {broadcast.radius!r} invalid"
            )

    # -- invariants ------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the no-overlap and in-free-space invariants of the pose
        arrays of `state` right now. Names the lowest robot id that breaks
        one, its wall overlap before its robot overlap."""
        state = self.state
        wall, lo, _ = _overlaps(state.grid, state.xs, state.ys, self.config.robot_radius)
        n = state.xs.size
        robot = int(lo.min(initial=n))
        if wall and wall[0] <= robot:
            raise AssertionError(f"robot {wall[0]} overlaps a wall at tick {state.tick}")
        if robot < n:
            raise AssertionError(f"robot {robot} overlaps a robot at tick {state.tick}")


def state_digest(state: SimState) -> int:
    """64-bit FNV-1a over the pose stream in id order, with x, y, theta each
    quantized to 1e-6 and packed as signed little-endian 64-bit integers."""
    h = _FNV_OFFSET
    for pose in zip(state.xs.tolist(), state.ys.tolist(), state.thetas.tolist()):
        for value in pose:
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
    total_steps = metrics.ticks_run * sim.state.xs.size
    metrics.steps_per_sec = total_steps / wall if wall > 0.0 and total_steps else 0.0
    from .config import config_items

    return RunReport(
        metrics=metrics,
        config_items=config_items(config),
        peak_mem_bytes=peak_rss_bytes(),
    )
