"""Deterministic fixed-timestep simulation loop.

Tick phases, in order:

1. freeze the pose snapshot: the pose arrays of `SimState`, as spawn or
   phase 4 of the last tick left them (`SimState.bodies` builds objects
   from them on each read; the tick reads none). One pair search over it,
   the tick's only spatial structure, serves phases 2 and 4;
2. sense every robot against the snapshot (batch ray casting);
3. step every controller on the phase-2 readings plus last tick's inbox
   and collision flag: a built-in controller on the reading arrays, a
   plugin robot by robot on reading objects built a block at a time;
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
from itertools import repeat

import numpy as np

from ._slots import slot_build
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
from .rng import MASK64, RngStream, stream_seed, uniform_run
from .sensing import (
    SensorSpec,
    _pairs_within,
    evenly_spaced_angles,
    readings_from_arrays,
    sense_batch,
)
from .world import (  # noqa: F401 -- rebuild_index: kept bound for per-layer profilers
    GridMap,
    generate_arena,
    load_map,
    rebuild_index,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Added to the phase-4 pair reach, far above the rounding in |candidate -
# snapshot| <= v_max, so the pair search never misses a contact.
_CONTACT_MARGIN = 1e-6

# Readings per block of the plugin loop: a block's readings, inputs and
# outputs stay below the 700 allocations that start a young collection, so
# few of them get promoted. On the maze benchmark, 256 runs 3.7 collections
# per tick and 512 runs 5.4.
_BLOCK_READINGS = 256

# Larger than every per-tick temporary of the benchmark workloads, and below
# glibc's 32 MiB cap on its dynamic mmap threshold; see Simulation.__init__.
_HEAP_WARMUP_BYTES = 24 << 20


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
    `thetas` and `collided` (all False at set-up), in id order, which each
    tick replaces; the first three must share one shape (n,). Robot i's
    stream state is entry i of `rng_states`, the state's own uint64 copy of
    the array it is given, which each tick advances in place. `bodies`
    builds a new list of `RobotBody` objects from the poses on every read;
    editing it does not reach the arrays."""

    __slots__ = (
        "tick",
        "grid",
        "radius",
        "inboxes",
        "rng_states",
        "metrics",
        "xs",
        "ys",
        "thetas",
        "collided",
    )

    def __init__(
        self,
        tick: int,
        grid: GridMap,
        radius: float,
        xs: np.ndarray,
        ys: np.ndarray,
        thetas: np.ndarray,
        inboxes: list[list[Message]],
        rng_states: np.ndarray,
        metrics: Metrics | None = None,
    ) -> None:
        if xs.ndim != 1 or ys.shape != xs.shape or thetas.shape != xs.shape:
            raise ValueError(
                f"xs, ys and thetas shapes {xs.shape}, {ys.shape}, {thetas.shape}, "
                "expected one shape (n,)"
            )
        self.tick = tick
        self.grid = grid
        self.radius = radius
        self.inboxes = inboxes
        self.rng_states = np.array(rng_states, dtype=np.uint64)
        if self.rng_states.shape != xs.shape:
            raise ValueError(f"rng_states shape {self.rng_states.shape}, expected ({xs.size},)")
        self.metrics = metrics if metrics is not None else Metrics()
        self.xs, self.ys, self.thetas = xs, ys, thetas
        self.collided = np.zeros(xs.size, dtype=bool)

    @property
    def bodies(self) -> list[RobotBody]:
        r = self.radius
        rows = zip(*(a.tolist() for a in (self.xs, self.ys, self.thetas, self.collided)))
        return [
            RobotBody(i, Pose(x, y, theta), r, hit) for i, (x, y, theta, hit) in enumerate(rows)
        ]


@dataclass(slots=True)
class RunReport:
    """Metrics plus a config echo and this process's own peak resident set
    size (`peak_rss_bytes`), not counting the process that launched it."""

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


def _walled(grid: GridMap, xs: np.ndarray, ys: np.ndarray, r: float) -> list[int]:
    """The discs of radius r at (xs, ys) that overlap a wall, ascending: the
    clearance fast path of `GridMap.disc_free`, then its exact scan."""
    near_wall = np.flatnonzero(grid.clearance_at(xs, ys) <= r + 0.71).tolist()
    return [i for i in near_wall if not grid.disc_free(float(xs[i]), float(ys[i]), r)]


def _close_pairs(xs: np.ndarray, ys: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (lo < hi) whose centers are strictly closer than 2r, with
    the distances of `resolve_move`."""
    d = 2.0 * r
    a, b, d2, _, _ = _pairs_within(xs, ys, d)
    close = d2 < d * d
    a, b = a[close], b[close]
    return np.minimum(a, b), np.maximum(a, b)


def _overlaps(
    grid: GridMap, xs: np.ndarray, ys: np.ndarray, r: float
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The discs of radius r at (xs, ys) that overlap a wall, ascending, and
    the pairs (lo < hi) whose centers are strictly closer than 2r."""
    return (_walled(grid, xs, ys, r), *_close_pairs(xs, ys, r))


def spawn(
    config: SimConfig, grid: GridMap, master_rng: RngStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Robot poses as float64 arrays (xs, ys, thetas) in id order: explicit
    positions if configured, headings wrapped, otherwise rejection sampling
    from the master stream (3 draws per attempt: x, y, heading). Accepts a
    position iff the disc is wall-free and at least two radii from every
    already-accepted center. Explicit positions are checked in one array
    pass that names the first one a placement in order would reject."""
    n = config.robot_count
    r = config.robot_radius
    if config.spawn_positions is not None:
        poses = np.array(config.spawn_positions, dtype=np.float64).reshape(n, 3)
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
        thetas = [wrap_angle(theta) for _, _, theta in config.spawn_positions]
        return poses[:, 0].copy(), poses[:, 1].copy(), np.array(thetas, dtype=np.float64)
    return _sample_positions(grid, master_rng, n, r)


# Most attempts one spawn chunk draws.
_SPAWN_CHUNK_MAX = 1 << 16


def _sample_positions(
    grid: GridMap, master_rng: RngStream, n: int, r: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection sampling with the draws and the outcome of testing the
    attempts one at a time, in order. SplitMix64 is counter-based, so a
    chunk of attempts is drawn as one array and tested in arrays: against
    the walls, against the placed robots, and for pairs within the chunk.
    An attempt close to an earlier attempt of its chunk is accepted only if
    none of those was; a short loop in attempt order decides these. The
    master stream ends 3 draws per attempt made further on. Raises
    SpawnError at the rejection after 1000 * n."""
    placed_x = np.empty(0)
    placed_y = np.empty(0)
    placed_theta = np.empty(0)
    attempts = 0
    rejections = 0
    limit = 1000 * n
    two_pi = 2.0 * math.pi
    # A chunk of s attempts over an area A meets about 18 * s * r**2 / A
    # others of the chunk per attempt in `_pairs_within`: capping s near
    # sqrt(A) / r keeps a chunk on a small crowded map from going quadratic.
    most = min(max(64, int(24.0 * math.sqrt(grid.width * grid.height) / r)), _SPAWN_CHUNK_MAX)
    rate = 1.0
    while placed_x.size < n:
        need = n - placed_x.size
        # Enough attempts at the last chunk's acceptance rate, with slack.
        size = min(int(need / rate * 1.25) + 16, most)
        u = uniform_run(master_rng, 3 * attempts, 3 * size)
        x = u[0::3] * grid.width
        y = u[1::3] * grid.height
        theta = -math.pi + u[2::3] * two_pi

        free = np.ones(size, dtype=bool)
        free[_walled(grid, x, y, r)] = False
        cand = np.flatnonzero(free)
        m = placed_x.size
        lo, hi = _close_pairs(
            np.concatenate((placed_x, x[cand])), np.concatenate((placed_y, y[cand])), r
        )
        # Ranks into `cand`, in attempt order: blocked by a placed robot, or
        # close to an earlier attempt of the chunk. Placed robots are never
        # close to each other, so a pair with lo < m has hi >= m.
        ok = np.ones(cand.size, dtype=bool)
        ok[hi[lo < m] - m] = False
        inner = np.flatnonzero(lo >= m)
        if inner.size:
            # In order of the later attempt, every earlier one is decided
            # before its first pair as the later one.
            order = inner[np.argsort(hi[inner], kind="stable")]
            ok = ok.tolist()
            for early, late in zip((lo[order] - m).tolist(), (hi[order] - m).tolist()):
                if ok[early]:
                    ok[late] = False
        taken = np.zeros(size, dtype=bool)
        taken[cand[ok]] = True

        # The chunk ends early at the n-th placement or the rejection past
        # the limit; its later draws are not used.
        placed_by = np.cumsum(taken)
        rejected_by = np.arange(1, size + 1) - placed_by
        done = (placed_by >= need) | (rejected_by > limit - rejections)
        used = int(np.argmax(done)) + 1 if done.any() else size
        keep = np.flatnonzero(taken[:used])
        rate = (keep.size + 1) / (used + 1)
        attempts += used
        rejections += used - keep.size
        placed_x = np.concatenate((placed_x, x[keep]))
        placed_y = np.concatenate((placed_y, y[keep]))
        placed_theta = np.concatenate((placed_theta, theta[keep]))
        if rejections > limit:
            master_rng.jump(3 * attempts)
            raise SpawnError(
                f"map too dense: placed {placed_x.size} of {n} robots "
                f"after {rejections} rejections"
            )
    master_rng.jump(3 * attempts)
    return placed_x, placed_y, placed_theta


def _build_controller(config: SimConfig, limits: Limits, spec: SensorSpec) -> Controller:
    if config.controller_type == "random_walk":
        return RandomWalkController(limits)
    return BraitenbergController(limits, spec, config.controller_weights)


class Simulation:
    """One configured run: owns the world, pose arrays, streams and controller.

    Only `step` moves the robots, by replacing the pose arrays of `state`;
    a pose edited through `state.bodies` is not seen by the next tick."""

    def __init__(self, config: SimConfig, controller: Controller | None = None) -> None:
        self.config = config
        grid = load_world(config)
        xs, ys, thetas = spawn(config, grid, RngStream(config.seed))
        self.limits = Limits(config.v_max, config.w_max)
        angles = config.sensor_angles or evenly_spaced_angles(config.sensor_count)
        self.spec = SensorSpec(angles, config.sensor_range)
        if controller is None:
            controller = _build_controller(config, self.limits, self.spec)
        elif isinstance(controller, BraitenbergController):
            if controller.angles != tuple(angles):
                raise ValueError(
                    f"BraitenbergController built for bearings {controller.angles} has "
                    f"{len(controller.weights)} weights for a belt of {len(angles)} rays "
                    f"at bearings {tuple(angles)}"
                )
        self.controller = controller
        self.state = SimState(
            tick=0,
            grid=grid,
            radius=config.robot_radius,
            xs=xs,
            ys=ys,
            thetas=thetas,
            inboxes=[[] for _ in range(xs.size)],
            rng_states=stream_seed(config.seed, np.arange(xs.size, dtype=np.uint64)),
        )
        # Free one untouched block of _HEAP_WARMUP_BYTES. Under glibc's
        # dynamic mmap threshold (mallopt(3)) that raises the threshold to
        # its size and the trim threshold to twice that, so the tick's
        # temporaries stay in the heap and are not mapped afresh, page by
        # page, every tick. It comes last, so set-up's own temporaries were
        # still unmapped when freed. The block is never touched, so it costs
        # no resident memory; other allocators ignore it.
        np.empty(_HEAP_WARMUP_BYTES, dtype=np.uint8)

    # -- one tick --------------------------------------------------------

    def step(self) -> SimState:
        state = self.state
        grid = state.grid

        # Phase 1: snapshot, the arrays the last tick left.
        xs, ys, thetas = state.xs, state.ys, state.thetas

        # One pair search serves phases 2 and 4. Every j that can come
        # strictly within 2r of i's candidate, from its snapshot or its
        # candidate, is within `move_reach` of i's snapshot. Sensing reads
        # the whole list (a superset of its own reach is allowed when
        # `sensors.range` is below the move reach); phase 4 filters it on
        # the squared distances the search already computed and puts the
        # pairs it keeps in id order.
        r = self.config.robot_radius
        move_reach = 2.0 * r + 2.0 * self.limits.v_max + _CONTACT_MARGIN
        pairs = _pairs_within(xs, ys, max(self.spec.max_range + 2.0 * r, move_reach))

        # Phase 2: sense against the snapshot.
        normalized, hits = sense_batch(grid, xs, ys, thetas, r, self.spec, pairs=pairs)

        # Phase 3: controllers.
        controller = self.controller
        outboxes: list[Broadcast | None] | None = None
        # Only the built-in classes themselves: a subclass may override `step`.
        if type(controller) in (BraitenbergController, RandomWalkController):
            v_arr, w_arr = controller.step_batch(normalized, state.rng_states)
            bad = np.flatnonzero(~(np.isfinite(v_arr) & np.isfinite(w_arr)))
            if bad.size:
                robot = int(bad[0])
                raise ControllerError(
                    f"robot {robot} tick {state.tick}: non-finite command "
                    f"(v={float(v_arr[robot])!r}, w={float(w_arr[robot])!r})"
                )
        else:
            # Readings and inputs are built a block of robots at a time;
            # robots then step one by one, each with its state loaded into one
            # shared stream, and robot i's output is checked before i + 1 steps.
            tick = state.tick
            n = xs.size
            block = max(1, _BLOCK_READINGS // len(self.spec.angles))
            collided_last = state.collided.tolist()
            inboxes = state.inboxes
            rng = RngStream(0)
            rng_states = state.rng_states.tolist()
            vs: list[float] = []
            ws: list[float] = []
            outboxes = []
            for start in range(0, n, block):
                stop = min(start + block, n)
                inputs = slot_build(
                    ControlInput,
                    stop - start,
                    readings_from_arrays(normalized[start:stop], hits[start:stop]),
                    collided_last[start:stop],
                    map(tuple, inboxes[start:stop]),
                    repeat(tick),
                )
                for i, control_input in enumerate(inputs, start):
                    rng.state = rng_states[i]
                    output = controller.step(control_input, rng)
                    rng_states[i] = rng.state & MASK64
                    self._validate_output(output, i, tick)
                    command = output.command
                    vs.append(command.v)
                    ws.append(command.w)
                    outboxes.append(output.broadcast)
            state.rng_states[:] = rng_states
            v_arr = np.array(vs, dtype=np.float64)
            w_arr = np.array(ws, dtype=np.float64)

        # Phase 4: move resolution.
        cx, cy, ctheta = apply_commands(xs, ys, thetas, v_arr, w_arr, self.limits)
        a, b, d2, _, _ = pairs
        near = np.flatnonzero(d2 <= move_reach * move_reach)
        a, b = a[near], b[near]
        fx, fy, at_candidate, serial = self._resolve_moves(
            xs, ys, cx, cy, np.minimum(a, b), np.maximum(a, b)
        )
        # A canceled move keeps its position and still takes its candidate
        # heading.
        collided = ~at_candidate
        state.xs, state.ys, state.thetas, state.collided = fx, fy, ctheta, collided

        # Phase 5: messaging at end-of-tick positions.
        delivered = 0
        if outboxes is not None:
            state.inboxes, delivered = deliver_messages(fx, fy, outboxes)

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
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Phase 4 with the outcome of a serial pass in ascending id order.

        (lo, hi), lo < hi: every snapshot pair within the contact reach,
        once. Every robot ends the tick at its candidate or at its snapshot,
        so two classes are decided in arrays:

        - accept: the candidate passes the clearance fast path of
          `GridMap.disc_free` and no other robot's snapshot or candidate is
          strictly within two radii of it;
        - cancel: the candidate is strictly within two radii of the snapshot
          of some higher id, or of both the snapshot and the candidate of
          some lower id. It keeps its snapshot position.

        The rest, the serial residue, run `resolve_move` in id order. Only
        lower ids can block a residue robot: a higher id whose snapshot is
        close would have canceled it, and a higher id close only at its
        candidate is still at its snapshot when it resolves. So each hi is
        tested against its conflicts lo from the pair list, those whose
        snapshot or candidate is strictly within two radii of its candidate,
        at their end-of-tick positions.

        Returns the end-of-tick positions, the mask of robots that end at
        their candidate and the size of the serial residue.
        """
        grid = self.state.grid
        r = self.config.robot_radius
        d2 = (2.0 * r) * (2.0 * r)

        accept = grid.clearance_at(cx, cy) > r + 0.71

        # Distances use the expression of `resolve_move`, so the strict
        # tests agree with the serial path bit for bit.
        def within(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
            return dx * dx + dy * dy < d2

        candidates_close = within(cx[hi] - cx[lo], cy[hi] - cy[lo])
        # lo's candidate against hi's snapshot, and hi's against lo's.
        lo_at_hi = within(xs[hi] - cx[lo], ys[hi] - cy[lo])
        hi_at_lo = within(xs[lo] - cx[hi], ys[lo] - cy[hi])
        accept[lo[candidates_close | lo_at_hi]] = False
        accept[hi[candidates_close | hi_at_lo]] = False
        # hi is still at its snapshot when lo resolves; lo ends at its
        # snapshot or its candidate. Either way no serial order moves it.
        cancel = np.zeros(accept.size, dtype=bool)
        cancel[lo[lo_at_hi]] = True
        cancel[hi[hi_at_lo & candidates_close]] = True
        contested = ~(accept | cancel)
        residue = np.flatnonzero(contested)
        if not residue.size:
            return np.where(accept, cx, xs), np.where(accept, cy, ys), accept, 0

        # The conflicts lo of each residue robot hi, grouped by hi.
        conflict = (candidates_close | hi_at_lo) & contested[hi]
        li = hi[conflict]
        order = np.argsort(li, kind="stable")
        li = li[order]
        lj = lo[conflict][order].tolist()
        first = np.searchsorted(li, residue, side="left").tolist()
        last = np.searchsorted(li, residue, side="right").tolist()

        # End-of-tick positions as decided so far: the residue stays at its
        # snapshot here until it is resolved.
        fx_l = np.where(accept, cx, xs).tolist()
        fy_l = np.where(accept, cy, ys).tolist()
        moved: list[int] = []
        for i, x, y, a, b in zip(
            residue.tolist(), cx[residue].tolist(), cy[residue].tolist(), first, last
        ):
            if resolve_move(grid, [(fx_l[j], fy_l[j]) for j in lj[a:b]], x, y, r):
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
        try:
            finite = math.isfinite(command.v) and math.isfinite(command.w)
        except (TypeError, OverflowError):  # not a real number, or no float
            finite = False
        if not finite:
            raise ControllerError(
                f"robot {robot} tick {tick}: non-finite command "
                f"(v={command.v!r}, w={command.w!r})"
            )
        broadcast = output.broadcast
        if broadcast is None:
            return
        if not isinstance(broadcast, Broadcast):
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast is {type(broadcast).__name__}, "
                f"not Broadcast"
            )
        payload = broadcast.payload
        if not isinstance(payload, bytes):
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast payload is "
                f"{type(payload).__name__}, not bytes"
            )
        cap = self.config.payload_cap
        if len(payload) > cap:
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast payload of "
                f"{len(payload)} bytes exceeds cap {cap}"
            )
        radius = broadcast.radius
        try:
            valid = math.isfinite(radius) and radius >= 0.0
        except (TypeError, OverflowError):  # not a real number, or no float
            valid = False
        if not valid:
            raise ControllerError(
                f"robot {robot} tick {tick}: broadcast radius {radius!r} invalid"
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
    """Best-effort peak resident set size of this process's own address
    space, in bytes: `VmHWM` of /proc/self/status. Where there is no /proc
    it falls back to `ru_maxrss`, which in a process started by exec also
    counts the peak of the process that launched it."""
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
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
