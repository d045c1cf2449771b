"""Controller plugin contract, the two reference controllers, and local
broadcast messaging.

A controller maps (sensor readings, collision flag, inbox, tick) plus its
private random stream to an actuator command and an optional broadcast.
Steps must be deterministic functions of that input. Broadcasts are
delivered by distance at the end of the tick and arrive in the next tick's
inboxes: unreliable, one-tick latency, no acknowledgment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ._slots import slot_build, slot_init
from .config import _as_float
from .kinematics import ActuatorCommand, Limits
from .rng import RngStream, uniform_batch
from .sensing import SensorReading, SensorSpec, _pairs_within

# Rays within this bearing of straight ahead gate the forward speed.
FRONT_CONE_HALF_ANGLE = math.pi / 4.0


@slot_init
@dataclass(frozen=True, slots=True)
class Message:
    sender: int
    payload: bytes


@slot_init
@dataclass(frozen=True, slots=True)
class Broadcast:
    """Outgoing payload delivered to every robot within `radius` px."""

    payload: bytes
    radius: float


@slot_init
@dataclass(frozen=True, slots=True)
class ControlInput:
    readings: tuple[SensorReading, ...]
    collided_last_tick: bool
    inbox: tuple[Message, ...]
    tick: int


@slot_init
@dataclass(frozen=True, slots=True)
class ControlOutput:
    command: ActuatorCommand
    broadcast: Broadcast | None = None


@runtime_checkable
class Controller(Protocol):
    """Anything with a deterministic `step(control_input, rng) -> ControlOutput`."""

    def step(self, control_input: ControlInput, rng: RngStream) -> ControlOutput: ...


def default_avoidance_weights(angles: Sequence[float], w_max: float) -> tuple[float, ...]:
    """Antisymmetric steering weights: a sensor at bearing a contributes
    -w_max * sin(a), so an obstacle on the positive-angle (left) side drives
    w negative and the robot turns away. Mirrored rays get equal magnitudes;
    dead-ahead and dead-astern rays get zero."""
    weights = []
    for angle in angles:
        w = -w_max * math.sin(angle)
        if abs(w) < 1e-12 * w_max:
            w = 0.0
        weights.append(w)
    return tuple(weights)


class BraitenbergController:
    """Reference obstacle avoider.

    Forward speed is v_max scaled by the smallest front-cone reading, so the
    step shrinks at least as fast as the gap ahead (range >= v_max makes a
    frontal wall strike impossible). Turn rate is the weighted sum of
    proximities, clamped to w_max.
    """

    def __init__(
        self, limits: Limits, spec: SensorSpec, weights: Sequence[float] | None = None
    ) -> None:
        if weights is None:
            weights = default_avoidance_weights(spec.angles, limits.w_max)
        if len(weights) != len(spec.angles):
            raise ValueError(
                f"need one weight per sensor: got {len(weights)} for {len(spec.angles)} rays"
            )
        self.v_max = limits.v_max
        self.w_max = limits.w_max
        self.angles = tuple(spec.angles)
        self.weights = tuple(float(w) for w in weights)
        self.front = tuple(
            i for i, a in enumerate(spec.angles) if abs(a) <= FRONT_CONE_HALF_ANGLE
        )

    def step(self, control_input: ControlInput, rng: RngStream) -> ControlOutput:
        readings = control_input.readings
        v = self.v_max
        for i in self.front:
            v = min(v, self.v_max * readings[i].normalized)
        w = 0.0
        for weight, reading in zip(self.weights, readings):
            w += weight * (1.0 - reading.normalized)
        w = max(-self.w_max, min(self.w_max, w))
        return ControlOutput(ActuatorCommand(v, w))

    def step_batch(
        self, normalized: np.ndarray, rng_states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Whole-swarm step on the (n, k) readings matrix; accumulation order
        matches the scalar loop term for term."""
        n = normalized.shape[0]
        v = np.full(n, self.v_max)
        for i in self.front:
            np.minimum(v, self.v_max * normalized[:, i], out=v)
        w = np.zeros(n)
        for i, weight in enumerate(self.weights):
            w += weight * (1.0 - normalized[:, i])
        np.clip(w, -self.w_max, self.w_max, out=w)
        return v, w


class RandomWalkController:
    """Full speed ahead with a uniformly random turn each tick.

    Consumes exactly one draw per step: w = w_max * (2u - 1), u in [0, 1).
    """

    def __init__(self, limits: Limits) -> None:
        self.v_max = limits.v_max
        self.w_max = limits.w_max

    def step(self, control_input: ControlInput, rng: RngStream) -> ControlOutput:
        w = self.w_max * (2.0 * rng.uniform() - 1.0)
        return ControlOutput(ActuatorCommand(self.v_max, w))

    def step_batch(
        self, normalized: np.ndarray, rng_states: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        v = np.full(rng_states.size, self.v_max)
        w = self.w_max * (2.0 * uniform_batch(rng_states) - 1.0)
        return v, w


def deliver_messages(
    xs: np.ndarray, ys: np.ndarray, outboxes: Sequence[Broadcast | None]
) -> tuple[list[list[Message]], int]:
    """Route each broadcast to every other robot within the sender's radius.

    `xs`, `ys` are the end-of-tick centres in id order. Returns (inboxes,
    delivered_count), every inbox sorted by sender id. Robot j receives the
    broadcast of sender i iff dx * dx + dy * dy <= radius * radius, with
    dx = xs[j] - xs[i] and dy = ys[j] - ys[i], so the routing matches a
    per-sender scan of the centres bit for bit. An int radius too large
    for a float reads as an infinity of its sign.
    """
    if len(outboxes) != xs.size:
        raise ValueError(f"outboxes length {len(outboxes)}, expected {xs.size}")
    inboxes: list[list[Message]] = [[] for _ in outboxes]
    sends = np.array([b is not None for b in outboxes], dtype=bool)
    if not sends.any():
        return inboxes, 0
    radii = [0.0 if b is None else b.radius for b in outboxes]
    try:
        radius = np.array(radii, dtype=np.float64)
    except OverflowError:
        radius = np.array([_as_float(value) for value in radii])
    bad = np.flatnonzero(~(radius >= 0.0))
    if bad.size:
        robot = int(bad[0])
        raise ValueError(
            f"broadcast radius of robot {robot} must be non-negative; "
            f"got {outboxes[robot].radius!r}"
        )
    a, b, d2, _, _ = _pairs_within(xs, ys, max(float(radius.max()), 1.0))
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    keep = sends[src] & (np.concatenate((d2, d2)) <= radius[src] * radius[src])
    src = src[keep]
    dst = dst[keep]
    order = np.lexsort((src, dst))
    # One Message per sender, shared by its receivers; `rank` maps a sender
    # id to its place in `messages`.
    senders = np.flatnonzero(sends).tolist()
    messages = slot_build(Message, len(senders), senders, [outboxes[i].payload for i in senders])
    rank = np.cumsum(sends) - 1
    for sender, receiver in zip(rank[src[order]].tolist(), dst[order].tolist()):
        inboxes[receiver].append(messages[sender])
    return inboxes, int(src.size)
