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

from .kinematics import ActuatorCommand, Limits
from .rng import RngStream, uniform_batch
from .sensing import SensorReading, SensorSpec, _pairs_within
from .world import RobotIndex

DEFAULT_PAYLOAD_CAP = 4096

# Rays within this bearing of straight ahead gate the forward speed.
FRONT_CONE_HALF_ANGLE = math.pi / 4.0


@dataclass(frozen=True, slots=True)
class Message:
    sender: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class Broadcast:
    """Outgoing payload delivered to every robot within `radius` px."""

    payload: bytes
    radius: float


@dataclass(frozen=True, slots=True)
class ControlInput:
    readings: tuple[SensorReading, ...]
    collided_last_tick: bool
    inbox: tuple[Message, ...]
    tick: int


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
        self, normalized: np.ndarray, streams: Sequence[RngStream]
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
        self, normalized: np.ndarray, streams: Sequence[RngStream]
    ) -> tuple[np.ndarray, np.ndarray]:
        v = np.full(len(streams), self.v_max)
        w = self.w_max * (2.0 * uniform_batch(streams) - 1.0)
        return v, w


def deliver_messages(
    index: RobotIndex, outboxes: Sequence[Broadcast | None]
) -> tuple[list[list[Message]], int]:
    """Route each broadcast to every other robot within the sender's radius.

    Returns (inboxes, delivered_count), every inbox sorted by sender id. The
    index must reflect end-of-tick positions. Distances use the expression
    of `RobotIndex.neighbors_within`, so the routing matches a per-sender
    query bit for bit.
    """
    inboxes: list[list[Message]] = [[] for _ in outboxes]
    sends = np.array([b is not None for b in outboxes], dtype=bool)
    if not sends.any():
        return inboxes, 0
    radius = np.array([0.0 if b is None else b.radius for b in outboxes], dtype=np.float64)
    if not (radius >= 0.0).all():
        raise ValueError("query distance must be non-negative")
    xs, ys = np.array(index.positions, dtype=np.float64).reshape(-1, 2).T
    pa, pb, _ = _pairs_within(xs, ys, max(float(radius.max()), 1.0))
    src = np.concatenate((pa, pb))
    dst = np.concatenate((pb, pa))
    dx = xs[dst] - xs[src]
    dy = ys[dst] - ys[src]
    keep = sends[src] & (dx * dx + dy * dy <= radius[src] * radius[src])
    src = src[keep]
    dst = dst[keep]
    order = np.lexsort((src, dst))
    messages = [b if b is None else Message(i, b.payload) for i, b in enumerate(outboxes)]
    for sender, receiver in zip(src[order].tolist(), dst[order].tolist()):
        inboxes[receiver].append(messages[sender])
    return inboxes, int(src.size)
