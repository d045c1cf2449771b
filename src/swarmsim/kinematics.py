"""Robot bodies and the discrete-time motion model.

One tick: clamp the commanded speeds, rotate, then translate along the new
heading. A translation that would overlap a wall or another robot is
canceled outright (the heading change always sticks), which keeps the
global no-overlap invariant without any contact dynamics. `resolve_move` is
the per-robot test of that rule on plain floats: whether one candidate
position is clear of the walls and of a plain list of blocker centres.

`apply_command` is the scalar oracle of the motion step and `apply_commands`
its batch form for the tick. They give the same bits: the batch form uses
the same expressions, and numpy's float64 `cos`/`sin` equal `math.cos`/
`math.sin` (tests/test_kinematics.py pins both facts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._slots import slot_init
from .world import GridMap

_PI = math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(slots=True)
class Pose:
    x: float
    y: float
    theta: float


@dataclass(slots=True)
class RobotBody:
    id: int
    pose: Pose
    radius: float
    collided_last_tick: bool = False


@slot_init
@dataclass(frozen=True, slots=True)
class ActuatorCommand:
    """Requested speeds for one tick: v in px/tick, w in rad/tick."""

    v: float
    w: float


@dataclass(frozen=True, slots=True)
class Limits:
    v_max: float
    w_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_max) and self.v_max > 0):
            raise ValueError("v_max must be positive and finite")
        if not (math.isfinite(self.w_max) and self.w_max > 0):
            raise ValueError("w_max must be positive and finite")


def wrap_angle(theta: float) -> float:
    """Map an angle to [-pi, pi); identity (bit-exact) if already inside."""
    if -_PI <= theta < _PI:
        return theta
    r = (theta + _PI) % _TWO_PI - _PI
    if r >= _PI:  # float mod can land exactly on the open boundary
        r = -_PI
    return r


def _clamp(value: float, lo: float, hi: float) -> float:
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def apply_command(pose: Pose, cmd: ActuatorCommand, limits: Limits) -> Pose:
    """Candidate pose after one tick: rotate first, then translate."""
    w = _clamp(cmd.w, -limits.w_max, limits.w_max)
    v = _clamp(cmd.v, -limits.v_max, limits.v_max)
    theta = wrap_angle(pose.theta + w)
    return Pose(pose.x + v * math.cos(theta), pose.y + v * math.sin(theta), theta)


def apply_commands(
    xs: np.ndarray,
    ys: np.ndarray,
    thetas: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    limits: Limits,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`apply_command` for a whole swarm: candidate (x, y, theta) arrays,
    bit-identical to the scalar form element by element. Headings outside
    [-pi, pi) are wrapped by `wrap_angle`'s own rule in arrays: numpy's
    float remainder is Python's `%`. `np.cos`/`np.sin` match `math`."""
    w = np.clip(w, -limits.w_max, limits.w_max)
    v = np.clip(v, -limits.v_max, limits.v_max)
    theta = thetas + w
    outside = np.flatnonzero(~((theta >= -_PI) & (theta < _PI)))
    if outside.size:
        wrapped = np.remainder(theta[outside] + _PI, _TWO_PI) - _PI
        wrapped[wrapped >= _PI] = -_PI
        theta[outside] = wrapped
    return xs + v * np.cos(theta), ys + v * np.sin(theta), theta


def resolve_move(
    grid: GridMap,
    blockers: Sequence[tuple[float, float]],
    x: float,
    y: float,
    r: float,
) -> bool:
    """True iff a robot of radius r may translate to (x, y): the disc there
    is wall-free and no blocker centre lies strictly within two radii.

    The caller must resolve moves serially in ascending id order. `blockers`
    holds the (x, y) centres of the robots that can block this one, at their
    positions at that point of the order, and never the robot itself: all
    other robots, or the engine's list of the robot's lower-id conflicts.
    """
    if not grid.disc_free(x, y, r):
        return False
    d2 = (2.0 * r) * (2.0 * r)
    for px, py in blockers:
        dx = px - x
        dy = py - y
        if dx * dx + dy * dy < d2:
            return False
    return True
