"""Motion model: angle wrapping, command integration, cancel-on-collision."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from swarmsim import (
    ActuatorCommand,
    Limits,
    Pose,
    apply_command,
    generate_arena,
    resolve_move,
    wrap_angle,
)
from swarmsim.kinematics import apply_commands

from conftest import grid_from_ascii

LIMITS = Limits(2.0, math.pi)


# --- wrap_angle -----------------------------------------------------------------


def test_wrap_zero():
    assert wrap_angle(0.0) == 0.0


def test_wrap_pi_maps_to_minus_pi():
    assert wrap_angle(math.pi) == -math.pi


def test_wrap_five_half_pi():
    assert wrap_angle(5 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-12)


def test_wrap_modular_identity_random():
    rng = random.Random(4)
    for _ in range(2000):
        theta = rng.uniform(-50, 50)
        wrapped = wrap_angle(theta)
        assert -math.pi <= wrapped < math.pi
        # same angle modulo 2*pi
        assert math.isclose(
            math.cos(wrapped), math.cos(theta), abs_tol=1e-9
        ) and math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-9)


def test_wrap_idempotent_bitwise():
    rng = random.Random(8)
    for _ in range(2000):
        wrapped = wrap_angle(rng.uniform(-100, 100))
        assert wrap_angle(wrapped) == wrapped


# --- apply_command ----------------------------------------------------------------


def test_zero_command_is_identity():
    pose = Pose(3.5, -2.0, 1.25)
    out = apply_command(pose, ActuatorCommand(0.0, 0.0), LIMITS)
    assert (out.x, out.y, out.theta) == (3.5, -2.0, 1.25)


def test_unit_step_along_x():
    out = apply_command(Pose(0, 0, 0), ActuatorCommand(1.0, 0.0), LIMITS)
    assert (out.x, out.y, out.theta) == (1.0, 0.0, 0.0)


def test_speed_clamped_to_v_max():
    out = apply_command(Pose(0, 0, 0), ActuatorCommand(10.0, 0.0), LIMITS)
    assert out.x == 2.0


def test_rotate_then_translate():
    out = apply_command(Pose(0, 0, 0), ActuatorCommand(1.0, math.pi / 2), LIMITS)
    assert out.x == pytest.approx(0.0, abs=1e-12)
    assert out.y == pytest.approx(1.0, abs=1e-12)
    assert out.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_negative_speeds_clamped():
    out = apply_command(Pose(0, 0, 0), ActuatorCommand(-10.0, -20.0), Limits(1.5, 0.25))
    assert out.theta == pytest.approx(-0.25)
    assert math.hypot(out.x, out.y) == pytest.approx(1.5)


def test_translation_magnitude_never_exceeds_v_max():
    rng = random.Random(77)
    for _ in range(500):
        pose = Pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
        cmd = ActuatorCommand(rng.uniform(-10, 10), rng.uniform(-10, 10))
        out = apply_command(pose, cmd, LIMITS)
        step = math.hypot(out.x - pose.x, out.y - pose.y)
        assert step <= LIMITS.v_max + 1e-12


def test_numpy_trig_equals_math_trig():
    # The batch paths (phase 4, sensing, frame rays) take np.cos/np.sin where
    # the scalar oracles take math.cos/math.sin; the goldens and the exact
    # batch-equals-scalar checks hold only while the two give the same bits.
    sweep = np.linspace(-math.pi, math.pi, 1_000_001)[:-1]
    eighths = np.arange(-32, 33) * (math.pi / 8)
    bearings = np.random.default_rng(3).uniform(-4 * math.pi, 4 * math.pi, 200_000)
    angles = np.concatenate(
        [
            sweep,
            eighths,
            np.nextafter(eighths, np.inf),
            np.nextafter(eighths, -np.inf),
            [0.0, -0.0, -math.pi],
            bearings,
        ]
    )
    for fast, exact in ((np.cos, math.cos), (np.sin, math.sin)):
        got = fast(angles).view(np.uint64)
        want = np.fromiter(map(exact, angles.tolist()), np.float64, angles.size).view(np.uint64)
        bad = angles[got != want]
        assert bad.size == 0, (
            f"numpy {np.__version__} {fast.__name__} differs from math.{exact.__name__} "
            f"at {bad.size} angles, e.g. {bad[:5].tolist()}"
        )


def test_apply_commands_equals_apply_command_bitwise():
    rng = np.random.default_rng(11)
    below_pi = np.nextafter(math.pi, 0.0)
    # Headings at -pi, just below pi and near the wrap, each with commands
    # that stay inside, land exactly on pi, cross the wrap either way, clamp,
    # stand still or reverse.
    edge_thetas = [-math.pi, below_pi, np.nextafter(below_pi, 0.0), math.pi - 0.5, -math.pi + 0.5]
    edge_commands = [
        (0.0, 0.0),
        (0.0, 0.5),
        (-1.5, -0.5),
        (-9.0, 9.0),
        (9.0, -9.0),
        (1.0, math.pi),
        (1.0, -math.pi),
        (2.0, 5e-324),
        (-2.0, -5e-324),
    ]
    edge = [(t, v, w) for t in edge_thetas for v, w in edge_commands]
    n = 4000
    thetas = np.concatenate([[t for t, _, _ in edge], rng.uniform(-math.pi, math.pi, n)])
    v = np.concatenate([[v for _, v, _ in edge], rng.uniform(-3.0, 3.0, n)])
    w = np.concatenate([[w for _, _, w in edge], rng.uniform(-4.0, 4.0, n)])
    xs = rng.uniform(0.0, 500.0, thetas.size)
    ys = rng.uniform(0.0, 500.0, thetas.size)
    got = apply_commands(xs, ys, thetas, v, w, LIMITS)
    want = [
        apply_command(Pose(*pose), ActuatorCommand(*command), LIMITS)
        for pose, command in zip(
            zip(xs.tolist(), ys.tolist(), thetas.tolist()), zip(v.tolist(), w.tolist())
        )
    ]
    for field, array in zip(("x", "y", "theta"), got):
        expected = np.array([getattr(pose, field) for pose in want])
        mismatch = np.flatnonzero(array.view(np.uint64) != expected.view(np.uint64))
        assert mismatch.size == 0, (field, mismatch[:5].tolist())


@pytest.mark.parametrize("w_max", [0.4, math.pi])
def test_apply_commands_wraps_headings_like_wrap_angle(w_max):
    # Headings reach apply_commands' wrap as theta + w with w = 0, so they
    # arrive unchanged: random ones in (-pi - w_max, pi + w_max), +-pi and
    # the floats just past them, and odd multiples of pi.
    rng = np.random.default_rng(23)
    special = [math.pi, -math.pi, math.nextafter(math.pi, math.inf)]
    special += [math.nextafter(-math.pi, -math.inf)]
    special += [k * math.pi for k in (3, -3, 5, -5, 7, -7, 101, -101)]
    headings = np.concatenate([special, rng.uniform(-math.pi - w_max, math.pi + w_max, 20000)])
    zeros = np.zeros(headings.size)
    theta = apply_commands(zeros, zeros, headings, zeros, zeros, Limits(2.0, w_max))[2]
    want = np.array([wrap_angle(t) for t in headings.tolist()])
    mismatch = np.flatnonzero(theta.view(np.uint64) != want.view(np.uint64))
    assert mismatch.size == 0, headings[mismatch[:5]].tolist()
    assert ((theta >= -math.pi) & (theta < math.pi)).all()


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        Limits(0.0, 1.0)
    with pytest.raises(ValueError):
        Limits(1.0, -2.0)
    with pytest.raises(ValueError):
        Limits(math.inf, 1.0)


# --- resolve_move -----------------------------------------------------------------


def test_free_candidate_adopted(arena100):
    assert resolve_move(arena100, [], 51, 50, 3.0)


def test_wall_overlap_is_refused():
    grid = grid_from_ascii(
        """
        ..........
        ..........
        ..........
        .....#....
        ..........
        """
    )
    assert resolve_move(grid, [], 2.0, 3.5, 1.5)
    assert not resolve_move(grid, [], 4.5, 3.5, 1.5)


def test_wall_is_tested_before_blockers():
    # A wall refusal reads no blocker: the list is never iterated.
    grid = grid_from_ascii("..#..")

    def blockers():
        raise AssertionError("blockers read")
        yield (0.0, 0.0)

    assert not resolve_move(grid, blockers(), 2.5, 0.5, 0.5)


def test_sequential_two_robot_resolution():
    # Robots A(id 0) at (10,10), B(id 1) at (13,10), radius 2, both commanded
    # one step +x, resolved in id order: A's candidate (11,10) lands 2 px from
    # B (< 2r = 4) so A stays; B's candidate (14,10) is exactly 4 px from the
    # unmoved A, which the strict rule allows.
    arena = generate_arena(100, 100)
    assert not resolve_move(arena, [(13, 10)], 11, 10, 2.0)
    assert resolve_move(arena, [(10, 10)], 14, 10, 2.0)


def test_exactly_two_radii_is_allowed():
    arena = generate_arena(100, 100)
    assert resolve_move(arena, [(10, 10)], 14, 10, 2.0)


def test_just_under_two_radii_is_blocked():
    arena = generate_arena(100, 100)
    assert not resolve_move(arena, [(10, 10)], 13.999, 10, 2.0)


def test_rotation_in_place_never_collides():
    # Staying put, with a neighbour touching at exactly 2r.
    arena = generate_arena(30, 30)
    assert resolve_move(arena, [(14, 10)], 10, 10, 2.0)
