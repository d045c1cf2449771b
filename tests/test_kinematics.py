"""Motion model: angle wrapping, command integration, cancel-on-collision."""

from __future__ import annotations

import math
import random

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
