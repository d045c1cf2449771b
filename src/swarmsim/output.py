"""Run artifacts: trajectory CSV logs and PPM (P6) frame images.

Both formats are fixed to the byte: equal-seed runs on one platform produce
identical files, so logs can be diffed directly to verify reproducibility.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .rng import mix64

_GRAY = (160, 160, 160)


class TrajectoryLogger:
    """CSV writer: one row per robot per tick, ordered by (tick, robot_id).

    Columns: tick,robot_id,x,y,theta,collided with x/y/theta printed to
    exactly six decimal places and collided as 0/1. The file opens (and the
    header is written) before the first tick so an unwritable path aborts
    the run up front.
    """

    HEADER = "tick,robot_id,x,y,theta,collided\n"

    def __init__(self, path: str) -> None:
        self._file = open(path, "w", newline="")
        self._file.write(self.HEADER)

    def append(self, state) -> None:
        tick = state.tick
        poses = zip(
            state.xs.tolist(), state.ys.tolist(), state.thetas.tolist(), state.collided.tolist()
        )
        rows = [
            f"{tick},{i},{x:.6f},{y:.6f},{theta:.6f},{1 if hit else 0}"
            for i, (x, y, theta, hit) in enumerate(poses)
        ]
        if rows:
            self._file.write("\n".join(rows) + "\n")

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> TrajectoryLogger:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def robot_color(robot_id: int) -> tuple[int, int, int]:
    """Deterministic per-id color, channels in [40, 219] (never near-white)."""
    z = mix64(robot_id)
    return (
        40 + (z & 0xFF) % 180,
        40 + ((z >> 8) & 0xFF) % 180,
        40 + ((z >> 16) & 0xFF) % 180,
    )


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int, color) -> None:
    """Integer Bresenham, clipped per pixel."""
    h, w = img.shape[:2]
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < w and 0 <= y0 < h:
            img[y0, x0] = color
        if x0 == x1 and y0 == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_disc(img: np.ndarray, x: float, y: float, r: float, color) -> None:
    """Fill every pixel whose center lies within r of (x, y)."""
    h, w = img.shape[:2]
    cx0 = max(0, math.ceil(x - r - 0.5))
    cx1 = min(w - 1, math.floor(x + r - 0.5))
    cy0 = max(0, math.ceil(y - r - 0.5))
    cy1 = min(h - 1, math.floor(y + r - 0.5))
    if cx1 < cx0 or cy1 < cy0:
        return
    pxs = np.arange(cx0, cx1 + 1) + 0.5 - x
    pys = np.arange(cy0, cy1 + 1) + 0.5 - y
    mask = pys[:, None] ** 2 + pxs[None, :] ** 2 <= r * r
    img[cy0 : cy1 + 1, cx0 : cx1 + 1][mask] = color


def render_frame(state, spec=None, draw_rays: bool = False) -> bytes:
    """Render a SimState as a binary PPM (P6) image, one pixel per map cell:
    obstacles black, free space white, robots as filled discs in their
    per-id colors, and (optionally) sensor rays as 1 px gray lines."""
    grid = state.grid
    img = np.empty((grid.height, grid.width, 3), dtype=np.uint8)
    img[:] = np.where(grid.occupancy, 0, 255)[:, :, None]
    radius = state.radius
    if draw_rays and state.xs.size:
        if spec is None:
            raise ValueError("draw_rays needs the sensor spec")
        from .sensing import sense_batch

        xs, ys, thetas = state.xs, state.ys, state.thetas
        normalized, _ = sense_batch(grid, xs, ys, thetas, radius, spec)
        angles = np.asarray(spec.angles)
        for i in range(xs.size):
            for j, angle in enumerate(angles):
                bearing = thetas[i] + angle
                dx = math.cos(bearing)
                dy = math.sin(bearing)
                ox = xs[i] + radius * dx
                oy = ys[i] + radius * dy
                dist = normalized[i, j] * spec.max_range
                _draw_line(
                    img,
                    math.floor(ox),
                    math.floor(oy),
                    math.floor(ox + dist * dx),
                    math.floor(oy + dist * dy),
                    _GRAY,
                )
    for i, (x, y) in enumerate(zip(state.xs.tolist(), state.ys.tolist())):
        _draw_disc(img, x, y, radius, robot_color(i))
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def write_frame(sim, frames_dir: str) -> str:
    """Write the current state as frames_dir/frame_<tick>.ppm (rays included)."""
    os.makedirs(frames_dir, exist_ok=True)
    path = os.path.join(frames_dir, f"frame_{sim.state.tick:06d}.ppm")
    data = render_frame(sim.state, spec=sim.spec, draw_rays=True)
    with open(path, "wb") as handle:
        handle.write(data)
    return path
