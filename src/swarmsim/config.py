"""Experiment configuration: strict properties-format parsing and the CLI
override merge. A SimConfig checks its own rules whenever it is built and
holds its values as plain Python types (int, float, str, tuples of floats).

Format: one ``key = value`` per line, ``#`` comment lines, blank lines
ignored. Later duplicates win; command-line overrides win over file values.
Unknown keys are hard errors so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

from .errors import ConfigError

CONTROLLER_TYPES = ("braitenberg", "random_walk")


@dataclass(frozen=True, slots=True)
class SimConfig:
    robot_count: int
    seed: int
    ticks: int
    controller_type: str
    map_path: str | None = None
    arena_width: int | None = None
    arena_height: int | None = None
    robot_radius: float = 4.0
    sensor_count: int = 8
    sensor_range: float = 64.0
    sensor_angles: tuple[float, ...] | None = None
    v_max: float = 2.0
    w_max: float = 0.4
    controller_weights: tuple[float, ...] | None = None
    log_path: str | None = None
    frames_every: int | None = None
    frames_dir: str | None = None
    spawn_positions: tuple[tuple[float, float, float], ...] | None = None
    payload_cap: int = 4096

    def __post_init__(self) -> None:
        _validate(self)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(_parse_float(part) for part in items)


def _parse_positions(text: str) -> tuple[tuple[float, float, float], ...]:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"pose {chunk!r} is not x,y,theta")
        triples.append(tuple(_parse_float(part) for part in parts))
    return tuple(triples)


def _is_real(value: object) -> bool:
    """A real number (int, float, numpy scalar, ...), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# A check takes (key, value), returns the value as plain Python types and
# raises ConfigError naming the key. bool is an int subclass but never a
# count, a size or a length: it is refused.


def _check_int(key: str, value: object) -> int:
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))  # type: ignore[arg-type]
        except TypeError:
            pass
    raise ConfigError(f"{key} must be an integer; got {value!r}")


def _as_float(value: numbers.Real) -> float:
    """float(value), with an int too large for a float read as an infinity
    of its sign rather than raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_real(key: str, value: object) -> float:
    if not _is_real(value):
        raise ConfigError(f"{key} must be a real number; got {value!r}")
    real = _as_float(value)  # type: ignore[arg-type]
    if not math.isfinite(real):
        raise ConfigError(f"{key} must be finite")
    return real


def _check_reals(key: str, value: object) -> tuple[float, ...]:
    values = tuple(value)  # type: ignore[arg-type]
    if not all(_is_real(v) for v in values):
        raise ConfigError(f"{key} entries must be real numbers")
    reals = tuple(map(_as_float, values))
    if not all(map(math.isfinite, reals)):
        raise ConfigError(f"{key} entries must be finite")
    return reals


def _check_poses(key: str, value: object) -> tuple[tuple[float, float, float], ...]:
    poses = []
    for i, pose in enumerate(map(tuple, value)):  # type: ignore[arg-type]
        if not all(_is_real(v) for v in pose):
            raise ConfigError(f"{key}[{i}] {pose!r} entries must be real numbers")
        if len(pose) != 3:
            raise ConfigError(f"{key}[{i}] {pose!r} is not x,y,theta")
        reals = tuple(map(_as_float, pose))
        if not all(map(math.isfinite, reals)):
            raise ConfigError(f"{key}[{i}] is not finite: {reals}")
        poses.append(reals)
    return tuple(poses)


def _check_str(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string; got {value!r}")
    return value


def _check_path(key: str, value: object) -> str:
    """A str or os.PathLike, as str. The properties format strips values and
    splits lines, so a path with surrounding whitespace or a line break
    could not be written back; it is refused."""
    path = _check_str(key, os.fspath(value) if isinstance(value, os.PathLike) else value)
    if path != path.strip() or "".join(path.splitlines()) != path:
        raise ConfigError(
            f"{key} must not start or end with whitespace or hold a line break; got {path!r}"
        )
    return path


# A kind parses file or override text, checks a value (see above) and shows
# a checked value as text that parses back to it.
_Kind = namedtuple("_Kind", "parse check show")
_INT = _Kind(int, _check_int, str)
_REAL = _Kind(_parse_float, _check_real, repr)
_REALS = _Kind(_parse_float_list, _check_reals, lambda values: ",".join(map(repr, values)))
_POSES = _Kind(_parse_positions, _check_poses, lambda poses: ";".join(map(_REALS.show, poses)))
_STR = _Kind(str, _check_str, str)
_PATH = _Kind(str, _check_path, str)

# key -> (SimConfig attribute, kind), in the order config_items prints them.
_KEYS = {
    "map.path": ("map_path", _PATH),
    "arena.width": ("arena_width", _INT),
    "arena.height": ("arena_height", _INT),
    "robots.count": ("robot_count", _INT),
    "robots.radius": ("robot_radius", _REAL),
    "sensors.count": ("sensor_count", _INT),
    "sensors.range": ("sensor_range", _REAL),
    "sensors.angles": ("sensor_angles", _REALS),
    "limits.v_max": ("v_max", _REAL),
    "limits.w_max": ("w_max", _REAL),
    "controller.type": ("controller_type", _STR),
    "controller.weights": ("controller_weights", _REALS),
    "seed": ("seed", _INT),
    "ticks": ("ticks", _INT),
    "log.path": ("log_path", _PATH),
    "frames.every": ("frames_every", _INT),
    "frames.dir": ("frames_dir", _PATH),
    "spawn.positions": ("spawn_positions", _POSES),
    "messages.payload_cap": ("payload_cap", _INT),
}

# attribute -> dataclass default: MISSING if the field is required, None if optional.
_DEFAULTS = {field.name: field.default for field in fields(SimConfig)}
_REQUIRED = tuple(key for key, (attr, _) in _KEYS.items() if _DEFAULTS[attr] is MISSING)


def _split_assignment(text: str, where: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, _, value = text.partition("=")
    key = key.strip()
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def parse_config(text: str, overrides: Sequence[str] = ()) -> SimConfig:
    """Parse a properties file plus ``key=value`` overrides into a SimConfig."""
    raw: dict[str, tuple[str, str]] = {}  # key -> (value text, origin)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"line {lineno}"
        key, value = _split_assignment(stripped, where)
        raw[key] = (value, where)
    for override in overrides:
        where = f"override {override!r}"
        key, value = _split_assignment(override, where)
        raw[key] = (value, where)

    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    values: dict[str, object] = {}
    for key, (value_text, where) in raw.items():
        attr, kind = _KEYS[key]
        try:
            values[attr] = kind.parse(value_text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from None
    # An explicit angle list defines the belt; derive the count unless the
    # file pinned it too (in which case the two must agree, which SimConfig
    # checks when it is built).
    if "sensors.angles" in raw and "sensors.count" not in raw:
        values["sensor_count"] = len(values["sensor_angles"])  # type: ignore[arg-type]
    return SimConfig(**values)


def _validate(config: SimConfig) -> None:
    """Every rule a SimConfig obeys however it is built: `parse_config`,
    direct construction and `dataclasses.replace` all pass through here.
    Each field's kind is checked first and the value stored normalized, so
    the rules after compare plain Python values."""
    for key, (attr, kind) in _KEYS.items():
        value = getattr(config, attr)
        if value is not None or _DEFAULTS[attr] is not None:
            object.__setattr__(config, attr, kind.check(key, value))
    has_map = config.map_path is not None
    has_arena = config.arena_width is not None or config.arena_height is not None
    if has_map and has_arena:
        raise ConfigError("give either map.path or arena.width/arena.height, not both")
    if not has_map:
        if config.arena_width is None or config.arena_height is None:
            raise ConfigError("need map.path, or both arena.width and arena.height")
        if config.arena_width < 1 or config.arena_height < 1:
            raise ConfigError("arena dimensions must be at least 1")
    if config.robot_count < 0:
        raise ConfigError("robots.count must be non-negative")
    if config.robot_radius <= 0:
        raise ConfigError("robots.radius must be positive")
    if not 0 <= config.seed < (1 << 64):
        raise ConfigError("seed must be an unsigned 64-bit integer")
    if config.ticks < 0:
        raise ConfigError("ticks must be non-negative")
    if config.controller_type not in CONTROLLER_TYPES:
        raise ConfigError(
            f"controller.type must be one of {', '.join(CONTROLLER_TYPES)}; "
            f"got {config.controller_type!r}"
        )
    if config.sensor_count < 1:
        raise ConfigError("sensors.count must be at least 1")
    if config.sensor_angles is not None:
        if len(config.sensor_angles) != config.sensor_count:
            raise ConfigError(
                f"sensors.count is {config.sensor_count} but sensors.angles "
                f"lists {len(config.sensor_angles)} bearings"
            )
        for angle in config.sensor_angles:
            if not -math.pi <= angle < math.pi:
                raise ConfigError(f"sensors.angles entry {angle!r} outside [-pi, pi)")
    if config.sensor_range <= 0:
        raise ConfigError("sensors.range must be positive")
    if config.v_max <= 0 or config.w_max <= 0:
        raise ConfigError("limits.v_max and limits.w_max must be positive")
    if config.sensor_range < config.v_max:
        raise ConfigError("sensors.range must be at least limits.v_max")
    if config.controller_weights is not None:
        if config.controller_type != "braitenberg":
            raise ConfigError("controller.weights only applies to controller.type = braitenberg")
        if len(config.controller_weights) != config.sensor_count:
            raise ConfigError(
                f"controller.weights needs {config.sensor_count} entries, "
                f"got {len(config.controller_weights)}"
            )
    if config.frames_every is not None:
        if config.frames_every < 1:
            raise ConfigError("frames.every must be at least 1")
        if config.frames_dir is None:
            raise ConfigError("frames.every requires frames.dir")
    elif config.frames_dir is not None:
        raise ConfigError("frames.dir requires frames.every")
    if config.payload_cap < 0:
        raise ConfigError("messages.payload_cap must be non-negative")
    if config.spawn_positions is not None:
        if len(config.spawn_positions) != config.robot_count:
            raise ConfigError(
                f"spawn.positions lists {len(config.spawn_positions)} poses "
                f"but robots.count is {config.robot_count}"
            )


def config_items(config: SimConfig) -> tuple[tuple[str, str], ...]:
    """The resolved configuration as (key, value-text) pairs in canonical
    key order, omitting unset optional keys."""
    items = []
    for key, (attr, kind) in _KEYS.items():
        value = getattr(config, attr)
        if value is not None:
            items.append((key, kind.show(value)))
    return tuple(items)


def serialize_config(config: SimConfig) -> str:
    """Properties text that parses back to an equal SimConfig."""
    return "\n".join(f"{key} = {value}" for key, value in config_items(config)) + "\n"
