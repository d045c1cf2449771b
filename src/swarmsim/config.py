"""Experiment configuration: strict properties-format parsing and the CLI
override merge. A SimConfig checks its own rules whenever it is built.

Format: one ``key = value`` per line, ``#`` comment lines, blank lines
ignored. Later duplicates win; command-line overrides win over file values.
Unknown keys are hard errors so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
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


def _parse_int(text: str) -> int:
    return int(text, 10)


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


# key -> (SimConfig attribute, parser)
_KEYS = {
    "map.path": ("map_path", str),
    "arena.width": ("arena_width", _parse_int),
    "arena.height": ("arena_height", _parse_int),
    "robots.count": ("robot_count", _parse_int),
    "robots.radius": ("robot_radius", _parse_float),
    "sensors.count": ("sensor_count", _parse_int),
    "sensors.range": ("sensor_range", _parse_float),
    "sensors.angles": ("sensor_angles", _parse_float_list),
    "limits.v_max": ("v_max", _parse_float),
    "limits.w_max": ("w_max", _parse_float),
    "controller.type": ("controller_type", str),
    "controller.weights": ("controller_weights", _parse_float_list),
    "seed": ("seed", _parse_int),
    "ticks": ("ticks", _parse_int),
    "log.path": ("log_path", str),
    "frames.every": ("frames_every", _parse_int),
    "frames.dir": ("frames_dir", str),
    "spawn.positions": ("spawn_positions", _parse_positions),
    "messages.payload_cap": ("payload_cap", _parse_int),
}

_FIELD_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}

_REQUIRED = ("robots.count", "seed", "ticks", "controller.type")

_INT_FIELDS = (
    "robot_count",
    "seed",
    "ticks",
    "arena_width",
    "arena_height",
    "sensor_count",
    "frames_every",
    "payload_cap",
)
_OPTIONAL_INT_FIELDS = ("arena_width", "arena_height", "frames_every")


def _is_int(value: object) -> bool:
    """An integer in the sense of `operator.index`, but not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _is_real(value: object) -> bool:
    """A real number (int, float, numpy scalar, ...), but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _split_assignment(text: str, where: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def parse_config(text: str, overrides: Sequence[str] = ()) -> SimConfig:
    """Parse a properties file plus ``key=value`` overrides into a SimConfig."""
    raw: dict[str, tuple[str, str]] = {}  # key -> (value text, origin)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"line {lineno}"
        key, value = _split_assignment(stripped, where)
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        raw[key] = (value, where)
    for override in overrides:
        where = f"override {override!r}"
        key, value = _split_assignment(override, where)
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        raw[key] = (value, where)

    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    values: dict[str, object] = {}
    for key, (value_text, where) in raw.items():
        attr, parser = _KEYS[key]
        try:
            values[attr] = parser(value_text)
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
    direct construction and `dataclasses.replace` all pass through here."""

    def bad(message: str) -> ConfigError:
        return ConfigError(message)

    # Each field's type is checked before any rule compares it. bool is an
    # int subclass but never a count, a size or a length: it is refused.
    for attr in _INT_FIELDS:
        value = getattr(config, attr)
        if not (_is_int(value) or (value is None and attr in _OPTIONAL_INT_FIELDS)):
            raise bad(f"{_FIELD_TO_KEY[attr]} must be an integer; got {value!r}")
    for attr in ("robot_radius", "sensor_range", "v_max", "w_max"):
        value = getattr(config, attr)
        if not _is_real(value):
            raise bad(f"{_FIELD_TO_KEY[attr]} must be a real number; got {value!r}")
        if not math.isfinite(value):
            raise bad(f"{_FIELD_TO_KEY[attr]} must be finite")
    for attr in ("sensor_angles", "controller_weights"):
        values = getattr(config, attr)
        if values is None:
            continue
        if not all(_is_real(v) for v in values):
            raise bad(f"{_FIELD_TO_KEY[attr]} entries must be real numbers")
        if not all(math.isfinite(v) for v in values):
            raise bad(f"{_FIELD_TO_KEY[attr]} entries must be finite")
    if config.spawn_positions is not None:
        for i, pose in enumerate(config.spawn_positions):
            if not all(_is_real(v) for v in pose):
                raise bad(f"spawn.positions[{i}] {pose!r} entries must be real numbers")
    has_map = config.map_path is not None
    has_arena = config.arena_width is not None or config.arena_height is not None
    if has_map and has_arena:
        raise bad("give either map.path or arena.width/arena.height, not both")
    if not has_map:
        if config.arena_width is None or config.arena_height is None:
            raise bad("need map.path, or both arena.width and arena.height")
        if config.arena_width < 1 or config.arena_height < 1:
            raise bad("arena dimensions must be at least 1")
    if config.robot_count < 0:
        raise bad("robots.count must be non-negative")
    if config.robot_radius <= 0:
        raise bad("robots.radius must be positive")
    if not 0 <= config.seed < (1 << 64):
        raise bad("seed must be an unsigned 64-bit integer")
    if config.ticks < 0:
        raise bad("ticks must be non-negative")
    if config.controller_type not in CONTROLLER_TYPES:
        raise bad(
            f"controller.type must be one of {', '.join(CONTROLLER_TYPES)}; "
            f"got {config.controller_type!r}"
        )
    if config.sensor_count < 1:
        raise bad("sensors.count must be at least 1")
    if config.sensor_angles is not None:
        if len(config.sensor_angles) != config.sensor_count:
            raise bad(
                f"sensors.count is {config.sensor_count} but sensors.angles "
                f"lists {len(config.sensor_angles)} bearings"
            )
        for angle in config.sensor_angles:
            if not -math.pi <= angle < math.pi:
                raise bad(f"sensors.angles entry {angle!r} outside [-pi, pi)")
    if config.sensor_range <= 0:
        raise bad("sensors.range must be positive")
    if config.v_max <= 0 or config.w_max <= 0:
        raise bad("limits.v_max and limits.w_max must be positive")
    if config.sensor_range < config.v_max:
        raise bad("sensors.range must be at least limits.v_max")
    if config.controller_weights is not None:
        if config.controller_type != "braitenberg":
            raise bad("controller.weights only applies to controller.type = braitenberg")
        if len(config.controller_weights) != config.sensor_count:
            raise bad(
                f"controller.weights needs {config.sensor_count} entries, "
                f"got {len(config.controller_weights)}"
            )
    if config.frames_every is not None:
        if config.frames_every < 1:
            raise bad("frames.every must be at least 1")
        if config.frames_dir is None:
            raise bad("frames.every requires frames.dir")
    if config.payload_cap < 0:
        raise bad("messages.payload_cap must be non-negative")
    if config.spawn_positions is not None:
        if len(config.spawn_positions) != config.robot_count:
            raise bad(
                f"spawn.positions lists {len(config.spawn_positions)} poses "
                f"but robots.count is {config.robot_count}"
            )
        for i, pose in enumerate(config.spawn_positions):
            if len(pose) != 3:
                raise bad(f"spawn.positions[{i}] {pose!r} is not x,y,theta")


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ";".join(",".join(repr(float(part)) for part in pose) for pose in value)
        return ",".join(repr(float(part)) for part in value)
    raise TypeError(f"cannot serialize {value!r}")


def config_items(config: SimConfig) -> tuple[tuple[str, str], ...]:
    """The resolved configuration as (key, value-text) pairs in canonical
    key order, omitting unset optional keys."""
    items = []
    for key, (attr, _) in _KEYS.items():
        value = getattr(config, attr)
        if value is None:
            continue
        items.append((key, _format_value(value)))
    return tuple(items)


def serialize_config(config: SimConfig) -> str:
    """Properties text that parses back to an equal SimConfig."""
    return "\n".join(f"{key} = {value}" for key, value in config_items(config)) + "\n"
