"""Properties-format parsing, strict key checking, round-trips."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from swarmsim import (
    ConfigError,
    SimConfig,
    Simulation,
    parse_config,
    run,
    serialize_config,
    state_digest,
)

MINIMAL = """
arena.width = 256
arena.height = 256
robots.count = 100
seed = 1
ticks = 5
controller.type = braitenberg
"""


def test_complete_file_parses():
    config = parse_config(MINIMAL)
    assert config.robot_count == 100
    assert config.seed == 1
    assert config.controller_type == "braitenberg"
    assert config.robot_radius == 4.0  # default


def test_comments_blanks_and_whitespace():
    text = "# experiment\n\n  arena.width =  64 \narena.height=64\n" + (
        "robots.count=2\nseed=0\nticks=1\ncontroller.type=random_walk\n"
    )
    config = parse_config(text)
    assert config.arena_width == 64 and config.robot_count == 2


def test_later_duplicate_wins():
    config = parse_config(MINIMAL + "\nrobots.count = 7\n")
    assert config.robot_count == 7


def test_override_beats_file():
    config = parse_config(MINIMAL, overrides=["seed=2"])
    assert config.seed == 2


def test_later_override_wins():
    config = parse_config(MINIMAL, overrides=["robots.count=10", "robots.count=20"])
    assert config.robot_count == 20


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 1.*robot\.count"):
        parse_config("robot.count = 5\n" + MINIMAL)


def test_unknown_override_key():
    with pytest.raises(ConfigError, match="override"):
        parse_config(MINIMAL, overrides=["robot.count=5"])


def test_missing_required_keys_listed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("arena.width=8\narena.height=8\nrobots.count=1\nticks=1\ncontroller.type=random_walk")


def test_bad_value_names_key_and_line():
    bad = MINIMAL.replace("ticks = 5", "ticks = soon")
    with pytest.raises(ConfigError, match="ticks"):
        parse_config(bad)


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("hello world\n" + MINIMAL)


def test_map_and_arena_are_exclusive(tmp_path):
    with pytest.raises(ConfigError, match="not both"):
        parse_config(MINIMAL + "map.path = some.pgm\n")


def test_map_source_required():
    with pytest.raises(ConfigError, match="arena"):
        parse_config("robots.count=1\nseed=0\nticks=1\ncontroller.type=random_walk")


def test_seed_range_checked():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(MINIMAL, overrides=[f"seed={1 << 64}"])
    with pytest.raises(ConfigError, match="seed"):
        parse_config(MINIMAL, overrides=["seed=-1"])
    top = parse_config(MINIMAL, overrides=[f"seed={(1 << 64) - 1}"])
    assert top.seed == (1 << 64) - 1


def test_sensor_range_must_cover_v_max():
    with pytest.raises(ConfigError, match="sensors.range"):
        parse_config(MINIMAL, overrides=["sensors.range=1.0", "limits.v_max=2.0"])


def test_angles_define_count():
    config = parse_config(MINIMAL, overrides=["sensors.angles=0.0,1.0,-1.0"])
    assert config.sensor_count == 3
    assert config.sensor_angles == (0.0, 1.0, -1.0)


def test_angles_count_conflict_rejected():
    with pytest.raises(ConfigError, match="sensors.count"):
        parse_config(MINIMAL, overrides=["sensors.angles=0.0,1.0", "sensors.count=5"])


def test_angle_domain_checked():
    with pytest.raises(ConfigError, match="angles"):
        parse_config(MINIMAL, overrides=[f"sensors.angles=0.0,{math.pi}"])


def test_weights_require_braitenberg_and_match_count():
    with pytest.raises(ConfigError, match="weights"):
        parse_config(
            MINIMAL.replace("braitenberg", "random_walk"),
            overrides=["controller.weights=1,2,3,4,5,6,7,8"],
        )
    with pytest.raises(ConfigError, match="weights"):
        parse_config(MINIMAL, overrides=["controller.weights=1,2"])
    ok = parse_config(MINIMAL, overrides=["controller.weights=0,-1,-0.5,-0.2,0,0.2,0.5,1"])
    assert ok.controller_weights == (0.0, -1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0)


def test_frames_every_needs_dir():
    with pytest.raises(ConfigError, match="frames.dir"):
        parse_config(MINIMAL, overrides=["frames.every=10"])


def test_frames_dir_needs_every():
    with pytest.raises(ConfigError, match="^frames.dir requires frames.every$"):
        parse_config(MINIMAL, overrides=["frames.dir=frames"])
    with pytest.raises(ConfigError, match="^frames.dir requires frames.every$"):
        SimConfig(**{**VALID, "frames_dir": "frames"})


def test_spawn_positions_parse_and_count_check():
    config = parse_config(
        MINIMAL,
        overrides=["robots.count=2", "spawn.positions=10,20,0.5; 30,40,-1.0"],
    )
    assert config.spawn_positions == ((10.0, 20.0, 0.5), (30.0, 40.0, -1.0))
    with pytest.raises(ConfigError, match="spawn.positions"):
        parse_config(MINIMAL, overrides=["spawn.positions=10,20,0.5"])


def test_unknown_controller_type():
    with pytest.raises(ConfigError, match="controller.type"):
        parse_config(MINIMAL.replace("braitenberg", "flocking"))


def test_serialize_parse_roundtrip_minimal():
    config = parse_config(MINIMAL)
    assert parse_config(serialize_config(config)) == config


def _random_config(rng: random.Random):
    overrides = [
        f"robots.count={rng.randint(0, 50)}",
        f"robots.radius={rng.uniform(0.5, 8.0)!r}",
        f"seed={rng.getrandbits(64)}",
        f"ticks={rng.randint(0, 10000)}",
        f"limits.v_max={rng.uniform(0.1, 5.0)!r}",
        f"limits.w_max={rng.uniform(0.05, 2.0)!r}",
        f"sensors.range={rng.uniform(8.0, 100.0)!r}",
        f"messages.payload_cap={rng.randint(0, 10000)}",
    ]
    if rng.random() < 0.5:
        controller = "random_walk"
        overrides.append("controller.type=random_walk")
    else:
        controller = "braitenberg"
        overrides.append("controller.type=braitenberg")
    if rng.random() < 0.4:
        k = rng.randint(1, 12)
        angles = sorted(rng.uniform(-math.pi, math.pi - 1e-9) for _ in range(k))
        overrides.append("sensors.angles=" + ",".join(repr(a) for a in angles))
        if controller == "braitenberg" and rng.random() < 0.5:
            overrides.append(
                "controller.weights=" + ",".join(repr(rng.uniform(-1, 1)) for _ in range(k))
            )
    if rng.random() < 0.3:
        overrides.append("log.path=/tmp/some.csv")
    base = MINIMAL.replace("controller.type = braitenberg", "")
    # keep sensors.range >= v_max
    config_text = base + "\nsensors.range = 200.0\n"
    return parse_config(config_text, overrides)


def test_roundtrip_on_random_configs():
    rng = random.Random(2718)
    for _ in range(50):
        config = _random_config(rng)
        text = serialize_config(config)
        assert parse_config(text) == config


def test_negative_counts_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=["robots.count=-1"])
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=["ticks=-5"])
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=["robots.radius=0"])


# --- checks at construction --------------------------------------------------------

VALID = dict(
    robot_count=2,
    seed=1,
    ticks=3,
    controller_type="braitenberg",
    arena_width=64,
    arena_height=64,
)

# (changed fields, the rule's message), each accepted when only parse_config checked.
BAD_FIELDS = [
    ({"robot_count": -3}, "robots.count must be non-negative"),
    ({"ticks": -5}, "ticks must be non-negative"),
    ({"frames_every": 0, "frames_dir": "frames"}, "frames.every must be at least 1"),
    ({"sensor_range": 1.0}, "sensors.range must be at least limits.v_max"),
    (
        {"sensor_count": 4, "sensor_angles": (0.0, 1.0)},
        "sensors.count is 4 but sensors.angles lists 2 bearings",
    ),
    ({"payload_cap": -1}, "messages.payload_cap must be non-negative"),
    ({"seed": -1}, "seed must be an unsigned 64-bit integer"),
    (
        {"arena_width": None, "arena_height": None},
        "need map.path, or both arena.width and arena.height",
    ),
    ({"controller_weights": (math.nan,) * 8}, "controller.weights entries must be finite"),
    ({"robot_radius": math.nan}, "robots.radius must be finite"),
    ({"sensor_range": math.inf}, "sensors.range must be finite"),
    ({"v_max": math.nan}, "limits.v_max must be finite"),
    ({"w_max": math.inf}, "limits.w_max must be finite"),
    (
        {"sensor_count": 2, "sensor_angles": (0.0, -math.inf)},
        "sensors.angles entries must be finite",
    ),
    (
        {"robot_count": 1, "spawn_positions": ((10.0, 20.0),)},
        "spawn.positions[0] (10.0, 20.0) is not x,y,theta",
    ),
    # Types: a float count would spawn ceil(count) robots, a float arena
    # size or a str radius would fail later with a bare TypeError.
    ({"robot_count": 2.5}, "robots.count must be an integer; got 2.5"),
    ({"arena_width": 64.5}, "arena.width must be an integer; got 64.5"),
    ({"ticks": 2.5}, "ticks must be an integer; got 2.5"),
    ({"seed": "1"}, "seed must be an integer; got '1'"),
    ({"robot_count": None}, "robots.count must be an integer; got None"),
    ({"frames_every": 2.0, "frames_dir": "frames"}, "frames.every must be an integer; got 2.0"),
    ({"robot_count": True}, "robots.count must be an integer; got True"),
    ({"payload_cap": False}, "messages.payload_cap must be an integer; got False"),
    ({"robot_radius": "4"}, "robots.radius must be a real number; got '4'"),
    ({"v_max": None}, "limits.v_max must be a real number; got None"),
    ({"w_max": True}, "limits.w_max must be a real number; got True"),
    (
        {"sensor_count": 2, "sensor_angles": (0.0, "1")},
        "sensors.angles entries must be real numbers",
    ),
    ({"controller_weights": (1.0,) * 7 + (None,)}, "controller.weights entries must be real numbers"),
    (
        {"robot_count": 1, "spawn_positions": ((10.0, "20", 0.0),)},
        "spawn.positions[0] (10.0, '20', 0.0) entries must be real numbers",
    ),
    # Paths are str or os.PathLike: an int would be opened as a file
    # descriptor, bytes would print as b'...' in the report.
    ({"log_path": 7}, "log.path must be a string; got 7"),
    (
        {"map_path": b"x", "arena_width": None, "arena_height": None},
        "map.path must be a string; got b'x'",
    ),
    ({"controller_type": None}, "controller.type must be a string; got None"),
    # Non-finite poses are a config error, not a spawn error.
    (
        {"spawn_positions": ((20.0, 20.0, 0.0), (20.0, math.nan, 0.5))},
        "spawn.positions[1] is not finite: (20.0, nan, 0.5)",
    ),
    (
        {"spawn_positions": ((20.0, 20.0, 0.0), (20.0, 40.0, -math.inf))},
        "spawn.positions[1] is not finite: (20.0, 40.0, -inf)",
    ),
    # An int too large for a float is not finite, not an OverflowError.
    ({"robot_radius": 10**400}, "robots.radius must be finite"),
    ({"sensor_range": -(10**400)}, "sensors.range must be finite"),
    ({"controller_weights": (1.0,) * 7 + (10**400,)}, "controller.weights entries must be finite"),
    (
        {"robot_count": 1, "spawn_positions": ((10**400, 1.0, 0.0),)},
        "spawn.positions[0] is not finite: (inf, 1.0, 0.0)",
    ),
    # The properties format strips values and splits lines: such paths
    # could not be written back.
    (
        {"log_path": " out.csv"},
        "log.path must not start or end with whitespace or hold a line break; got ' out.csv'",
    ),
    (
        {"log_path": "a\nb"},
        "log.path must not start or end with whitespace or hold a line break; got 'a\\nb'",
    ),
    (
        {"frames_every": 1, "frames_dir": "frames\t"},
        "frames.dir must not start or end with whitespace or hold a line break; got 'frames\\t'",
    ),
    (
        {"map_path": "m\x1cap.pgm", "arena_width": None, "arena_height": None},
        "map.path must not start or end with whitespace or hold a line break; got 'm\\x1cap.pgm'",
    ),
]


@pytest.mark.parametrize("changes, message", BAD_FIELDS)
def test_direct_construction_is_checked(changes, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SimConfig(**{**VALID, **changes})


@pytest.mark.parametrize("changes, message", BAD_FIELDS)
def test_replace_is_checked(changes, message):
    base = SimConfig(**VALID)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(base, **changes)


def test_integer_and_real_types_other_than_bool_are_accepted():
    config = SimConfig(
        **{
            **VALID,
            "robot_count": np.int64(2),
            "seed": np.uint64(1),
            "arena_width": np.int32(64),
            "robot_radius": 4,
            "sensor_range": np.float32(40.0),
            "sensor_count": 2,
            "sensor_angles": (0, np.float64(1.0)),
        }
    )
    assert config.robot_count == 2 and config.robot_radius == 4


NUMPY_TYPED = {
    **VALID,
    "robot_count": np.int64(2),
    "seed": np.uint64(1),
    "arena_width": np.int32(64),
    "ticks": np.int64(2),
    "sensor_range": np.float32(40.0),
    "sensor_count": 2,
    "sensor_angles": (0, np.float64(1.0)),
}


def test_numpy_typed_config_runs_reports_and_round_trips():
    config = SimConfig(**NUMPY_TYPED)
    assert type(config.robot_count) is int and type(config.sensor_range) is float
    report = run(config)
    assert report.metrics.ticks_run == 2
    echo = dict(report.config_items)
    assert echo["robots.count"] == "2" and echo["seed"] == "1"
    assert echo["arena.width"] == "64" and echo["ticks"] == "2"
    assert echo["sensors.range"] == "40.0" and echo["sensors.angles"] == "0.0,1.0"
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize("seed", [np.int64(1), np.uint64(1), np.uint64((1 << 64) - 1)])
def test_numpy_seed_builds_and_steps(seed):
    sim = Simulation(SimConfig(**{**VALID, "seed": seed}))
    sim.step()
    plain = Simulation(SimConfig(**{**VALID, "seed": int(seed)}))
    plain.step()
    assert state_digest(sim.state) == state_digest(plain.state)


def test_sequences_are_stored_as_tuples_and_paths_as_str(tmp_path):
    config = SimConfig(
        **{
            **VALID,
            "sensor_count": 2,
            "sensor_angles": [0.0, 1],
            "controller_weights": np.array([0.5, -0.5]),
            "spawn_positions": [[10, 20, 0.0], np.array([30.0, 40.0, 1.0])],
            "log_path": tmp_path / "log.csv",
            "frames_every": 1,
            "frames_dir": tmp_path / "frames",
        }
    )
    assert config.sensor_angles == (0.0, 1.0) and type(config.sensor_angles) is tuple
    assert config.controller_weights == (0.5, -0.5)
    assert config.spawn_positions == ((10.0, 20.0, 0.0), (30.0, 40.0, 1.0))
    assert all(type(pose) is tuple for pose in config.spawn_positions)
    assert all(type(v) is float for pose in config.spawn_positions for v in pose)
    assert config.log_path == str(tmp_path / "log.csv")
    assert config.frames_dir == str(tmp_path / "frames")
    assert parse_config(serialize_config(config)) == config
    map_config = SimConfig(
        **{**VALID, "arena_width": None, "arena_height": None, "map_path": Path("m.pgm")}
    )
    assert map_config.map_path == "m.pgm"


PATH_TEXTS = [
    "out.csv",
    "runs/a b/out.csv",
    "a=b#c.csv",
    "#not-a-comment",
    "\u00e9t\u00e9/\u2603.pgm",
    "tab\tinside",
    "",
    " out.csv",
    "out.csv ",
    "a\nb",
    "a\r\nb",
    "a\rb",
    "a\x0bb",
    "a\x1cb",
    "a\u2028b",
    "\u3000wide",
]


@pytest.mark.parametrize(
    "key, attr", [("map.path", "map_path"), ("log.path", "log_path"), ("frames.dir", "frames_dir")]
)
def test_every_accepted_path_round_trips(key, attr):
    extra = {
        "map_path": {"arena_width": None, "arena_height": None},
        "frames_dir": {"frames_every": 1},
    }.get(attr, {})
    accepted = 0
    for text in PATH_TEXTS:
        try:
            config = SimConfig(**{**VALID, **extra, attr: text})
        except ConfigError as exc:
            assert str(exc).startswith(f"{key} must not"), text
            continue
        accepted += 1
        assert getattr(config, attr) == text
        assert parse_config(serialize_config(config)) == config, text
    assert accepted == 7
