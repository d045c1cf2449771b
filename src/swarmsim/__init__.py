"""swarmsim: a deterministic, headless 2D swarm-robotics simulator.

Disc robots with belts of IR-style ray sensors move on pixel-grid worlds.
Built for reproducible batch experiments at large populations: fixed
timestep, seeded SplitMix64 randomness, byte-stable logs, and one binned
pair search per tick so sensing and collision checks stay near-linear in
swarm size.
"""

from .bench import BenchRow, bench, format_csv
from .cli import main
from .config import SimConfig, config_items, parse_config, serialize_config
from .controllers import (
    BraitenbergController,
    Broadcast,
    ControlInput,
    ControlOutput,
    Controller,
    Message,
    RandomWalkController,
    default_avoidance_weights,
    deliver_messages,
)
from .engine import (
    Metrics,
    RunReport,
    SimState,
    Simulation,
    run,
    spawn,
    state_digest,
)
from .errors import (
    ConfigError,
    ControllerError,
    MapLoadError,
    SimulationError,
    SpawnError,
)
from .kinematics import (
    ActuatorCommand,
    Limits,
    Pose,
    RobotBody,
    apply_command,
    resolve_move,
    wrap_angle,
)
from .output import TrajectoryLogger, render_frame, robot_color
from .rng import RngStream, mix64, stream_seed
from .sensing import (
    RayHit,
    SensorReading,
    SensorSpec,
    cast_ray,
    evenly_spaced_angles,
    sense_all,
    sense_batch,
)
from .world import GridMap, RobotIndex, generate_arena, load_map, rebuild_index

__version__ = "0.1.0"

__all__ = [
    "ActuatorCommand",
    "BenchRow",
    "BraitenbergController",
    "Broadcast",
    "ConfigError",
    "ControlInput",
    "ControlOutput",
    "Controller",
    "ControllerError",
    "GridMap",
    "Limits",
    "MapLoadError",
    "Message",
    "Metrics",
    "Pose",
    "RandomWalkController",
    "RayHit",
    "RngStream",
    "RobotBody",
    "RobotIndex",
    "RunReport",
    "SensorReading",
    "SensorSpec",
    "SimConfig",
    "SimState",
    "Simulation",
    "SimulationError",
    "SpawnError",
    "TrajectoryLogger",
    "apply_command",
    "bench",
    "cast_ray",
    "config_items",
    "default_avoidance_weights",
    "deliver_messages",
    "evenly_spaced_angles",
    "format_csv",
    "generate_arena",
    "load_map",
    "main",
    "mix64",
    "parse_config",
    "rebuild_index",
    "render_frame",
    "resolve_move",
    "robot_color",
    "run",
    "sense_all",
    "sense_batch",
    "serialize_config",
    "spawn",
    "state_digest",
    "stream_seed",
    "wrap_angle",
    "__version__",
]
