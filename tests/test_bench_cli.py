"""Benchmark harness CSV and the command-line interface."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from swarmsim import SimConfig, bench, format_csv, main

from conftest import child_env

BASE = SimConfig(
    robot_count=1,
    seed=5,
    ticks=5,
    controller_type="braitenberg",
    arena_width=256,
    arena_height=256,
)

CONFIG_TEXT = """
arena.width = 128
arena.height = 128
robots.count = 3
seed = 9
ticks = 4
controller.type = random_walk
"""


# --- bench -----------------------------------------------------------------------


def test_bench_single_size_csv_shape():
    rows = bench(BASE, sizes=[1])
    csv = format_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,ticks,wall_seconds,steps_per_sec,peak_mem_bytes,error"
    assert len(lines) == 2
    assert lines[1].startswith("1,5,")


def test_bench_steps_identity_as_printed():
    rows = bench(replace(BASE, ticks=6), sizes=[1, 4, 9])
    for line in format_csv(rows).strip().splitlines()[1:]:
        n, ticks, wall, steps, _mem, err = line.split(",")
        assert err == ""
        recomputed = int(n) * int(ticks) / float(wall)
        assert format(recomputed, ".6g") == steps


def test_bench_error_row_keeps_going():
    dense = SimConfig(
        robot_count=1,
        seed=5,
        ticks=2,
        controller_type="random_walk",
        arena_width=24,
        arena_height=24,
        robot_radius=4.0,
    )
    rows = bench(dense, sizes=[50, 1])  # 50 robots cannot fit in 24x24
    assert rows[0].error is not None
    assert rows[1].error is None
    csv_lines = format_csv(rows).strip().splitlines()
    assert "placed" in csv_lines[1]
    assert csv_lines[2].startswith("1,2,")


def test_bench_requires_sizes():
    with pytest.raises(ValueError):
        bench(BASE, sizes=[])


def test_bench_rejects_negative_sizes():
    with pytest.raises(ValueError, match="-5"):
        bench(BASE, sizes=[-5, 3])


# --- CLI -------------------------------------------------------------------------


def _write_config(tmp_path):
    path = tmp_path / "run.properties"
    path.write_text(CONFIG_TEXT)
    return path


def test_missing_config_flag_exits_1(capsys):
    assert main([]) == 1


def test_minimal_run_exit_0_report(tmp_path, capsys):
    code = main(["--config", str(_write_config(tmp_path))])
    out = capsys.readouterr().out
    assert code == 0
    assert "ticks_run=4" in out
    assert "steps_per_sec=" in out


def test_quiet_suppresses_report(tmp_path, capsys):
    code = main(["--config", str(_write_config(tmp_path)), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_set_last_wins(tmp_path, capsys):
    code = main(
        [
            "--config",
            str(_write_config(tmp_path)),
            "--set",
            "robots.count=10",
            "--set",
            "robots.count=20",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "robots.count=20" in out


def test_seed_and_ticks_sugar(tmp_path, capsys):
    code = main(["--config", str(_write_config(tmp_path)), "--seed", "77", "--ticks", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed=77" in out and "ticks_run=2" in out


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--seed", "abc"], "override 'seed=abc': bad value for seed"),
        (["--seed", "-1"], "seed must be an unsigned 64-bit integer"),
        (["--frames-every", "2.5", "--frames-dir", "f"], "override 'frames.every=2.5'"),
    ],
)
def test_shorthand_values_parse_like_set(tmp_path, capsys, flags, reason):
    code = main(["--config", str(_write_config(tmp_path)), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: config: ") and reason in err


def test_config_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.properties"
    path.write_text("robot.count = 5\n")
    code = main(["--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: config:")


def test_missing_file_exit_1(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.properties")])
    assert code == 1
    assert "error: config:" in capsys.readouterr().err


def test_runtime_error_exit_2(tmp_path, capsys):
    path = tmp_path / "dense.properties"
    path.write_text(
        "arena.width=24\narena.height=24\nrobots.count=60\nrobots.radius=4\n"
        "seed=1\nticks=1\ncontroller.type=random_walk\n"
    )
    code = main(["--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: runtime:")


def test_log_flag_writes_csv(tmp_path, capsys):
    log = tmp_path / "t.csv"
    code = main(["--config", str(_write_config(tmp_path)), "--log", str(log)])
    assert code == 0
    assert log.read_text().startswith("tick,robot_id,")


def test_bench_flag_prints_csv(tmp_path, capsys):
    code = main(["--config", str(_write_config(tmp_path)), "--bench", "1,2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,ticks,")
    assert len(lines) == 3


def test_bad_bench_sizes_exit_1(tmp_path, capsys):
    assert main(["--config", str(_write_config(tmp_path)), "--bench", "a,b"]) == 1


def test_negative_bench_size_is_a_config_error(tmp_path, capsys):
    assert main(["--config", str(_write_config(tmp_path)), "--bench=-5,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config: ")
    assert "-5" in captured.err


def test_module_entrypoint_subprocess(tmp_path):
    config = _write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "swarmsim", "--config", str(config), "--quiet"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [[], ["--bench", "1,2"]])
def test_closed_stdout_ends_output_quietly(tmp_path, flags):
    # The reader closes the pipe before the child writes anything, so the
    # report (or the CSV) meets a broken pipe.
    config = _write_config(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "swarmsim", "--config", str(config), *flags],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_p2_header_larger_than_its_file_exit_2(tmp_path, capsys):
    map_path = tmp_path / "huge.pgm"
    map_path.write_bytes(b"P2 1073741824 1073741824 255 0 0")
    path = tmp_path / "huge.properties"
    path.write_text(
        f"map.path={map_path}\nrobots.count=1\nseed=1\nticks=1\ncontroller.type=random_walk\n"
    )
    code = main(["--config", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: runtime: truncated file: missing pixel value at byte 32\n"
    )
