"""Command-line interface: exit codes, outputs, error lanes."""

import json

import pytest

import coopstream.traces as tr
from coopstream.cli import main
from coopstream.harness import ScenarioConfig, parse_assignments

TINY = """\
name = cli-tiny
n_users = 3
video_fraction = 0.67
horizon = 20
video_len = 8
segment_len = 2
buffer_cap = 10
capacity_hi = 2.0
schedulers = lyapunov
repetitions = 1
seed = 3
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_print_config_round_trips(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert parse_assignments(out.splitlines()) == ScenarioConfig()


def test_run_writes_outputs_and_reports_metrics(tiny_cfg, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", tiny_cfg, "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "cli-tiny" in stdout and "lyapunov" in stdout
    assert (out_dir / "summary.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["scenario"] == "cli-tiny"
    assert (out_dir / "records_lyapunov.csv").exists()
    assert (out_dir / "result_lyapunov.json").exists()


def test_run_seed_override_changes_the_report(tiny_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", tiny_cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", tiny_cfg, "--seed", "99", "--out", str(b)]) == 0
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra["config"]["seed"] == 3 and rb["config"]["seed"] == 99


def test_usage_and_config_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1                       # no command: help, not a crash
    assert main(["run"]) == 1                  # missing --config
    assert main(["no-such-command"]) == 1
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("mobility = teleport\n")
    assert main(["run", "--config", str(bad)]) == 1


@pytest.mark.parametrize(
    "command, lines",
    [
        pytest.param("run", "mobility = synthetic\nhotspots = 0\n", id="no-hotspots"),
        pytest.param("run", "capacity_period = 0\n", id="zero-capacity-period"),
        pytest.param("run", "mobility = full-coop\ndwell_mean = 0\n", id="full-coop-zero-dwell"),
        pytest.param("bound", "bound_users = 0\n", id="no-bound-users"),
        pytest.param("bound", "bound_horizon = 0\n", id="zero-bound-horizon"),
        pytest.param(
            "run", "bound_enable = true\nbound_refine = -1\n", id="negative-bound-refine"
        ),
    ],
)
def test_values_the_run_would_reject_are_config_errors(tmp_path, capsys, command, lines):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY + lines)
    assert main([command, "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_presets_ignore_the_raw_synthetic_keys(tmp_path):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(TINY + "mobility = dense-short\nhotspots = 0\n")
    assert main(["run", "--config", str(cfg)]) == 0


def test_negative_refine_is_a_config_error(tiny_cfg, capsys):
    assert main(["bound", "--config", tiny_cfg, "--refine", "-1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_short_traces_fail_in_the_runtime_lane(tmp_path, capsys):
    cap = tr.constant_capacity({0: 1.0, 1: 1.0}, 5.0)
    mob = tr.full_coop_mobility([0, 1], 5.0)
    cap.to_csv(str(tmp_path / "cap.csv"))
    mob.to_csv(str(tmp_path / "mob.csv"))
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        "n_users = 2\nhorizon = 30\nvideo_len = 8\nsegment_len = 2\n"
        "buffer_cap = 10\nschedulers = lyapunov\nrepetitions = 1\n"
        f"mobility = csv\ncapacity_csv = {tmp_path / 'cap.csv'}\n"
        f"mobility_csv = {tmp_path / 'mob.csv'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_validate_traces_accepts_matching_pairs(tmp_path, capsys):
    cap = tr.constant_capacity({0: 1.0, 1: 2.0}, 10.0)
    mob = tr.full_coop_mobility([0, 1], 10.0)
    cap.to_csv(str(tmp_path / "cap.csv"))
    mob.to_csv(str(tmp_path / "mob.csv"))
    assert main(
        ["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]
    ) == 0
    assert "ok: 2 users" in capsys.readouterr().out


def test_validate_traces_rejects_mismatched_users(tmp_path, capsys):
    cap = tr.constant_capacity({0: 1.0, 1: 2.0}, 10.0)
    mob = tr.full_coop_mobility([0, 2], 10.0)
    cap.to_csv(str(tmp_path / "cap.csv"))
    mob.to_csv(str(tmp_path / "mob.csv"))
    assert main(
        ["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]
    ) == 2
    assert "user sets differ" in capsys.readouterr().err


def test_sweep_command_runs_each_value(tiny_cfg, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            tiny_cfg,
            "--axis",
            "capacity_hi",
            "--values",
            "1.0,2.0",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "capacity_hi=1.0" in stdout and "capacity_hi=2.0" in stdout
    reports = json.loads((out_dir / "report.json").read_text())
    assert len(reports) == 2
    assert main(["sweep", "--config", tiny_cfg, "--axis", "bogus", "--values", "1"]) == 1


def test_bound_command_prints_region_and_writes_json(tmp_path, capsys):
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(
        "n_users = 2\nvideo_fraction = 0.5\nhorizon = 20\nvideo_len = 8\n"
        "segment_len = 2\nbuffer_cap = 10\ncapacity_hi = 1.0\n"
        "schedulers = lyapunov\nrepetitions = 1\nbound_users = 2\n"
        "bound_horizon = 4\nbound_budget = 200000\n"
    )
    out = tmp_path / "region.json"
    assert main(["bound", "--config", str(cfg), "--refine", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "upper bound estimate" in stdout
    doc = json.loads(out.read_text())
    assert set(doc) == {"levels", "lower", "upper_estimate"}
    assert len(doc["levels"]) == 2
