"""Command-line interface: exit codes, outputs, error lanes."""

import json

import pytest

import coopstream.harness as harness
import coopstream.traces as tr
from coopstream.cli import main
from coopstream.harness import ScenarioConfig, parse_assignments
from trace_csv import write_trace_csv

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

# Too short for a single one-second bound slot.
SUBSECOND = "n_users = 2\nhorizon = 0.5\nvideo_len = 2\nsegment_len = 2\nbuffer_cap = 4\n"


def tiny_with(lines: str) -> str:
    """TINY with each key that `lines` sets taken from `lines` instead, since
    a config may set a key only once."""
    def key(line):
        return line.split("=", 1)[0].strip()

    keys = {key(line) for line in lines.splitlines()}
    return "".join(line for line in TINY.splitlines(keepends=True) if key(line) not in keys) + lines


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
        pytest.param("bound", SUBSECOND, id="subsecond-horizon-bound"),
        pytest.param("run", SUBSECOND + "bound_enable = true\n", id="subsecond-horizon-run-bound"),
        # trace synthesis would never reach an infinite horizon
        pytest.param("run", "horizon = inf\n", id="infinite-horizon"),
        pytest.param("run", "horizon = nan\n", id="nan-horizon"),
        pytest.param("run", "ack_window = nan\n", id="nan-ack-window"),
        pytest.param("run", "ack_window = -1\n", id="negative-ack-window"),
        pytest.param("run", "capacity_hi = -inf\n", id="infinite-capacity"),
        pytest.param("run", "ladder = 0.2,inf\n", id="infinite-ladder-rate"),
        # a config that runs nothing, runs a scheduler twice, or inverts a rule
        pytest.param("run", "schedulers =\n", id="no-schedulers"),
        pytest.param("sweep", "schedulers =\n", id="no-schedulers-sweep"),
        pytest.param("run", "schedulers = lyapunov, lyapunov\n", id="repeated-scheduler"),
        pytest.param("run", "drift_weight = -5\n", id="negative-drift-weight"),
        pytest.param("run", "low_reserve = -0.5\n", id="negative-low-reserve"),
        pytest.param("run", "min_gap = -1\n", id="negative-min-gap"),
        pytest.param("run", "prediction_window = -1\n", id="negative-prediction-window"),
        # a search of no nodes reports no plan, exact or not
        pytest.param("run", "bound_budget = -5\n", id="negative-bound-budget"),
        pytest.param("bound", "bound_budget = 0\n", id="zero-bound-budget"),
    ],
)
def test_values_the_run_would_reject_are_config_errors(tmp_path, capsys, command, lines):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(tiny_with(lines))
    args = ["--axis", "horizon", "--values", "20"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), *args]) == 1
    assert "config error" in capsys.readouterr().err


def test_a_key_set_twice_is_a_config_error(tmp_path, capsys):
    # the run would otherwise silently take the later value
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(TINY + "horizon = 150\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error: line 12: key 'horizon' is already set on line 4" in err


def test_zero_weights_and_window_are_valid(tmp_path):
    # drift weight 0 scores penalties alone; window 0 reads the current capacity
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(
        TINY.replace("schedulers = lyapunov", "schedulers = lyapunov, prediction")
        + "drift_weight = 0\nlow_reserve = 0\nmin_gap = 0\nprediction_window = 0\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0


def test_noncoop_is_no_scheduler_name(tmp_path, capsys):
    # every scheduler runs with its own non-cooperative twin instead
    cfg = tmp_path / "twin.cfg"
    cfg.write_text(tiny_with("schedulers = lyapunov,noncoop\n"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "'noncoop'" in err
    assert "('lyapunov', 'buffer', 'prediction')" in err


@pytest.mark.parametrize("values", ["20,inf", "20,abc"])
def test_sweep_rejects_bad_values_before_running(tiny_cfg, tmp_path, capsys, values):
    out_dir = tmp_path / "sweep"
    args = ["sweep", "--config", tiny_cfg, "--axis", "horizon", "--values", values]
    assert main(args + ["--out", str(out_dir)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_validates_every_config_before_running(tiny_cfg, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args: calls.append(args))
    out_dir = tmp_path / "sweep"
    args = ["sweep", "--config", tiny_cfg, "--axis", "capacity_hi", "--values", "0.7,2.5,-1"]
    assert main(args + ["--out", str(out_dir)]) == 1
    assert "config error" in capsys.readouterr().err
    assert calls == [] and not out_dir.exists()


def test_subsecond_horizon_runs_without_the_bound(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(tiny_with(SUBSECOND))
    assert main(["run", "--config", str(cfg)]) == 0


def test_presets_ignore_the_raw_synthetic_keys(tmp_path):
    cfg = tmp_path / "preset.cfg"
    cfg.write_text(tiny_with("mobility = dense-short\nhotspots = 0\n"))
    assert main(["run", "--config", str(cfg)]) == 0


def test_negative_refine_is_a_config_error(tiny_cfg, capsys):
    assert main(["bound", "--config", tiny_cfg, "--refine", "-1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_short_traces_fail_in_the_runtime_lane(tmp_path, capsys):
    cap = tr.constant_capacity({0: 1.0, 1: 1.0}, 5.0)
    mob = tr.full_coop_mobility([0, 1], 5.0)
    write_trace_csv(cap, str(tmp_path / "cap.csv"))
    write_trace_csv(mob, str(tmp_path / "mob.csv"))
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
    write_trace_csv(cap, str(tmp_path / "cap.csv"))
    write_trace_csv(mob, str(tmp_path / "mob.csv"))
    assert main(
        ["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]
    ) == 0
    assert "ok: 2 users" in capsys.readouterr().out


CAPACITY_HEADER = "user_id,t_from,t_to,capacity_mbps\n"
MOBILITY_HEADER = "user_id,t_from,t_to,hotspot_id\n"


@pytest.mark.parametrize(
    "capacity_rows, mobility_rows",
    [
        pytest.param("0,0,10,nan\n", "0,0,10,1\n", id="nan-capacity"),
        pytest.param("0,0,10,inf\n", "0,0,10,1\n", id="infinite-capacity"),
        pytest.param("0,0,nan,1\n", "0,0,10,1\n", id="nan-horizon"),
        pytest.param("0,0,10,1\n", "0,0,10,nan\n", id="nan-hotspot"),
        pytest.param("0,0,10,1\n", "0,0,10,2.7\n", id="fractional-hotspot"),
        pytest.param("1.5,0,10,1\n", "1.5,0,10,1\n", id="fractional-user"),
    ],
)
def test_validate_traces_rejects_values_no_trace_can_hold(
    tmp_path, capsys, capacity_rows, mobility_rows
):
    (tmp_path / "cap.csv").write_text(CAPACITY_HEADER + capacity_rows)
    (tmp_path / "mob.csv").write_text(MOBILITY_HEADER + mobility_rows)
    assert main(
        ["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]
    ) == 2
    captured = capsys.readouterr()
    assert "runtime error" in captured.err and "ok" not in captured.out


def test_a_nan_capacity_fails_a_csv_run(tmp_path, capsys):
    (tmp_path / "cap.csv").write_text(CAPACITY_HEADER + "0,0,30,1\n1,0,30,nan\n")
    write_trace_csv(tr.full_coop_mobility([0, 1], 30.0), str(tmp_path / "mob.csv"))
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "n_users = 2\nhorizon = 30\nvideo_len = 8\nsegment_len = 2\n"
        "buffer_cap = 10\nschedulers = lyapunov\nrepetitions = 1\n"
        f"mobility = csv\ncapacity_csv = {tmp_path / 'cap.csv'}\n"
        f"mobility_csv = {tmp_path / 'mob.csv'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "runtime error: non-finite time or capacity for user 1" in capsys.readouterr().err


def test_validate_traces_rejects_mismatched_users(tmp_path, capsys):
    cap = tr.constant_capacity({0: 1.0, 1: 2.0}, 10.0)
    mob = tr.full_coop_mobility([0, 2], 10.0)
    write_trace_csv(cap, str(tmp_path / "cap.csv"))
    write_trace_csv(mob, str(tmp_path / "mob.csv"))
    assert main(
        ["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]
    ) == 2
    assert "user sets differ" in capsys.readouterr().err


def test_a_csv_run_needs_exactly_its_users_in_both_traces(tmp_path, capsys):
    # Twelve trace users under the default n_users = 10: users 10 and 11
    # would be dropped without a word.
    write_trace_csv(tr.constant_capacity({u: 1.0 for u in range(12)}, 20.0), str(tmp_path / "cap.csv"))
    write_trace_csv(tr.full_coop_mobility(range(12), 20.0), str(tmp_path / "mob.csv"))
    cfg = tmp_path / "twelve.cfg"
    cfg.write_text(
        "horizon = 20\nvideo_len = 8\nschedulers = lyapunov\nrepetitions = 1\n"
        f"mobility = csv\ncapacity_csv = {tmp_path / 'cap.csv'}\n"
        f"mobility_csv = {tmp_path / 'mob.csv'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "trace users must be 0..9: capacity [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]" in err


@pytest.mark.parametrize("command", ["run", "bound"])
def test_csv_commands_check_the_pair_as_validate_traces_does(tmp_path, capsys, command):
    # A 200 s capacity trace with a 150 s mobility trace: validate-traces
    # rejects the pair, so a run or bound on it must too.
    write_trace_csv(tr.constant_capacity({u: 1.0 for u in range(4)}, 200.0), str(tmp_path / "cap.csv"))
    write_trace_csv(tr.full_coop_mobility(range(4), 150.0), str(tmp_path / "mob.csv"))
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "horizon = 150\nn_users = 4\nvideo_len = 8\nschedulers = lyapunov\nrepetitions = 1\n"
        f"mobility = csv\ncapacity_csv = {tmp_path / 'cap.csv'}\n"
        f"mobility_csv = {tmp_path / 'mob.csv'}\n"
    )
    assert main(["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]) == 2
    assert "horizons differ: capacity 200.0, mobility 150.0" in capsys.readouterr().err
    assert main([command, "--config", str(cfg)]) == 2
    assert "horizons differ: capacity 200.0, mobility 150.0" in capsys.readouterr().err


def test_a_header_only_trace_names_its_file(tmp_path, capsys):
    (tmp_path / "cap.csv").write_text(CAPACITY_HEADER)
    write_trace_csv(tr.full_coop_mobility([0], 10.0), str(tmp_path / "mob.csv"))
    assert main(["validate-traces", str(tmp_path / "cap.csv"), str(tmp_path / "mob.csv")]) == 2
    assert f"runtime error: {tmp_path / 'cap.csv'}: no rows" in capsys.readouterr().err


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
    doc = json.loads(out.read_text())
    assert all(lv["exact"] for lv in doc["levels"])
    assert stdout.splitlines()[-1] == f"upper bound estimate: {doc['levels'][-1]['welfare']:.6f}"
    assert doc["upper_estimate"] == doc["levels"][-1]["welfare"]
    assert set(doc) == {"levels", "upper_estimate"}
    assert len(doc["levels"]) == 2
    assert all(set(lv) == {"segment_len", "welfare", "exact", "nodes"} for lv in doc["levels"])
    for lv in doc["levels"]:
        assert f"{lv['nodes']} nodes)" in stdout


def test_bound_command_says_when_its_estimate_is_budget_limited(tmp_path, capsys):
    # Full-coop pair with live links: 100 nodes per level run out at both.
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(
        "n_users = 2\nvideo_fraction = 1.0\nhorizon = 20\nvideo_len = 8\n"
        "segment_len = 2\nbuffer_cap = 10\nmobility = full-coop\ncapacity_lo = 1.0\n"
        "capacity_hi = 2.0\nschedulers = lyapunov\nrepetitions = 1\nbound_users = 2\n"
        "bound_horizon = 3\nbound_budget = 100\n"
    )
    out = tmp_path / "region.json"
    assert main(["bound", "--config", str(cfg), "--refine", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    doc = json.loads(out.read_text())
    assert [lv["exact"] for lv in doc["levels"]] == [False, False]
    # The best plan a cut-short search found bounds nothing: no estimate.
    assert lines[-1] == "upper bound estimate: none (budget-limited)"
    assert doc["upper_estimate"] is None
    assert set(doc) == {"levels", "upper_estimate"}
