"""Harness: config grammar, paired experiments, reports, determinism."""

import csv
import json
import math
from dataclasses import replace

import pytest

import coopstream.engine as engine
import coopstream.harness as harness
import coopstream.traces as tr
import coopstream.welfare as welfare
from coopstream.engine import RunConfig, run
from coopstream.harness import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    SUMMARY_COLUMNS,
    _gain,
    build_profiles,
    build_traces,
    dump_config,
    load_config,
    parse_assignments,
    run_experiment,
    sweep,
    write_summary_csv,
)
from coopstream.schedulers import make_scheduler
from coopstream.welfare import rebuf_loss
from trace_csv import write_trace_csv


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="tiny",
        n_users=4,
        video_fraction=0.5,
        horizon=30.0,
        video_len=16.0,
        segment_len=2.0,
        buffer_cap=12.0,
        capacity_hi=2.0,
        schedulers=("lyapunov", "buffer"),
        repetitions=2,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Config grammar.


def test_parse_assignments_scalars_lists_and_comments():
    cfg = parse_assignments(
        [
            "# comment line",
            "",
            "name = demo  # trailing comment",
            "n_users = 6",
            "capacity_hi = 3.5",
            "bound_enable = yes",
            "ladder = 0.5, 1.0, 2.0",
            "schedulers = lyapunov,prediction",
        ]
    )
    assert cfg.name == "demo"
    assert cfg.n_users == 6
    assert cfg.capacity_hi == 3.5
    assert cfg.bound_enable is True
    assert cfg.ladder == (0.5, 1.0, 2.0)
    assert cfg.schedulers == ("lyapunov", "prediction")
    # Untouched keys keep their defaults.
    assert cfg.segment_len == ScenarioConfig().segment_len


@pytest.mark.parametrize(
    "line, needle",
    [
        ("no_such_key = 3", "unknown key"),
        ("just words", "expected `key = value`"),
        ("n_users = many", "line 1"),
        ("bound_enable = maybe", "expected boolean"),
    ],
)
def test_parse_assignments_rejects_bad_lines(line, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_assignments([line])


def test_dump_and_reload_round_trip():
    cfg = tiny_config(ladder=(0.3, 1.1), drift_weight=42.0, mobility="sparse-long")
    again = parse_assignments(dump_config(cfg).splitlines())
    assert again == cfg


def test_load_config_reads_files_and_validates(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("n_users = 3\nmobility = full-coop\n")
    cfg = load_config(str(path))
    assert cfg.n_users == 3 and cfg.mobility == "full-coop"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("mobility = teleport\n")
    with pytest.raises(ConfigError, match="mobility"):
        load_config(str(bad))


@pytest.mark.parametrize(
    "overrides, needle",
    [
        ({"n_users": 0}, "n_users"),
        ({"video_fraction": 1.5}, "video_fraction"),
        ({"mobility": "csv"}, "capacity_csv"),
        ({"repetitions": 0}, "repetitions"),
        ({"horizon": 0.0}, "horizon"),
        ({"schedulers": ("nope",)}, "nope"),
        ({"ladder": (2.0, 1.0)}, "increasing"),
        ({"segment_len": 0.0}, "segment_len"),
    ],
)
def test_validate_rejects_inconsistent_configs(overrides, needle):
    cfg = replace(ScenarioConfig(), **overrides)
    with pytest.raises(ConfigError, match=needle):
        cfg.validate()


# ---------------------------------------------------------------------------
# Scenario assembly.


def test_build_profiles_fraction_and_determinism():
    cfg = tiny_config(n_users=10, video_fraction=0.6)
    profs = build_profiles(cfg, rep_seed=3)
    assert sorted(profs) == list(range(10))
    assert sum(p.is_video_user for p in profs.values()) == 6
    assert profs == build_profiles(cfg, rep_seed=3)
    other = build_profiles(cfg, rep_seed=4)
    assert sorted(other) == list(range(10))


def test_build_traces_presets_override_shape_fields():
    cfg = tiny_config(mobility="dense-short", hotspots=99)
    _, mob, noncoop = build_traces(cfg, rep_seed=1)
    assert not noncoop
    spots = {
        int(v) for track in mob.tracks.values() for v in track.values if v > 0
    }
    assert spots <= set(range(1, PRESETS["dense-short"][0] + 1))

    cfg2 = tiny_config(mobility="synthetic", hotspots=1)
    _, mob2, _ = build_traces(cfg2, rep_seed=1)
    spots2 = {
        int(v) for track in mob2.tracks.values() for v in track.values if v > 0
    }
    assert spots2 <= {1}


def test_build_traces_full_coop_and_non_coop_regimes():
    cfg = tiny_config(mobility="full-coop")
    _, mob, noncoop = build_traces(cfg, rep_seed=1)
    assert not noncoop
    for t in (0.0, 10.0, 29.0):
        assert tr.encountered(mob, 0, 3, t)

    _, _, noncoop2 = build_traces(tiny_config(mobility="non-coop"), rep_seed=1)
    assert noncoop2


def test_build_traces_csv_round_trip(tmp_path):
    cfg = tiny_config(n_users=2, mobility="synthetic")
    cap, mob, _ = build_traces(cfg, rep_seed=5)
    cap_path, mob_path = tmp_path / "cap.csv", tmp_path / "mob.csv"
    write_trace_csv(cap, str(cap_path))
    write_trace_csv(mob, str(mob_path))
    csv_cfg = tiny_config(
        n_users=2,
        mobility="csv",
        capacity_csv=str(cap_path),
        mobility_csv=str(mob_path),
    )
    cap2, mob2, noncoop = build_traces(csv_cfg, rep_seed=0)
    assert not noncoop
    assert cap2.users() == cap.users()
    assert cap2.horizon == pytest.approx(cap.horizon)
    for uid in cap.users():
        assert tr.integrate_capacity(cap2, uid, 0.0, cap.horizon) == pytest.approx(
            tr.integrate_capacity(cap, uid, 0.0, cap.horizon), abs=1e-9
        )


# ---------------------------------------------------------------------------
# Experiments and reports.


def test_run_experiment_report_reconciles_with_direct_runs(tmp_path):
    cfg = tiny_config()
    report = run_experiment(cfg, str(tmp_path))

    assert report["scenario"] == "tiny"
    assert [s["scheduler"] for s in report["schedulers"]] == ["lyapunov", "buffer"]
    for s in report["schedulers"]:
        assert len(s["repetitions"]) == cfg.repetitions
        welfares = [r["social_welfare"] for r in s["repetitions"]]
        assert s["social_welfare"] == pytest.approx(
            sum(welfares) / len(welfares), abs=1e-9
        )

    # Repetition rows must match a by-hand engine run on the same inputs.
    for name in cfg.schedulers:
        row = next(
            s for s in report["schedulers"] if s["scheduler"] == name
        )["repetitions"][0]
        profiles = build_profiles(cfg, cfg.seed)
        cap, mob, noncoop = build_traces(cfg, cfg.seed)
        result = run(
            profiles,
            cap,
            mob,
            make_scheduler(name, **cfg.scheduler_params(name)),
            RunConfig(horizon=cfg.horizon, noncoop=noncoop, ack_window=cfg.ack_window),
        )
        assert row["social_welfare"] == result.social_welfare
        assert row["avg_bitrate_mbps"] == result.avg_bitrate()

    # Exported rep-0 JSON agrees with the report and with itself.
    for name in cfg.schedulers:
        with open(tmp_path / f"result_{name}.json") as fh:
            doc = json.load(fh)
        row = next(
            s for s in report["schedulers"] if s["scheduler"] == name
        )["repetitions"][0]
        assert doc["social_welfare"] == pytest.approx(row["social_welfare"], abs=1e-9)
        total = sum(u["welfare"] for u in doc["users"].values())
        assert total == pytest.approx(doc["social_welfare"], abs=1e-6)
        # the engine counters are integer counts, never wall times
        assert doc["engine"]["calls"] > 0
        assert all(type(v) is int for v in doc["engine"].values())

    # Records CSV pools exactly the receipts behind the bitrate average.
    with open(tmp_path / "records_lyapunov.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rates = [float(r["bitrate"]) for r in rows]
    row0 = report["schedulers"][0]["repetitions"][0]
    assert sum(rates) / len(rates) == pytest.approx(
        row0["avg_bitrate_mbps"], abs=1e-9
    )


def test_run_experiment_pairs_each_run_with_its_noncoop_twin(tmp_path):
    cfg = tiny_config(schedulers=("lyapunov",), repetitions=1)
    report = run_experiment(cfg)
    row = report["schedulers"][0]["repetitions"][0]
    assert "noncoop_avg_bitrate_mbps" in row and "noncoop_social_welfare" in row
    assert row["bitrate_gain"] == _gain(
        row["avg_bitrate_mbps"], row["noncoop_avg_bitrate_mbps"]
    )
    assert row["welfare_gain"] == _gain(
        row["social_welfare"], row["noncoop_social_welfare"]
    )

    assert row["welfare_diff"] == row["social_welfare"] - row["noncoop_social_welfare"]

    # A non-cooperative scenario is its own twin: gains pin to zero where
    # the twin's value is positive, and the difference is zero.
    nc = run_experiment(tiny_config(mobility="non-coop", schedulers=("lyapunov",)))
    for r in nc["schedulers"][0]["repetitions"]:
        assert r["social_welfare"] == r["noncoop_social_welfare"]
        assert r["welfare_diff"] == 0.0
        for gain, base in (("bitrate_gain", "noncoop_avg_bitrate_mbps"),
                           ("welfare_gain", "noncoop_social_welfare")):
            assert r[gain] == (0.0 if r[base] > 0.0 else None)


def test_summary_gains_average_only_rows_with_a_positive_twin_value():
    # At capacity_hi 1.0 three of four lyapunov twins end with welfare <= 0.
    report = run_experiment(tiny_config(capacity_hi=1.0, repetitions=4, schedulers=("lyapunov",)))
    summary = report["schedulers"][0]
    rows = summary["repetitions"]
    for key, base in (("welfare_gain", "noncoop_social_welfare"),
                      ("bitrate_gain", "noncoop_avg_bitrate_mbps")):
        kept = [r[key] for r in rows if r[base] > 0.0]
        assert all((r[key] is None) == (r[base] <= 0.0) for r in rows)
        assert summary[key + "_n"] == len(kept)
        assert summary[key] == (sum(kept) / len(kept) if kept else None)
    assert summary["welfare_gain_n"] == 1 and summary["bitrate_gain_n"] == 4
    diffs = [r["social_welfare"] - r["noncoop_social_welfare"] for r in rows]
    assert summary["welfare_diff"] == sum(diffs) / len(diffs)


def test_summary_csv_is_byte_identical_across_reruns(tmp_path):
    cfg = tiny_config()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(dir_a))
    run_experiment(cfg, str(dir_b))
    summary_a = (dir_a / "summary.csv").read_bytes()
    assert summary_a == (dir_b / "summary.csv").read_bytes()
    assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()

    with open(dir_a / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SUMMARY_COLUMNS)
    assert len(rows) == 1 + len(cfg.schedulers)
    assert {r[1] for r in rows[1:]} == set(cfg.schedulers)


@pytest.mark.parametrize(
    "refine, budget, exact",
    [
        pytest.param(0, 200_000, True, id="exact"),  # the one level solves exactly
        pytest.param(1, 200, False, id="budget-limited"),  # both levels run out of nodes
    ],
)
def test_gap_ratio_column_appears_when_bound_enabled(tmp_path, refine, budget, exact):
    cfg = tiny_config(
        schedulers=("lyapunov",),
        repetitions=1,
        capacity_hi=1.0,
        bound_enable=True,
        bound_users=2,
        bound_horizon=4,
        bound_refine=refine,
        bound_budget=budget,
    )
    report = run_experiment(cfg, str(tmp_path))
    row = report["schedulers"][0]["repetitions"][0]
    assert "gap_ratio" in row
    levels = row["bound_levels"]
    assert len(levels) == refine + 1
    assert all(set(lv) == {"segment_len", "welfare", "exact", "nodes"} for lv in levels)
    assert [lv["exact"] for lv in levels] == [exact] * (refine + 1)
    if not exact:
        assert all(lv["nodes"] == budget + 1 for lv in levels)
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh)["schedulers"][0]["repetitions"][0]["bound_levels"] == levels
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "gap_ratio"
    if exact:
        # Only an exactly solved finest level is an upper bound to compare with.
        assert math.isfinite(row["gap_ratio"])
        assert float(rows[1][-1]) == pytest.approx(row["gap_ratio"], rel=1e-8)
    else:
        assert row["gap_ratio"] is None
        assert report["schedulers"][0]["gap_ratio"] is None
        assert rows[1][-1] == ""


def test_prefix_bound_solved_once_per_repetition(monkeypatch):
    # the bound does not depend on the scheduler: 3 schedulers x 2
    # repetitions solve it twice
    calls = []
    solve = harness.bd.bound_region

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness.bd, "bound_region", counted)
    cfg = tiny_config(
        schedulers=("lyapunov", "buffer", "prediction"),
        repetitions=2,
        capacity_hi=1.0,
        bound_enable=True,
        bound_horizon=3,
        bound_refine=0,
        bound_budget=20_000,
    )
    report = run_experiment(cfg)
    assert len(calls) == 2
    assert all(
        "gap_ratio" in row for s in report["schedulers"] for row in s["repetitions"]
    )


def test_budget_limited_bound_runs_no_prefix_engine_run(monkeypatch):
    # gap_ratio is None when the finest level is budget-limited, so the
    # engine never runs on the prefix: the run count equals a bound-free one
    calls = []
    engine_run = harness.run

    def counted(*args):
        calls.append(args)
        return engine_run(*args)

    monkeypatch.setattr(harness, "run", counted)
    cfg = tiny_config(schedulers=("lyapunov", "buffer"), repetitions=2, capacity_hi=1.0)
    run_experiment(cfg)
    plain = len(calls)
    calls.clear()
    report = run_experiment(
        replace(cfg, bound_enable=True, bound_horizon=4, bound_refine=1, bound_budget=10)
    )
    rows = [row for s in report["schedulers"] for row in s["repetitions"]]
    assert all(row["gap_ratio"] is None for row in rows)
    assert len(calls) == plain


@pytest.mark.parametrize(
    "video, bound_users, picked",
    [
        pytest.param({1, 4}, 1, [1], id="first-video-user"),
        pytest.param({1, 4}, 2, [1, 4], id="video-users-only"),
        pytest.param({1, 4}, 3, [0, 1, 4], id="then-the-first-helper"),
        pytest.param({1, 4}, 4, [0, 1, 2, 4], id="then-helpers-by-id"),
        pytest.param({1, 4}, 9, [0, 1, 2, 3, 4, 5], id="more-than-n-users"),
        pytest.param({0, 2, 3, 5}, 2, [0, 2], id="video-users-by-id"),
        pytest.param(set(), 2, [0, 1], id="no-video-user"),
    ],
)
def test_bound_prefix_takes_video_users_then_helpers_by_id(video, bound_users, picked):
    # The prefix is the first bound_users of: video users by ascending id,
    # then idle helpers by ascending id; it is handed on in ascending id.
    cfg = tiny_config(n_users=6, bound_users=bound_users)
    profiles = {uid: cfg._profile(uid, uid in video) for uid in range(6)}
    cap, mob, _ = build_traces(cfg, cfg.seed)
    sub_profiles, sub_cap, sub_mob = harness._bound_subinstance(cfg, profiles, cap, mob)
    assert list(sub_profiles) == picked
    assert all(sub_profiles[uid] is profiles[uid] for uid in picked)
    assert sub_cap.users() == sub_mob.users() == picked


@pytest.mark.parametrize("phi_rebuf", [2.0, 0.0])
def test_metrics_rebuf_matches_engine_stall_accounting(phi_rebuf):
    # rebuf_s is stall seconds, whatever the penalty weight on them; seed 4
    # stalls under both weights
    cfg = tiny_config(schedulers=("lyapunov",), repetitions=1, phi_rebuf=phi_rebuf, seed=4)
    report = run_experiment(cfg)
    row = report["schedulers"][0]["repetitions"][0]
    profiles = build_profiles(cfg, cfg.seed)
    cap, mob, noncoop = build_traces(cfg, cfg.seed)
    result = run(
        profiles,
        cap,
        mob,
        make_scheduler("lyapunov", drift_weight=cfg.drift_weight),
        RunConfig(horizon=cfg.horizon, noncoop=noncoop, ack_window=cfg.ack_window),
    )
    n_video = sum(p.is_video_user for p in profiles.values())
    stalls = sum(
        seconds
        for uid, rx in result.receives.items()
        for _, seconds in rebuf_loss(rx, profiles[uid])[1]
    )
    assert stalls > 0.0
    assert row["rebuf_s"] == pytest.approx(stalls / n_video, abs=1e-9)
    assert sum(result.rebuffer.values()) == pytest.approx(stalls, abs=1e-9)


def test_a_written_run_computes_each_stall_log_once(tmp_path, monkeypatch):
    # welfare, rebuf_s and result_*.json's rebuffer_s share one stall log
    scored = []

    def counted(rx, profile):
        scored.append(rx)
        return rebuf_loss(rx, profile)

    for module in (engine, harness, welfare):
        monkeypatch.setattr(module, "rebuf_loss", counted)
    cfg = tiny_config(schedulers=("lyapunov",), repetitions=1, seed=4)
    run_experiment(cfg, str(tmp_path))
    assert scored
    assert len({id(rx) for rx in scored}) == len(scored)


# ---------------------------------------------------------------------------
# Sweeps.


def test_sweep_names_reports_and_rejects_bad_axes(tmp_path):
    cfg = tiny_config(schedulers=("lyapunov",), repetitions=1)
    reports = sweep(cfg, "capacity_hi", [1.0, 2.0], str(tmp_path))
    assert [r["scenario"] for r in reports] == [
        "tiny:capacity_hi=1.0",
        "tiny:capacity_hi=2.0",
    ]
    assert [r["config"]["capacity_hi"] for r in reports] == [1.0, 2.0]
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2  # header + one scheduler per swept value

    with pytest.raises(ConfigError, match="unknown sweep axis"):
        sweep(cfg, "nonsense", [1])
    with pytest.raises(ConfigError, match="list-valued"):
        sweep(cfg, "ladder", [1.0])


def test_sweep_casts_values_to_the_field_type():
    cfg = tiny_config(schedulers=("lyapunov",), repetitions=1)
    reports = sweep(cfg, "n_users", ["2", "3"])
    assert [r["config"]["n_users"] for r in reports] == [2, 3]


# ---------------------------------------------------------------------------
# Small numeric helpers.


def test_gain_handles_zero_and_negative_baselines():
    assert _gain(1.2, 1.0) == pytest.approx(0.2)
    assert _gain(0.8, 1.0) == pytest.approx(-0.2)
    # a ratio over a base <= 0 is no measurement, whatever the value
    for value, base in ((0.0, 0.0), (-1.0, 0.0), (2.0, 0.0), (2.0, -1.0), (-95.76, -207.82)):
        assert _gain(value, base) is None


def test_write_summary_csv_formats_missing_gaps_as_empty(tmp_path):
    report = {
        "scenario": "s",
        "schedulers": [
            {
                "scheduler": "lyapunov",
                "avg_bitrate_mbps": 1.23456789012,
                "bitrate_gain": 0.25,
                "bitrate_gain_n": 3,
                "social_welfare": -3.5,
                "welfare_gain": None,
                "welfare_gain_n": 0,
                "welfare_diff": 1.5,
                "rebuf_s": 0.0,
                "gap_ratio": None,
            }
        ],
    }
    path = tmp_path / "summary.csv"
    write_summary_csv([report], str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == "1.23456789"  # nine significant digits
    assert rows[1][-1] == ""
    row = dict(zip(rows[0], rows[1]))
    assert (row["bitrate_gain_n"], row["welfare_gain"], row["welfare_gain_n"]) == ("3", "", "0")
