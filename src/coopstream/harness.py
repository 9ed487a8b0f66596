"""Experiment harness: scenario configs, paired runs, reports.

A scenario bundles synthetic (or CSV) traces, a population of video users
and idle helpers, and a set of schedulers.  Every scheduler is also run
with cooperation severed on the same traces and seed, so bitrate and
welfare gains are always paired against the scheduler's own
non-cooperative twin.  A gain is a ratio over the twin's value and is null
when that value is <= 0; the paired `welfare_diff` (cooperative - twin) is
defined for every row.  A summary gain is the mean over the rows that have
one, and `*_gain_n` says how many that is.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics
from dataclasses import asdict, dataclass, fields, replace

from . import bound as bd
from . import traces as tr
from .engine import RunConfig, SimResult, run, write_records_csv, write_result_json
from .model import BitrateLadder, UserProfile
from .schedulers import make_scheduler
from .welfare import rebuf_loss  # noqa: F401  (bench/layers.py wraps harness.rebuf_loss)


class ConfigError(ValueError):
    """Raised for unreadable or inconsistent scenario configuration."""


MOBILITY_MODES = ("dense-short", "sparse-long", "full-coop", "non-coop", "synthetic", "csv")

# Hotspot count, mean dwell, mean transit for the named synthetic presets.
PRESETS = {
    "dense-short": (3, 30.0, 10.0),
    "sparse-long": (5, 120.0, 60.0),
}


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    n_users: int = 10
    video_fraction: float = 0.6
    horizon: float = 150.0
    video_len: float = 100.0
    segment_len: float = 2.0
    buffer_cap: float = 40.0
    ladder: tuple[float, ...] = (0.2, 0.4, 0.7, 1.3, 2.3)
    theta: float = 1.0
    phi_qdeg: float = 1.0
    phi_rebuf: float = 1.0
    c_time: float = 0.5
    c_data: float = 0.1
    w_data: float = 0.05
    mobility: str = "dense-short"
    hotspots: int = 3
    dwell_mean: float = 30.0
    transition_mean: float = 10.0
    capacity_lo: float = 0.0
    capacity_hi: float = 2.5
    capacity_period: float = 2.0
    capacity_csv: str = ""
    mobility_csv: str = ""
    schedulers: tuple[str, ...] = ("lyapunov", "buffer", "prediction")
    drift_weight: float = 100.0
    low_reserve: float = 0.5
    min_gap: float = 4.0
    prediction_window: int = 3
    ack_window: float = 10.0
    seed: int = 1
    repetitions: int = 3
    bound_enable: bool = False
    bound_users: int = 2
    bound_horizon: int = 6
    bound_refine: int = 2
    bound_budget: int = 2_000_000

    def validate(self) -> None:
        if self.n_users < 1:
            raise ConfigError("n_users must be at least 1")
        if not 0.0 <= self.video_fraction <= 1.0:
            raise ConfigError("video_fraction must lie in [0, 1]")
        if self.mobility not in MOBILITY_MODES:
            raise ConfigError(f"mobility must be one of {MOBILITY_MODES}")
        if self.mobility == "csv" and not (self.capacity_csv and self.mobility_csv):
            raise ConfigError("csv mobility needs capacity_csv and mobility_csv paths")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        for key in ("ack_window", "drift_weight", "low_reserve", "min_gap", "prediction_window"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be at least 0")
        if not self.schedulers:
            raise ConfigError("schedulers must name at least one scheduler")
        if len(set(self.schedulers)) < len(self.schedulers):
            raise ConfigError(f"schedulers must not repeat a name: {self.schedulers}")
        if min(self.bound_users, self.bound_horizon, self.bound_budget) < 1 or self.bound_refine < 0:
            raise ConfigError(
                "bound_users, bound_horizon and bound_budget must be at least 1, bound_refine at least 0"
            )
        try:
            if self.mobility != "csv":
                _synth_config(self).validate()
            for s in self.schedulers:
                make_scheduler(s)  # raises on unknown names
            self._profile(0, True)  # raises on an invalid profile
        except ValueError as exc:
            raise ConfigError(str(exc))

    def _profile(self, uid: int, video: bool) -> UserProfile:
        return UserProfile(
            user_id=uid,
            ladder=BitrateLadder(self.ladder),
            segment_len=self.segment_len,
            buffer_cap=self.buffer_cap,
            video_len=self.video_len if video else 0.0,
            theta=self.theta,
            phi_qdeg=self.phi_qdeg,
            phi_rebuf=self.phi_rebuf,
            c_time=self.c_time,
            c_data=self.c_data,
            w_data=self.w_data,
        )

    def scheduler_params(self, name: str) -> dict:
        if name == "lyapunov":
            return {"drift_weight": self.drift_weight}
        if name == "buffer":
            return {"low_reserve": self.low_reserve, "min_gap": self.min_gap}
        if name == "prediction":
            return {
                "low_reserve": self.low_reserve,
                "min_gap": self.min_gap,
                "window": self.prediction_window,
            }
        return {}


# -- config file grammar: `key = value` lines, `#` comments, lists by comma --


def _parse_scalar(text: str, kind):
    text = text.strip()
    if kind is bool:
        if text.lower() in ("true", "yes", "on", "1"):
            return True
        if text.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"expected boolean, got {text!r}")
    if kind is int or kind is float:
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"expected {kind.__name__}, got {text!r}")
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {text!r}")
        return value
    return text


def parse_assignments(lines) -> ScenarioConfig:
    cfg = ScenarioConfig()
    kinds = {f.name: f for f in fields(ScenarioConfig)}
    updates, set_on = {}, {}  # set_on: the line that set each key
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        current = getattr(cfg, key)
        try:
            if isinstance(current, tuple):
                elem = float if key == "ladder" else str
                updates[key] = tuple(
                    _parse_scalar(v, elem) for v in value.split(",") if v.strip()
                )
            else:
                updates[key] = _parse_scalar(value, type(current))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: {exc}")
    return replace(cfg, **updates)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            cfg = parse_assignments(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg.validate()
    return cfg


def dump_config(cfg: ScenarioConfig) -> str:
    out = []
    for f in fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        out.append(f"{f.name} = {v}")
    return "\n".join(out) + "\n"


# -- scenario assembly -------------------------------------------------------


def build_profiles(cfg: ScenarioConfig, rep_seed: int) -> dict[int, UserProfile]:
    """Deterministically pick the video-user subset, then build profiles."""
    rng = random.Random(rep_seed * 7919 + 17)
    n_video = int(round(cfg.n_users * cfg.video_fraction))
    video_ids = set(rng.sample(range(cfg.n_users), n_video))
    return {uid: cfg._profile(uid, uid in video_ids) for uid in range(cfg.n_users)}


def _synth_config(cfg: ScenarioConfig) -> tr.SynthConfig:
    """Generator settings of a synthetic mode; a preset overrides the raw keys."""
    hotspots, dwell, transit = cfg.hotspots, cfg.dwell_mean, cfg.transition_mean
    if cfg.mobility in PRESETS:
        hotspots, dwell, transit = PRESETS[cfg.mobility]
    return tr.SynthConfig(
        n_users=cfg.n_users,
        horizon=cfg.horizon,
        hotspots=hotspots,
        dwell_mean=dwell,
        transition_mean=transit,
        capacity_lo=cfg.capacity_lo,
        capacity_hi=cfg.capacity_hi,
        capacity_period=cfg.capacity_period,
    )


def build_traces(cfg: ScenarioConfig, rep_seed: int) -> tuple[tr.CapacityTrace, tr.MobilityTrace, bool]:
    """Traces for one repetition; returns (capacity, mobility, noncoop flag)."""
    if cfg.mobility == "csv":
        cap = tr.CapacityTrace.from_csv(cfg.capacity_csv)
        mob = tr.MobilityTrace.from_csv(cfg.mobility_csv)
        tr.check_pair(cap, mob)
        users = list(range(cfg.n_users))
        if cap.users() != users:
            raise tr.TraceError(
                f"trace users must be 0..{cfg.n_users - 1}: capacity {cap.users()}, mobility {mob.users()}"
            )
        return cap, mob, False
    cap, mob = tr.synth_traces(_synth_config(cfg), rep_seed)
    if cfg.mobility == "full-coop":
        mob = tr.full_coop_mobility(range(cfg.n_users), cfg.horizon)
    return cap, mob, cfg.mobility == "non-coop"


def _metrics(result: SimResult) -> dict:
    stalls = result.rebuffer
    # Kept as +=: from Python 3.12 on, sum() compensates rounding and would
    # change the bits.
    rebuf = 0.0
    for stall in stalls.values():
        rebuf += stall
    n_video = max(1, len(stalls))
    return {
        "avg_bitrate_mbps": result.avg_bitrate(),
        "social_welfare": result.social_welfare,
        "rebuf_s": rebuf / n_video,
        "helper_downloads": result.helper_downloads(),
        "ready": result.messages.ready,
        "ack": result.messages.ack,
        "sleep": result.messages.sleep,
        "awake": result.messages.awake,
    }


def _gain(value: float, base: float) -> float | None:
    """Relative gain over the twin's value; None over a base <= 0, where a
    ratio is no measurement."""
    return (value - base) / base if base > 0.0 else None


def _bound_subinstance(cfg, profiles, cap, mob):
    """Prefix sub-instance small enough for the exact solver."""
    if cfg.horizon < 1.0:
        raise ConfigError(f"horizon {cfg.horizon:g} s holds no one-second slot for the bound")
    # The first `bound_users` of: video users by id, then idle helpers by id.
    video = [uid for uid in sorted(profiles) if profiles[uid].is_video_user]
    idle = [uid for uid in sorted(profiles) if not profiles[uid].is_video_user]
    picked = sorted((video + idle)[: cfg.bound_users])
    horizon = float(min(cfg.bound_horizon, int(cfg.horizon)))
    sub_cap, sub_mob = (
        type(trace)(
            horizon,
            [(u, a, min(b, horizon), v) for u, a, b, v in trace.rows() if u in picked and a < horizon],
        )
        for trace in (cap, mob)
    )
    sub_profiles = {uid: profiles[uid] for uid in picked}
    return sub_profiles, sub_cap, sub_mob


def _prefix_bound(cfg, profiles, cap, mob, noncoop):
    """The prefix sub-instance and its bound region at `cfg.bound_refine` halvings."""
    sub = _bound_subinstance(cfg, profiles, cap, mob)
    inst = bd.slotted_instance(*sub, noncoop=noncoop)
    return sub, bd.bound_region(inst, cfg.bound_refine, cfg.bound_budget)


def _gap_ratio(cfg, prefix, scheduler, noncoop) -> float | None:
    """1 - realized/bound on the prefix instance; None unless its finest level is exact."""
    (sub_profiles, sub_cap, sub_mob), region = prefix
    if region.upper is None or region.upper <= 1e-9:
        return None
    run_cfg = RunConfig(horizon=sub_cap.horizon, noncoop=noncoop, ack_window=cfg.ack_window)
    result = run(sub_profiles, sub_cap, sub_mob, scheduler, run_cfg)
    return 1.0 - result.social_welfare / region.upper


# summary.csv's columns.  Past `scheduler`, each is a key of a scheduler's
# summary: a `*_n` column counts the rows its gain's mean averages, the rest are means.
SUMMARY_COLUMNS = (
    "scenario", "scheduler", "avg_bitrate_mbps", "bitrate_gain", "bitrate_gain_n",
    "social_welfare", "welfare_gain", "welfare_gain_n", "welfare_diff", "rebuf_s", "gap_ratio",
)


def run_experiment(cfg: ScenarioConfig, out_dir: str | None = None) -> dict:
    """Run every scheduler (and its non-cooperative twin) over all repetitions."""
    cfg.validate()
    # Each repetition's inputs, prefix bound included, serve every scheduler.
    inputs = []
    for rep_seed in range(cfg.seed, cfg.seed + cfg.repetitions):
        profiles = build_profiles(cfg, rep_seed)
        cap, mob, noncoop = build_traces(cfg, rep_seed)
        prefix = _prefix_bound(cfg, profiles, cap, mob, noncoop) if cfg.bound_enable else None
        inputs.append((rep_seed, profiles, cap, mob, noncoop, prefix))
    summaries: list[dict] = []
    first_results: dict[str, SimResult] = {}
    for name in cfg.schedulers:
        scheduler = make_scheduler(name, **cfg.scheduler_params(name))
        rows = []
        for rep_seed, profiles, cap, mob, noncoop, prefix in inputs:
            run_cfg = RunConfig(horizon=cfg.horizon, noncoop=noncoop, ack_window=cfg.ack_window)
            result = run(profiles, cap, mob, scheduler, run_cfg)
            row = {"seed": rep_seed, **_metrics(result)}
            if noncoop:
                twin = result
            else:
                twin = run(profiles, cap, mob, scheduler, replace(run_cfg, noncoop=True))
            twin_m = _metrics(twin)
            row["noncoop_avg_bitrate_mbps"] = twin_m["avg_bitrate_mbps"]
            row["noncoop_social_welfare"] = twin_m["social_welfare"]
            row["bitrate_gain"] = _gain(row["avg_bitrate_mbps"], twin_m["avg_bitrate_mbps"])
            row["welfare_gain"] = _gain(row["social_welfare"], twin_m["social_welfare"])
            row["welfare_diff"] = row["social_welfare"] - twin_m["social_welfare"]
            if prefix is not None:
                row["gap_ratio"] = _gap_ratio(cfg, prefix, scheduler, noncoop)
                row["bound_levels"] = bd.region_to_dict(prefix[1])["levels"]
            rows.append(row)
            first_results.setdefault(name, result)
        summary = {"scheduler": name}
        for col in SUMMARY_COLUMNS[2:]:
            summary[col] = _count(rows, col[:-2]) if col.endswith("_n") else _mean(rows, col)
        summary["stdev_welfare"] = _stdev(rows, "social_welfare")
        summary["repetitions"] = rows
        summaries.append(summary)
    report = {"scenario": cfg.name, "config": asdict(cfg), "schedulers": summaries}
    if out_dir is not None:
        _write_reports(report, [report], out_dir)
        for name, result in first_results.items():
            write_records_csv(result, os.path.join(out_dir, f"records_{name}.csv"))
            write_result_json(result, os.path.join(out_dir, f"result_{name}.json"))
    return report


def sweep(cfg: ScenarioConfig, axis: str, values: list, out_dir: str | None = None) -> list[dict]:
    """Re-run the scenario for each value of one config field, shared seeds."""
    if axis not in {f.name for f in fields(ScenarioConfig)}:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    current = getattr(cfg, axis)
    if isinstance(current, tuple):
        raise ConfigError(f"cannot sweep list-valued field {axis!r}")
    # every value is parsed, and every swept config validated, before the first run
    casts = [_parse_scalar(str(value), type(current)) for value in values]
    configs = [replace(cfg, **{axis: cast, "name": f"{cfg.name}:{axis}={cast}"}) for cast in casts]
    for c in configs:
        c.validate()
    reports = [run_experiment(c) for c in configs]
    if out_dir is not None:
        _write_reports(reports, reports, out_dir)
    return reports


def _write_reports(payload, reports: list[dict], out_dir: str) -> None:
    """`payload` as report.json and the rows of `reports` as summary.csv."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_summary_csv(reports, os.path.join(out_dir, "summary.csv"))


def write_summary_csv(reports: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for rep in reports:
            for s in rep["schedulers"]:
                w.writerow(
                    [rep["scenario"], s["scheduler"]]
                    + [_csv_num(s[c]) for c in SUMMARY_COLUMNS[2:]]
                )


def _csv_num(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".9g")


def _mean(rows: list[dict], key: str) -> float | None:
    """Mean over the rows where `key` is a number; None when no row has one."""
    vals = [r[key] for r in rows if r.get(key) is not None]
    return sum(vals) / len(vals) if vals else None


def _count(rows: list[dict], key: str) -> int:
    """How many rows a `_mean` over `key` averages."""
    return sum(r.get(key) is not None for r in rows)


def _stdev(rows: list[dict], key: str) -> float:
    vals = [r[key] for r in rows if r.get(key) is not None]
    return statistics.pstdev(vals) if len(vals) > 1 else 0.0
