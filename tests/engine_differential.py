"""Engine differential: fixed sets of engine runs through two simulation
classes, each run classified by how far the two outputs differ.

The engine set is 540 runs: dense-short, sparse-long and full-coop
mobility x capacity_hi 0.7/2.5/5 x repetition seeds 1-10 x the three
registry schedulers x a cooperative run and its non-cooperative twin
(`RunConfig.noncoop`), on the default scenario otherwise, audit on.  The
micro family is 2,400 runs: `micro_scenario` seeds 0-399 x the three
schedulers x both modes.  Its small random scenarios have dead-link
stretches, idle helpers, transit, aborts and quiet stretches longer than
the no-ACK window (sleeps), which the engine set barely reaches.  By its download records each run is one of

* identical: records, aborts and welfare terms are equal bit for bit;
* noise: every downloader has the same records in (owner, seq, level)
  order and the same abort count, every record time lies within 1e-9 s of
  the other side's, and every abort energy within 1e-6 (an aborted transfer
  leaves no record, so its energy is all that shows it);
* material: anything else.

Messages (READY, ACK, sleep and awake counts and the last
READY instant) and `EngineCounters` are compared on their own, since a
change to the decision policy or to the coordination protocol moves them
on purpose; so are the live counters: every counter but the dead-link
parks and the events, wake-ups and stale decisions that re-deciding a
dead link brings.  Messages are counted from the protocol (one READY per
free radio, sleeps from quiet stretches), not from the decisions run, so
skipping a decision that repeats its answer moves none of them.  Each class runs on the
scenario builders, schedulers and audit of its own package, so a class
from another checkout, loaded with `load_package` under another name,
can be compared with this one.
From the repository root,

    PYTHONPATH=src python tests/engine_differential.py OTHER/src [SEED ...]

compares OTHER's `engine._Simulation` (first) with this checkout's on the
engine set (for the given repetition seeds) and then on the micro family,
and prints the material runs, each with both sides' social welfare and
record count, each set's split by engine mode with decision,
scheduler-call, horizon-cut, dead-link-park, wake-up, held-wake and
READY/ACK/sleep/awake totals per side, and the engine set's mean cooperative welfare
per mobility and scheduler.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import random
import sys
from dataclasses import asdict, dataclass, replace

MOBILITIES = ("dense-short", "sparse-long", "full-coop")
CAPACITY_HIS = (0.7, 2.5, 5.0)
SEEDS = range(1, 11)
SCHEDULERS = ("lyapunov", "buffer", "prediction")
MICRO_SEEDS = range(400)
TOTALS = ("decisions", "calls", "calls_cut", "dead_link_parks", "wakeups", "wakes_held")
MESSAGE_TOTALS = ("ready", "ack", "sleep", "awake")  # the first four places of Outcome.messages
# counters that re-deciding a dead link, only to park there again, moves
DEAD_LINK_COUNTERS = ("events", "decisions", "stale", "dead_link_parks", "wakeups")
TOL = 1e-9
ENERGY_TOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """One run's outputs in plain values, comparable across packages."""

    records: tuple    # per downloader: (owner, seq, level, bitrate, t_start, t_end) rows
    aborts: tuple     # (uid, count, energy) rows
    welfare: tuple    # (uid, value, loss_qdeg, loss_rebuf, energy_cell, energy_wifi) rows
    messages: tuple   # (ready, ack, sleep, awake, last READY instant or None)
    counters: dict
    social_welfare: float


@dataclass(frozen=True)
class Row:
    key: tuple        # (mobility, capacity_hi, seed, scheduler, twin) or ("micro", seed, scheduler, twin)
    verdict: str      # identical | noise | material
    same_messages: bool
    same_counters: bool
    same_live: bool   # equal counters but DEAD_LINK_COUNTERS, decisions apart by the dead-link parks
    totals: tuple     # per side (a, b): {TOTALS or MESSAGE_TOTALS name: value}
    welfare: tuple    # social welfare of (a, b)
    records: tuple    # download records of (a, b)


def load_package(src_dir: str, alias: str):
    """Import the `coopstream` package under `src_dir` as `alias`."""
    pkg = os.path.join(src_dir, "coopstream")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def _package(sim_cls):
    """The package of the engine module that `sim_cls` (or a base) comes from."""
    engine_module = next(c.__module__ for c in sim_cls.__mro__ if c.__module__.endswith(".engine"))
    return engine_module.rpartition(".")[0]


def _audited(sim_cls, profiles, cap, mob, decide, run_cfg) -> Outcome:
    engine = importlib.import_module(_package(sim_cls) + ".engine")
    res = sim_cls(profiles, cap, mob, decide, run_cfg).run()
    violations = engine.audit_run(profiles, cap, mob, res.downloads, run_cfg.horizon, run_cfg.noncoop)
    if violations:
        raise engine.SimAuditError(violations)
    return outcome(res)


def simulate(sim_cls, mobility: str, capacity_hi: float, seed: int, scheduler: str, twin: bool) -> Outcome:
    """One run of the engine set through `sim_cls`, audited."""
    package = _package(sim_cls)
    harness = importlib.import_module(package + ".harness")
    engine = importlib.import_module(package + ".engine")
    schedulers = importlib.import_module(package + ".schedulers")
    cfg = harness.ScenarioConfig(mobility=mobility, capacity_hi=capacity_hi)
    profiles = harness.build_profiles(cfg, seed)
    cap, mob, _ = harness.build_traces(cfg, seed)
    decide = schedulers.make_scheduler(scheduler, **cfg.scheduler_params(scheduler))
    run_cfg = engine.RunConfig(horizon=cfg.horizon, noncoop=twin, ack_window=cfg.ack_window)
    return _audited(sim_cls, profiles, cap, mob, decide, run_cfg)


def micro_scenario(seed: int, package: str = "coopstream"):
    """A small random cooperative scenario from `package`'s classes: 2-6
    users with their own segment lengths and buffer caps (so anchored
    instants differ in the last bits), idle helpers, dead-link stretches,
    two hotspots and transit, and a short no-ACK window, so quiet
    stretches count as sleeps.  Returns (profiles, capacity, mobility, RunConfig)."""
    model = importlib.import_module(package + ".model")
    traces = importlib.import_module(package + ".traces")
    engine = importlib.import_module(package + ".engine")
    rng = random.Random(seed)
    ladder = model.BitrateLadder(tuple(sorted(rng.sample([0.25, 0.5, 0.75, 1.0, 1.5], rng.randint(1, 3)))))
    T = 20.0
    profiles, cap_rows, mob_rows = {}, [], []
    for uid in range(1, rng.randint(2, 6) + 1):
        beta = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])
        profiles[uid] = model.UserProfile(
            uid, ladder, segment_len=beta,
            buffer_cap=beta * rng.choice([1, 2, 3]) + rng.choice([0.0, 0.1, 0.3, 0.7]),
            video_len=rng.choice([0.0, 0.0, 30.0, 60.0]),
        )
        for rows, cuts, values in (
            (cap_rows, [1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 10.0, 13.0, 16.0], [0.0, 0.3, 0.5, 1.0, 1.3, 2.0, 4.0]),
            (mob_rows, [2.0, 3.5, 5.0, 7.0, 9.0, 11.0, 15.0], [1, 1, 2, 0]),
        ):
            bounds = [0.0, *sorted(rng.sample(cuts, rng.randint(0, 4))), T]
            rows.extend((uid, lo, hi, rng.choice(values)) for lo, hi in zip(bounds, bounds[1:]))
    run_cfg = engine.RunConfig(horizon=T, ack_window=rng.choice([0.5, 1.0, 2.0, 5.0]))
    return profiles, traces.CapacityTrace(T, cap_rows), traces.MobilityTrace(T, mob_rows), run_cfg


def simulate_micro(sim_cls, seed: int, scheduler: str, twin: bool) -> Outcome:
    """One run of the micro family through `sim_cls`, audited."""
    package = _package(sim_cls)
    schedulers = importlib.import_module(package + ".schedulers")
    profiles, cap, mob, run_cfg = micro_scenario(seed, package)
    decide = schedulers.make_scheduler(scheduler)
    return _audited(sim_cls, profiles, cap, mob, decide, replace(run_cfg, noncoop=twin))


def outcome(res) -> Outcome:
    """The plain-value outputs of one `SimResult`."""
    m = res.messages
    # A checkout from before READY became a count keeps every READY instant.
    last_ready = (m.ready_times or [None])[-1] if hasattr(m, "ready_times") else m.last_ready
    return Outcome(
        records=tuple(
            tuple(
                (r.owner, r.owner_seq_no, r.level,
                 res.profiles[r.owner].ladder.rate(r.level), r.t_start, r.t_end)
                for r in seq.records
            )
            for _, seq in sorted(res.downloads.items())
        ),
        aborts=tuple((uid, n, e) for uid, (n, e) in sorted(res.aborts.items())),
        welfare=tuple(
            (uid, b.value, b.loss_qdeg, b.loss_rebuf, b.energy_cell, b.energy_wifi)
            for uid, b in sorted(res.breakdowns.items())
        ),
        messages=(m.ready, m.ack, m.sleep, m.awake, last_ready),
        counters=asdict(res.counters),
        social_welfare=res.social_welfare,
    )


def _close(xs, ys) -> bool:
    return len(xs) == len(ys) and all(abs(x - y) <= TOL for x, y in zip(xs, ys))


def classify(a: Outcome, b: Outcome) -> str:
    if (a.records, a.aborts, a.welfare) == (b.records, b.aborts, b.welfare):
        return "identical"
    same_shape = (
        len(a.records) == len(b.records)
        and all(
            [r[:4] for r in ra] == [r[:4] for r in rb]
            and _close([t for r in ra for t in r[4:]], [t for r in rb for t in r[4:]])
            for ra, rb in zip(a.records, b.records)
        )
        and [x[:2] for x in a.aborts] == [x[:2] for x in b.aborts]
        and all(abs(x[2] - y[2]) <= ENERGY_TOL for x, y in zip(a.aborts, b.aborts))
    )
    return "noise" if same_shape else "material"


def _live(o: Outcome) -> dict:
    return {k: v for k, v in o.counters.items() if k not in DEAD_LINK_COUNTERS}


def _row(key, a: Outcome, b: Outcome) -> Row:
    ca, cb = a.counters, b.counters
    return Row(
        key,
        classify(a, b),
        a.messages == b.messages,
        ca == cb,
        _live(a) == _live(b)
        and ca["decisions"] - cb["decisions"] == ca["dead_link_parks"] - cb["dead_link_parks"],
        tuple(
            {
                **{name: o.counters[name] for name in TOTALS},
                **dict(zip(MESSAGE_TOTALS, o.messages)),
            }
            for o in (a, b)
        ),
        (a.social_welfare, b.social_welfare),
        tuple(sum(map(len, o.records)) for o in (a, b)),
    )


def compare(sim_a, sim_b, seeds=SEEDS) -> list[Row]:
    """Every run of the engine set for `seeds` through both classes, classified."""
    rows = []
    for mobility in MOBILITIES:
        for capacity_hi in CAPACITY_HIS:
            for seed in seeds:
                for scheduler in SCHEDULERS:
                    for twin in (False, True):
                        key = (mobility, capacity_hi, seed, scheduler, twin)
                        rows.append(_row(key, *(simulate(cls, *key) for cls in (sim_a, sim_b))))
    return rows


def compare_micro(sim_a, sim_b, seeds=MICRO_SEEDS) -> list[Row]:
    """Every run of the micro family for `seeds` through both classes, classified."""
    rows = []
    for seed in seeds:
        for scheduler in SCHEDULERS:
            for twin in (False, True):
                key = ("micro", seed, scheduler, twin)
                rows.append(_row(key, *(simulate_micro(cls, *key[1:]) for cls in (sim_a, sim_b))))
    return rows


def split(rows: list[Row]) -> dict[str, dict]:
    """Per engine mode: verdict counts, runs with equal messages, counters
    and live counters, and per side the totals of `TOTALS` and
    `MESSAGE_TOTALS`."""
    out = {}
    for mode, twin in (("cooperative", False), ("twin", True)):
        part = [r for r in rows if r.key[-1] == twin]
        out[mode] = {
            "runs": len(part),
            **{v: sum(r.verdict == v for r in part) for v in ("identical", "noise", "material")},
            **{name: sum(getattr(r, name) for r in part)
               for name in ("same_messages", "same_counters", "same_live")},
            **{
                f"{name}_{side}": sum(r.totals[i][name] for r in part)
                for name in (*TOTALS, *MESSAGE_TOTALS)
                for i, side in enumerate("ab")
            },
        }
    return out


def welfare_means(rows: list[Row]) -> dict[tuple, tuple]:
    """Mean cooperative social welfare of (a, b) per (mobility, scheduler)."""
    groups: dict[tuple, list] = {}
    for r in rows:
        if not r.key[4]:
            groups.setdefault((r.key[0], r.key[3]), []).append(r.welfare)
    return {
        key: tuple(sum(w[i] for w in ws) / len(ws) for i in (0, 1))
        for key, ws in groups.items()
    }


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, os.pardir, "src"))
    from coopstream.engine import _Simulation

    other = load_package(sys.argv[1], "coopstream_other")
    seeds = [int(s) for s in sys.argv[2:]] or SEEDS
    rows = compare(other.engine._Simulation, _Simulation, seeds)
    micro = compare_micro(other.engine._Simulation, _Simulation)
    for row in rows + micro:
        if row.verdict == "material":
            (wa, wb), (na, nb) = row.welfare, row.records
            print("material", *row.key, f"welfare {wa:.4f} -> {wb:.4f}, records {na} -> {nb}")
    for family, part in (("", rows), ("micro ", micro)):
        for mode, counts in split(part).items():
            print(family + mode, counts)
    for (mobility, scheduler), (a, b) in welfare_means(rows).items():
        print(f"welfare {mobility} {scheduler}: {a:.4f} -> {b:.4f}")
