"""Engine differential: one fixed set of engine runs through two simulation
classes, each run classified by how far the two outputs differ.

The set is 540 runs: dense-short, sparse-long and full-coop mobility x
capacity_hi 0.7/2.5/5 x repetition seeds 1-10 x the three registry
schedulers x a cooperative run and its non-cooperative twin
(`RunConfig.noncoop`), on the default scenario otherwise, audit on.  By
its download records each run is one of

* identical: records, aborts and welfare terms are equal bit for bit;
* noise: every downloader has the same records in (owner, seq, level)
  order and the same abort count, every record time lies within 1e-9 s of
  the other side's, and every abort energy within 1e-6 (an aborted transfer
  leaves no record, so its energy is all that shows it);
* material: anything else.

Messages (READY/ACK counts and READY instants) and `EngineCounters` are
compared on their own, since a change to the decision policy moves them on
purpose; so are the sleep transitions (sleep, awake and virtual ACK
counts), which a change that only skips decisions repeating their answer
leaves alone.  Each class runs on the scenario builders,
schedulers and audit of its own package, so a class from another checkout,
loaded with `load_package` under another name, can be compared with this
one.  From the repository root,

    PYTHONPATH=src python tests/engine_differential.py OTHER/src [SEED ...]

compares OTHER's `engine._Simulation` (first) with this checkout's and
prints the material runs, the split by engine mode with decision,
scheduler-call and READY/ACK totals per side, and the mean cooperative
welfare per mobility and scheduler.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from dataclasses import asdict, dataclass

MOBILITIES = ("dense-short", "sparse-long", "full-coop")
CAPACITY_HIS = (0.7, 2.5, 5.0)
SEEDS = range(1, 11)
SCHEDULERS = ("lyapunov", "buffer", "prediction")
TOL = 1e-9
ENERGY_TOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """One run's outputs in plain values, comparable across packages."""

    records: tuple    # per downloader: (owner, seq, level, bitrate, t_start, t_end) rows
    aborts: tuple     # (uid, count, energy) rows
    welfare: tuple    # (uid, value, loss_qdeg, loss_rebuf, energy_cell, energy_wifi) rows
    messages: tuple   # (ready, ack, virtual_ack, sleep, awake, ready_times)
    counters: dict
    social_welfare: float


@dataclass(frozen=True)
class Row:
    key: tuple        # (mobility, capacity_hi, seed, scheduler, twin)
    verdict: str      # identical | noise | material
    same_messages: bool
    same_sleep: bool  # equal sleep, awake and virtual ACK counts
    same_counters: bool
    decisions: tuple  # decisions of (a, b)
    calls: tuple      # scheduler calls of (a, b)
    ready: tuple      # READY counts of (a, b)
    ack: tuple        # ACK counts of (a, b)
    welfare: tuple    # social welfare of (a, b)


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


def simulate(sim_cls, mobility: str, capacity_hi: float, seed: int, scheduler: str, twin: bool) -> Outcome:
    """One run of the set through `sim_cls`, audited."""
    # the package of the engine module the class (or a subclass of it) comes from
    engine_module = next(c.__module__ for c in sim_cls.__mro__ if c.__module__.endswith(".engine"))
    package = engine_module.rpartition(".")[0]
    harness = importlib.import_module(package + ".harness")
    engine = importlib.import_module(package + ".engine")
    schedulers = importlib.import_module(package + ".schedulers")
    cfg = harness.ScenarioConfig(mobility=mobility, capacity_hi=capacity_hi)
    profiles = harness.build_profiles(cfg, seed)
    cap, mob, _ = harness.build_traces(cfg, seed)
    decide = schedulers.make_scheduler(scheduler, **cfg.scheduler_params(scheduler))
    run_cfg = engine.RunConfig(horizon=cfg.horizon, noncoop=twin, ack_window=cfg.ack_window)
    res = sim_cls(profiles, cap, mob, decide, run_cfg).run()
    violations = engine.audit_run(profiles, cap, mob, res.downloads, cfg.horizon, twin)
    if violations:
        raise engine.SimAuditError(violations)
    return outcome(res)


def outcome(res) -> Outcome:
    """The plain-value outputs of one `SimResult`."""
    m = res.messages
    return Outcome(
        records=tuple(
            tuple(
                (r.owner, r.owner_seq_no, r.level, r.bitrate, r.t_start, r.t_end)
                for r in seq.records
            )
            for _, seq in sorted(res.downloads.items())
        ),
        aborts=tuple((uid, n, e) for uid, (n, e) in sorted(res.aborts.items())),
        welfare=tuple(
            (uid, b.value, b.loss_qdeg, b.loss_rebuf, b.energy_cell, b.energy_wifi)
            for uid, b in sorted(res.breakdowns.items())
        ),
        messages=(m.ready, m.ack, m.virtual_ack, m.sleep, m.awake, tuple(m.ready_times)),
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


def compare(sim_a, sim_b, seeds=SEEDS) -> list[Row]:
    """Every run of the set for `seeds` through both classes, classified."""
    rows = []
    for mobility in MOBILITIES:
        for capacity_hi in CAPACITY_HIS:
            for seed in seeds:
                for scheduler in SCHEDULERS:
                    for twin in (False, True):
                        key = (mobility, capacity_hi, seed, scheduler, twin)
                        a, b = (simulate(cls, *key) for cls in (sim_a, sim_b))
                        rows.append(
                            Row(
                                key,
                                classify(a, b),
                                a.messages == b.messages,
                                a.messages[2:5] == b.messages[2:5],
                                a.counters == b.counters,
                                (a.counters["decisions"], b.counters["decisions"]),
                                (a.counters["calls"], b.counters["calls"]),
                                (a.messages[0], b.messages[0]),
                                (a.messages[1], b.messages[1]),
                                (a.social_welfare, b.social_welfare),
                            )
                        )
    return rows


def split(rows: list[Row]) -> dict[str, dict]:
    """Per engine mode: verdict counts, runs with equal messages, sleep
    transitions and counters, and total decisions, scheduler calls, READYs
    and ACKs per side."""
    out = {}
    for mode, twin in (("cooperative", False), ("twin", True)):
        part = [r for r in rows if r.key[4] == twin]
        out[mode] = {
            "runs": len(part),
            **{v: sum(r.verdict == v for r in part) for v in ("identical", "noise", "material")},
            "same_messages": sum(r.same_messages for r in part),
            "same_sleep": sum(r.same_sleep for r in part),
            "same_counters": sum(r.same_counters for r in part),
            **{
                f"{name}_{side}": sum(getattr(r, name)[i] for r in part)
                for name in ("decisions", "calls", "ready", "ack")
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
    for row in rows:
        if row.verdict == "material":
            print("material", *row.key)
    for mode, counts in split(rows).items():
        print(mode, counts)
    for (mobility, scheduler), (a, b) in welfare_means(rows).items():
        print(f"welfare {mobility} {scheduler}: {a:.4f} -> {b:.4f}")
