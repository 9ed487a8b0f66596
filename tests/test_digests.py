"""Standing output digests: a fixed seeded set of runs and solves, hashed.

The set runs `run_experiment` once per mobility mode and capacity ceiling
with all three schedulers, so every run has a cooperative and a
non-cooperative twin, and solves the slotted bound on micro instances and,
cut short by a node budget, on full-coop prefixes.  Five sha256 digests
cover separate outputs: download records, welfare terms, coordination
messages, solver values, and the budget-limited searches (nodes, value,
exactness and plan), which pin down the path the search takes.  A change
meant to leave outputs alone leaves every digest alone; an intended change
updates only the digests it means to change.

Floats are hashed exactly (`float.hex`), and `sum()` rounds differently
from Python 3.12 on, so the committed digests are keyed by platform and
Python version; on any other key the test skips.  To record or update this
platform's entry in digests.json, run

    PYTHONPATH=src python tests/test_digests.py

It prints each digest with whether it is new, unchanged or CHANGED against
the entry it replaces, so a change can name exactly the digests it moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace
from unittest import mock

import pytest

import coopstream.traces as tr
from coopstream import harness
from coopstream.bound import solve_slotted
from coopstream.schedulers import SCHEDULER_NAMES
from slotted_oracle import micro_instance, prefix_instance
from trace_csv import write_trace_csv

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
SYNTHETIC_MODES = tuple(m for m in harness.MOBILITY_MODES if m != "csv")
CAPACITY_HIS = (0.7, 5.0)
SOLVER_SEEDS = range(25)
SEARCH_SEEDS = range(10)
SEARCH_BUDGET = 3_000  # every level of every SEARCH_SEEDS prefix runs out
BASE = harness.ScenarioConfig(
    name="digest", schedulers=SCHEDULER_NAMES, repetitions=1, seed=1
)


def platform_key() -> str:
    major, minor = sys.version_info[:2]
    return f"{platform.system()}-{platform.machine()}-py{major}.{minor}"


def _configs(work_dir: str):
    for capacity_hi in CAPACITY_HIS:
        cfg = replace(BASE, capacity_hi=capacity_hi)
        for mode in SYNTHETIC_MODES:
            yield replace(cfg, mobility=mode)
        # csv: the synthetic-mode traces after a round trip through files.
        cap, mob = tr.synth_traces(harness._synth_config(cfg), cfg.seed)
        cap_csv = os.path.join(work_dir, f"cap-{capacity_hi}.csv")
        mob_csv = os.path.join(work_dir, f"mob-{capacity_hi}.csv")
        write_trace_csv(cap, cap_csv)
        write_trace_csv(mob, mob_csv)
        yield replace(cfg, mobility="csv", capacity_csv=cap_csv, mobility_csv=mob_csv)


def _engine_results() -> list:
    """Every engine run of the set, cooperative runs and twins, in call order."""
    results = []
    engine_run = harness.run

    def keep(*args):
        result = engine_run(*args)
        results.append(result)
        return result

    with tempfile.TemporaryDirectory() as work_dir, mock.patch.object(harness, "run", keep):
        for cfg in _configs(work_dir):
            harness.run_experiment(cfg)
    return results


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _search_rows() -> list:
    rows = []
    for seed in SEARCH_SEEDS:
        for halvings in range(3):
            sol = solve_slotted(prefix_instance(seed, halvings), SEARCH_BUDGET)
            rows.append(
                [seed, halvings, sol.nodes, sol.welfare.hex(), sol.exact, sol.plan.entries()]
            )
    return rows


def compute_digests() -> dict[str, str]:
    results = _engine_results()
    records = [
        [
            [
                [r.downloader, r.owner, r.owner_seq_no, r.level,
                 res.profiles[r.owner].ladder.rate(r.level).hex(), r.t_start.hex(), r.t_end.hex()]
                for r in seq.records
            ]
            for _, seq in sorted(res.downloads.items())
        ]
        + [[uid, count, energy.hex()] for uid, (count, energy) in sorted(res.aborts.items())]
        for res in results
    ]
    welfare = [
        [
            [uid, b.value.hex(), b.loss_qdeg.hex(), b.loss_rebuf.hex(),
             b.energy_cell.hex(), b.energy_wifi.hex()]
            for uid, b in sorted(res.breakdowns.items())
        ]
        for res in results
    ]
    messages = [
        [m.ready, m.ack, m.sleep, m.awake,
         None if m.last_ready is None else m.last_ready.hex()]
        for m in (res.messages for res in results)
    ]
    solver = []
    for seed in SOLVER_SEEDS:
        sol = solve_slotted(micro_instance(seed))
        solver.append([seed, sol.welfare.hex(), sol.exact])
    return {
        "records": _sha(records),
        "welfare": _sha(welfare),
        "messages": _sha(messages),
        "solver": _sha(solver),
        "search": _sha(_search_rows()),
    }


def _committed() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_outputs_match_the_committed_digests():
    expected = _committed().get(platform_key())
    if expected is None:
        pytest.skip(f"no committed digests for {platform_key()}")
    assert compute_digests() == expected


if __name__ == "__main__":
    table = _committed() if os.path.exists(DIGESTS) else {}
    old = table.get(platform_key(), {})
    table[platform_key()] = new = compute_digests()
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, digest in new.items():
        status = "new" if name not in old else "unchanged" if old[name] == digest else "CHANGED"
        print(f"{platform_key()} {name}: {status} {digest}")
