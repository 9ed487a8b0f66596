"""Lyapunov decisions on captured views, timed.

The views are every one that the lyapunov rule decides in the huddle,
crowd and sweep bench scenarios (`bench/scenarios/<name>.cfg`) at bench
seed 7: each instance's cooperative run and its non-cooperative twin, on
the instance seeds that `bench/workloads.py` derives, and for sweep at each
of its `capacity_hi` values.  They are captured once, by this checkout's
engine.  From the repository root,

    PYTHONPATH=src python tests/decide_views.py [--workload NAME ...] [--rounds R] [OTHER/src]

prints, per workload and per candidate count (the pending owners that can
take a segment), the number of views and the min-of-R (default 7) time of
deciding each of them with this checkout's `lyapunov_decide`, in µs per
view; the line for all views sums the counts' least times.  Given
OTHER/src, it times OTHER's rule on the same views as well, the two sides
alternating within each round, prints the ratio this/other, and lists the
views on which the two decisions differ.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from dataclasses import replace

from engine_differential import load_package

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))

from workloads import SWEEP_AXIS, SWEEP_VALUES, WORKLOADS, scenario_seed  # noqa: E402

BENCH_SEED = 7
NAMES = ("huddle", "crowd", "sweep")
BUCKETS = (("1", 1, 1), ("2", 2, 2), ("3", 3, 3), ("4-5", 4, 5), ("6-11", 6, 11), ("12+", 12, math.inf))


def capture(package, name: str, seed: int = BENCH_SEED) -> list[tuple[str, object]]:
    """(run label, view) of every lyapunov decision in `name`'s bench runs."""
    harness, engine, schedulers = package.harness, package.engine, package.schedulers
    workload = WORKLOADS[name]
    base = harness.load_config(workload.config_path)
    views = []
    for i in range(workload.instances):
        cfg = replace(base, seed=scenario_seed(seed, i, workload, base.repetitions))
        configs = [cfg]
        if workload.command == "sweep":
            kind = type(getattr(cfg, SWEEP_AXIS))
            configs = [replace(cfg, **{SWEEP_AXIS: kind(v)}) for v in SWEEP_VALUES]
        for c in configs:
            rule = schedulers.make_scheduler("lyapunov", **c.scheduler_params("lyapunov"))
            for rep_seed in range(c.seed, c.seed + c.repetitions):
                profiles = harness.build_profiles(c, rep_seed)
                cap, mob, noncoop = harness.build_traces(c, rep_seed)
                for twin in sorted({noncoop, True}):
                    label = f"seed {rep_seed} {SWEEP_AXIS} {getattr(c, SWEEP_AXIS)} {'twin' if twin else 'coop'}"

                    def keep(view, label=label, rule=rule):
                        views.append((label, view))
                        return rule(view)

                    run_cfg = engine.RunConfig(horizon=c.horizon, noncoop=twin, ack_window=c.ack_window)
                    engine.run(profiles, cap, mob, keep, run_cfg)
    return views


def candidates(package, view) -> int:
    return sum(1 for p in view.pending if package.schedulers.can_afford(p))


def seconds(decide, views) -> float:
    gc.collect()
    start = time.perf_counter()
    for view in views:
        decide(view)
    return time.perf_counter() - start


def report(name: str, sides: list[tuple[str, object]], rounds: int) -> None:
    this = sides[-1][1]
    views = capture(this, name)
    params = this.harness.load_config(WORKLOADS[name].config_path).scheduler_params("lyapunov")
    rules = {side: package.schedulers.make_scheduler("lyapunov", **params) for side, package in sides}
    buckets = [(span, [v for _, v in views if lo <= candidates(this, v) <= hi]) for span, lo, hi in BUCKETS]
    best = {(side, k): math.inf for side, _ in sides for k in range(len(buckets))}
    for r in range(rounds):
        for side, _ in sides if r % 2 == 0 else sides[::-1]:
            for k, (_, group) in enumerate(buckets):
                best[side, k] = min(best[side, k], seconds(rules[side], group))
    # the line for all views: the sum of the buckets' least times
    for side, _ in sides:
        best[side, len(buckets)] = sum(best[side, k] for k in range(len(buckets)))
    buckets.append(("all", [v for _, v in views]))
    print(f"{name}: {len(views)} views, bench seed {BENCH_SEED}, min of {rounds} rounds, µs per view")
    print("  candidates   views  " + "  ".join(f"{side:>8}" for side, _ in sides)
          + ("  this/other" if len(sides) > 1 else ""))
    for k, (span, group) in enumerate(buckets):
        if not group:
            continue
        us = [best[side, k] / len(group) * 1e6 for side, _ in sides]
        ratio = f"  {us[-1] / us[0]:10.3f}" if len(sides) > 1 else ""
        print(f"  {span:>10}  {len(group):6d}  " + "  ".join(f"{u:8.2f}" for u in us) + ratio)
    if len(sides) > 1:
        # each side's Download is its own package's class: compare the reprs
        differ = [(k, label, v) for k, (label, v) in enumerate(views)
                  if repr(rules["other"](v)) != repr(rules["this"](v))]
        print(f"  decisions that differ: {len(differ)}")
        for k, label, v in differ:
            owners = [p.user_id for p in v.pending if this.schedulers.can_afford(p)]
            print(f"    view {k} ({label}), decider {v.user_id}, candidates {owners}:"
                  f" other {rules['other'](v)}, this {rules['this'](v)}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", nargs="?", help="another checkout's src directory to compare with")
    ap.add_argument("--workload", action="append", choices=NAMES, help="repeatable (default: all three)")
    ap.add_argument("--rounds", type=int, default=7, help="timing rounds per side (default 7)")
    args = ap.parse_args(argv)
    import coopstream

    sides = [("this", coopstream)]
    if args.other:
        sides.insert(0, ("other", load_package(args.other, "coopstream_other")))
    for name in args.workload or NAMES:
        report(name, sides, args.rounds)


if __name__ == "__main__":
    # after PYTHONPATH, so that PYTHONPATH=OTHER/src times OTHER's rule alone
    sys.path.append(os.path.join(HERE, os.pardir, "src"))
    main()
