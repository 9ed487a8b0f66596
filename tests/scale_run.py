"""Engine scale run: one large cooperative run, timed.

The run is the default scenario with dense-short mobility, `n` users and
horizon T, `video_len` = T, repetition seed 1, the lyapunov rule and the
audit off (n = 100, T = 600 unless given).  Only `engine.run` is timed;
profiles and traces are built first.  From the repository root,

    PYTHONPATH=src python tests/scale_run.py [--n N] [--horizon T] [--pairs K] [OTHER/src]

prints, per run, the wall seconds, the events per started transfer
(`events / calls_download`, the decision work per start), the
`EngineCounters`, the READY/ACK/sleep/awake counts and `repr` of the
social welfare.  Given
OTHER/src, each of K pairs runs OTHER's engine and this checkout's, in
alternating order, each on the scenario builders and scheduler of its own
package (loaded with `engine_differential.load_package`), asserts that
the two runs have equal counters and welfare, and says whether their
messages are equal: those are counted from the coordination protocol,
which a change may redefine on purpose.  READY is at most one per free
radio, so at most the users plus the completions.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, replace

from engine_differential import load_package


def scale_run(package, n: int = 100, horizon: float = 600.0):
    """(wall seconds, `SimResult`) of the scale run on `package`'s engine."""
    harness, engine, schedulers = package.harness, package.engine, package.schedulers
    cfg = replace(
        harness.ScenarioConfig(), n_users=n, horizon=horizon, video_len=horizon, mobility="dense-short"
    )
    profiles = harness.build_profiles(cfg, 1)
    cap, mob, _ = harness.build_traces(cfg, 1)
    decide = schedulers.make_scheduler("lyapunov", **cfg.scheduler_params("lyapunov"))
    run_cfg = engine.RunConfig(horizon=horizon, ack_window=cfg.ack_window, audit=False)
    start = time.perf_counter()
    result = engine.run(profiles, cap, mob, decide, run_cfg)
    return time.perf_counter() - start, result


def summary(result) -> tuple:
    """(counters, welfare, (READY, ACK, sleep, awake)) of one run, in plain values."""
    m = result.messages
    return asdict(result.counters), result.social_welfare, (m.ready, m.ack, m.sleep, m.awake)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", nargs="?", help="another checkout's src directory to compare with")
    ap.add_argument("--n", type=int, default=100, help="users (default 100)")
    ap.add_argument("--horizon", type=float, default=600.0, help="horizon and video length, s (default 600)")
    ap.add_argument("--pairs", type=int, default=1, help="runs per side (default 1)")
    args = ap.parse_args(argv)
    import coopstream

    sides = [("this", coopstream)]
    if args.other:
        sides.insert(0, ("other", load_package(args.other, "coopstream_other")))
    for k in range(args.pairs):
        got = {}
        for name, package in sides if k % 2 == 0 else sides[::-1]:
            wall, result = scale_run(package, args.n, args.horizon)
            got[name] = summary(result)
            counters, welfare, (ready, ack, sleep, awake) = got[name]
            per_start = counters["events"] / counters["calls_download"]
            print(
                f"{name} n={args.n} T={args.horizon:g}: {wall:.2f} s events/start={per_start:.2f}"
                f" ready={ready} ack={ack} sleep={sleep} awake={awake} welfare={welfare!r}"
            )
            print(f"  {counters}")
        if args.other:
            assert got["this"][:2] == got["other"][:2], "the two engines differ"
            print("messages", "equal" if got["this"][2] == got["other"][2] else "differ")


if __name__ == "__main__":
    # after PYTHONPATH, so that PYTHONPATH=OTHER/src times OTHER's engine alone
    sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    main()
