"""Paper claims: lyapunov against the buffer and prediction baselines.

The paper's abstract claims that its online algorithm beats the existing
online algorithms by 20-30% in bitrate and 10-50% in social welfare.  This
script measures that comparison on the default scenario (10 users,
dense-short, T = 150 s), swept over `capacity_hi` 0.7, 2.5, 5 and 8 with
repetition seeds 1-20.  It reads the summaries `run_experiment` returns,
whose means are over the cooperative runs: for each value it prints the
mean avg bitrate (Mbps) and social welfare of each scheduler, then
lyapunov's difference of means (lyapunov - baseline) and ratio of means
(lyapunov / baseline) against each baseline.  A ratio of two negative
welfare means is below 1 when lyapunov is ahead.

The abstract also claims 97% of the maximum social welfare.  The only
exact bound at hand is on acceptance criterion 6's 20 one-user instances,
so the script last prints each rule's welfare there as a mean per-instance
share of the refined slotted optimum, with the number of instances at or
above 0.97.  From the repository root,

    PYTHONPATH=src python tests/paper_claims.py
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace

VALUES = ("0.7", "2.5", "5", "8")
SEEDS = 20
METRICS = (("bitrate", "avg_bitrate_mbps"), ("welfare", "social_welfare"))


def main() -> None:
    from coopstream.harness import ScenarioConfig, sweep
    from coopstream.schedulers import SCHEDULER_NAMES, make_scheduler
    from test_acceptance import bound_shares

    start = time.perf_counter()
    cfg = replace(ScenarioConfig(), seed=1, repetitions=SEEDS)
    for report in sweep(cfg, "capacity_hi", list(VALUES)):
        means = {s["scheduler"]: s for s in report["schedulers"]}
        ref, *baselines = means
        print(f"{report['scenario']} ({SEEDS} seeds)")
        for label, key in METRICS:
            row = " / ".join(f"{means[name][key]:.3f}" for name in means)
            print(f"  {label} {' / '.join(means)}: {row}")
        for base in baselines:
            parts = []
            for label, key in METRICS:
                ours, theirs = means[ref][key], means[base][key]
                parts.append(f"{label} diff {ours - theirs:+.3f} ratio {ours / theirs:.3f}")
            print(f"  {ref} vs {base}: " + "  ".join(parts))
    print("share of the exact bound on criterion 6's instances (mean, instances >= 0.97)")
    for name in SCHEDULER_NAMES:
        shares = bound_shares(make_scheduler(name))
        near = sum(share >= 0.97 for share in shares)
        print(f"  {name}: {sum(shares) / len(shares):.4f}, {near} of {len(shares)}")
    print(f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    # after PYTHONPATH, so that PYTHONPATH=OTHER/src measures OTHER alone
    sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    main()
