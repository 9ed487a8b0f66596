"""The benchmark's workloads and the set-up work each one does.

A workload is one coopstream command run on one committed scenario config
(`scenarios/<name>.cfg`).  A run calls the command on each of `instances`
scenario instances in turn, whose seeds derive from the workload seed, so
its figures average over several inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # coopstream sub-command
    args: tuple[str, ...] = ()   # further command-line arguments
    instances: int = 1           # scenario instances per run

    @property
    def config_path(self) -> str:
        return os.path.join(HERE, "scenarios", f"{self.name}.cfg")

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        out = os.path.join(out_dir, "region.json") if self.command == "bound" else out_dir
        return [self.command, "--config", config_path, *self.args, "--out", out]


SWEEP_AXIS = "capacity_hi"
SWEEP_VALUES = ("0.7", "2.5", "5", "8")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("crowd", "run", instances=8),
        Workload("huddle", "run", instances=6),
        Workload(
            "sweep",
            "sweep",
            ("--axis", SWEEP_AXIS, "--values", ",".join(SWEEP_VALUES)),
            instances=8,
        ),
        Workload("bound", "bound", instances=40),
    )
}


def scenario_seed(seed: int, index: int, workload: Workload, repetitions: int) -> int:
    """Config seed of instance `index` for workload seed `seed`.

    The harness gives repetition r the seed config.seed + r, so spacing the
    instances `repetitions` apart keeps every repetition of every
    (seed, index) pair on a seed of its own.
    """
    return (seed * workload.instances + index) * repetitions


def setup(harness, bound, workload: Workload, cfg) -> None:
    """Build what the command builds before it simulates or solves.

    Mirrors the command's own calls: profiles and traces for every engine
    run (a non-cooperative twin reuses its run's traces), and for `bound`
    the 2-user prefix and its slotted instance.
    """
    if workload.command == "bound":
        profiles = harness.build_profiles(cfg, cfg.seed)
        cap, mob, noncoop = harness.build_traces(cfg, cfg.seed)
        sub = harness._bound_subinstance(cfg, profiles, cap, mob)
        bound.slotted_instance(*sub, noncoop=noncoop)
        return
    configs = [cfg]
    if workload.command == "sweep":
        kind = type(getattr(cfg, SWEEP_AXIS))
        configs = [replace(cfg, **{SWEEP_AXIS: kind(v)}) for v in SWEEP_VALUES]
    for c in configs:
        for _ in c.schedulers:
            for rep in range(c.repetitions):
                harness.build_profiles(c, c.seed + rep)
                harness.build_traces(c, c.seed + rep)
