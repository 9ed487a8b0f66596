"""coopstream benchmark: run one workload for one seed.

Usage, from the repository root:

    python3 bench/run.py --workload crowd --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload bound --seed 1 --trace 1
    python3 bench/run.py --workload sweep --seed 1 --profile prof/

Each command goes in-process through `coopstream.cli.main`, the path a
user's `coopstream run | sweep | bound` takes, on scenarios written from
`scenarios/<workload>.cfg` with seeds derived from `--seed`.  The command
runs on the workload's instances in turn, each at least once, while another
call fits into `--seconds`.

`--trace 0` reports the end-to-end metrics: the seconds of one command
(the mean over each instance's calls, then over the instances), the median
of five fresh-process set-ups (see setup_probe.py), both scaled to the
reference host speed by the probe calls made right after them
(`wall_ref_s`, `setup_s`, see hostspeed.py), and the process's peak
resident memory.  `--trace 1` times the first instance once plain and once
with every layer wrapped (layers.py) and reports the per-layer metrics; the
engine runs of the first three instances' plain calls give
`engine.run_s_p50` and `engine.run_s_p85`.  `--profile DIR` also runs the
first instance once under cProfile, untimed, and writes
`DIR/<workload>.prof`.

Every command's outputs are checked (see `Checker`); each check counts as
one attempted operation.  The line before the last one of standard output
is a JSON object of run details: metadata, output digests, deterministic
counters, bound levels with their exact flags, failed checks.  The last
line is the JSON result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from layers import BUCKETS, Capture, Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, scenario_seed  # noqa: E402

SETUP_PROBES = 5
LATENCY_INSTANCES = 3  # plain calls whose engine runs give engine.run_s_*
PROBE_SHARE = 0.1  # seconds of host-speed probing after each command second

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "traces.encountered_calls": "count",
    "traces.encountered_s": "s",
    "traces.query_calls": "count",
    "traces.query_s": "s",
    "traces.synth_s": "s",
    "schedulers.calls": "count",
    "schedulers.calls_download": "count",
    "schedulers.calls_wait": "count",
    "schedulers.calls_idle": "count",
    "schedulers.download_ratio": "ratio",
    "schedulers.decide_s": "s",
    "schedulers.us_per_call": "us",
    "engine.self_s": "s",
    "engine.calls_per_download": "ratio",
    "engine.audit_s": "s",
    "engine.audit_calls": "count",
    "engine.runs": "count",
    "engine.downloads": "count",
    "engine.aborts": "count",
    "engine.ready": "count",
    "engine.ack": "count",
    "engine.sleep": "count",
    "engine.awake": "count",
    "engine.run_s_p50": "s",
    "engine.run_s_p85": "s",
    "engine.downloads_per_s": "1/s",
    "model.derive_s": "s",
    "welfare.score_s": "s",
    "welfare.calls": "count",
    "welfare.social_welfare": "welfare",
    "welfare.avg_bitrate_mbps": "Mbps",
    "welfare.stall_s": "s",
    "harness.runs": "count",
    "harness.self_s": "s",
    "harness.write_s": "s",
    "cli.self_s": "s",
    "bound.discretize_s": "s",
    "bound.self_s": "s",
    "bound.score_calls": "count",
    "bound.score_s": "s",
    "bound.nodes.L0": "count",
    "bound.nodes.L1": "count",
    "bound.nodes.L2": "count",
    "bound.solve_s.L0": "s",
    "bound.solve_s.L1": "s",
    "bound.solve_s.L2": "s",
    "bound.nodes_per_s": "1/s",
    "bound.exact_levels": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

QUERY_CALLS = (
    "traces.capacity_at",
    "traces.integrate_capacity",
    "traces.download_end_time",
    "traces.first_separation",
    "traces.encountered_throughout",
    "traces.next_positive_capacity",
    "traces.next_breakpoint",
)


class Modules:
    """The coopstream modules, imported from this checkout's src/."""

    NAMES = ("cli", "harness", "traces", "engine", "model", "welfare", "bound")

    def __init__(self):
        for name in self.NAMES:
            module = importlib.import_module(f"coopstream.{name}")
            if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
                raise ImportError(f"coopstream.{name} was not loaded from {SRC}")
            setattr(self, name, module)


def output_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "**", "*"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Checker:
    """Checks one command's outputs; each check is one attempted operation."""

    def __init__(self, cs: Modules):
        self.cs = cs
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def command(self, tag: str, workload, rc, out_dir: str, capture: Capture) -> None:
        if not self.check(rc == 0, f"{tag}: exit status {rc}"):
            return
        if workload.command == "bound":
            self._bound(tag, out_dir, capture.solves)
        else:
            self._runs(tag, workload, out_dir, capture.runs)

    def _runs(self, tag, workload, out_dir, runs) -> None:
        for i, (cfg, result, _) in enumerate(runs):
            # The audit raises on violations, so an audited run that
            # returned is feasible; a run with the audit off proves nothing.
            self.check(cfg.audit, f"{tag}: engine run {i} ran without its audit")
            if not cfg.noncoop:
                self.check(
                    self.rescored_welfare(result) == result.social_welfare,
                    f"{tag}: engine run {i} welfare differs when re-scored",
                )
        pairs = list(zip(runs[0::2], runs[1::2]))
        paired = len(runs) % 2 == 0 and all(
            not coop[0].noncoop and twin[0].noncoop for coop, twin in pairs
        )
        if not self.check(paired, f"{tag}: engine runs are not cooperative/twin pairs"):
            return
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            self.check(False, f"{tag}: report.json unreadable: {exc}")
            return
        reports = report if workload.command == "sweep" else [report]
        rows = [
            row
            for rep in reports
            for sched in rep["schedulers"]
            for row in sched["repetitions"]
        ]
        self.check(
            len(rows) == len(pairs)
            and all(
                row["social_welfare"] == coop[1].social_welfare
                and row["noncoop_social_welfare"] == twin[1].social_welfare
                for row, (coop, twin) in zip(rows, pairs)
            ),
            f"{tag}: report.json welfare differs from the engine runs",
        )
        expected = ["report.json", "summary.csv"]
        if workload.command == "run":
            for rep in reports:
                for sched in rep["schedulers"]:
                    name = sched["scheduler"]
                    expected += [f"records_{name}.csv", f"result_{name}.json"]
        missing = [f for f in expected if not os.path.isfile(os.path.join(out_dir, f))]
        self.check(not missing, f"{tag}: missing outputs {missing}")

    def rescored_welfare(self, result) -> float:
        """Social welfare re-scored from the download sequences, plus the
        energy the engine charged for aborted downloads."""
        extra = self.cs.model.WelfareBreakdown
        total = 0.0
        for uid, part in self.cs.welfare.welfare_breakdowns(
            result.downloads, result.profiles
        ).items():
            energy = result.aborts[uid][1]
            if energy > 0.0:
                part = part + extra(energy_cell=energy)
            total += part.welfare
        return total

    def _bound(self, tag, out_dir, solves) -> None:
        bd = self.cs.bound
        for level, (instance, result, _) in enumerate(solves):
            violations = bd.plan_violations(result.plan, instance)
            self.check(
                not violations and bd.slotted_welfare(result.plan, instance) == result.welfare,
                f"{tag}: level {level} plan is infeasible or mis-scored: {violations[:3]}",
            )
        try:
            with open(os.path.join(out_dir, "region.json")) as fh:
                levels = json.load(fh)["levels"]
        except (OSError, ValueError, KeyError) as exc:
            self.check(False, f"{tag}: region.json unreadable: {exc}")
            return
        self.check(
            [(lv["welfare"], lv["exact"]) for lv in levels]
            == [(r.welfare, r.exact) for _, r, _ in solves],
            f"{tag}: region.json differs from the solver results",
        )


def stall_seconds(cs: Modules, result) -> float:
    """Stall seconds per video user, from rebuf_loss's per-segment log."""
    video = [uid for uid, p in result.profiles.items() if p.is_video_user]
    total = 0.0
    for uid in video:
        rx = result.receives.get(uid)
        if rx is not None:
            _, log = cs.welfare.rebuf_loss(rx, result.profiles[uid])
            total += sum(seconds for _, seconds in log)
    return total / len(video) if video else 0.0


def deterministic(cs: Modules, capture: Capture) -> dict:
    """Counters and QoE of one command; equal for equal code and seed."""
    runs = [result for _, result, _ in capture.runs]
    coop = [result for cfg, result, _ in capture.runs if not cfg.noncoop]
    out = {
        "engine.runs": len(runs),
        "engine.downloads": sum(len(s.records) for r in runs for s in r.downloads.values()),
        "engine.aborts": sum(count for r in runs for count, _ in r.aborts.values()),
        "engine.ready": sum(r.messages.ready for r in runs),
        "engine.ack": sum(r.messages.ack for r in runs),
        "engine.sleep": sum(r.messages.sleep for r in runs),
        "engine.awake": sum(r.messages.awake for r in runs),
        "welfare.social_welfare": statistics.mean(r.social_welfare for r in coop) if coop else 0.0,
        "welfare.avg_bitrate_mbps": statistics.mean(r.avg_bitrate() for r in coop) if coop else 0.0,
        "welfare.stall_s": statistics.mean(stall_seconds(cs, r) for r in coop) if coop else 0.0,
        "bound.levels": [
            {"nodes": r.nodes, "exact": r.exact, "welfare": r.welfare}
            for _, r, _ in capture.solves
        ],
    }
    out["bound.exact_levels"] = sum(lv["exact"] for lv in out["bound.levels"])
    return out


class Bench:
    def __init__(self, cs: Modules, workload, seed: int, work_dir: str):
        self.cs = cs
        self.workload = workload
        self.work_dir = work_dir
        self.capture = Capture()
        self.checker = Checker(cs)
        self.calls = 0
        base = cs.harness.load_config(workload.config_path)
        self.configs = []
        for i in range(workload.instances):
            cfg = replace(base, seed=scenario_seed(seed, i, workload, base.repetitions))
            path = os.path.join(work_dir, f"instance{i}.cfg")
            with open(path, "w") as fh:
                fh.write(cs.harness.dump_config(cfg))
            self.configs.append(path)
        self.outputs: dict[int, dict] = {}  # sha256 of each output file
        self.first: dict[int, dict] = {}

    def command(self, index: int, tracer: Tracer | None = None, profile: str | None = None) -> float:
        """Run the workload's command on one instance; returns its seconds."""
        self.calls += 1
        tag = f"instance {index} call {self.calls}"
        out_dir = os.path.join(self.work_dir, f"out{self.calls}")
        os.makedirs(out_dir)
        argv = self.workload.argv(self.configs[index], out_dir)
        patches = Patches()
        self.capture.clear()
        self.capture.install(patches, self.cs)
        if tracer is not None:
            tracer.install(patches, self.cs)
        profiler = cProfile.Profile() if profile else None
        sink = io.StringIO()
        gc.collect()
        rc = None
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if profiler is not None:
                    profiler.enable()
                start = time.perf_counter()
                try:
                    rc = self.cs.cli.main(argv)
                finally:
                    seconds = time.perf_counter() - start
                    if profiler is not None:
                        profiler.disable()
        except Exception:
            rc = f"exception\n{traceback.format_exc()}"
        finally:
            patches.undo()
        if profiler is not None:
            os.makedirs(profile, exist_ok=True)
            profiler.dump_stats(os.path.join(profile, f"{self.workload.name}.prof"))
        self.checker.command(tag, self.workload, rc, out_dir, self.capture)
        digests = output_digests(out_dir)
        if index in self.outputs:
            self.checker.check(
                digests == self.outputs[index], f"{tag}: outputs differ from the first call"
            )
        else:
            self.outputs[index] = digests
            self.first[index] = deterministic(self.cs, self.capture)
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds

    def setup_seconds(self) -> list[tuple[float, float]]:
        """(set-up seconds, mean host-speed probe seconds) of fresh processes."""
        script = os.path.join(HERE, "setup_probe.py")
        times = []
        for i in range(SETUP_PROBES):
            config = self.configs[i % len(self.configs)]
            done = subprocess.run(
                [sys.executable, script, self.workload.name, config],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            setup, probe = done.stdout.strip().splitlines()[-1].split()
            times.append((float(setup), float(probe)))
        return times

    def details(self, seed: int, extra: dict) -> dict:
        # Counts add up over the instances; QoE and bound levels stay per instance.
        counters = {}
        for index in sorted(self.first):
            for key, value in self.first[index].items():
                if isinstance(value, int):
                    counters[key] = counters.get(key, 0) + value
                else:
                    counters.setdefault(key, []).append(value)
        return {
            "workload": self.workload.name,
            "seed": seed,
            "meta": metadata(),
            "scenario_seeds": [
                self.cs.harness.load_config(path).seed for path in self.configs
            ],
            "outputs": {str(i): self.outputs[i] for i in sorted(self.outputs)},
            "deterministic": counters,
            "failures": self.checker.failures,
            **extra,
        }


def metadata() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.setup_seconds()
    calls = [[] for _ in range(bench.workload.instances)]
    probes = []
    start = time.perf_counter()
    done = 0
    while True:
        index = done % len(calls)
        dt = bench.command(index)
        calls[index].append(dt)
        probes += hostspeed.probe(PROBE_SHARE * dt)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= len(calls) and elapsed + elapsed / done > seconds:
            break
    wall = statistics.mean(statistics.mean(times) for times in calls)
    metrics = {
        "wall_ref_s": hostspeed.scale(wall, probes),
        "setup_s": statistics.median(hostspeed.scale(dt, [probe]) for dt, probe in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "wall_s": wall,
        "probe_s": statistics.mean(probes),
        "probes": len(probes),
        "call_s": calls,
        "setup_raw_s": [dt for dt, _ in setup],
        "setup_probe_s": [probe for _, probe in setup],
    }
    return metrics, extra


def per_layer(bench: Bench) -> tuple[dict, dict]:
    plain = bench.command(0)
    run_s = [dt for _, _, dt in bench.capture.runs]
    solves = [(r.nodes, dt) for _, r, dt in bench.capture.solves]
    counts = bench.first[0]
    for index in range(1, min(LATENCY_INSTANCES, bench.workload.instances)):
        bench.command(index)
        run_s += [dt for _, _, dt in bench.capture.runs]
    tracer = Tracer()
    bench.command(0, tracer=tracer)
    traced = tracer.root_seconds()
    bench.checker.check(
        abs(sum(tracer.self_s.values()) - traced) <= 1e-6 * max(1.0, traced),
        "layer self times do not add up to the traced wall time",
    )
    s, calls, decisions = tracer.self_s, tracer.calls, tracer.decisions
    n_calls = calls["schedulers.decide"]
    m = {
        "traces.encountered_calls": calls["traces.encountered"],
        "traces.encountered_s": s["traces.encountered_s"],
        "traces.query_calls": sum(calls[name] for name in QUERY_CALLS),
        "traces.query_s": s["traces.query_s"],
        "traces.synth_s": s["traces.synth_s"],
        "schedulers.calls": n_calls,
        "schedulers.calls_download": decisions["Download"],
        "schedulers.calls_wait": decisions["Wait"],
        "schedulers.calls_idle": decisions["Idle"],
        "schedulers.download_ratio": decisions["Download"] / n_calls if n_calls else 0.0,
        "schedulers.decide_s": s["schedulers.decide_s"],
        "schedulers.us_per_call": 1e6 * s["schedulers.decide_s"] / n_calls if n_calls else 0.0,
        "engine.self_s": s["engine.self_s"],
        "engine.calls_per_download": (
            n_calls / counts["engine.downloads"] if counts["engine.downloads"] else 0.0
        ),
        "engine.audit_s": s["engine.audit_s"],
        "engine.audit_calls": calls["engine.audit_run"],
        "engine.run_s_p50": statistics.median(run_s) if run_s else 0.0,
        "engine.run_s_p85": (
            statistics.quantiles(run_s, n=20, method="inclusive")[16] if run_s else 0.0
        ),
        "engine.downloads_per_s": counts["engine.downloads"] / plain,
        "model.derive_s": s["model.derive_s"],
        "welfare.score_s": s["welfare.score_s"],
        "welfare.calls": calls["welfare.user_welfare"] + calls["welfare.rebuf_loss"],
        "harness.runs": calls["harness.run_experiment"],
        "harness.self_s": s["harness.self_s"],
        "harness.write_s": s["harness.write_s"],
        "cli.self_s": s["cli.self_s"],
        "bound.discretize_s": s["bound.discretize_s"],
        "bound.self_s": s["bound.self_s"],
        "bound.score_calls": calls["bound.slotted_welfare"],
        "bound.score_s": s["bound.score_s"],
        "bound.nodes_per_s": (
            sum(n for n, _ in solves) / sum(dt for _, dt in solves) if solves else 0.0
        ),
        "bound.exact_levels": counts["bound.exact_levels"],
        "trace.wall_s": traced,
        "trace.overhead_s": traced - plain,
    }
    for key in ("runs", "downloads", "aborts", "ready", "ack", "sleep", "awake"):
        m[f"engine.{key}"] = counts[f"engine.{key}"]
    for key in ("social_welfare", "avg_bitrate_mbps", "stall_s"):
        m[f"welfare.{key}"] = counts[f"welfare.{key}"]
    for level in range(3):
        nodes, dt = solves[level] if level < len(solves) else (0, 0.0)
        m[f"bound.nodes.L{level}"] = nodes
        m[f"bound.solve_s.L{level}"] = dt
    extra = {
        "untraced_s": plain,
        "buckets_s": {b: s[b] for b in BUCKETS},
        "spans": len(tracer.spans),
        "spans_s": tracer.inclusive_seconds(),
        "calls": dict(sorted(calls.items())),
    }
    return m, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description="coopstream benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default=None, help="write a cProfile dump into this directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coopstream", "__init__.py")):
        print(f"bench: no coopstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cs = Modules()
    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(HERE, "_work"))
    try:
        bench = Bench(cs, workload, args.seed, work_dir)
        if args.profile:
            bench.command(0, profile=args.profile)
        if args.trace:
            metrics, extra = per_layer(bench)
            units = PER_LAYER
        else:
            metrics, extra = end_to_end(bench, args.seconds)
            units = END_TO_END
        details = bench.details(args.seed, extra)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = len(bench.checker.failures)
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.checker.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
