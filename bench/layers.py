"""Outside-in instrumentation of coopstream's layers.

Both recorders replace public functions under the names their callers look
up (the engine calls `coopstream.engine.audit_run`, the CLI calls
`coopstream.cli.run_experiment`, ...) and put the originals back when
their `Patches` are undone.  Nothing under `src/` changes.

* `Capture` is always on.  It times every engine run and keeps its config
  and result, and keeps every bound solve with its instance, so that the
  outputs can be checked.  It adds two wrapper calls per engine run.
* `Tracer` is on only in traced runs.  Coarse calls become spans with a
  parent id; hot calls (trace queries, scheduler decisions, welfare terms)
  only add to their bucket's call count and time.  A bucket's time is the
  self time of its calls: their duration minus that of the wrapped calls
  nested in them.  The buckets therefore partition the root span.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


class Capture:
    """Engine runs as (RunConfig, SimResult, seconds); bound solves as
    (SlottedInstance, SolveResult, seconds)."""

    def __init__(self):
        self.runs: list = []
        self.solves: list = []

    def clear(self) -> None:
        self.runs.clear()
        self.solves.clear()

    def install(self, patches: Patches, cs) -> None:
        run = cs.harness.run
        solve = cs.bound.solve_slotted

        def timed_run(profiles, cap_trace, mob_trace, scheduler, cfg):
            start = perf()
            result = run(profiles, cap_trace, mob_trace, scheduler, cfg)
            self.runs.append((cfg, result, perf() - start))
            return result

        def timed_solve(instance, node_budget=2_000_000):
            start = perf()
            result = solve(instance, node_budget)
            self.solves.append((instance, result, perf() - start))
            return result

        patches.set(cs.harness, "run", timed_run)
        patches.set(cs.bound, "solve_slotted", timed_solve)


# (module, attribute, span name, bucket, kept as a span).  Names are
# "<layer>.<function>"; buckets are the per-layer self-time metrics.
def _targets(cs):
    cli, harness, traces, engine, welfare, bound = (
        cs.cli, cs.harness, cs.traces, cs.engine, cs.welfare, cs.bound
    )
    query = "traces.query_s"
    return [
        (cli, "main", "cli.main", "cli.self_s", True),
        (cli, "load_config", "harness.load_config", "harness.self_s", True),
        (cli, "run_experiment", "harness.run_experiment", "harness.self_s", True),
        (cli, "sweep", "harness.sweep", "harness.self_s", True),
        (cli, "build_profiles", "harness.build_profiles", "harness.self_s", True),
        (cli, "build_traces", "harness.build_traces", "harness.self_s", True),
        (harness, "run_experiment", "harness.run_experiment", "harness.self_s", True),
        (harness, "build_profiles", "harness.build_profiles", "harness.self_s", True),
        (harness, "build_traces", "harness.build_traces", "harness.self_s", True),
        (harness, "_bound_subinstance", "harness.bound_subinstance", "harness.self_s", True),
        (harness, "write_summary_csv", "harness.write_summary_csv", "harness.write_s", True),
        (harness, "write_records_csv", "harness.write_records_csv", "harness.write_s", True),
        (harness, "write_result_json", "harness.write_result_json", "harness.write_s", True),
        (harness, "run", "engine.run", "engine.self_s", True),
        (harness, "rebuf_loss", "welfare.rebuf_loss", "welfare.score_s", False),
        (traces, "synth_traces", "traces.synth_traces", "traces.synth_s", True),
        (traces, "full_coop_mobility", "traces.full_coop_mobility", "traces.synth_s", True),
        (traces, "encountered", "traces.encountered", "traces.encountered_s", False),
        (traces, "capacity_at", "traces.capacity_at", query, False),
        (traces, "integrate_capacity", "traces.integrate_capacity", query, False),
        (traces, "download_end_time", "traces.download_end_time", query, False),
        (traces, "first_separation", "traces.first_separation", query, False),
        (traces, "encountered_throughout", "traces.encountered_throughout", query, False),
        (traces, "next_positive_capacity", "traces.next_positive_capacity", query, False),
        (traces.MobilityTrace, "next_breakpoint", "traces.next_breakpoint", query, False),
        (engine, "audit_run", "engine.audit_run", "engine.audit_s", True),
        (engine, "derive_receive_sequences", "model.derive_receive_sequences", "model.derive_s", True),
        (engine, "user_welfare", "welfare.user_welfare", "welfare.score_s", False),
        (welfare, "rebuf_loss", "welfare.rebuf_loss", "welfare.score_s", False),
        (bound, "slotted_instance", "bound.slotted_instance", "bound.discretize_s", True),
        (bound, "bound_region", "bound.bound_region", "bound.self_s", True),
        (bound, "refine_instance", "bound.refine_instance", "bound.self_s", True),
        (bound, "solve_slotted", "bound.solve_slotted", "bound.self_s", True),
        (bound, "slotted_welfare", "bound.slotted_welfare", "bound.score_s", False),
        (bound, "write_region_json", "bound.write_region_json", "bound.self_s", True),
    ]


BUCKETS = (
    "cli.self_s",
    "harness.self_s",
    "harness.write_s",
    "traces.synth_s",
    "traces.encountered_s",
    "traces.query_s",
    "schedulers.decide_s",
    "engine.self_s",
    "engine.audit_s",
    "model.derive_s",
    "welfare.score_s",
    "bound.discretize_s",
    "bound.self_s",
    "bound.score_s",
)


class Tracer:
    """Spans and per-bucket self times of one traced command."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.decisions: dict[str, int] = defaultdict(int)
        # Kept spans as [id, parent id (0 = none), name, start, end].
        self.spans: list[list] = []
        self._inner: list[float] = []  # wrapped-child time of each open call
        self._open: list[int] = [0]    # ids of the open kept spans

    def install(self, patches: Patches, cs) -> None:
        for obj, attr, name, bucket, keep in _targets(cs):
            patches.set(obj, attr, self.wrap(getattr(obj, attr), name, bucket, keep))
        make = cs.harness.make_scheduler

        def make_scheduler(name, **params):
            return self.scheduler(make(name, **params))

        patches.set(cs.harness, "make_scheduler", make_scheduler)

    def wrap(self, fn, name: str, bucket: str, keep: bool):
        inner, self_s, calls = self._inner, self.self_s, self.calls
        if not keep:

            def leaf(*args, **kwargs):
                start = perf()
                inner.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - start
                    self_s[bucket] += dur - inner.pop()
                    calls[name] += 1
                    if inner:
                        inner[-1] += dur

            return leaf
        spans, open_ = self.spans, self._open

        def span(*args, **kwargs):
            record = [len(spans) + 1, open_[-1], name, perf(), 0.0]
            spans.append(record)
            open_.append(record[0])
            inner.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = end = perf()
                open_.pop()
                dur = end - record[3]
                self_s[bucket] += dur - inner.pop()
                calls[name] += 1
                if inner:
                    inner[-1] += dur

        return span

    def scheduler(self, fn):
        """Wrap a scheduler callable; also count its decisions by type."""
        timed = self.wrap(fn, "schedulers.decide", "schedulers.decide_s", False)
        decisions = self.decisions

        def decide(view):
            decision = timed(view)
            decisions[type(decision).__name__] += 1
            return decision

        decide.name = fn.name
        return decide

    def root_seconds(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent == 0)

    def inclusive_seconds(self) -> dict[str, float]:
        """Total duration of the kept spans, by name, children included."""
        out: dict[str, float] = defaultdict(float)
        for _, _, name, start, end in self.spans:
            out[name] += end - start
        return dict(sorted(out.items()))
