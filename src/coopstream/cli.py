"""Command-line entry points.

Exit codes: 0 success, 1 bad configuration or arguments, 2 runtime failure
(simulation audit, infeasible traces, solver errors).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import bound as bd
from . import traces as tr
from .engine import SimAuditError, SimError
from .harness import (
    ConfigError,
    ScenarioConfig,
    _prefix_bound,
    build_profiles,
    build_traces,
    dump_config,
    load_config,
    run_experiment,
    sweep,
)
from .model import ModelError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep that lane for
    # runtime failures and report bad arguments as exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="coopstream", description=__doc__)
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the default scenario config and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config field")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, help="config field to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bound = sub.add_parser("bound", help="exact welfare bound for a small scenario")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--refine", type=int, default=None, help="refinement halvings")
    p_bound.add_argument("--out", default=None, help="write region JSON here")
    p_bound.set_defaults(func=_cmd_bound)

    p_val = sub.add_parser("validate-traces", help="check a capacity/mobility CSV pair")
    p_val.add_argument("capacity_csv")
    p_val.add_argument("mobility_csv")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = run_experiment(cfg, args.out)
    for s in report["schedulers"]:
        gap = "" if s["gap_ratio"] is None else f"  gap={s['gap_ratio']:.4f}"
        print(
            f"{report['scenario']}  {s['scheduler']:<10}"
            f"  bitrate={s['avg_bitrate_mbps']:.3f} Mbps"
            f"  welfare={s['social_welfare']:.3f}"
            f"  rebuf={s['rebuf_s']:.2f} s{gap}"
        )
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    reports = sweep(cfg, args.axis, values, args.out)
    for rep in reports:
        for s in rep["schedulers"]:
            gain = "n/a" if s["welfare_gain"] is None else f"{s['welfare_gain']:.3f}"
            print(
                f"{rep['scenario']}  {s['scheduler']:<10}"
                f"  welfare={s['social_welfare']:.3f}"
                f"  gain={gain}"
                f"  diff={s['welfare_diff']:.3f}"
            )
    return 0


def _cmd_bound(args) -> int:
    cfg = load_config(args.config)
    if args.refine is not None:
        cfg = replace(cfg, bound_refine=args.refine)
        cfg.validate()
    profiles = build_profiles(cfg, cfg.seed)
    cap, mob, noncoop = build_traces(cfg, cfg.seed)
    _, region = _prefix_bound(cfg, profiles, cap, mob, noncoop)
    for beta, value, exact, nodes in zip(
        region.segment_lens, region.values, region.exact, region.nodes
    ):
        tag = "exact" if exact else "budget-limited"
        print(f"segment_len={beta:g}  welfare={value:.6f}  ({tag}, {nodes} nodes)")
    upper = region.upper
    print("upper bound estimate: " + ("none (budget-limited)" if upper is None else f"{upper:.6f}"))
    if args.out is not None:
        bd.write_region_json(region, args.out)
    return 0


def _cmd_validate(args) -> int:
    cap = tr.CapacityTrace.from_csv(args.capacity_csv)
    mob = tr.MobilityTrace.from_csv(args.mobility_csv)
    tr.check_pair(cap, mob)
    print(
        f"ok: {len(cap.users())} users, horizon {cap.horizon:g} s, "
        f"{sum(len(t.values) for t in cap.tracks.values())} capacity pieces, "
        f"{sum(len(t.values) for t in mob.tracks.values())} mobility pieces"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if not exc.code else 1
    if args.print_config:
        print(dump_config(ScenarioConfig()), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimError, SimAuditError, bd.BoundError, tr.TraceError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
