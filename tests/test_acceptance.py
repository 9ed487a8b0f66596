"""Release gate: one test per headline guarantee, each printing a verdict line.

The nine checks cover the whole stack end to end: audit cleanliness over a
thousand randomized runs, exact agreement between the slotted solver and a
brute-force oracle, bound monotonicity under refinement, the online-below-
bound sandwich, scheduler dominance sweeps, the drift-weight gap trend,
arithmetic goldens, byte-level determinism, and coordination accounting
around a connectivity outage.  Every check draws its own instances from
seeded generators; nothing is filtered on scheduler outcomes.
"""

import functools
import math
import random
import time
from dataclasses import replace
from unittest import mock

import pytest

import coopstream.bound as bd
import coopstream.traces as tr
from coopstream.engine import RunConfig, audit_run, run
from coopstream.harness import (
    ScenarioConfig,
    _metrics,
    build_profiles,
    build_traces,
    run_experiment,
)
from coopstream.model import BitrateLadder, UserProfile
from coopstream.schedulers import Wait, lyapunov_decide, lyapunov_scores, make_scheduler
from slotted_oracle import OracleOverflow, best_plan, micro_instance

SCHEDULER_ROTATION = ("lyapunov", "buffer", "prediction")


@pytest.fixture
def verdict(capsys):
    """Report one PASS/FAIL line per criterion outside the capture, so the
    verdicts reach the console whichever flags the suite was invoked with."""

    def _report(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# 1. Audit sweep: a thousand randomized micro-runs, zero violations.

AUDIT_LADDERS = [(0.2, 0.4, 0.7, 1.3, 2.3), (0.5, 1.0, 2.0), (1.0, 2.0), (0.3, 0.6, 1.2)]


def audit_scenario(seed):
    rng = random.Random(seed * 977 + 13)
    n_users = rng.randint(1, 5)
    horizon = float(rng.randint(10, 60))
    profiles = {}
    for uid in range(n_users):
        video = rng.random() < 0.7
        ladder = BitrateLadder(rng.choice(AUDIT_LADDERS))
        segment_len = rng.choice([1.0, 2.0])
        buffer_cap = rng.choice([6.0, 12.0, 40.0])
        draw = rng.randint(4, 40) if video else 0
        profiles[uid] = UserProfile(
            user_id=uid,
            ladder=ladder,
            segment_len=segment_len,
            buffer_cap=buffer_cap,
            # the whole segments of the drawn length, as many as the engine plays
            video_len=segment_len * round(draw / segment_len),
            theta=rng.choice([0.5, 1.0, 2.0]),
            phi_qdeg=rng.choice([0.0, 0.5, 1.0]),
            phi_rebuf=rng.choice([0.5, 1.0, 2.0]),
            c_time=0.5,
            c_data=0.1,
            w_data=0.05,
        )
    synth = tr.SynthConfig(
        n_users=n_users,
        horizon=horizon,
        hotspots=rng.randint(1, 3),
        dwell_mean=rng.uniform(5.0, 20.0),
        transition_mean=rng.uniform(2.0, 8.0),
        capacity_lo=0.0,
        capacity_hi=rng.uniform(0.5, 6.0),
        capacity_period=rng.uniform(1.0, 4.0),
    )
    # The sweep also draws each scenario's capacity jitter, which the
    # generator fixes for every other caller.
    with mock.patch.object(tr, "CAPACITY_JITTER", rng.uniform(0.0, 1.0)):
        cap, mob = tr.synth_traces(synth, seed)
    return profiles, cap, mob


def test_audit_sweep_is_clean(verdict):
    t0 = time.time()
    violations = []
    for seed in range(1, 1001):
        profiles, cap, mob = audit_scenario(seed)
        noncoop = seed % 7 == 0
        res = run(
            profiles,
            cap,
            mob,
            make_scheduler(SCHEDULER_ROTATION[seed % 3]),
            RunConfig(horizon=cap.horizon, noncoop=noncoop, audit=False),
        )
        faults = audit_run(profiles, cap, mob, res.downloads, cap.horizon, noncoop)
        if faults:
            violations.append((seed, faults[0]))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 60.0
    detail = f"1000 runs, {len(violations)} violations, {elapsed:.1f}s"
    if violations:
        detail += f", first: seed {violations[0][0]} {violations[0][1]}"
    verdict(1, "audit sweep", ok, detail)


# ---------------------------------------------------------------------------
# 2. Solver equals the exhaustive oracle exactly on small plan spaces.


def test_solver_matches_exhaustive_oracle(verdict):
    t0 = time.time()
    compared = 0
    worst = 0.0
    seed = 0
    while compared < 50 and seed < 200:
        inst = micro_instance(seed)
        seed += 1
        try:
            w_star, _, n_plans = best_plan(inst, cap=200_000)
        except OracleOverflow:
            continue
        sol = bd.solve_slotted(inst)
        assert sol.exact, f"seed {seed - 1}: solver gave up on {n_plans} plans"
        worst = max(worst, abs(sol.welfare - w_star))
        assert sol.welfare == w_star, f"seed {seed - 1}: {sol.welfare!r} != {w_star!r}"
        compared += 1
    elapsed = time.time() - t0
    ok = compared >= 50 and worst == 0.0 and elapsed < 300.0
    verdict(
        2,
        "solver vs oracle",
        ok,
        f"{compared} instances, worst |diff| {worst:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Halving the slot unit never lowers the optimal slotted welfare.


def test_refinement_is_monotone(verdict):
    kept = 0
    worst = math.inf
    seed = 0
    while kept < 30 and seed < 300:
        inst = micro_instance(seed)
        seed += 1
        region = bd.bound_region(inst, halvings=2, node_budget=30_000)
        if not all(region.exact):
            continue
        kept += 1
        v = region.values
        worst = min(worst, min(v[k + 1] - v[k] for k in range(len(v) - 1)))
    ok = kept >= 30 and worst >= -1e-9
    verdict(3, "refinement monotone", ok, f"{kept} instances, worst step {worst:.3g}")


# ---------------------------------------------------------------------------
# 4. Realized online welfare stays below the twice-refined slotted optimum.
# The coarse slotted value is NOT asserted as a lower bound: the online run
# places downloads at arbitrary instants and may legitimately beat it.

# Per-user capacity patterns over four one-second spans; the zero spans both
# exercise outage handling and keep the refined search spaces enumerable.
SANDWICH_PATTERNS = [
    (0.5, 0.5, 0.5, 0.5),
    (1.0, 1.0, 0.0, 0.0),
    (0.0, 1.0, 1.0, 0.0),
    (2.0, 0.0, 0.0, 2.0),
    (1.0, 0.0, 1.0, 0.0),
    (0.0, 2.0, 0.0, 1.0),
]


def sandwich_scenario(seed):
    rng = random.Random(seed * 31 + 5)
    horizon = 4.0
    n_users = rng.choice([1, 2, 2])
    n_video = 1 if n_users == 1 else rng.choice([1, 2])
    ladder = rng.choice([(1.0, 2.0), (1.0, 2.0), (0.5, 1.0, 2.0)])
    profiles = {}
    rows = []
    for uid in range(n_users):
        video = float(rng.choice([2.0, 3.0])) if uid < n_video else 0.0
        profiles[uid] = UserProfile(
            user_id=uid,
            ladder=BitrateLadder(ladder),
            segment_len=1.0,
            buffer_cap=float(rng.choice([2.0, 3.0])),
            video_len=video,
            theta=1.0,
            phi_qdeg=rng.choice([0.0, 0.5]),
            phi_rebuf=rng.choice([0.0, 1.0]),
            c_time=0.5,
            c_data=0.1,
            w_data=0.05,
        )
        pat = rng.choice(SANDWICH_PATTERNS)
        for i, c in enumerate(pat):
            rows.append((uid, float(i), float(i + 1), c))
    cap = tr.CapacityTrace(horizon, rows)
    mob = tr.full_coop_mobility(sorted(profiles), horizon)
    return profiles, cap, mob


def test_online_welfare_below_refined_bound(verdict):
    kept = 0
    worst = math.inf
    seed = 0
    while kept < 30 and seed < 150:
        profiles, cap, mob = sandwich_scenario(seed)
        name = SCHEDULER_ROTATION[seed % 3]
        res = run(
            profiles, cap, mob, make_scheduler(name), RunConfig(horizon=cap.horizon)
        )
        inst = bd.slotted_instance(profiles, cap, mob)
        fine = bd.refine_instance(inst, 2)
        sol = bd.solve_slotted(fine, node_budget=150_000)
        seed += 1
        if not sol.exact:
            continue
        kept += 1
        worst = min(worst, sol.welfare + 1e-6 - res.social_welfare)
    ok = kept >= 30 and worst >= 0.0
    verdict(4, "online below bound", ok, f"{kept} instances, worst margin {worst:.3g}")


# ---------------------------------------------------------------------------
# 5. Paired sweep: drift-plus-penalty dominates both baselines on welfare,
# and cooperation never lowers mean bitrate, across four capacity ranges.


def test_scheduler_dominance_sweep(verdict):
    t0 = time.time()
    ranges = (0.7, 2.5, 5.0, 8.0)
    seeds = range(1, 21)
    welfare = {}
    coop_gain_ok = True
    bitrates = {}
    for name in SCHEDULER_ROTATION:
        welf, bit_fc, bit_nc = [], [], []
        for hi in ranges:
            for s in seeds:
                cfg = ScenarioConfig(capacity_hi=hi, seed=s)
                profiles = build_profiles(cfg, s)
                cap, mob, _ = build_traces(cfg, s)
                sch = make_scheduler(name, **cfg.scheduler_params(name))
                r = run(profiles, cap, mob, sch, RunConfig(horizon=cfg.horizon))
                welf.append(_metrics(r)["social_welfare"])
                # Bitrate pairing runs on an always-co-located twin so the
                # non-cooperative handicap is isolated from encounter luck.
                capf, mobf, _ = build_traces(replace(cfg, mobility="full-coop"), s)
                rf = run(profiles, capf, mobf, sch, RunConfig(horizon=cfg.horizon))
                rn = run(
                    profiles,
                    capf,
                    mobf,
                    sch,
                    RunConfig(horizon=cfg.horizon, noncoop=True),
                )
                bit_fc.append(_metrics(rf)["avg_bitrate_mbps"])
                bit_nc.append(_metrics(rn)["avg_bitrate_mbps"])
        welfare[name] = sum(welf) / len(welf)
        fc = sum(bit_fc) / len(bit_fc)
        nc = sum(bit_nc) / len(bit_nc)
        bitrates[name] = (fc, nc)
        if fc < nc:
            coop_gain_ok = False
    elapsed = time.time() - t0
    lyap = welfare["lyapunov"]
    dominant = lyap >= welfare["buffer"] and lyap >= welfare["prediction"]
    ok = dominant and coop_gain_ok and elapsed < 600.0
    detail = (
        f"welfare {lyap:.1f} vs buffer {welfare['buffer']:.1f}"
        f" / prediction {welfare['prediction']:.1f}; coop bitrate "
        + ", ".join(f"{n} {f:.3f}>={c:.3f}" for n, (f, c) in bitrates.items())
        + f"; {elapsed:.0f}s"
    )
    verdict(5, "scheduler dominance", ok, detail)


# ---------------------------------------------------------------------------
# 6. Weighting welfare harder tracks the offline bound more closely: the
# mean gap ratio at drift_weight 100 is at most the mean at 0.1.  Ample
# capacity keeps rate selection, not outage survival, the deciding lever.


def gap_trend_scenario(seed):
    rng = random.Random(seed * 131 + 7)
    horizon = 4.0
    profiles = {
        0: UserProfile(
            user_id=0,
            ladder=BitrateLadder((1.0, 2.0)),
            segment_len=1.0,
            buffer_cap=rng.choice([2.0, 3.0]),
            video_len=rng.choice([2.0, 3.0]),
            theta=rng.choice([2.0, 3.0]),
            phi_qdeg=rng.choice([0.0, 0.5]),
            phi_rebuf=1.0,
            c_time=0.5,
            c_data=0.1,
            w_data=0.05,
        )
    }
    rows = [(0, float(i), float(i + 1), rng.choice([2.0, 2.4, 2.8])) for i in range(4)]
    cap = tr.CapacityTrace(horizon, rows)
    mob = tr.full_coop_mobility([0], horizon)
    return profiles, cap, mob


@functools.cache
def exact_gap_trend_instances():
    """The first 20 gap-trend instances, from seed 0 up, whose refined
    slotted bound is exact and positive: (profiles, cap, mob, bound)."""
    found = []
    seed = 0
    while len(found) < 20 and seed < 100:
        profiles, cap, mob = gap_trend_scenario(seed)
        inst = bd.slotted_instance(profiles, cap, mob)
        fine = bd.refine_instance(inst, 2)
        sol = bd.solve_slotted(fine, node_budget=150_000)
        seed += 1
        if sol.exact and sol.welfare > 1e-9:
            found.append((profiles, cap, mob, sol.welfare))
    return found


def bound_shares(scheduler):
    """Each exact gap-trend instance's welfare under `scheduler`, as a share
    of its bound."""
    return [
        run(profiles, cap, mob, scheduler, RunConfig(horizon=cap.horizon)).social_welfare / bound
        for profiles, cap, mob, bound in exact_gap_trend_instances()
    ]


def test_drift_weight_gap_trend(verdict):
    pairs = len(exact_gap_trend_instances())
    gaps = {
        lam: [1.0 - share for share in bound_shares(make_scheduler("lyapunov", drift_weight=lam))]
        for lam in (100.0, 0.1)
    }
    mean_hi = sum(gaps[100.0]) / len(gaps[100.0])
    mean_lo = sum(gaps[0.1]) / len(gaps[0.1])
    ok = pairs >= 20 and mean_hi <= mean_lo
    verdict(
        6,
        "drift-weight gap trend",
        ok,
        f"{pairs} pairs, mean gap {mean_hi:.4f} (weight 100) vs {mean_lo:.4f} (0.1)",
    )


def test_lyapunov_reaches_97_percent_of_the_exact_bound():
    # The abstract's first claim, on the only instances with an exact bound:
    # at weight 100 lyapunov's mean welfare share of the refined optimum.
    shares = bound_shares(make_scheduler("lyapunov", drift_weight=100.0))
    assert len(shares) == 20
    assert sum(shares) / len(shares) >= 0.97


# ---------------------------------------------------------------------------
# 7. Arithmetic goldens, each checked against its closed-form expression.

GOLDEN_LADDER = BitrateLadder((0.2, 0.4, 0.7, 1.3, 2.3))


def golden_profile(uid):
    return UserProfile(
        user_id=uid,
        ladder=GOLDEN_LADDER,
        segment_len=2.0,
        buffer_cap=40.0,
        video_len=100.0,
    )


def test_arithmetic_goldens(verdict):
    from coopstream.schedulers import PeerInfo, SchedulerView

    def golden_peer(uid, buffer, started=True):
        return PeerInfo(
            profile=golden_profile(uid),
            buffer=buffer,
            last_bitrate=None,
            remaining=10,
            inflight=0,
            playback_started=started,
            playback_finished=False,
            room_at=buffer + 2.0 - 40.0,
        )

    # Lyapunov's score at level 5 over a 2.3 Mbps link (2 s) for an owner
    # that has not started, at buffer 0, fetching its own segment.
    def waiting_owner_score(bystanders, weight):
        owner = golden_peer(1, 0.0, started=False)
        v = SchedulerView(
            profile=golden_profile(1), capacity=2.3, peers=(owner, *bystanders), history=(), pending=(owner,)
        )
        return lyapunov_scores(v, [owner], weight)[0][5 - 1]

    checks = []
    # Beside a bystander at q=10 of Q=40 the score at weight 0 is the drift
    # alone: the bystander drained for 2 s, 0.5*(32^2 - 30^2) = 62, and the
    # owner filled from 0 to 2, 0.5*(38^2 - 40^2) = -78.
    drift = waiting_owner_score((golden_peer(2, 10.0),), 0.0)
    checks.append(("drift -16", abs(drift - (0.5 * (32**2 - 30**2) + 0.5 * (38**2 - 40**2)))))

    # Both buffers nearly full: wait for the smaller shortfall, 39+2-40 = 1 s,
    # at t = 0, where both buffers last filled.
    peers = (golden_peer(1, 39.5), golden_peer(2, 39.0))
    v = SchedulerView(
        profile=golden_profile(1), capacity=2.3, peers=peers, history=(), pending=peers
    )
    got = lyapunov_decide(v)
    assert isinstance(got, Wait)
    checks.append(("wait 1.0s", abs(got.until - 1.0)))

    # Alone, the score at weight 0 less the score at weight 1 is the
    # one-step welfare: 2*ln(1+2.3) value, 1.0+0.46 energy, and no stall
    # for the wait for the first segment.
    welfare = waiting_owner_score((), 0.0) - waiting_owner_score((), 1.0)
    checks.append(("welfare 0.92785", abs(welfare - (2.0 * math.log(3.3) - 1.46))))

    worst = max(err for _, err in checks)
    ok = worst <= 1e-9
    verdict(7, "arithmetic goldens", ok, f"worst |err| {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Byte-identical summary.csv when config and seed repeat.


def test_summary_csv_is_deterministic(verdict, tmp_path):
    cfg = ScenarioConfig(
        n_users=4,
        horizon=40.0,
        video_len=20.0,
        segment_len=2.0,
        buffer_cap=12.0,
        repetitions=2,
        seed=11,
    )
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_experiment(cfg, str(d))
    blobs = [(d / "summary.csv").read_bytes() for d in dirs]
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    verdict(8, "deterministic summary", ok, f"{len(blobs[0])} bytes, rerun identical")


# ---------------------------------------------------------------------------
# 9. Coordination accounting around a mid-run outage: peers keep the cut-off
# user fed over WiFi, and READY traffic stops once all are idle, their quiet
# stretches counted as sleeps.


def test_outage_coordination_accounting(verdict):
    horizon = 120.0
    profiles = {}
    cap_rows = [(0, 0.0, 120.0, 3.5), (2, 0.0, 120.0, 3.5)]
    cap_rows += [(1, 0.0, 25.0, 3.5), (1, 25.0, 75.0, 0.0), (1, 75.0, 120.0, 3.5)]
    mob_rows = []
    for uid in range(3):
        profiles[uid] = UserProfile(
            user_id=uid,
            ladder=GOLDEN_LADDER,
            segment_len=2.0,
            buffer_cap=20.0,
            video_len=60.0,
            theta=1.0,
            phi_qdeg=1.0,
            phi_rebuf=1.0,
            c_time=0.5,
            c_data=0.1,
            w_data=0.05,
        )
        # One shared hotspot, rowed in 10 s spans: every boundary wakes the
        # parked users, but a wake-up frees no radio, so it sends no READY.
        for k in range(12):
            mob_rows.append((uid, 10.0 * k, 10.0 * (k + 1), 1))
    cap = tr.CapacityTrace(horizon, cap_rows)
    mob = tr.MobilityTrace(horizon, mob_rows)
    res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=horizon))

    outage = [r for r in res.receives[1].records if 25.0 < r.t_end <= 75.0]
    helpers = {r.downloader for r in outage}
    finish = max(r.t_end for rx in res.receives.values() for r in rx.records)
    msgs = res.messages
    # After the last delivery every user is idle, and no READY may come
    # later than one ack_window (10 s) plus one 10 s wake cycle after it;
    # the quiet stretches that follow are sleeps.
    quiet_after = finish + 10.0 + 10.0 + 1.0
    late = msgs.last_ready is not None and msgs.last_ready > quiet_after
    ok = bool(outage) and 1 not in helpers and msgs.sleep >= 3 and not late
    verdict(
        9,
        "outage coordination",
        ok,
        f"{len(outage)} outage deliveries by {sorted(helpers)}, "
        f"sleep {msgs.sleep}, last READY "
        f"{'none' if msgs.last_ready is None else f'{msgs.last_ready:.1f}s'} "
        f"<= quiet {quiet_after:.1f}s",
    )
