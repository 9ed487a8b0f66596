"""Slotted offline bound: solver goldens, oracle agreement, refinement."""

import json
import math

import pytest

import coopstream.traces as tr
from coopstream.bound import (
    BoundError,
    SlottedInstance,
    SlottedPlan,
    bound_region,
    plan_violations,
    refine_instance,
    region_to_dict,
    slotted_breakdowns,
    slotted_instance,
    slotted_welfare,
    solve_slotted,
    write_region_json,
)
from coopstream.model import (
    BitrateLadder,
    DownloadRecord,
    DownloadSequence,
    UserProfile,
    derive_receive_sequences,
)
from coopstream.welfare import welfare_breakdowns

from slotted_oracle import (
    OracleOverflow,
    best_plan,
    count_plans,
    enumerate_plans,
    micro_instance,
    prefix_instance,
    reference_solve_slotted,
)


def profile(uid, rates, *, beta=1.0, cap=10.0, video=2.0, theta=1.0,
            phi_q=0.0, phi_r=0.0, c_time=0.0, c_data=0.0, w_data=0.0):
    return UserProfile(
        user_id=uid,
        ladder=BitrateLadder(tuple(rates)),
        segment_len=beta,
        buffer_cap=cap,
        video_len=video,
        theta=theta,
        phi_qdeg=phi_q,
        phi_rebuf=phi_r,
        c_time=c_time,
        c_data=c_data,
        w_data=w_data,
    )


def instance(profiles, capacity, together=None):
    slots = len(next(iter(capacity.values())))
    return SlottedInstance(
        {p.user_id: p for p in profiles},
        slots,
        {u: tuple(row) for u, row in capacity.items()},
        dict(together or {}),
    )


# ---------------------------------------------------------------------------
# Solver goldens on hand-solvable instances.


def test_tight_slots_force_low_rate():
    # 1 Mbit per slot affords one rate-1 segment, never the rate-2 one.
    p = profile(0, (1.0, 2.0), cap=2.0, video=2.0)
    inst = instance([p], {0: (1.0, 1.0)})
    res = solve_slotted(inst)
    assert res.exact
    assert res.welfare == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert res.plan.entries() == [(0, 0, 1, 1, 1), (0, 0, 1, 2, 1)]


def test_burst_slot_prefers_two_low_over_one_high():
    # 2 Mbit in one slot: two rate-1 segments beat a single rate-2 one.
    p = profile(0, (1.0, 2.0), cap=2.0, video=2.0)
    inst = instance([p], {0: (2.0, 0.0)})
    res = solve_slotted(inst)
    assert res.exact
    assert 2.0 * math.log(2.0) > math.log(3.0)  # the comparison being made
    assert res.welfare == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert res.plan.entries() == [(0, 0, 1, 1, 2)]


def test_energy_terms_enter_the_objective():
    p = profile(0, (2.3,), beta=2.0, cap=4.0, video=2.0,
                c_time=0.5, c_data=0.1)
    inst = instance([p], {0: (4.6,)})
    res = solve_slotted(inst)
    expected = 2.0 * math.log(3.3) - (0.5 * (4.6 / 4.6) + 0.1 * 4.6)
    assert res.welfare == pytest.approx(expected, abs=1e-12)
    b = slotted_breakdowns(res.plan, inst)[0]
    assert b.value == pytest.approx(2.0 * math.log(3.3), abs=1e-12)
    assert b.energy_cell == pytest.approx(0.96, abs=1e-12)


def test_helper_carries_dead_link_user():
    owner = profile(0, (2.0,), cap=2.0, video=2.0)
    helper = profile(1, (1.0,), video=0.0, c_time=0.5, c_data=0.1, w_data=0.05)
    inst = instance(
        [owner, helper],
        {0: (0.0, 0.0), 1: (2.0, 2.0)},
        {(0, 1): (True, True)},
    )
    res = solve_slotted(inst)
    assert res.exact
    # Per slot: value ln 3, helper pays 0.5 + 0.2 cellular and 0.1 local.
    assert res.welfare == pytest.approx(2.0 * (math.log(3.0) - 0.8), abs=1e-12)
    assert all(n == 1 and m == 0 for n, m, z, s, c in res.plan.entries())
    parts = slotted_breakdowns(res.plan, inst)
    assert parts[0].welfare == pytest.approx(2.0 * math.log(3.0), abs=1e-12)
    assert parts[1].energy_wifi == pytest.approx(0.2, abs=1e-12)


def test_data_moved_in_a_dead_slot_is_a_bound_error():
    p = profile(0, (1.0, 2.0), cap=2.0, video=2.0)
    inst = instance([p], {0: (0.0, 2.0)})
    plan = SlottedPlan(2, {(0, 0, 1, 1): 1})
    assert any("slot capacity" in v for v in plan_violations(plan, inst))
    with pytest.raises(BoundError, match="user 0 .* slot 1,"):
        slotted_breakdowns(plan, inst)


def test_dead_capacity_and_helper_only_are_zero():
    p = profile(0, (1.0,), video=2.0)
    res = solve_slotted(instance([p], {0: (0.0, 0.0)}))
    assert res.exact and res.welfare == 0.0 and res.plan.entries() == []
    h = profile(1, (1.0,), video=0.0)
    res = solve_slotted(instance([h], {1: (5.0, 5.0)}))
    assert res.exact and res.welfare == 0.0 and res.plan.entries() == []


def test_unprofitable_download_is_declined():
    # Energy swamps the log value at every level, so idle wins.
    p = profile(0, (1.0, 2.0), video=2.0, c_time=0.0, c_data=5.0)
    res = solve_slotted(instance([p], {0: (2.0, 2.0)}))
    assert res.exact and res.welfare == 0.0 and res.plan.entries() == []


# ---------------------------------------------------------------------------
# Plan checker.


def test_plan_violations_accepts_the_solver_optimum():
    inst = micro_instance(3)
    res = solve_slotted(inst)
    assert plan_violations(res.plan, inst) == []


def _catalog_instance():
    owner = profile(0, (1.0, 2.0), cap=2.0, video=2.0)
    helper = profile(1, (1.0,), video=0.0)
    return instance(
        [owner, helper],
        {0: (2.0, 2.0), 1: (2.0, 0.0)},
        {(0, 1): (True, False)},
    )


@pytest.mark.parametrize(
    "kappa, needle",
    [
        ({(0, 0, 1, 1): -1}, "negative count"),
        ({(7, 0, 1, 1): 1}, "unknown user"),
        ({(0, 1, 1, 1): 1}, "owns no video"),
        ({(0, 0, 3, 1): 1}, "not on owner"),
        ({(0, 0, 1, 9): 1}, "out of range"),
        ({(1, 0, 1, 2): 1}, "not co-located"),
        ({(0, 0, 2, 1): 2}, "slot capacity"),
        ({(0, 0, 1, 1): 2, (0, 0, 1, 2): 1}, "segments planned"),
    ],
)
def test_plan_violations_catalog(kappa, needle):
    inst = _catalog_instance()
    bad = plan_violations(SlottedPlan(inst.slots, dict(kappa)), inst)
    assert any(needle in msg for msg in bad), bad


def test_plan_violations_buffer_overflow():
    p = profile(0, (1.0,), cap=1.0, video=3.0)
    inst = instance([p], {0: (3.0, 3.0)})
    bad = plan_violations(SlottedPlan(2, {(0, 0, 1, 1): 2}), inst)
    assert any("buffer" in msg for msg in bad), bad
    assert plan_violations(SlottedPlan(2, {(0, 0, 1, 1): 1, (0, 0, 1, 2): 1}), inst) == []


# ---------------------------------------------------------------------------
# Discretisation of continuous traces.


def test_slotted_instance_discretizes_capacity_per_unit_slot():
    cap = tr.CapacityTrace(3.0, [(0, 0.0, 1.0, 2.0), (0, 1.0, 3.0, 0.5),
                                 (1, 0.0, 3.0, 1.0)])
    mob = tr.MobilityTrace(3.0, [(0, 0.0, 3.0, 1), (1, 0.0, 2.0, 1),
                                 (1, 2.0, 3.0, 2)])
    profs = {0: profile(0, (1.0,), video=2.0), 1: profile(1, (1.0,), video=0.0)}
    inst = slotted_instance(profs, cap, mob)
    assert inst.slots == 3
    assert inst.capacity[0] == (2.0, 0.5, 0.5)
    assert inst.capacity[1] == (1.0, 1.0, 1.0)
    # Co-location must hold through the whole slot, boundary included.
    assert inst.together[(0, 1)] == (True, False, False)
    assert inst.can_pair(0, 1, 1) and not inst.can_pair(0, 1, 2)
    assert inst.can_pair(0, 0, 3)


def test_slotted_instance_noncoop_drops_pairings():
    cap = tr.constant_capacity({0: 1.0, 1: 1.0}, 2.0)
    mob = tr.full_coop_mobility([0, 1], 2.0)
    profs = {0: profile(0, (1.0,)), 1: profile(1, (1.0,))}
    inst = slotted_instance(profs, cap, mob, noncoop=True)
    assert inst.together == {}
    assert not inst.can_pair(0, 1, 1)
    assert inst.can_pair(1, 1, 1)


def test_slotted_instance_rejects_traces_shorter_than_a_slot():
    cap = tr.constant_capacity({0: 1.0}, 0.5)
    mob = tr.full_coop_mobility([0], 0.5)
    with pytest.raises(BoundError, match="cannot fit 0 unit slots into horizon 0.5"):
        slotted_instance({0: profile(0, (1.0,))}, cap, mob)


# ---------------------------------------------------------------------------
# Refinement.


def test_refine_instance_halves_video_segments_only():
    owner = profile(0, (1.0,), beta=2.0, video=8.0)
    helper = profile(1, (1.0,), beta=2.0, video=0.0)
    inst = instance([owner, helper], {0: (1.0,), 1: (1.0,)})
    fine = refine_instance(inst, 2)
    assert fine.profiles[0].segment_len == pytest.approx(0.5)
    assert fine.profiles[0].num_segments == 16
    assert fine.profiles[1].segment_len == 2.0
    assert refine_instance(inst, 0).profiles[0].num_segments == 4
    with pytest.raises(BoundError):
        refine_instance(inst, -1)


def test_bound_region_rejects_negative_halvings():
    inst = micro_instance(1)
    with pytest.raises(BoundError):
        bound_region(inst, -1)


def test_refinement_is_monotone_on_micro_instances():
    # Seeds whose beta/2 and beta/4 solves stay within the node budget.
    checked = 0
    for seed in (1, 2, 3, 6, 7, 10, 18, 19, 21, 23):
        inst = micro_instance(seed)
        region = bound_region(inst, halvings=2, node_budget=120_000)
        assert all(region.exact)
        assert region.values[1] >= region.values[0] - 1e-9
        assert region.values[2] >= region.values[1] - 1e-9
        assert region.upper == region.values[-1]
        checked += 1
    assert checked == 10


# ---------------------------------------------------------------------------
# Exhaustive-oracle agreement.


def test_solver_matches_exhaustive_oracle():
    compared = 0
    for seed in range(25):
        inst = micro_instance(seed)
        try:
            oracle_w, oracle_plan, n_plans = best_plan(inst, cap=200_000)
        except OracleOverflow:
            continue
        res = solve_slotted(inst)
        assert res.exact, f"seed {seed} not solved exactly"
        assert res.welfare == oracle_w, f"seed {seed}: {res.welfare} != {oracle_w}"
        assert plan_violations(res.plan, inst) == []
        assert slotted_welfare(res.plan, inst) == res.welfare
        assert n_plans >= 1  # the empty plan always counts
        compared += 1
    assert compared >= 20


def _enumerated_instances():
    """(instance, every feasible plan) for micro-instances with few plans."""
    out = []
    for seed in range(30):
        inst = micro_instance(seed)
        try:
            out.append((inst, list(enumerate_plans(inst, cap=2_000))))
        except OracleOverflow:
            continue
    assert len(out) >= 25
    return out


def test_every_enumerated_plan_passes_the_checker():
    # The oracle applies its own feasibility rule while enumerating, so
    # plan_violations is checked against an independent statement of it.
    for inst, plans in _enumerated_instances():
        for plan in plans:
            assert plan_violations(plan, inst) == [], plan.kappa


def test_scores_do_not_depend_on_how_the_plan_dict_was_built():
    for inst, plans in _enumerated_instances():
        owner = inst.video_users()[0]
        top = inst.profiles[owner].ladder.top
        for plan in plans:
            rebuilt = dict(reversed(list(plan.kappa.items())))
            unused = [
                (owner, owner, z, s)
                for s in range(1, inst.slots + 1)
                for z in range(1, top + 1)
                if (owner, owner, z, s) not in plan.kappa
            ]
            if unused:
                rebuilt[unused[0]] = 0
            other = SlottedPlan(plan.slots, rebuilt)
            assert slotted_breakdowns(other, inst) == slotted_breakdowns(plan, inst)
            assert plan_violations(other, inst) == plan_violations(plan, inst)
            # One segment too many: the violation lists still agree.
            over = (owner, owner, top, 1)
            extra = plan.kappa.get(over, 0) + 1
            as_built = SlottedPlan(plan.slots, {**plan.kappa, over: extra})
            rebuilt_plus = SlottedPlan(plan.slots, {**rebuilt, over: extra})
            assert plan_violations(rebuilt_plus, inst) == plan_violations(as_built, inst)


def _same_search(inst, budget):
    got = solve_slotted(inst, budget)
    ref = reference_solve_slotted(inst, budget)
    assert (got.nodes, got.exact, got.welfare, got.plan.kappa) == (
        ref.nodes, ref.exact, ref.welfare, ref.plan.kappa
    )
    return got


def test_incremental_search_matches_full_rescoring_on_micro_instances():
    # Carrying the prefix welfare must prune and accept exactly where
    # re-scoring the whole plan at every step does.
    for seed in range(200):
        _same_search(micro_instance(seed), 2_000_000)


@pytest.mark.parametrize("halvings", [0, 1, 2])
def test_incremental_search_matches_full_rescoring_when_budget_limited(halvings):
    # Cut by the budget, the two searches agree only if they visit the
    # same nodes in the same order and keep the same incumbents.
    for seed in range(20):
        got = _same_search(prefix_instance(seed, halvings), 2_000)
        assert not got.exact, f"seed {seed} solved within the budget"


def test_oracle_overflow_trips_at_the_cap():
    inst = micro_instance(5)
    n = count_plans(inst, cap=200_000)
    assert n > 1
    with pytest.raises(OracleOverflow):
        count_plans(inst, cap=n - 1)


def test_node_budget_degrades_to_a_feasible_lower_welfare():
    inst = micro_instance(5)
    full = solve_slotted(inst)
    assert full.exact and full.nodes > 25
    cut = solve_slotted(inst, node_budget=25)
    assert not cut.exact
    assert cut.welfare <= full.welfare + 1e-12
    assert plan_violations(cut.plan, inst) == []
    region = bound_region(inst, halvings=0, node_budget=25)
    assert region.exact == (False,)


# ---------------------------------------------------------------------------
# Slotted vs segmented welfare on aligned plans.


def test_slotted_welfare_equals_segmented_welfare_term_by_term():
    cap = tr.constant_capacity({0: 2.0, 1: 2.0}, 2.0)
    mob = tr.full_coop_mobility([0, 1], 2.0)
    owner = profile(0, (1.0, 2.0), cap=3.0, video=2.0, phi_q=0.7, phi_r=1.3,
                    c_time=0.5, c_data=0.1, w_data=0.05)
    helper = profile(1, (1.0,), video=0.0, phi_q=0.7, phi_r=1.3,
                     c_time=0.5, c_data=0.1, w_data=0.05)
    profs = {0: owner, 1: helper}
    inst = slotted_instance(profs, cap, mob)
    plan = SlottedPlan(2, {(0, 0, 2, 1): 1, (1, 0, 1, 2): 1})

    slotted = slotted_breakdowns(plan, inst)
    # The owner's own slot-1 batch ends on the slot boundary; the helper's
    # slot-2 segment lands as late as slot 2 allows.
    seqs = {
        0: DownloadSequence(0, [DownloadRecord(0, 0, 1, 2, 0.0, 1.0)]),
        1: DownloadSequence(1, [DownloadRecord(1, 0, 2, 1, 1.5, 2.0)]),
    }
    segmented = welfare_breakdowns(seqs, profs)
    for uid in profs:
        s, g = slotted[uid], segmented[uid]
        assert g.value == pytest.approx(s.value, abs=1e-9)
        assert g.loss_qdeg == pytest.approx(s.loss_qdeg, abs=1e-9)
        assert g.loss_rebuf == pytest.approx(s.loss_rebuf, abs=1e-9)
        assert g.energy_cell == pytest.approx(s.energy_cell, abs=1e-9)
        assert g.energy_wifi == pytest.approx(s.energy_wifi, abs=1e-9)
    # The owner really pays the downgrade from rate 2 to rate 1.
    assert slotted[0].loss_qdeg == pytest.approx(0.7, abs=1e-12)
    assert sum(b.welfare for b in segmented.values()) == pytest.approx(
        slotted_welfare(plan, inst), abs=1e-9
    )


def test_rebuffering_charge_survives_the_mapping():
    # Receipts in slots 1 and 3 leave a dry stretch that both models price.
    cap = tr.constant_capacity({0: 1.0}, 3.0)
    mob = tr.full_coop_mobility([0], 3.0)
    p = profile(0, (1.0,), cap=2.0, video=2.0, phi_r=1.3)
    inst = slotted_instance({0: p}, cap, mob)
    plan = SlottedPlan(3, {(0, 0, 1, 1): 1, (0, 0, 1, 3): 1})
    assert plan_violations(plan, inst) == []

    s = slotted_breakdowns(plan, inst)[0]
    assert s.loss_rebuf == pytest.approx(1.3, abs=1e-12)
    seqs = {
        0: DownloadSequence(0, [
            DownloadRecord(0, 0, 1, 1, 0.0, 1.0),
            DownloadRecord(0, 0, 2, 1, 2.0, 3.0),
        ])
    }
    g = welfare_breakdowns(seqs, {0: p})[0]
    assert g.loss_rebuf == pytest.approx(1.3, abs=1e-9)
    assert g.welfare == pytest.approx(s.welfare, abs=1e-9)


def test_free_segmented_schedule_beats_the_slotted_optimum():
    # Continuous scheduling is a relaxation of the slot grid, so the best
    # back-to-back plan must reach at least the slotted optimum.
    h = 2.0
    p = profile(0, (1.0, 2.0), cap=100.0, video=3.0, phi_q=0.4, phi_r=1.1,
                c_time=0.5, c_data=0.1)
    cap = tr.constant_capacity({0: h}, 3.0)
    mob = tr.full_coop_mobility([0], 3.0)
    inst = slotted_instance({0: p}, cap, mob)
    slotted_opt = solve_slotted(inst)
    assert slotted_opt.exact

    best = 0.0
    for k in range(0, 4):
        for levels in _level_tuples(p.ladder.top, k):
            t = 0.0
            records = []
            for i, z in enumerate(levels):
                vol = p.ladder.rate(z) * p.segment_len
                te = t + vol / h
                records.append(
                    DownloadRecord(0, 0, i + 1, z, t, te)
                )
                t = te
            if t > 3.0 + 1e-9:
                continue
            seqs = {0: DownloadSequence(0, records)}
            best = max(best, sum(b.welfare for b in welfare_breakdowns(seqs, {0: p}).values()))
    assert best >= slotted_opt.welfare - 1e-9


def _level_tuples(top, k):
    if k == 0:
        yield ()
        return
    for z in range(1, top + 1):
        for rest in _level_tuples(top, k - 1):
            yield (z,) + rest


# ---------------------------------------------------------------------------
# Export formats.


def test_region_export(tmp_path):
    inst = micro_instance(3)
    region = bound_region(inst, halvings=1)
    d = region_to_dict(region)
    assert d["upper_estimate"] == region.upper
    assert [lv["nodes"] for lv in d["levels"]] == list(region.nodes)
    assert len(d["levels"]) == 2
    out = tmp_path / "region.json"
    write_region_json(region, str(out))
    assert json.loads(out.read_text()) == d
    # A budget-limited finest level gives no estimate.
    cut = bound_region(inst, halvings=1, node_budget=10)
    assert not cut.exact[-1] and cut.upper is None
    assert region_to_dict(cut)["upper_estimate"] is None
