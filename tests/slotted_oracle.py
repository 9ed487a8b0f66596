"""Exhaustive reference optimizer for slotted download plans.

Enumerates every feasible count assignment outright and keeps the best
scored plan.  No bounding, no pruning, and a deliberately different
variable order than the production solver (owner-major, counts ascending),
so agreement between the two is evidence rather than shared structure.
Intended for test instances only; raises once the plan count passes `cap`.

`reference_solve_slotted` keeps the branch-and-bound search that re-scored
the whole partial plan at every step, as the reference the incremental
production search must match node for node.
"""

from __future__ import annotations

import random
from typing import Iterator

from coopstream import harness
from coopstream.bound import (
    SlottedInstance,
    SlottedPlan,
    SolveResult,
    _Budget,
    refine_instance,
    slotted_instance,
    slotted_welfare,
)
from coopstream.model import BitrateLadder, UserProfile, segment_volume
from coopstream.welfare import quality_value

_VOL_EPS = 1e-9
_TIME_EPS = 1e-9


class OracleOverflow(RuntimeError):
    """The instance has more feasible plans than the enumeration cap."""


def _slot_variables(instance: SlottedInstance) -> list[list[tuple[int, int, int]]]:
    profs = instance.profiles
    users = sorted(profs)
    vids = instance.video_users()
    out: list[list[tuple[int, int, int]]] = []
    for s in range(1, instance.slots + 1):
        vs = []
        for m in vids:
            for z in range(1, profs[m].ladder.top + 1):
                for n in users:
                    if instance.capacity[n][s - 1] <= _VOL_EPS:
                        continue
                    if not instance.can_pair(n, m, s):
                        continue
                    vs.append((n, m, z))
        out.append(vs)
    return out


def enumerate_plans(instance: SlottedInstance, cap: int = 200_000) -> Iterator[SlottedPlan]:
    """Yield every feasible plan for `instance`, the empty plan included.

    Feasibility means: per-slot download volume within each user's slot
    capacity, downloads only across co-located pairs, per-owner totals
    within the video's segment count, and the owner buffer recursion
    q <- max(q - 1, 0) + gained staying at or under the cap after every
    slot.  Raises OracleOverflow on the plan after `cap`.
    """
    profs = instance.profiles
    T = instance.slots
    users = sorted(profs)
    vids = instance.video_users()
    slot_vars = _slot_variables(instance)

    kappa: dict[tuple[int, int, int, int], int] = {}
    rem = {m: profs[m].num_segments for m in vids}
    qlevel = {m: 0.0 for m in vids}
    emitted = 0

    def per_slot(s: int) -> Iterator[SlottedPlan]:
        nonlocal emitted
        if s > T:
            emitted += 1
            if emitted > cap:
                raise OracleOverflow(f"more than {cap} feasible plans")
            yield SlottedPlan(T, dict(kappa))
            return
        vs = slot_vars[s - 1]
        used = {n: 0.0 for n in users}
        gained = {m: 0.0 for m in vids}

        def assign(i: int) -> Iterator[SlottedPlan]:
            if i == len(vs):
                saved = dict(qlevel)
                for m in vids:
                    qlevel[m] = max(qlevel[m] - 1.0, 0.0) + gained[m]
                yield from per_slot(s + 1)
                qlevel.update(saved)
                return
            n, m, z = vs[i]
            vol = segment_volume(profs[m], z)
            beta = profs[m].segment_len
            cap_left = instance.capacity[n][s - 1] - used[n]
            room = profs[m].buffer_cap - max(qlevel[m] - 1.0, 0.0) - gained[m]
            cmax = min(
                rem[m],
                int((cap_left + _VOL_EPS) / vol),
                int((room + _TIME_EPS) / beta),
            )
            key = (n, m, z, s)
            for c in range(0, max(cmax, 0) + 1):
                if c > 0:
                    kappa[key] = c
                    used[n] += c * vol
                    gained[m] += c * beta
                    rem[m] -= c
                yield from assign(i + 1)
                if c > 0:
                    del kappa[key]
                    used[n] -= c * vol
                    gained[m] -= c * beta
                    rem[m] += c

        yield from assign(0)

    yield from per_slot(1)


def micro_instance(seed: int) -> SlottedInstance:
    """A small random slotted instance, sized for exhaustive enumeration.

    One to three users (the lowest ids own a short video), two or three
    unit slots, tiny ladders, and mixed QoE and energy coefficients so the
    optimum is rarely a corner case.
    """
    rng = random.Random(seed)
    n_users = rng.randint(1, 3)
    n_video = 1 if n_users == 1 else rng.randint(1, 2)
    ladders = [(1.0,), (1.0, 2.0), (0.5, 1.0, 2.0)]
    profiles: dict[int, UserProfile] = {}
    for uid in range(n_users):
        video_len = float(rng.randint(1, 3)) if uid < n_video else 0.0
        profiles[uid] = UserProfile(
            user_id=uid,
            ladder=BitrateLadder(rng.choice(ladders)),
            segment_len=1.0,
            buffer_cap=float(rng.randint(1, 3)),
            video_len=video_len,
            theta=1.0,
            phi_qdeg=rng.choice([0.0, 0.5]),
            phi_rebuf=rng.choice([0.0, 1.0]),
            c_time=0.5,
            c_data=0.1,
            w_data=0.05,
        )
    slots = rng.randint(2, 4)
    capacity = {
        uid: tuple(rng.choice([0.0, 0.5, 1.0, 2.0, 2.5]) for _ in range(slots))
        for uid in profiles
    }
    together = {
        (a, b): tuple(rng.random() < 0.7 for _ in range(slots))
        for a in range(n_users)
        for b in range(a + 1, n_users)
    }
    return SlottedInstance(profiles, slots, capacity, together)


def prefix_instance(seed: int, halvings: int) -> SlottedInstance:
    """The 2-user, 3-slot prefix of a full-coop default scenario.

    Both links stay live (capacity_lo = 1) and the pair is always
    together, so the search space is large and small node budgets run out;
    segments are halved `halvings` times.
    """
    cfg = harness.ScenarioConfig(
        mobility="full-coop", capacity_lo=1.0, bound_horizon=3, seed=seed
    )
    profiles = harness.build_profiles(cfg, seed)
    cap, mob, noncoop = harness.build_traces(cfg, seed)
    sub = harness._bound_subinstance(cfg, profiles, cap, mob)
    return refine_instance(slotted_instance(*sub, noncoop=noncoop), halvings)


def count_plans(instance: SlottedInstance, cap: int = 200_000) -> int:
    """Number of feasible plans, or raise OracleOverflow past `cap`."""
    n = 0
    for _ in enumerate_plans(instance, cap):
        n += 1
    return n


def best_plan(
    instance: SlottedInstance, cap: int = 200_000
) -> tuple[float, SlottedPlan, int]:
    """(optimal welfare, an optimal plan, number of feasible plans)."""
    best_w: float | None = None
    best: SlottedPlan | None = None
    n = 0
    for plan in enumerate_plans(instance, cap):
        n += 1
        w = slotted_welfare(plan, instance)
        if best_w is None or w > best_w:
            best_w = w
            best = plan
    assert best_w is not None and best is not None
    return best_w, best, n


def reference_solve_slotted(
    instance: SlottedInstance, node_budget: int = 2_000_000
) -> SolveResult:
    """The branch-and-bound search that re-scores the whole plan at every step.

    Same variable order, count enumeration, optimistic bound and prune as
    `coopstream.bound.solve_slotted`, but the prefix welfare of every slot
    step and every leaf is `slotted_welfare` of the whole partial plan.
    The production solver builds the prefix slot by slot instead, so the
    two must agree on nodes, exactness, welfare and plan.
    """
    profs = instance.profiles
    T = instance.slots
    users = sorted(profs)
    vids = instance.video_users()
    slot_vars: list[list[tuple[int, int, int]]] = []
    for s in range(1, T + 1):
        vs = []
        for n in users:
            if instance.capacity[n][s - 1] <= _VOL_EPS:
                continue
            for m in vids:
                if not instance.can_pair(n, m, s):
                    continue
                for z in range(1, profs[m].ladder.top + 1):
                    vs.append((n, m, z))
        slot_vars.append(vs)
    suffix_cap = [0.0] * (T + 2)
    for s in range(T, 0, -1):
        suffix_cap[s] = suffix_cap[s + 1] + sum(instance.capacity[n][s - 1] for n in users)
    best_rate = 0.0
    for m in vids:
        p = profs[m]
        for z in range(1, p.ladder.top + 1):
            r = p.ladder.rate(z)
            best_rate = max(best_rate, quality_value(p.theta, r) / r)

    kappa: dict[tuple[int, int, int, int], int] = {}
    rem = {m: profs[m].num_segments for m in vids}
    qlevel = {m: 0.0 for m in vids}
    state = {
        "best_w": slotted_welfare(SlottedPlan(T, {}), instance),
        "best_plan": {},
        "nodes": 0,
    }

    def optimistic(slot: int) -> float:
        prefix = slotted_welfare(SlottedPlan(T, dict(kappa)), instance)
        seg_cap = sum(
            rem[m] * profs[m].segment_len * quality_value(profs[m].theta, profs[m].ladder.rates[-1])
            for m in vids
        )
        return prefix + min(best_rate * suffix_cap[slot], seg_cap)

    def slot_step(slot: int):
        if slot > T:
            w = slotted_welfare(SlottedPlan(T, dict(kappa)), instance)
            if w > state["best_w"]:
                state["best_w"] = w
                state["best_plan"] = dict(kappa)
            return
        if optimistic(slot) <= state["best_w"] + 1e-12:
            return
        vs = slot_vars[slot - 1]
        used = {n: 0.0 for n in users}
        gained = {m: 0.0 for m in vids}
        headroom = {
            m: profs[m].buffer_cap - max(qlevel[m] - 1.0, 0.0) for m in vids
        }

        def assign(i: int):
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                raise _Budget
            if i == len(vs):
                saved_q = dict(qlevel)
                for m in vids:
                    qlevel[m] = max(qlevel[m] - 1.0, 0.0) + gained[m]
                slot_step(slot + 1)
                qlevel.update(saved_q)
                return
            n, m, z = vs[i]
            vol = segment_volume(profs[m], z)
            beta = profs[m].segment_len
            cap_left = instance.capacity[n][slot - 1] - used[n]
            room = headroom[m] - gained[m]
            cmax = max(
                0,
                min(
                    rem[m],
                    int((cap_left + _VOL_EPS) / vol),
                    int((room + _TIME_EPS) / beta),
                ),
            )
            key = (n, m, z, slot)
            for c in range(cmax, -1, -1):
                if c > 0:
                    kappa[key] = c
                    used[n] += c * vol
                    gained[m] += c * beta
                    rem[m] -= c
                assign(i + 1)
                if c > 0:
                    del kappa[key]
                    used[n] -= c * vol
                    gained[m] -= c * beta
                    rem[m] += c

        assign(0)

    exact = True
    try:
        slot_step(1)
    except _Budget:
        exact = False
    return SolveResult(
        welfare=state["best_w"],
        plan=SlottedPlan(T, state["best_plan"]),
        exact=exact,
        nodes=state["nodes"],
    )
