"""Offline welfare bound via a one-second time-slotted relaxation.

The slotted system replaces continuous timing with unit slots: per slot a
downloader moves whole segments (integer counts per owner and level) within
its slot capacity, pairs must be co-located for the entire slot, and owner
buffers follow a per-slot drain-then-fill recursion.  Solving it exactly at
the scenario's segment length gives the coarse slotted optimum (level 0);
halving the segment length and re-solving gives the refined levels, and the
finest of them, when solved exactly, is the upper estimate.  No level is
claimed to bound the continuous optimum from below.

The exact solver is a depth-first branch-and-bound that carries the prefix
welfare slot by slot down the search; slotted_welfare stays the only
definition of a plan's score, and complete plans that may beat the
incumbent are re-scored with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import traces as tr
from .model import TIME_EPS, VOL_EPS, UserProfile, WelfareBreakdown, segment_volume
from .welfare import quality_value


class BoundError(ValueError):
    """Raised for malformed slotted instances or plans."""


@dataclass(frozen=True)
class SlottedInstance:
    """A finite slotted scenario: per-slot capacities and co-location."""

    profiles: dict[int, UserProfile]
    slots: int
    capacity: dict[int, tuple[float, ...]]               # Mbit per slot
    together: dict[tuple[int, int], tuple[bool, ...]]    # key (n, m) with n < m

    def __post_init__(self):
        if self.slots < 1:
            raise BoundError("need at least one slot")
        for uid in self.profiles:
            if uid not in self.capacity or len(self.capacity[uid]) != self.slots:
                raise BoundError(f"capacity row missing or wrong length for user {uid}")

    def can_pair(self, n: int, m: int, slot: int) -> bool:
        """True when n may download for m in `slot` (1-based)."""
        if n == m:
            return True
        key = (min(n, m), max(n, m))
        row = self.together.get(key)
        return bool(row and row[slot - 1])

    def video_users(self) -> list[int]:
        return [m for m in sorted(self.profiles) if self.profiles[m].is_video_user]


def slotted_instance(
    profiles: dict[int, UserProfile],
    cap_trace: tr.CapacityTrace,
    mob_trace: tr.MobilityTrace,
    noncoop: bool = False,
) -> SlottedInstance:
    """Discretise traces into unit slots (slot tau covers [tau-1, tau])."""
    horizon = min(cap_trace.horizon, mob_trace.horizon)
    n_slots = int(math.floor(horizon + TIME_EPS))
    if n_slots < 1:
        raise BoundError(f"cannot fit {n_slots} unit slots into horizon {horizon}")
    users = sorted(profiles)
    capacity = {
        u: tuple(
            tr.integrate_capacity(cap_trace, u, float(t), float(t + 1))
            for t in range(n_slots)
        )
        for u in users
    }
    together = {}
    if not noncoop:
        for i, n in enumerate(users):
            for m in users[i + 1 :]:
                together[(n, m)] = tuple(
                    tr.encountered_throughout(mob_trace, n, m, float(t), float(t + 1))
                    for t in range(n_slots)
                )
    return SlottedInstance(dict(profiles), n_slots, capacity, together)


def refine_instance(instance: SlottedInstance, halvings: int = 1) -> SlottedInstance:
    """Halve every video user's segment length `halvings` times."""
    if halvings < 0:
        raise BoundError("halvings must be nonnegative")
    factor = 2 ** halvings
    profiles = {
        uid: replace(p, segment_len=p.segment_len / factor) if p.is_video_user else p
        for uid, p in instance.profiles.items()
    }
    return SlottedInstance(profiles, instance.slots, instance.capacity, instance.together)


@dataclass
class SlottedPlan:
    """Download counts per (downloader, owner, level, slot); slots 1-based."""

    slots: int
    kappa: dict[tuple[int, int, int, int], int]

    def entries(self):
        """Sorted nonzero (downloader, owner, level, slot, count) tuples."""
        return [
            (n, m, z, s, c) for (n, m, z, s), c in sorted(self.kappa.items()) if c > 0
        ]


def _tally(plan: SlottedPlan, instance: SlottedInstance):
    """One pass over the plan's entries.

    Returns Mbit moved per (downloader, slot) and the rate-sorted
    (bitrate, count) receipts per (owner, slot).  Sums run in entries()
    order, so equal plans tally bit-equal however the dict was built.
    """
    profs = instance.profiles
    volume: dict[tuple[int, int], float] = {}
    by_rate: dict[tuple[int, int], dict[float, int]] = {}
    for n, m, z, s, c in plan.entries():
        volume[n, s] = volume.get((n, s), 0.0) + c * segment_volume(profs[m], z)
        acc = by_rate.setdefault((m, s), {})
        rate = profs[m].ladder.rate(z)
        acc[rate] = acc.get(rate, 0) + c
    return volume, {key: sorted(acc.items()) for key, acc in by_rate.items()}


def _buffer_levels(receipts, instance: SlottedInstance, m: int) -> list[float]:
    """Owner m's buffer (seconds) after each slot, index 0 = before slot 1.

    Each slot drains one second (never below empty), then adds the
    slot's receipts.
    """
    beta = instance.profiles[m].segment_len
    levels = [0.0]
    for s in range(1, instance.slots + 1):
        gained = sum(c for _, c in receipts.get((m, s), ())) * beta
        levels.append(max(levels[-1] - 1.0, 0.0) + gained)
    return levels


def plan_violations(plan: SlottedPlan, instance: SlottedInstance) -> list[str]:
    """Check a plan against capacity, co-location, and buffer constraints."""
    tol = 1e-9
    bad: list[str] = []
    profs = instance.profiles
    volumes_defined = True
    for (n, m, z, s), c in sorted(plan.kappa.items()):
        if c < 0:
            bad.append(f"negative count at {(n, m, z, s)}")
        if c == 0:
            continue
        if n not in profs or m not in profs:
            bad.append(f"unknown user in {(n, m, z, s)}")
            volumes_defined = False
            continue
        if not profs[m].is_video_user:
            bad.append(f"owner {m} owns no video")
            volumes_defined = False
            continue
        if not 1 <= z <= profs[m].ladder.top:
            bad.append(f"level {z} not on owner {m}'s ladder")
            volumes_defined = False
            continue
        if not 1 <= s <= instance.slots:
            bad.append(f"slot {s} out of range")
            continue
        if not instance.can_pair(n, m, s):
            bad.append(f"pair ({n}, {m}) not co-located through slot {s}")
    if not volumes_defined:
        # Segment volumes cannot be priced past these faults, so the
        # capacity and buffer checks below would only raise.
        return bad
    volume, receipts = _tally(plan, instance)
    for n in sorted(profs):
        for s in range(1, instance.slots + 1):
            vol = volume.get((n, s), 0.0)
            if vol > instance.capacity[n][s - 1] + tol:
                bad.append(
                    f"slot capacity: user {n} slot {s} moves {vol} > {instance.capacity[n][s - 1]}"
                )
    for m in instance.video_users():
        prof = profs[m]
        total = sum(c for (mm, _), got in receipts.items() if mm == m for _, c in got)
        if total > prof.num_segments:
            bad.append(f"owner {m}: {total} segments planned, video has {prof.num_segments}")
        levels = _buffer_levels(receipts, instance, m)
        for s in range(1, instance.slots + 1):
            if levels[s] > prof.buffer_cap + tol:
                bad.append(
                    f"buffer: owner {m} holds {levels[s]} s > cap {prof.buffer_cap} after slot {s}"
                )
    return bad


def slotted_breakdowns(plan: SlottedPlan, instance: SlottedInstance) -> dict[int, WelfareBreakdown]:
    """Welfare components of a slotted plan, per user.

    Receipts within one slot count in ascending bitrate order, so
    degradation is charged only across receiving slots: against the highest
    rate of the previous receiving slot.  Rebuffering charges the dry part
    of each slot between the first and last receiving slots; stretches never
    followed by a receipt stay free, mirroring the per-segment QoE terms.
    """
    profs = instance.profiles
    volume, receipts = _tally(plan, instance)
    per_user = {uid: [0.0, 0.0, 0.0, 0.0, 0.0] for uid in profs}  # v, qdeg, rebuf, cell, wifi
    for m in instance.video_users():
        prof = profs[m]
        rx_slots = [
            (s, receipts[m, s]) for s in range(1, instance.slots + 1) if (m, s) in receipts
        ]
        last_high = None
        for s, got in rx_slots:
            for rate, c in got:
                per_user[m][0] += c * prof.segment_len * quality_value(prof.theta, rate)
            if last_high is not None:
                per_user[m][1] += prof.phi_qdeg * max(last_high - got[0][0], 0.0)
            last_high = got[-1][0]
        if rx_slots:
            levels = _buffer_levels(receipts, instance, m)
            for s in range(rx_slots[0][0] + 1, rx_slots[-1][0] + 1):
                per_user[m][2] += prof.phi_rebuf * max(1.0 - levels[s - 1], 0.0)
    for n in sorted(profs):
        prof = profs[n]
        for s in range(1, instance.slots + 1):
            vol = volume.get((n, s), 0.0)
            if vol > 0.0:
                if instance.capacity[n][s - 1] <= 0.0:
                    raise BoundError(f"user {n} moves {vol} Mbit in slot {s}, which has no capacity")
                per_user[n][3] += prof.c_time * vol / instance.capacity[n][s - 1]
                per_user[n][3] += prof.c_data * vol
    for n, m, z, s, c in plan.entries():
        if m != n:
            per_user[n][4] += profs[n].w_data * c * segment_volume(profs[m], z)
    return {uid: WelfareBreakdown(*terms) for uid, terms in per_user.items()}


def slotted_welfare(plan: SlottedPlan, instance: SlottedInstance) -> float:
    """Social welfare of a slotted plan."""
    return sum(b.welfare for b in slotted_breakdowns(plan, instance).values())


# ---------------------------------------------------------------------------
# Exact solver: depth-first search over per-slot counts with feasibility
# pruning and an optimistic welfare bound.


@dataclass
class SolveResult:
    welfare: float
    plan: SlottedPlan
    exact: bool
    nodes: int


class _Budget(Exception):
    pass


def solve_slotted(instance: SlottedInstance, node_budget: int = 2_000_000) -> SolveResult:
    """Maximise slotted welfare; exact unless the node budget is exhausted.

    The search assigns counts slot by slot in a canonical variable order,
    so the returned optimum does not depend on dict ordering.  It carries
    the prefix welfare down the recursion instead of re-scoring the plan:
    when a slot's assignment closes, that slot's terms are added (value,
    cell and wifi energy, degradation against the owner's last high rate,
    and the dry-slot rebuffering held back until the owner's next
    receipt).  The carried sums round differently from slotted_breakdowns,
    which adds wifi energy in entries() order rather than slot order, so a
    complete plan that comes within 1e-9 of the incumbent is re-scored
    with slotted_welfare and accepted on that score alone.  This keeps the
    result bit-equal to exhaustive enumeration.
    """
    profs = instance.profiles
    T = instance.slots
    users = sorted(profs)
    vids = instance.video_users()
    owners = range(len(vids))
    # Per-(owner, level) tables; owner j is vids[j], levels are 1-based.
    rate = [(0.0,) + profs[m].ladder.rates for m in vids]
    vol = [[0.0] + [segment_volume(profs[m], z) for z in range(1, len(rate[j]))]
           for j, m in enumerate(vids)]
    beta = [profs[m].segment_len for m in vids]
    value = [[beta[j] * quality_value(profs[m].theta, r) for r in rate[j]]
             for j, m in enumerate(vids)]
    top_value = [quality_value(profs[m].theta, rate[j][-1]) for j, m in enumerate(vids)]
    buffer_cap = [profs[m].buffer_cap for m in vids]
    phi_qdeg = [profs[m].phi_qdeg for m in vids]
    phi_rebuf = [profs[m].phi_rebuf for m in vids]
    # Per slot: (downloader index, its capacity, owner index, level, Mbit,
    # seconds of video, welfare of one such segment net of its energy).
    slot_vars: list[list[tuple]] = []
    for s in range(1, T + 1):
        vs = []
        for i, n in enumerate(users):
            cap = instance.capacity[n][s - 1]
            if cap <= VOL_EPS:
                continue
            p = profs[n]
            for j, m in enumerate(vids):
                if not instance.can_pair(n, m, s):
                    continue
                for z in range(1, len(rate[j])):
                    v = vol[j][z]
                    energy = p.c_time * v / cap + p.c_data * v
                    if m != n:
                        energy += p.w_data * v
                    vs.append((i, cap, j, z, v, beta[j], value[j][z] - energy))
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

    # One bit per (owner, level): owner j's levels z sit at bit shift[j] + z.
    shift = [sum(len(r) for r in rate[:j]) for j in owners]
    span = [(1 << len(rate[j])) - 1 for j in owners]

    kappa: dict[tuple[int, int, int, int], int] = {}
    rem = [profs[m].num_segments for m in vids]
    best_w = slotted_welfare(SlottedPlan(T, {}), instance)
    best_plan: dict = {}
    nodes = 0

    def slot_step(slot: int, w: float, q: list, high: list, pend: list):
        """Search slots slot..T given the prefix of slots before `slot`.

        w is the prefix welfare; per owner, q is the buffer level, high the
        top rate of the last receiving slot (None before the first), and
        pend the rebuffering of dry slots since then, charged only if a
        later slot brings a receipt.
        """
        nonlocal best_w, best_plan
        if slot > T:
            if w > best_w - 1e-9:
                scored = slotted_welfare(SlottedPlan(T, dict(kappa)), instance)
                if scored > best_w:
                    best_w = scored
                    best_plan = dict(kappa)
            return
        seg_cap = sum(rem[j] * beta[j] * top_value[j] for j in owners)
        if w + min(best_rate * suffix_cap[slot], seg_cap) <= best_w + 1e-12:
            return
        vs = slot_vars[slot - 1]
        last = len(vs)
        used = [0.0] * len(users)
        gained = [0.0] * len(vids)
        headroom = [buffer_cap[j] - max(q[j] - 1.0, 0.0) for j in owners]

        def close(acc: float, received: int):
            """Add the slot's per-owner terms; `received` has a bit per (owner, level)."""
            q2, high2, pend2 = [], [], []
            for j in owners:
                h, d = high[j], pend[j]
                if h is not None:
                    d += phi_rebuf[j] * max(1.0 - q[j], 0.0)
                levels = received >> shift[j] & span[j]
                if levels:
                    acc -= d
                    d = 0.0
                    if h is not None:
                        lo = (levels & -levels).bit_length() - 1
                        acc -= phi_qdeg[j] * max(h - rate[j][lo], 0.0)
                    h = rate[j][levels.bit_length() - 1]
                q2.append(max(q[j] - 1.0, 0.0) + gained[j])
                high2.append(h)
                pend2.append(d)
            slot_step(slot + 1, acc, q2, high2, pend2)

        def assign(i: int, acc: float, received: int):
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            if i == last:
                close(acc, received)
                return
            u, cap, j, z, v, b, gain = vs[i]
            cmax = max(
                0,
                min(
                    rem[j],
                    int((cap - used[u] + VOL_EPS) / v),
                    int((headroom[j] - gained[j] + TIME_EPS) / b),
                ),
            )
            key = (users[u], vids[j], z, slot)
            bit = 1 << (shift[j] + z)
            for c in range(cmax, 0, -1):
                kappa[key] = c
                used[u] += c * v
                gained[j] += c * b
                rem[j] -= c
                assign(i + 1, acc + c * gain, received | bit)
                del kappa[key]
                used[u] -= c * v
                gained[j] -= c * b
                rem[j] += c
            assign(i + 1, acc, received)

        assign(0, w, 0)

    exact = True
    try:
        slot_step(1, 0.0, [0.0] * len(vids), [None] * len(vids), [0.0] * len(vids))
    except _Budget:
        exact = False
    return SolveResult(
        welfare=best_w,
        plan=SlottedPlan(T, best_plan),
        exact=exact,
        nodes=nodes,
    )


@dataclass(frozen=True)
class BoundRegion:
    """Welfare bound estimates at successive segment-length halvings."""

    segment_lens: tuple[float, ...]   # representative beta at each level
    values: tuple[float, ...]
    exact: tuple[bool, ...]
    nodes: tuple[int, ...]            # search nodes each level's solve used

    @property
    def upper(self) -> float | None:
        """The finest level's welfare; None when its solve was budget-limited,
        since the best plan a cut-short search found bounds nothing."""
        return self.values[-1] if self.exact[-1] else None


def bound_region(
    instance: SlottedInstance, halvings: int = 2, node_budget: int = 2_000_000
) -> BoundRegion:
    """Solve the instance at beta, beta/2, ..., beta/2^halvings."""
    if halvings < 0:
        raise BoundError("halvings must be nonnegative")
    vids = instance.video_users()
    base_beta = instance.profiles[vids[0]].segment_len if vids else 0.0
    lens, vals, exacts, nodes = [], [], [], []
    for k in range(halvings + 1):
        inst_k = refine_instance(instance, k)
        res = solve_slotted(inst_k, node_budget)
        lens.append(base_beta / (2 ** k) if vids else 0.0)
        vals.append(res.welfare)
        exacts.append(res.exact)
        nodes.append(res.nodes)
    return BoundRegion(tuple(lens), tuple(vals), tuple(exacts), tuple(nodes))


# ---------------------------------------------------------------------------
# Export.


def region_to_dict(region: BoundRegion) -> dict:
    return {
        "levels": [
            {"segment_len": sl, "welfare": v, "exact": e, "nodes": k}
            for sl, v, e, k in zip(
                region.segment_lens, region.values, region.exact, region.nodes
            )
        ],
        "upper_estimate": region.upper,
    }


def write_region_json(region: BoundRegion, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(region_to_dict(region), fh, indent=2, sort_keys=True)
        fh.write("\n")
