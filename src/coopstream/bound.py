"""Offline welfare bound via a one-second time-slotted relaxation.

The slotted system replaces continuous timing with unit slots: per slot a
downloader moves whole segments (integer counts per owner and level) within
its slot capacity, pairs must be co-located for the entire slot, and owner
buffers follow a per-slot drain-then-fill recursion.  Solving it exactly
yields a welfare bound for the continuous system; halving the segment
length and re-solving tightens the bound from above, the unrefined solve
bounds it from below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import traces as tr
from .model import (
    TIME_EPS,
    VOL_EPS,
    DownloadRecord,
    DownloadSequence,
    ModelError,
    UserProfile,
    WelfareBreakdown,
    segment_volume,
)
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


def plan_violations(plan: SlottedPlan, instance: SlottedInstance, tol: float = 1e-9) -> list[str]:
    """Check a plan against capacity, co-location, and buffer constraints."""
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
    so the returned optimum does not depend on dict ordering.  Leaves are
    scored with slotted_welfare itself, which keeps the result bit-equal
    to exhaustive enumeration.
    """
    profs = instance.profiles
    T = instance.slots
    users = sorted(profs)
    vids = instance.video_users()
    slot_vars: list[list[tuple[int, int, int]]] = []
    for s in range(1, T + 1):
        vs = []
        for n in users:
            if instance.capacity[n][s - 1] <= VOL_EPS:
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
                    int((cap_left + VOL_EPS) / vol),
                    int((room + TIME_EPS) / beta),
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


@dataclass(frozen=True)
class BoundRegion:
    """Welfare bound estimates at successive segment-length halvings."""

    segment_lens: tuple[float, ...]   # representative beta at each level
    values: tuple[float, ...]
    exact: tuple[bool, ...]

    @property
    def lower(self) -> float:
        return self.values[0]

    @property
    def upper(self) -> float:
        return self.values[-1]


def bound_region(
    instance: SlottedInstance, halvings: int = 2, node_budget: int = 2_000_000
) -> BoundRegion:
    """Solve the instance at beta, beta/2, ..., beta/2^halvings."""
    if halvings < 0:
        raise BoundError("halvings must be nonnegative")
    vids = instance.video_users()
    base_beta = instance.profiles[vids[0]].segment_len if vids else 0.0
    lens, vals, exacts = [], [], []
    for k in range(halvings + 1):
        inst_k = refine_instance(instance, k)
        res = solve_slotted(inst_k, node_budget)
        lens.append(base_beta / (2 ** k) if vids else 0.0)
        vals.append(res.welfare)
        exacts.append(res.exact)
    return BoundRegion(tuple(lens), tuple(vals), tuple(exacts))


# ---------------------------------------------------------------------------
# Constructive mapping: realize a feasible slotted plan as a continuous
# schedule.  Each downloader's slot batch is laid back-to-back so that the
# last transfer ends exactly at the slot boundary; receipts then land as
# late as possible, which keeps owner buffers under their caps whenever the
# slotted trajectory was feasible.


def plan_to_segmented(
    plan: SlottedPlan, instance: SlottedInstance, cap_trace: tr.CapacityTrace
) -> dict[int, DownloadSequence]:
    profs = instance.profiles
    # Each (downloader, slot) batch in entries() order: by owner, then by
    # level, which is ascending bitrate.
    batches: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for n, m, z, s, c in plan.entries():
        batches.setdefault((n, s), []).extend([(m, z)] * c)
    raw: list[tuple[float, int, int, int, float]] = []  # (t_end, n, m, z, t_start)
    for (n, s), items in sorted(batches.items()):
        total = sum(segment_volume(profs[m], z) for m, z in items)
        start = tr.download_start_time(cap_trace, n, float(s), total)
        if start is None or start < float(s - 1) - TIME_EPS:
            raise BoundError(f"plan exceeds slot capacity for user {n} in slot {s}")
        t0 = start
        for m, z in items:
            te = tr.download_end_time(cap_trace, n, t0, segment_volume(profs[m], z))
            if te is None:
                raise BoundError("capacity trace ended mid-slot")
            raw.append((te, n, m, z, t0))
            t0 = te
    # Assign per-owner playback positions in global receipt order.
    raw.sort(key=lambda r: (r[2], r[0], r[1], r[3]))
    seq_no: dict[int, int] = {}
    per_downloader: dict[int, list[DownloadRecord]] = {n: [] for n in profs}
    for te, n, m, z, ts in raw:
        seq_no[m] = seq_no.get(m, 0) + 1
        per_downloader[n].append(
            DownloadRecord(n, m, seq_no[m], z, profs[m].ladder.rate(z), ts, te)
        )
    out = {}
    for n, recs in per_downloader.items():
        recs.sort(key=lambda r: (r.t_start, r.t_end))
        seq = DownloadSequence(n, recs)
        seq.validate()
        out[n] = seq
    return out


# ---------------------------------------------------------------------------
# Export.


def region_to_dict(region: BoundRegion) -> dict:
    return {
        "levels": [
            {"segment_len": sl, "welfare": v, "exact": e}
            for sl, v, e in zip(region.segment_lens, region.values, region.exact)
        ],
        "lower": region.lower,
        "upper_estimate": region.upper,
    }


def write_region_json(region: BoundRegion, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(region_to_dict(region), fh, indent=2, sort_keys=True)
        fh.write("\n")
