"""Discrete-event simulation of cooperative segmented streaming.

The engine owns all ground truth (traces, buffers, reservations) and
decides for a user whenever its radio is free: at t = 0, when its own
download completes or aborts, and when its park ends; never at the
horizon.  The engine alone names a decider's pending owners: the needy
members of its acting group, which is its hotspot's group, or a group of
the decider alone in the non-cooperative twin (`RunConfig.noncoop`).
When none of them can take a segment, the engine answers
`schedulers.hold` itself; only when a transfer can start is the scheduler
asked, with a view whose `pending` lists them and whose `peers` are its
hotspot's video users, and a Download must name one of them.  The pending
snapshots are those the hold was built from at that instant, and the
engine builds only the other peers'; each snapshot serves one call, and
the engine reads none once a scheduler has it.  The coordination
protocol (READY, ACK, sleep) is only counted in `MessageStats`, from the
protocol's own events: it steers no decision, and no re-decision counts.

A Download that the horizon would cut short starts nothing and is
answered as an Idle.  Every decision that starts no transfer parks the
user on the hold it waits on, read by one wake rule (`_wake_parked`): a
cooperative Wait or Idle, which a delivery or abort of a segment whose
owner shares its hotspot, or a user's arrival there, ends unless it
leaves the group's hold equal to the park; or None, on a dead link and
in the twin, which only its own timer ends.  A Wait's timer is its
instant and a dead link's the link's return; an Idle has none.

A decider's group comes from a hotspot-occupancy index that every
mobility bound updates as an event of its own, before anything else at
that instant; a cooperative arrival wakes its hotspot after them.  Each
occupied hotspot has one group state, built on first use and read by
every decision, wake-up and coordination step there: its members, its
needy members (video users with segments unreserved) and their hold with
the snapshots it was built from, cached for one instant, since buffers
drain, or until a scheduler call is handed them.  A transfer's start,
its delivery or abort, and every move in or out of the hotspot drop it.  A user in transit, and a twin acting alone, get a fresh
state of their own.

Time state is anchored to writes: a buffer is stored as its level just
after the last delivery and that instant, and is drained to the decision
instant whenever it is read, and a Wait names the absolute instant at
which an owner's buffer can take one more segment.  So no time
or level depends on how often a user happened to decide, and users waiting
on one owner wake at one instant, in ascending uid order.  Downloads run
at the full link rate, so a segment's end time is the exact inverse of the
capacity integral.  Every run is replayed against an independent
constraint audit before results are returned, and counts its event-loop
work in `EngineCounters`.
"""

from __future__ import annotations

import csv
import heapq
import json
from dataclasses import asdict, dataclass, field

from . import traces as tr
from .model import (
    TIME_EPS,
    DownloadRecord,
    DownloadSequence,
    ModelError,
    ReceiveSequence,
    UserProfile,
    WelfareBreakdown,
    derive_receive_sequences,
    segment_volume,
)
from .schedulers import Download, Idle, PeerInfo, SchedulerView, Wait, can_afford, hold
from .welfare import buffer_trajectory, rebuf_loss, user_welfare

_MOVE = 0  # mobility bounds apply before anything at their instant reads the index
_ARRIVE = 1  # an arrival wakes its hotspot once every move at its instant is in
_COMPLETE = 2  # deliveries and aborts apply before same-instant decisions
_DECIDE = 3


class SimError(RuntimeError):
    """A scheduler returned an infeasible or malformed decision."""


class SimAuditError(RuntimeError):
    """The post-run constraint audit found violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class RunConfig:
    horizon: float
    noncoop: bool = False        # the twin: observes its peers, acts alone
    ack_window: float = 10.0     # a quiet stretch this long (no READY or ACK sent) is a sleep
    audit: bool = True


@dataclass
class MessageStats:
    """Abstract coordination traffic of a cooperative run (a twin counts
    none): one READY each time a user's radio comes free and it has
    company, and one ACK per needy co-located listener.  A quiet stretch
    of at least `ack_window` since a user's last READY or ACK is a sleep,
    and the READY or ACK that ends it an awake.  Of the READYs only their
    count and the instant of the last (None before the first) are kept."""

    ready: int = 0
    ack: int = 0
    sleep: int = 0
    awake: int = 0
    last_ready: float | None = None


@dataclass
class EngineCounters:
    """Deterministic event-loop counts of one run (no wall times).

    events = completions + decisions + stale, and
    decisions = dead_link_parks + hold_parks + calls: a decision on a live
    link that no pending owner can serve parks on the group's hold without
    asking the scheduler.  Each scheduler call ends in exactly one of
    calls_download (a transfer started), calls_wait, calls_idle or calls_cut
    (a Download the horizon cuts short, answered as an Idle).
    """

    events: int = 0          # completion and decision events popped by the horizon
    completions: int = 0     # deliveries and aborts applied
    decisions: int = 0       # decision events run
    stale: int = 0           # decision events superseded by a later one
    hold_parks: int = 0      # decisions answered with the hold, no scheduler call
    calls: int = 0           # scheduler calls
    calls_download: int = 0
    calls_wait: int = 0
    calls_idle: int = 0
    calls_cut: int = 0
    dead_link_parks: int = 0
    wakeups: int = 0         # decisions scheduled by completion and arrival wake-ups
    wakes_held: int = 0      # wake-ups not scheduled: the group's hold is the park's


@dataclass
class _UserState:
    profile: UserProfile
    # profile constants read at every decision
    num_segments: int = field(init=False)
    is_video_user: bool = field(init=False)
    # playback, anchored at the last delivery: the buffer held q0 seconds
    # just after it, at t0, and has drained since (see `_playback`)
    q0: float = 0.0
    t0: float = 0.0
    # segment bookkeeping (owner side): `remaining` counts the segments
    # nobody has reserved, one less at a start and one more at an abort
    received: int = 0
    inflight: int = 0
    remaining: int = field(init=False)
    last_bitrate: float | None = None
    # downloader side
    records: list[DownloadRecord] = field(default_factory=list)
    history: tuple[float, ...] = ()
    abort_count: int = 0
    abort_cost: float = 0.0
    # the cooperative Wait or Idle it is parked on, else None: while
    # deciding, with a transfer in flight, or on its own timer alone
    park: Wait | Idle | None = None
    gen: int = 0
    # coordination: a READY is due since its radio came free, and it has
    # sent no READY or ACK since `quiet_since`
    ready_due: bool = True
    quiet_since: float = 0.0

    def __post_init__(self):
        self.num_segments = self.profile.num_segments
        self.is_video_user = self.profile.is_video_user
        self.remaining = self.num_segments


@dataclass(slots=True, eq=False)
class _Group:
    """The group state of one hotspot: its members, ascending, and the
    needy ones (video users with segments nobody has reserved), and `held`,
    `schedulers.hold` of the needy's snapshots `snaps`, valid at `held_t`
    only, since buffers drain.  A scheduler call that is handed `snaps`
    ends them (`held_t` None), since it may write over them.  Dropped at
    every write to a member's reservations, playback anchors or last
    bitrate, and at every move in or out."""

    members: list[int]
    needy: list[int]
    held_t: float | None = None
    held: Wait | Idle | None = None
    snaps: list[PeerInfo] | None = None


@dataclass
class SimResult:
    horizon: float
    profiles: dict[int, UserProfile]
    downloads: dict[int, DownloadSequence]
    receives: dict[int, ReceiveSequence]
    breakdowns: dict[int, WelfareBreakdown]
    messages: MessageStats
    aborts: dict[int, tuple[int, float]]  # per downloader: (count, energy charged)
    rebuffer: dict[int, float]  # per video user: stall seconds of its rebuf_loss log
    counters: EngineCounters

    @property
    def social_welfare(self) -> float:
        return sum(b.welfare for b in self.breakdowns.values())

    def avg_bitrate(self) -> float:
        rates = [
            self.profiles[owner].ladder.rate(rec.level)
            for owner, rx in self.receives.items()
            for rec in rx.records
        ]
        return sum(rates) / len(rates) if rates else 0.0

    def helper_downloads(self) -> int:
        return sum(
            1
            for seq in self.downloads.values()
            for rec in seq.records
            if rec.owner != rec.downloader
        )


class _Simulation:
    def __init__(self, profiles, cap_trace, mob_trace, scheduler, cfg):
        self.profiles: dict[int, UserProfile] = dict(sorted(profiles.items()))
        self.cap = cap_trace
        self.mob = mob_trace
        self.scheduler = scheduler
        self.cfg = cfg
        self.T = cfg.horizon
        if cap_trace.horizon < self.T - TIME_EPS or mob_trace.horizon < self.T - TIME_EPS:
            raise SimError("traces end before the run horizon")
        for uid in self.profiles:
            if uid not in cap_trace.tracks or uid not in mob_trace.tracks:
                raise SimError(f"user {uid} missing from a trace")
        self.users = {uid: _UserState(p) for uid, p in self.profiles.items()}
        self.msgs = MessageStats()
        self.counters = EngineCounters()
        self.heap: list = []
        # Hotspot-occupancy index: each user's hotspot and the users at
        # each hotspot, moved by a _MOVE event at every bound of a track.
        self.spot: dict[int, int] = {}
        self.occupants: dict[int, set[int]] = {}
        # The group state of each occupied hotspot, built on first use.
        self.groups: dict[int, _Group] = {}
        for uid in self.profiles:
            track = mob_trace.tracks[uid]
            self.spot[uid] = track.values[0]
            self.occupants.setdefault(track.values[0], set()).add(uid)
            if len(track.values) > 1:
                self._push(track.bounds[1], _MOVE, uid, payload=1)

    # -- event plumbing ----------------------------------------------------

    def _push(self, t, kind, uid, payload=None, gen=None):
        # No two entries tie: one move, arrival and completion pending per user, a new gen per decision.
        heapq.heappush(self.heap, (t, kind, uid, gen, payload))

    def _schedule_decision(self, uid, t):
        # Supersedes any pending decision event for uid via the gen counter.
        # A decision at the horizon could start nothing, so none is made.
        st = self.users[uid]
        st.gen += 1
        if t < self.T - TIME_EPS:
            self._push(t, _DECIDE, uid, gen=st.gen)

    def _wake_parked(self, t, owner):
        # A delivery or abort changes only the owner's snapshot, and an
        # arrival only the mover's group; a view holds the snapshots of the
        # decider's group alone, so only parked users at the owner's (or
        # mover's) hotspot at t, itself alone in transit, can see it.  Of
        # those, a park on None keeps its timer.  A cooperative Wait or Idle
        # is held when deciding now would park it where it is: the engine
        # answers the group's hold whenever it is not None, so that is when
        # the park equals the hold (the same `until` bit for bit, or Idle)
        # and its link is alive.  A departure wakes nobody: removing a
        # member never lets a pending owner take a segment.
        group = self._group(owner, t)
        users, counters = self.users, self.counters
        for uid in group.members:
            park = users[uid].park
            if park is None:
                continue
            if park == self._hold(group, t) and tr.capacity_at(self.cap, uid, t) > 0.0:
                counters.wakes_held += 1
                continue
            counters.wakeups += 1
            self._schedule_decision(uid, t)

    # -- playback ----------------------------------------------------------

    def _playback(self, uid, t) -> tuple[float, bool]:
        """(buffer, playback finished) of `uid` at t, from its anchors.

        The buffer drains in real time from its level q0 at the last
        delivery t0; playback has finished once every segment is in and the
        buffer has run dry, and a finished buffer reads 0.
        """
        st = self.users[uid]
        q = st.q0 - (t - st.t0)
        if q < 0.0:
            q = 0.0
        if st.received >= st.num_segments and q <= TIME_EPS:
            return 0.0, True
        return q, False

    # -- group / view construction -----------------------------------------

    def _move(self, uid, i):
        """Move `uid` onto piece i of its track, at the piece's start t.  In
        a cooperative run before the horizon it then arrives: once every
        move at t is in, the parked users at its new hotspot wake as at a
        delivery there."""
        track = self.mob.tracks[uid]
        old = self.spot[uid]
        self.occupants[old].discard(uid)
        self.spot[uid] = spot = track.values[i]
        self.occupants.setdefault(spot, set()).add(uid)
        self.groups.pop(old, None)
        self.groups.pop(spot, None)
        if i + 1 < len(track.values):
            self._push(track.bounds[i + 1], _MOVE, uid, payload=i + 1)
        t = track.bounds[i]
        if not self.cfg.noncoop and t < self.T - TIME_EPS:
            self._push(t, _ARRIVE, uid)

    def _new_group(self, members) -> _Group:
        """A group state of `members`, ascending, with no hold yet."""
        users = self.users
        return _Group(members, [m for m in members if users[m].is_video_user and users[m].remaining > 0])

    def _group(self, uid, t) -> _Group:
        """The group state of the users that `uid` encounters at t (itself
        included): its hotspot's, built on first use and shared until a write
        drops it, or a fresh one of `uid` alone in transit."""
        spot = self.spot[uid]
        if spot == 0:
            return self._new_group([uid])
        group = self.groups.get(spot)
        if group is None:
            group = self.groups[spot] = self._new_group(sorted(self.occupants[spot]))
        return group

    def _hold(self, group, t):
        """`schedulers.hold` of the group's needy members at t, from their
        snapshots at t, which it keeps in `group.snaps`."""
        if group.held_t != t:
            group.snaps = [self._peer_info(m, t) for m in group.needy]
            group.held = hold(group.snaps)
            group.held_t = t
        return group.held

    def _peer_info(self, uid, t) -> PeerInfo:
        st = self.users[uid]
        prof = st.profile
        buffer, finished = self._playback(uid, t)
        # positional: under half the cost of a call by keywords
        return PeerInfo(
            prof,
            buffer,
            st.last_bitrate,
            st.remaining,
            st.inflight,
            st.received > 0,
            finished,
            st.t0 + st.q0 + prof.segment_len - prof.buffer_cap,
        )

    # -- coordination protocol accounting ----------------------------------

    def _ready(self, uid, t, group):
        """Count the READY that `uid` sends at its first decision on a live
        link since its radio came free, when it has company, and the ACK of
        each needy listener; they steer no decision."""
        self.users[uid].ready_due = False
        if len(group.members) > 1:
            self.msgs.ready += 1
            self.msgs.last_ready = t
            self._send(uid, t)
            for m in group.needy:
                if m != uid:
                    self.msgs.ack += 1
                    self._send(m, t)

    def _send(self, uid, t):
        """`uid` sends a READY or ACK at t, ending its quiet stretch."""
        st = self.users[uid]
        if self._slept(st, t):
            self.msgs.sleep += 1
            self.msgs.awake += 1
        st.quiet_since = t

    def _slept(self, st, t) -> bool:
        """Whether the user's quiet stretch up to t is a sleep."""
        quiet = t - st.quiet_since
        return quiet > TIME_EPS and quiet >= self.cfg.ack_window

    # -- decision handling -------------------------------------------------

    def _park(self, uid, wake, park):
        """End a decision that starts no transfer: the user re-decides at
        `wake` when that falls before T, and at the completions that `park`
        lets wake it (see `_wake_parked`)."""
        self.users[uid].park = park
        if wake is not None:
            self._schedule_decision(uid, wake)

    def _decide(self, uid, t):
        st = self.users[uid]
        st.park = None
        # The non-cooperative benchmark severs the download actions and the
        # coordination protocol, but peers stay observable so the drift
        # estimates see the same surroundings as the cooperative twin.
        cooperative = not self.cfg.noncoop
        h = tr.capacity_at(self.cap, uid, t)
        counters = self.counters
        if h <= 0.0:
            # Dead link: no protocol traffic, come back when the radio has
            # rate; no peer's completion revives the link.
            counters.dead_link_parks += 1
            nxt = tr.next_positive_capacity(self.cap, uid, t)
            self._park(uid, None if nxt is None else max(nxt, t + TIME_EPS), None)
            return
        # The acting group's needy members are the owners the decider may
        # serve: its hotspot's, or itself alone in the twin.
        group = acting = self._group(uid, t)
        if not cooperative:
            acting = self._new_group([uid])
        elif st.ready_due:
            self._ready(uid, t, group)
        answer = self._hold(acting, t)
        if answer is not None:
            # No pending owner can take a segment: the hold is the answer.
            counters.hold_parks += 1
        else:
            # The call gets the snapshots the hold was built from, and the
            # engine reads none of them again: the scheduler may write over
            # them, so the next hold at t builds its own.
            acting.held_t = None
            pending = tuple(acting.snaps)
            own = dict(zip(acting.needy, pending))
            users = self.users
            peers = tuple(
                [
                    own[m] if m in own else self._peer_info(m, t)
                    for m in group.members
                    if users[m].is_video_user
                ]
            )
            answer = self.scheduler(SchedulerView(st.profile, h, peers, st.history, pending))
            counters.calls += 1
            if isinstance(answer, Download):
                if self._start_download(uid, t, acting, answer):
                    counters.calls_download += 1
                    return
                # The horizon cuts the transfer short: an Idle, counted apart.
                counters.calls_cut += 1
                answer = Idle()
            elif isinstance(answer, Wait):
                counters.calls_wait += 1
            elif isinstance(answer, Idle):
                counters.calls_idle += 1
            else:
                raise SimError(f"user {uid}: unknown decision {answer!r}")
        # A twin's Wait is its own buffer's shortfall, and its Idle means
        # nothing of its own is left to fetch, or nothing it could fetch
        # by the horizon: only its timer ends either, and an Idle parks it
        # for good.  A cooperative Idle has no timer either: only an event
        # at its hotspot can give it something to do.
        wait = isinstance(answer, Wait)
        if wait and not answer.until > t:
            raise SimError(f"user {uid}: a wait must end after the decision instant")
        self._park(uid, answer.until if wait else None, answer if cooperative else None)

    def _start_download(self, uid, t, acting, decision) -> bool:
        """Schedule the delivery or abort; False when the horizon cuts it short."""
        owner_id, level = decision.owner, decision.level
        if owner_id not in acting.needy:
            raise SimError(f"user {uid}: owner {owner_id} is not a pending owner")
        ost = self.users[owner_id]
        prof = ost.profile
        if not 1 <= level <= prof.ladder.top:
            raise SimError(f"user {uid}: level {level} not on owner's ladder")
        if not can_afford(self._peer_info(owner_id, t)):
            raise SimError(f"user {uid}: owner {owner_id}'s buffer cannot take a segment")
        volume = segment_volume(prof, level)
        t_end = tr.download_end_time(self.cap, uid, t, volume)
        if t_end is None or t_end > self.T + TIME_EPS:
            # Horizon cuts the transfer short: drop it, charge nothing.
            return False
        ost.inflight += 1
        ost.remaining -= 1
        self.groups.pop(self.spot[owner_id], None)
        t_sep = None if owner_id == uid else tr.first_separation(self.mob, uid, owner_id, t, t_end)
        if t_sep is None:
            self._push(t_end, _COMPLETE, uid, payload=("deliver", owner_id, t, level))
        else:
            self._push(t_sep, _COMPLETE, uid, payload=("abort", owner_id, t, None))
        return True

    # -- completion handling -----------------------------------------------

    def _complete(self, uid, t, payload):
        st = self.users[uid]
        kind, owner_id, t_start, level = payload
        ost = self.users[owner_id]
        ost.inflight -= 1
        self.groups.pop(self.spot[owner_id], None)
        if kind == "deliver":
            q, _ = self._playback(owner_id, t)
            bitrate = ost.profile.ladder.rate(level)
            rec = DownloadRecord(uid, owner_id, ost.received + 1, level, t_start, t)
            ost.received += 1
            ost.last_bitrate = bitrate
            ost.q0 = min(q + ost.profile.segment_len, ost.profile.buffer_cap)
            ost.t0 = t
            st.records.append(rec)
            dur = t - t_start
            if dur > TIME_EPS:
                st.history += (bitrate * ost.profile.segment_len / dur,)
        else:  # abort: the pair separated mid-download
            partial = tr.integrate_capacity(self.cap, uid, t_start, t)
            st.abort_cost += st.profile.c_time * (t - t_start) + st.profile.c_data * partial
            st.abort_count += 1
            ost.remaining += 1
        st.ready_due = True
        if t < self.T - TIME_EPS:  # else nobody decides or wakes
            self._schedule_decision(uid, t)
            if not self.cfg.noncoop:  # every twin park is None: none wakes
                self._wake_parked(t, owner_id)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        for uid in self.profiles:
            self._schedule_decision(uid, 0.0)
        counters = self.counters
        while self.heap:
            t, kind, uid, gen, payload = heapq.heappop(self.heap)
            if t > self.T + TIME_EPS:
                break
            if kind == _MOVE:
                self._move(uid, payload)
                continue
            if kind == _ARRIVE:
                self._wake_parked(t, uid)
                continue
            counters.events += 1
            if kind == _COMPLETE:
                counters.completions += 1
                self._complete(uid, t, payload)
            elif gen != self.users[uid].gen:
                counters.stale += 1  # superseded by a later wake-up
            else:
                counters.decisions += 1
                self._decide(uid, t)
        if not self.cfg.noncoop:  # every stretch still quiet at the horizon is a sleep
            self.msgs.sleep += sum(self._slept(st, self.T) for st in self.users.values())
        return self._collect()

    def _collect(self) -> SimResult:
        downloads = {}
        for uid, st in self.users.items():
            seq = DownloadSequence(uid, st.records)
            seq.validate()
            downloads[uid] = seq
        receives = derive_receive_sequences(downloads, self.profiles)
        breakdowns = {}
        rebuffer = {}
        for uid, prof in self.profiles.items():
            rx = receives.get(uid)
            rebuf = None
            if prof.is_video_user:
                # One stall log per user serves its welfare and its stall seconds.
                rebuf = rebuf_loss(rx, prof) if rx is not None else (0.0, [])
                rebuffer[uid] = sum(d for _, d in rebuf[1])
            b = user_welfare(downloads.get(uid), rx, prof, self.profiles, rebuf)
            st = self.users[uid]
            if st.abort_cost > 0.0:
                b = b + WelfareBreakdown(energy_cell=st.abort_cost)
            breakdowns[uid] = b
        return SimResult(
            horizon=self.T,
            profiles=self.profiles,
            downloads=downloads,
            receives=receives,
            breakdowns=breakdowns,
            messages=self.msgs,
            aborts={uid: (st.abort_count, st.abort_cost) for uid, st in self.users.items()},
            rebuffer=rebuffer,
            counters=self.counters,
        )


def run(
    profiles: dict[int, UserProfile],
    cap_trace: tr.CapacityTrace,
    mob_trace: tr.MobilityTrace,
    scheduler,
    cfg: RunConfig,
) -> SimResult:
    """Simulate one scenario and return audited results."""
    sim = _Simulation(profiles, cap_trace, mob_trace, scheduler, cfg)
    result = sim.run()
    if cfg.audit:
        violations = audit_run(
            profiles, cap_trace, mob_trace, result.downloads, cfg.horizon, cfg.noncoop
        )
        if violations:
            raise SimAuditError(violations)
    return result


# ---------------------------------------------------------------------------
# Independent constraint audit.  Works from emitted sequences and raw traces
# only, so it exercises none of the event-loop bookkeeping above.


def audit_run(
    profiles: dict[int, UserProfile],
    cap_trace: tr.CapacityTrace,
    mob_trace: tr.MobilityTrace,
    downloads: dict[int, DownloadSequence],
    horizon: float,
    noncoop: bool = False,
) -> list[str]:
    """Re-verify timing, volume, encounter, and buffer constraints.

    Returns a list of human-readable violations; empty means the run is
    feasible.
    """
    tol = 1e-9
    bad: list[str] = []
    for uid, seq in sorted(downloads.items()):
        recs = seq.records
        for a, b in zip(recs, recs[1:]):
            if b.t_start < a.t_end - tol:
                bad.append(f"C.1 user {uid}: download at {b.t_start} overlaps previous end {a.t_end}")
        total = 0.0
        for rec in recs:
            if rec.t_start < -tol or rec.t_end > horizon + tol:
                bad.append(f"C.1 user {uid}: record outside [0, T]")
            owner_prof = profiles.get(rec.owner)
            if owner_prof is None:
                bad.append(f"user {uid}: record for unknown owner {rec.owner}")
                continue
            try:
                vol = segment_volume(owner_prof, rec.level)
            except ModelError as exc:
                bad.append(f"user {uid}: {exc}")
                continue
            total += vol
            got = tr.integrate_capacity(cap_trace, uid, rec.t_start, rec.t_end)
            if abs(got - vol) > tol * max(1.0, vol):
                bad.append(
                    f"C.2 user {uid}: segment ({rec.owner},{rec.owner_seq_no}) moved {got} Mbit, needs {vol}"
                )
            if rec.owner != uid:
                if noncoop:
                    bad.append(f"C.3 user {uid}: cross-download in non-cooperative mode")
                elif not tr.encountered_throughout(mob_trace, uid, rec.owner, rec.t_start, rec.t_end):
                    bad.append(
                        f"C.3 user {uid}: not with owner {rec.owner} throughout [{rec.t_start}, {rec.t_end}]"
                    )
        cap_total = tr.integrate_capacity(cap_trace, uid, 0.0, min(horizon, cap_trace.horizon))
        if total > cap_total + tol * max(1.0, cap_total):
            bad.append(f"conservation user {uid}: downloaded {total} Mbit > capacity {cap_total}")
    try:
        receives = derive_receive_sequences(downloads, profiles)
    except ModelError as exc:
        bad.append(f"receive structure: {exc}")
        return bad
    for owner, rx in sorted(receives.items()):
        prof = profiles[owner]
        for k, q in enumerate(buffer_trajectory(rx, prof)):
            if q > prof.buffer_cap + tol:
                bad.append(
                    f"C.4 user {owner}: buffer {q} exceeds cap {prof.buffer_cap} at segment {k + 1}"
                )
    return bad


# ---------------------------------------------------------------------------
# Result export.


def result_to_dict(result: SimResult) -> dict:
    """JSON-ready view of a run: sequences, welfare, stalls, messages."""
    return {
        "horizon": result.horizon,
        "social_welfare": result.social_welfare,
        "avg_bitrate_mbps": result.avg_bitrate(),
        "users": {
            str(uid): {
                "is_video_user": prof.is_video_user,
                "welfare": result.breakdowns[uid].welfare,
                **asdict(result.breakdowns[uid]),
                "segments_received": len(result.receives[uid].records)
                if uid in result.receives
                else 0,
                "rebuffer_s": result.rebuffer.get(uid, 0.0),
                "aborted_downloads": result.aborts[uid][0],
            }
            for uid, prof in sorted(result.profiles.items())
        },
        "messages": {
            "ready": result.messages.ready,
            "ack": result.messages.ack,
            "sleep": result.messages.sleep,
            "awake": result.messages.awake,
        },
        "engine": asdict(result.counters),
    }


def write_result_json(result: SimResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(result: SimResult, path: str) -> None:
    """Flat download log: downloader,owner,seq_no,level,bitrate,t_start,t_end."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["downloader", "owner", "seq_no", "level", "bitrate", "t_start", "t_end"])
        for uid, seq in sorted(result.downloads.items()):
            for rec in seq.records:
                w.writerow(
                    [
                        rec.downloader,
                        rec.owner,
                        rec.owner_seq_no,
                        rec.level,
                        format(result.profiles[rec.owner].ladder.rate(rec.level), ".10g"),
                        format(rec.t_start, ".10g"),
                        format(rec.t_end, ".10g"),
                    ]
                )
