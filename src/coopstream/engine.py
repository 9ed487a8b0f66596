"""Discrete-event simulation of cooperative segmented streaming.

The engine owns all ground truth (traces, buffers, reservations) and asks
a scheduler for a decision whenever a user's radio is free: at t = 0, when
its own download completes or aborts, when a wait timer fires, when a dead
link regains capacity, at the next mobility breakpoint of any user after it
idles, and when a READY wakes it from sleep.  Every delivery or abort,
wherever it happens, also wakes every parked user.  A decider's group comes
from a hotspot-occupancy index advanced to the decision instant.  Downloads
run at the full link rate, so a segment's end time is the exact inverse of
the capacity integral.  Every run is replayed against an independent
constraint audit before results are returned.
"""

from __future__ import annotations

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
from .schedulers import Download, Idle, PeerInfo, SchedulerView, Wait
from .welfare import buffer_trajectory, rebuf_loss, user_welfare

_COMPLETE = 0  # deliveries and aborts apply before same-instant decisions
_DECIDE = 1


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
    noncoop: bool = False        # sever all cross-user encounters
    ack_window: float = 10.0     # unanswered-READY window before sleeping
    audit: bool = True


@dataclass
class MessageStats:
    """Abstract coordination traffic: one READY per decision instant with
    company, one ACK per needy co-located listener."""

    ready: int = 0
    ack: int = 0
    virtual_ack: int = 0
    sleep: int = 0
    awake: int = 0
    ready_times: list[float] = field(default_factory=list)


@dataclass
class _UserState:
    profile: UserProfile
    # profile constants read at every decision
    num_segments: int = field(init=False)
    is_video_user: bool = field(init=False)
    # playback
    buffer: float = 0.0
    t_last: float = 0.0
    playback_finished: bool = False
    # segment bookkeeping (owner side)
    received: int = 0
    inflight: int = 0
    last_bitrate: float | None = None
    # downloader side
    records: list[DownloadRecord] = field(default_factory=list)
    history: tuple[float, ...] = ()
    abort_count: int = 0
    abort_cost: float = 0.0
    parked: bool = False
    gen: int = 0
    # coordination
    asleep: bool = False
    sleep_deadline: float | None = None
    # cached PeerInfo of this user; reset to None at every write to a field
    # it copies (buffer, last_bitrate, received, inflight, playback_finished)
    info: PeerInfo | None = None

    def __post_init__(self):
        self.num_segments = self.profile.num_segments
        self.is_video_user = self.profile.is_video_user

    @property
    def remaining(self) -> int:
        return self.num_segments - self.received - self.inflight


@dataclass
class SimResult:
    horizon: float
    profiles: dict[int, UserProfile]
    downloads: dict[int, DownloadSequence]
    receives: dict[int, ReceiveSequence]
    breakdowns: dict[int, WelfareBreakdown]
    messages: MessageStats
    aborts: dict[int, tuple[int, float]]  # per downloader: (count, energy charged)

    @property
    def social_welfare(self) -> float:
        return sum(b.welfare for b in self.breakdowns.values())

    def avg_bitrate(self) -> float:
        rates = [r for rx in self.receives.values() for r in rx.bitrates]
        return sum(rates) / len(rates) if rates else 0.0

    def rebuffer_by_user(self) -> dict[int, float]:
        """Stall seconds charged by the QoE model, per video user."""
        return {
            uid: sum(d for _, d in rebuf_loss(self.receives[uid], prof)[1])
            if uid in self.receives
            else 0
            for uid, prof in sorted(self.profiles.items())
            if prof.is_video_user
        }

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
        self.heap: list = []
        self.seq = 0
        # Hotspot-occupancy index: each user's hotspot, the users at each
        # hotspot, and a heap of (bound, user, piece) for the next mobility
        # piece of every user whose track has one.
        self.spot: dict[int, int] = {}
        self.occupants: dict[int, set[int]] = {}
        self.moves: list = []
        for uid in self.profiles:
            track = mob_trace.tracks[uid]
            self.spot[uid] = track.values[0]
            self.occupants.setdefault(track.values[0], set()).add(uid)
            if len(track.values) > 1:
                self.moves.append((track.bounds[1], uid, 1))
        heapq.heapify(self.moves)

    # -- event plumbing ----------------------------------------------------

    def _push(self, t, kind, uid, payload=None, gen=None):
        self.seq += 1
        heapq.heappush(self.heap, (t, kind, uid, self.seq, gen, payload))

    def _schedule_decision(self, uid, t):
        # Supersedes any pending decision event for uid via the gen counter.
        st = self.users[uid]
        st.gen += 1
        self._push(t, _DECIDE, uid, gen=st.gen)

    def _wake_parked(self, t):
        # A parked user has no transfer in flight, so it may decide now.
        for uid, st in self.users.items():
            if st.parked:
                self._schedule_decision(uid, t)

    # -- playback ----------------------------------------------------------

    def _advance(self, uid, to_t):
        st = self.users[uid]
        dt = to_t - st.t_last
        if dt <= 0.0:
            return
        st.t_last = to_t
        if st.received == 0 or st.playback_finished:
            return
        st.info = None
        st.buffer -= min(st.buffer, dt)
        if st.received >= st.num_segments and st.buffer <= TIME_EPS:
            st.playback_finished = True
            st.buffer = 0.0

    # -- group / view construction -----------------------------------------

    def _move_to(self, t):
        """Advance the occupancy index to t; decision times never decrease.

        A piece starting exactly at t applies, as in `_Track.value_at`.
        """
        moves = self.moves
        while moves and moves[0][0] <= t:
            _, uid, i = heapq.heappop(moves)
            track = self.mob.tracks[uid]
            self.occupants[self.spot[uid]].discard(uid)
            self.spot[uid] = spot = track.values[i]
            self.occupants.setdefault(spot, set()).add(uid)
            if i + 1 < len(track.values):
                heapq.heappush(moves, (track.bounds[i + 1], uid, i + 1))

    def _group(self, uid, t) -> list[int]:
        """Users that `uid` encounters at t (itself included), ascending."""
        self._move_to(t)
        spot = self.spot[uid]
        if spot == 0:
            return [uid]
        return sorted(self.occupants[spot])

    def _peer_info(self, uid) -> PeerInfo:
        st = self.users[uid]
        if st.info is None:
            st.info = PeerInfo(
                profile=st.profile,
                buffer=st.buffer,
                last_bitrate=st.last_bitrate,
                remaining=st.remaining,
                inflight=st.inflight,
                playback_started=st.received > 0,
                playback_finished=st.playback_finished,
            )
        return st.info

    # -- coordination protocol accounting ----------------------------------

    def _coordination(self, uid, t, group) -> bool:
        """Count READY/ACK traffic and run sleep/awake transitions.

        Returns True when `uid` may cooperate (awake), False when it stays
        asleep and must act for itself only.
        """
        st = self.users[uid]
        if not st.asleep and st.sleep_deadline is not None and t >= st.sleep_deadline - TIME_EPS:
            st.asleep = True
            st.sleep_deadline = None
            self.msgs.sleep += 1
        others = [m for m in group if m != uid]
        needy = [
            m
            for m in others
            if self.users[m].is_video_user and self.users[m].remaining > 0
        ]
        if st.asleep:
            if needy:
                # A co-located requester pings the sleeper back awake.
                self.msgs.virtual_ack += len(needy)
                self.msgs.awake += 1
                st.asleep = False
                return True
            return False
        if others:
            self.msgs.ready += 1
            self.msgs.ready_times.append(t)
            if needy:
                self.msgs.ack += len(needy)
                st.sleep_deadline = None
                for m in others:
                    peer = self.users[m]
                    if peer.asleep:
                        peer.asleep = False
                        peer.sleep_deadline = None
                        self.msgs.awake += 1
                        if peer.parked:
                            self._schedule_decision(m, t)
            elif st.sleep_deadline is None:
                st.sleep_deadline = t + self.cfg.ack_window
        return True

    # -- decision handling -------------------------------------------------

    def _decide(self, uid, t):
        st = self.users[uid]
        st.parked = False
        if t >= self.T - TIME_EPS:
            return
        h = tr.capacity_at(self.cap, uid, t)
        if h <= 0.0:
            # Dead link: no protocol traffic, come back when the radio has rate.
            st.parked = True
            nxt = tr.next_positive_capacity(self.cap, uid, t)
            if nxt is not None and nxt < self.T:
                self._schedule_decision(uid, max(nxt, t + TIME_EPS))
            return
        group = self._group(uid, t)
        for m in group:
            self._advance(m, t)
        # The non-cooperative benchmark severs the download actions and the
        # coordination protocol, but peers stay observable so the drift
        # estimates see the same surroundings as the cooperative twin.
        if self.cfg.noncoop:
            cooperative = False
        elif not self._coordination(uid, t, group):
            # Asleep with nobody needy nearby: act on own state only.
            cooperative = True
            group = [uid]
        else:
            cooperative = True
        peers = tuple(
            self._peer_info(m) for m in group if self.users[m].is_video_user
        )
        view = SchedulerView(
            profile=st.profile,
            capacity=h,
            peers=peers,
            history=st.history,
            cooperative=cooperative,
        )
        decision = self.scheduler(view)
        if isinstance(decision, Download):
            self._start_download(uid, t, h, group, decision)
        elif isinstance(decision, Wait):
            if decision.duration <= TIME_EPS:
                raise SimError(f"user {uid}: wait duration must be positive")
            st.parked = True
            wake = t + decision.duration
            if wake < self.T:
                self._schedule_decision(uid, wake)
        elif isinstance(decision, Idle):
            # Nothing to do here and now; revisit at the next mobility
            # breakpoint of any user (deliveries and aborts anywhere also
            # wake every parked user).
            st.parked = True
            nxt = self.mob.next_breakpoint(t)
            if nxt is not None and nxt < self.T:
                self._schedule_decision(uid, nxt)
        else:
            raise SimError(f"user {uid}: unknown decision {decision!r}")

    def _start_download(self, uid, t, h, group, decision):
        owner_id, level = decision.owner, decision.level
        if self.cfg.noncoop and owner_id != uid:
            raise SimError(f"user {uid}: cross-download in non-cooperative mode")
        if owner_id not in group:
            raise SimError(f"user {uid}: owner {owner_id} is not co-located")
        prof = self.profiles.get(owner_id)
        if prof is None or not prof.is_video_user:
            raise SimError(f"user {uid}: owner {owner_id} owns no video")
        ost = self.users[owner_id]
        if ost.remaining <= 0:
            raise SimError(f"user {uid}: owner {owner_id} has nothing left to fetch")
        if not 1 <= level <= prof.ladder.top:
            raise SimError(f"user {uid}: level {level} not on owner's ladder")
        beta = prof.segment_len
        if ost.buffer + (ost.inflight + 1) * beta > prof.buffer_cap + TIME_EPS:
            raise SimError(f"user {uid}: owner {owner_id}'s buffer cannot take a segment")
        volume = segment_volume(prof, level)
        t_end = tr.download_end_time(self.cap, uid, t, volume)
        if t_end is None or t_end > self.T + TIME_EPS:
            # Horizon cuts the transfer short: drop it, charge nothing.
            return
        ost.inflight += 1
        ost.info = None
        if owner_id != uid:
            t_sep = tr.first_separation(self.mob, uid, owner_id, t, t_end)
            if t_sep is not None:
                self._push(t_sep, _COMPLETE, uid, payload=("abort", owner_id, t))
                return
        self._push(
            t_end,
            _COMPLETE,
            uid,
            payload=("deliver", owner_id, level, prof.ladder.rate(level), t),
        )

    # -- completion handling -----------------------------------------------

    def _complete(self, uid, t, payload):
        st = self.users[uid]
        kind = payload[0]
        if kind == "deliver":
            _, owner_id, level, bitrate, t_start = payload
            ost = self.users[owner_id]
            self._advance(owner_id, t)
            seq_no = ost.received + 1
            rec = DownloadRecord(uid, owner_id, seq_no, level, bitrate, t_start, t)
            ost.received += 1
            ost.inflight -= 1
            ost.last_bitrate = bitrate
            ost.buffer = min(ost.buffer + ost.profile.segment_len, ost.profile.buffer_cap)
            ost.info = None
            st.records.append(rec)
            dur = t - t_start
            if dur > TIME_EPS:
                st.history += (rec.bitrate * ost.profile.segment_len / dur,)
        else:  # abort: the pair separated mid-download
            _, owner_id, t_start = payload
            ost = self.users[owner_id]
            ost.inflight -= 1
            ost.info = None
            partial = tr.integrate_capacity(self.cap, uid, t_start, t)
            st.abort_cost += st.profile.c_time * (t - t_start) + st.profile.c_data * partial
            st.abort_count += 1
        self._schedule_decision(uid, t)
        self._wake_parked(t)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimResult:
        for st in self.users.values():
            if st.is_video_user and st.remaining > 0:
                self.msgs.virtual_ack += 1
        for uid in self.profiles:
            self._schedule_decision(uid, 0.0)
        while self.heap:
            t, kind, uid, _, gen, payload = heapq.heappop(self.heap)
            if t > self.T + TIME_EPS:
                break
            if kind == _COMPLETE:
                self._complete(uid, t, payload)
            else:
                if gen != self.users[uid].gen:
                    continue  # superseded by a later wake-up
                self._decide(uid, t)
        for uid in self.profiles:
            self._advance(uid, self.T)
        return self._collect()

    def _collect(self) -> SimResult:
        downloads = {}
        for uid, st in self.users.items():
            seq = DownloadSequence(uid, sorted(st.records, key=lambda r: (r.t_start, r.t_end)))
            seq.validate()
            downloads[uid] = seq
        receives = derive_receive_sequences(downloads, self.profiles)
        breakdowns = {}
        for uid, prof in self.profiles.items():
            b = user_welfare(downloads.get(uid), receives.get(uid), prof, self.profiles)
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
    tol: float = 1e-9,
) -> list[str]:
    """Re-verify timing, volume, encounter, and buffer constraints.

    Returns a list of human-readable violations; empty means the run is
    feasible.
    """
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
                vol = rec.volume(owner_prof)
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
    rebuffer = result.rebuffer_by_user()
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
                "rebuffer_s": rebuffer.get(uid, 0.0),
                "aborted_downloads": result.aborts[uid][0],
            }
            for uid, prof in sorted(result.profiles.items())
        },
        "messages": {
            "ready": result.messages.ready,
            "ack": result.messages.ack,
            "virtual_ack": result.messages.virtual_ack,
            "sleep": result.messages.sleep,
            "awake": result.messages.awake,
        },
    }


def write_result_json(result: SimResult, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(result: SimResult, path: str) -> None:
    """Flat download log: downloader,owner,seq_no,level,bitrate,t_start,t_end."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["downloader", "owner", "seq_no", "level", "bitrate", "t_start", "t_end"])
        for uid, seq in sorted(result.downloads.items()):
            for rec in seq.records:
                w.writerow(
                    [
                        rec.downloader,
                        rec.owner,
                        rec.owner_seq_no,
                        rec.level,
                        format(rec.bitrate, ".10g"),
                        format(rec.t_start, ".10g"),
                        format(rec.t_end, ".10g"),
                    ]
                )
