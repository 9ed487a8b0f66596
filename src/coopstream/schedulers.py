"""Online download schedulers.

Every scheduler is a pure function of a SchedulerView: the deciding user's
local snapshot at a decision instant.  It returns one of three decisions:

* Download(owner, level): fetch the owner's next segment at that level;
* Wait(until): hold the radio until the absolute instant `until`, then
  re-decide;
* Idle: nothing to do until the surroundings change.

The view names the pending owners, the peers the decider may serve: the
engine fills `SchedulerView.pending` (see `coopstream.engine`), and no rule
decides it.  When none of them can take a segment, the answer is
`hold(pending)`: a Wait until the earliest instant an owner's buffer has
room, or Idle.  The engine answers that itself, so it asks a scheduler
only when a transfer can start; the rules still answer it, so each stays a
total function of its view for a direct caller.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from .model import TIME_EPS, UserProfile
from .welfare import quality_value


@dataclass(frozen=True)
class Download:
    owner: int
    level: int


@dataclass(frozen=True)
class Wait:
    until: float   # absolute instant, seconds


@dataclass(frozen=True)
class Idle:
    pass


Decision = Download | Wait | Idle


@dataclass(slots=True)
class PeerInfo:
    """What a downloader can observe about one co-located video user, at
    one decision instant; the engine builds it afresh for every view."""

    profile: UserProfile
    buffer: float                  # playback buffer, seconds
    last_bitrate: float | None     # bitrate of the most recently received segment
    remaining: int                 # segments nobody has reserved yet
    inflight: int                  # reserved segments not yet delivered
    playback_started: bool
    playback_finished: bool
    room_at: float                 # instant the buffer can take one more segment

    @property
    def user_id(self) -> int:
        return self.profile.user_id


@dataclass(frozen=True)
class SchedulerView:
    """Snapshot handed to a scheduler at one decision instant.

    `peers` are every co-located video user, whose buffers feed the drift
    estimates; `pending` are those of them the decider may serve, as the
    engine names them.
    """

    profile: UserProfile            # the decider's own
    capacity: float                 # the decider's cellular rate now, Mbps
    peers: tuple[PeerInfo, ...]     # co-located video users, self included
    history: tuple[float, ...]      # realized Mbps of the decider's past downloads
    pending: tuple[PeerInfo, ...]   # the peers the decider may serve

    @property
    def user_id(self) -> int:
        return self.profile.user_id

    def peer(self, user_id: int) -> PeerInfo | None:
        for p in self.peers:
            if p.user_id == user_id:
                return p
        return None


def can_afford(peer: PeerInfo) -> bool:
    """True when one more segment (on top of everything in flight) fits."""
    beta = peer.profile.segment_len
    return peer.buffer + (peer.inflight + 1) * beta <= peer.profile.buffer_cap + TIME_EPS


def hold(pending: Sequence[PeerInfo]):
    """None when a pending owner can take a segment now; otherwise the
    answer to the decision, `_wait_or_idle(pending)`."""
    for p in pending:
        if can_afford(p):
            return None
    return _wait_or_idle(pending)


def _wait_or_idle(pending: Sequence[PeerInfo]):
    """Fallback when no pending owner can accept a segment right now.

    An owner with a shortfall q + beta - Q has a buffer that can take one
    more segment once it drains, at its `room_at`; wait for the earliest.
    Owners blocked only by in-flight segments are left to the delivery
    wake-up instead of a timer.
    """
    rooms = []
    for p in pending:
        gap = p.buffer + p.profile.segment_len - p.profile.buffer_cap
        if gap > TIME_EPS:
            rooms.append(p.room_at)
    if rooms:
        return Wait(min(rooms))
    return Idle()


# ---------------------------------------------------------------------------
# Drift-plus-penalty scheduler.


def projected_owner_buffer(buffer: float, dl_time: float, beta: float, cap: float) -> float:
    """Owner's buffer at estimated completion: drain, then gain one segment."""
    return min(cap, max(buffer - dl_time, 0.0) + beta)


def projected_peer_buffer(buffer: float, dl_time: float) -> float:
    """A bystander's buffer after draining through the download."""
    return max(buffer - dl_time, 0.0)


def drift_term(cap: float, q_now: float, q_next: float) -> float:
    """Change in the squared backlog 0.5 * (Q - q)^2 for one buffer."""
    return 0.5 * ((cap - q_next) ** 2 - (cap - q_now) ** 2)


def _drifting(view: SchedulerView) -> list[tuple]:
    """(uid, Q, q, (Q - q)**2, phi_rebuf) of each peer whose buffer drains
    during a download: playing and unfinished."""
    return [
        (p.user_id, p.profile.buffer_cap, p.buffer,
         (p.profile.buffer_cap - p.buffer) ** 2, p.profile.phi_rebuf)
        for p in view.peers
        if p.playback_started and not p.playback_finished
    ]


def lyapunov_scores(
    view: SchedulerView, owner: PeerInfo, drift_weight: float, drifting: list[tuple] | None = None
) -> list[float]:
    """Drift minus weighted one-step welfare of fetching `owner`'s next
    segment, one score per ladder level (index level - 1); lower is better.

    The drift is `drift_term` over `projected_owner_buffer` plus, for every
    drifting bystander, `drift_term` over `projected_peer_buffer`; the
    welfare is `decision_welfare` with those bystanders.  Each quantity keeps
    one accumulator, added in that order, so every score is bit for bit the
    composition of those functions.  `drifting` is `_drifting(view)` when the
    caller has it already.
    """
    if drifting is None:
        drifting = _drifting(view)
    decider = view.profile
    prof = owner.profile
    uid = owner.user_id
    others = [d for d in drifting if d[0] != uid]
    beta, cap, q = prof.segment_len, prof.buffer_cap, owner.buffer
    base = (cap - q) ** 2
    helping = uid != decider.user_id
    last = owner.last_bitrate
    scores = []
    for rate in prof.ladder.rates:
        volume = rate * beta
        dl_time = volume / view.capacity
        # owner: drain through the download, then gain one segment
        q_next = q - dl_time
        q_next = (0.0 if q_next < 0.0 else q_next) + beta
        drift = 0.5 * ((cap - (q_next if q_next < cap else cap)) ** 2 - base)
        cost = decider.c_time * dl_time + decider.c_data * volume
        if helping:
            cost += decider.w_data * volume
        gain = quality_value(prof.theta, rate) * beta
        if last is not None:
            drop = last - rate
            gain -= prof.phi_qdeg * (0.0 if drop < 0.0 else drop)
        stall = dl_time - q
        gain -= prof.phi_rebuf * (0.0 if stall < 0.0 else stall)
        for _, p_cap, p_q, p_base, phi in others:
            left = p_q - dl_time
            drift += 0.5 * ((p_cap - (0.0 if left < 0.0 else left)) ** 2 - p_base)
            stall = dl_time - p_q
            gain -= phi * (0.0 if stall < 0.0 else stall)
        scores.append(drift - drift_weight * (gain - cost))
    return scores


def _contenders(view: SchedulerView, cands: list[PeerInfo], drift_weight: float,
                drifting: list[tuple]) -> list[PeerInfo]:
    """The candidates whose best `lyapunov_scores` entry can be the least.

    Per ladder (rates, segment length and theta, which a scenario gives
    every user alike), each level's value, costs and bystander drift and
    stall terms summed over every drifting peer are built once; an owner's
    approximate scores swap its own terms in, O(levels) per owner.  Each
    term is computed as `lyapunov_scores` computes it, so only the
    summation order differs, by far less than 1e-9 of the sum of the terms'
    absolute values: an owner whose approximate best exceeds the least by
    more than twice that margin scores strictly worse and cannot win even a
    tie.  Pending owners are peers, so an owner's own flags say whether it
    drifts.
    """
    decider = view.profile
    weight = abs(drift_weight)
    ladders, bests, size = {}, [], 0.0
    for owner in cands:
        prof = owner.profile
        beta, cap, q, phi = prof.segment_len, prof.buffer_cap, owner.buffer, prof.phi_rebuf
        rows = ladders.get(key := (prof.ladder.rates, beta, prof.theta))
        if rows is None:
            rows = ladders[key] = []
            for rate in prof.ladder.rates:
                volume = rate * beta
                dl_time = volume / view.capacity
                charge, data, relay = decider.c_time * dl_time, decider.c_data * volume, decider.w_data * volume
                value = quality_value(prof.theta, rate) * beta
                drift = stalls = 0.0
                total = weight * (abs(value) + abs(charge) + abs(data) + abs(relay))
                for _, p_cap, p_q, p_base, p_phi in drifting:
                    left = p_q - dl_time
                    term = 0.5 * ((p_cap - (0.0 if left < 0.0 else left)) ** 2 - p_base)
                    stall = dl_time - p_q
                    stall = p_phi * (0.0 if stall < 0.0 else stall)
                    drift += term
                    stalls += stall
                    total += abs(term) + weight * abs(stall)
                cost = charge + data
                rows.append((rate, dl_time, value, (cost, cost + relay), drift, stalls, total))
        base = (cap - q) ** 2
        drifts = owner.playback_started and not owner.playback_finished
        helping = owner.user_id != decider.user_id
        last = -math.inf if owner.last_bitrate is None else owner.last_bitrate
        phi_qdeg, best = prof.phi_qdeg, math.inf
        for rate, dl_time, value, costs, drift, stalls, total in rows:
            left = q - dl_time
            left = 0.0 if left < 0.0 else left
            q_next = left + beta
            own = 0.5 * ((cap - (q_next if q_next < cap else cap)) ** 2 - base)
            drop = 0.0 if last < rate else phi_qdeg * (last - rate)
            stall = dl_time - q
            stall = phi * (0.0 if stall < 0.0 else stall)
            if drifts:   # its bystander stall term is its own stall term
                drift -= 0.5 * ((cap - left) ** 2 - base)
            else:
                stalls += stall
            score = own + drift - drift_weight * (value - drop - stalls - costs[helping])
            best = score if score < best else best
            total += abs(own) + weight * (abs(drop) + abs(stall))
            size = total if total > size else size
        bests.append(best)
    margin = 1e-9 * size
    limit = min(bests) + margin
    return [p for p, best in zip(cands, bests) if not best - margin > limit]


def lyapunov_decide(view: SchedulerView, drift_weight: float = 100.0):
    """Pick the (owner, level) with the least `lyapunov_scores` entry.

    `drift_weight` weighs the one-step welfare against the buffer drift.
    Ties break toward the lower owner id, then the lower level.  Without a
    candidate (a pending owner that can take a segment) the answer is the
    hold, `_wait_or_idle(pending)`.  With three or more, only those that
    `_contenders` keeps are scored, and the decision is still full
    scoring's, bit for bit; with two, screening costs more than it saves.
    """
    cands = [p for p in view.pending if can_afford(p)]
    if not cands:
        return _wait_or_idle(view.pending)
    drifting = _drifting(view)
    if len(cands) >= 3:
        cands = _contenders(view, cands, drift_weight, drifting)
    best = None
    for p in sorted(cands, key=lambda c: c.user_id):
        for level, score in enumerate(lyapunov_scores(view, p, drift_weight, drifting), 1):
            key = (score, p.user_id, level)
            if best is None or key < best:
                best = key
    return Download(best[1], best[2])


# ---------------------------------------------------------------------------
# Rule-based baselines.  Both share the owner-selection rule: help the
# minimum-buffer user only when one's own buffer holds at least
# `low_reserve` of its cap and leads the helped user's by at least `min_gap`
# seconds; they differ in how the bitrate level is chosen.


def _choose_owner(view: SchedulerView, low_reserve: float, min_gap: float):
    """Owner choice shared by the baselines; None means wait/idle fallback.

    It is None whenever no pending owner can take a segment, so the
    baselines' fallback is then `hold(view.pending)`.
    """
    cands = [p for p in view.pending if can_afford(p)]
    if not cands:
        return None
    poorest = min(cands, key=lambda p: (p.buffer, p.user_id))
    me = view.peer(view.user_id)
    own_active = me is not None and me.remaining > 0
    if not own_active:
        # No own demand to protect: help unconditionally.
        return poorest
    helping = (
        poorest.user_id != view.user_id
        and me.buffer >= low_reserve * me.profile.buffer_cap - TIME_EPS
        and me.buffer - poorest.buffer >= min_gap - TIME_EPS
    )
    if helping:
        return poorest
    if can_afford(me):
        return me
    return None


def _buffer_level(owner: PeerInfo) -> int:
    """Map the owner's buffer fill fraction onto the ladder."""
    ladder = owner.profile.ladder
    frac = owner.buffer / owner.profile.buffer_cap
    z = math.ceil(frac * ladder.top)
    return max(1, min(ladder.top, z))


def buffer_based_decide(view: SchedulerView, low_reserve: float = 0.5, min_gap: float = 4.0):
    """Baseline: bitrate follows the owner's buffer fill level; owner by the shared rule."""
    owner = _choose_owner(view, low_reserve, min_gap)
    if owner is None:
        return _wait_or_idle(view.pending)
    return Download(owner.user_id, _buffer_level(owner))


def _prediction_level(owner: PeerInfo, estimate: float) -> int:
    """Highest ladder rate the estimated throughput can sustain."""
    ladder = owner.profile.ladder
    level = 1
    for z in range(1, ladder.top + 1):
        if ladder.rate(z) <= estimate + TIME_EPS:
            level = z
    return level


def prediction_based_decide(
    view: SchedulerView, low_reserve: float = 0.5, min_gap: float = 4.0, window: int = 3
):
    """Baseline: bitrate follows the mean Mbps of the last `window` completed
    downloads (the current capacity before any); owner by the shared rule."""
    owner = _choose_owner(view, low_reserve, min_gap)
    if owner is None:
        return _wait_or_idle(view.pending)
    tail = view.history[-window:] if window > 0 else ()
    estimate = sum(tail) / len(tail) if tail else view.capacity
    return Download(owner.user_id, _prediction_level(owner, estimate))


# ---------------------------------------------------------------------------
# Registry used by the harness and the CLI.


_RULES = {
    "lyapunov": lyapunov_decide,
    "buffer": buffer_based_decide,
    "prediction": prediction_based_decide,
}
SCHEDULER_NAMES = tuple(_RULES)


def make_scheduler(name: str, **params):
    """Build a named scheduler callable: view -> decision; a bad `params` key raises TypeError."""
    rule = _RULES.get(name)
    if rule is None:
        raise ValueError(f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}")
    inspect.signature(rule).bind(None, **params)
    fn = partial(rule, **params)
    fn.name = name
    return fn
