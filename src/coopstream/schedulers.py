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


@dataclass(slots=True)
class PeerInfo:
    """What a downloader can observe about one co-located video user, at
    one decision instant: only the facts some rule reads, so whether the
    user has segments left to reserve is for the view's `pending` to say.
    Each serves one view: a pending owner's is the one the
    engine's hold was built from at that instant, and the engine reads
    none once a scheduler has it, so a scheduler may write over it."""

    profile: UserProfile
    buffer: float                  # playback buffer, seconds
    last_bitrate: float | None     # bitrate of the most recently received segment
    inflight: int                  # reserved segments not yet delivered
    playing: bool                  # playback started and not finished; a stall plays
    room_at: float                 # instant the buffer can take one more segment

    @property
    def user_id(self) -> int:
        return self.profile.user_id


@dataclass(frozen=True)
class SchedulerView:
    """Snapshot handed to a scheduler at one decision instant.

    `peers` are every co-located video user, whose buffers feed the drift
    estimates; `pending` are those of them the decider may serve, as the
    engine names them, so the decider has segments of its own to fetch
    exactly when its snapshot is among them.
    """

    profile: UserProfile            # the decider's own
    capacity: float                 # the decider's cellular rate now, Mbps
    peers: tuple[PeerInfo, ...]     # co-located video users, self included
    history: tuple[float, ...]      # realized Mbps of the decider's past downloads
    pending: tuple[PeerInfo, ...]   # the peers the decider may serve

    @property
    def user_id(self) -> int:
        return self.profile.user_id


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


def lyapunov_scores(
    view: SchedulerView, owners: Sequence[PeerInfo], drift_weight: float
) -> list[list[float]]:
    """Drift minus weighted one-step welfare of fetching each owner's next
    segment: per owner, one score per ladder level (index level - 1); lower
    is better.

    The drift is the change in 0.5 * (Q - q)^2 of every drifting peer (one
    whose snapshot says `playing`) drained through the download, in view
    order, plus the owner's own change from its drained buffer to that plus
    one segment, capped at Q.  The welfare is the owner's value, less its
    degradation, the drifting peers' stalls and the decider's costs.  A
    playing owner's own drain and stall are among the peers'; an owner that
    has not started is at buffer 0 and stalls nothing, by README's stall
    rule (Stalls).  The sums, each level's value and the costs depend only
    on the ladder's rates, the segment length and the owner's theta, so they
    are built once per such row key (one per view when every user shares a
    theta and a ladder), and owners in equal states score bit-equal
    wherever they sit among the peers.
    """
    decider = view.profile
    drifting = [
        (p.profile.buffer_cap, p.buffer, (p.profile.buffer_cap - p.buffer) ** 2, p.profile.phi_rebuf)
        for p in view.peers if p.playing
    ]
    totals, ladders = {}, []
    for owner in owners:
        prof = owner.profile
        beta, cap, q, theta = prof.segment_len, prof.buffer_cap, owner.buffer, prof.theta
        rows = totals.get(key := (prof.ladder.rates, beta, theta))
        if rows is None:
            rows = totals[key] = []
            for rate in prof.ladder.rates:
                volume = rate * beta
                dl_time = volume / view.capacity
                drift = stalls = 0.0
                for p_cap, p_q, p_base, p_phi in drifting:
                    left = p_q - dl_time
                    drift += 0.5 * ((p_cap - (0.0 if left < 0.0 else left)) ** 2 - p_base)
                    stall = dl_time - p_q
                    stalls += p_phi * (0.0 if stall < 0.0 else stall)
                cost = decider.c_time * dl_time + decider.c_data * volume
                value = quality_value(theta, rate) * beta
                rows.append((rate, dl_time, value, (cost, cost + decider.w_data * volume), drift, stalls))
        helping = owner.user_id != decider.user_id
        last = -math.inf if owner.last_bitrate is None else owner.last_bitrate
        phi_qdeg, scores = prof.phi_qdeg, []
        for rate, dl_time, value, costs, drift, stalls in rows:
            left = q - dl_time
            left = 0.0 if left < 0.0 else left
            q_next = left + beta
            q_next = q_next if q_next < cap else cap
            # a playing owner's bystander terms are in the totals already
            drift += 0.5 * ((cap - q_next) ** 2 - (cap - left) ** 2)
            drop = 0.0 if last < rate else phi_qdeg * (last - rate)
            welfare = value - drop - stalls - costs[helping]
            scores.append(drift - drift_weight * welfare)
        ladders.append(scores)
    return ladders


def lyapunov_decide(view: SchedulerView, drift_weight: float = 100.0):
    """Pick the (owner, level) with the least `lyapunov_scores` entry.

    `drift_weight` weighs the one-step welfare against the buffer drift.
    Ties break toward the lower owner id, then the lower level.  Without a
    candidate (a pending owner that can take a segment) the answer is the
    hold, `_wait_or_idle(pending)`.
    """
    cands = [p for p in view.pending if can_afford(p)]
    if not cands:
        return _wait_or_idle(view.pending)
    best = None
    for p, scores in zip(cands, lyapunov_scores(view, cands, drift_weight)):
        score = min(scores)
        key = (score, p.user_id, scores.index(score) + 1)
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
    me = next((p for p in view.pending if p.user_id == view.user_id), None)
    if me is None:
        # Not pending itself, so no own demand to protect: help unconditionally.
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
    view: SchedulerView, low_reserve: float = 0.5, min_gap: float = 4.0, prediction_window: int = 3
):
    """Baseline: bitrate follows the mean Mbps of the last `prediction_window`
    completed downloads (the current capacity before any); owner by the
    shared rule."""
    owner = _choose_owner(view, low_reserve, min_gap)
    if owner is None:
        return _wait_or_idle(view.pending)
    tail = view.history[-prediction_window:] if prediction_window > 0 else ()
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


def rule_params(name: str) -> tuple[str, ...]:
    """The keyword parameters of a named scheduler, every one after its view;
    an unknown name raises ValueError."""
    rule = _RULES.get(name)
    if rule is None:
        raise ValueError(f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}")
    return tuple(inspect.signature(rule).parameters)[1:]


def make_scheduler(name: str, **params):
    """Build a named scheduler callable: view -> decision; a bad `params` key raises TypeError."""
    unknown = sorted(params.keys() - set(rule_params(name)))
    if unknown:
        raise TypeError(f"scheduler {name!r} has no parameter {unknown[0]!r}")
    fn = partial(_RULES[name], **params)
    fn.name = name
    return fn
