"""Online download schedulers.

Every scheduler is a pure function of a SchedulerView: the deciding user's
local snapshot at a decision instant.  It returns one of three decisions:

* Download(owner, level): fetch the owner's next segment at that level;
* Wait(duration): hold the radio for `duration` seconds, then re-decide;
* Idle: nothing to do until the surroundings change.

The engine re-invokes a scheduler whenever the user's own download
completes or aborts and when its wait timer fires.  Every delivery or
abort anywhere, nearby or not, wakes every parked user, and an idle user
is also re-invoked at the next mobility breakpoint of any user, so Idle
never strands a user.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import partial

from .model import TIME_EPS, UserProfile, segment_volume
from .welfare import decision_welfare


@dataclass(frozen=True)
class Download:
    owner: int
    level: int


@dataclass(frozen=True)
class Wait:
    duration: float


@dataclass(frozen=True)
class Idle:
    pass


Decision = Download | Wait | Idle


@dataclass(frozen=True)
class PeerInfo:
    """What a downloader can observe about one co-located video user."""

    profile: UserProfile
    buffer: float                  # playback buffer, seconds
    last_bitrate: float | None     # bitrate of the most recently received segment
    remaining: int                 # segments nobody has reserved yet
    inflight: int                  # reserved segments not yet delivered
    playback_started: bool
    playback_finished: bool

    @property
    def user_id(self) -> int:
        return self.profile.user_id


@dataclass(frozen=True)
class SchedulerView:
    """Snapshot handed to a scheduler at one decision instant.

    `cooperative` is False in the non-cooperative benchmark regime: peers
    stay visible (their buffers still feed the drift estimates) but only
    the decider's own segments may be downloaded.
    """

    profile: UserProfile            # the decider's own
    capacity: float                 # the decider's cellular rate now, Mbps
    peers: tuple[PeerInfo, ...]     # co-located video users, self included
    history: tuple[float, ...]      # realized Mbps of the decider's past downloads
    cooperative: bool = True

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


def _pending(view: SchedulerView) -> list[PeerInfo]:
    peers = view.peers
    if not view.cooperative:
        me = view.peer(view.user_id)
        peers = (me,) if me is not None else ()
    return [p for p in peers if p.remaining > 0]


def _candidates(view: SchedulerView) -> list[PeerInfo]:
    return [p for p in _pending(view) if can_afford(p)]


def _wait_or_idle(view: SchedulerView):
    """Fallback when no owner can accept a segment right now.

    Per-owner shortfall q + beta - Q is the drain time until the buffer
    can take one more segment; owners blocked only by in-flight segments
    are left to the delivery wake-up instead of a timer.
    """
    shortfalls = []
    for p in _pending(view):
        gap = p.buffer + p.profile.segment_len - p.profile.buffer_cap
        if gap > TIME_EPS:
            shortfalls.append(gap)
    if shortfalls:
        return Wait(min(shortfalls))
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


def _drifting_peers(view: SchedulerView, owner_id: int) -> list[PeerInfo]:
    """Bystanders whose buffers drain during a download: playing, unfinished."""
    return [
        p
        for p in view.peers
        if p.user_id != owner_id and p.playback_started and not p.playback_finished
    ]


def lyapunov_score(view: SchedulerView, owner: PeerInfo, level: int, drift_weight: float) -> float:
    """Drift minus weighted one-step welfare; lower is better."""
    prof = owner.profile
    dl_time = segment_volume(prof, level) / view.capacity
    others = _drifting_peers(view, owner.user_id)
    drift = drift_term(
        prof.buffer_cap,
        owner.buffer,
        projected_owner_buffer(owner.buffer, dl_time, prof.segment_len, prof.buffer_cap),
    )
    for p in others:
        drift += drift_term(
            p.profile.buffer_cap, p.buffer, projected_peer_buffer(p.buffer, dl_time)
        )
    welfare = decision_welfare(
        view.profile,
        prof,
        level,
        view.capacity,
        owner.buffer,
        owner.last_bitrate,
        [(p.profile, p.buffer) for p in others],
    )
    return drift - drift_weight * welfare


def lyapunov_decide(view: SchedulerView, drift_weight: float = 100.0):
    """Pick the (owner, level) minimising drift-plus-penalty; wait if full.

    `drift_weight` weighs the one-step welfare against the buffer drift.
    Ties break toward the lower owner id, then the lower level.
    """
    cands = _candidates(view)
    if not cands:
        return _wait_or_idle(view)
    best = None
    for p in sorted(cands, key=lambda c: c.user_id):
        for level in range(1, p.profile.ladder.top + 1):
            score = lyapunov_score(view, p, level, drift_weight)
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
    """Owner choice shared by the baselines; None means wait/idle fallback."""
    cands = _candidates(view)
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
        return _wait_or_idle(view)
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
        return _wait_or_idle(view)
    tail = view.history[-window:] if window > 0 else ()
    estimate = sum(tail) / len(tail) if tail else view.capacity
    return Download(owner.user_id, _prediction_level(owner, estimate))


# ---------------------------------------------------------------------------
# Registry used by the harness and the CLI.


def _noncoop_decide(view: SchedulerView, drift_weight: float = 100.0):
    """The lyapunov rule on a self-only view: peers still drift, none are served."""
    return lyapunov_decide(replace(view, cooperative=False), drift_weight)


_RULES = {
    "lyapunov": lyapunov_decide,
    "buffer": buffer_based_decide,
    "prediction": prediction_based_decide,
    "noncoop": _noncoop_decide,
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
