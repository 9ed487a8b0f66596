"""Reference formulas for lyapunov's scores, one term at a time.

`schedulers.lyapunov_scores` inlines all of them; the tests score views
both ways and compare.  They follow README's stall rule (Lyapunov
decisions): only a user whose playback has started and not finished can
stall, so an owner still waiting for its first segment is charged no stall
for it, and its own drift starts from its drained buffer like everyone
else's.
"""

from __future__ import annotations

from coopstream.model import ModelError, UserProfile, segment_volume
from coopstream.welfare import quality_value


def projected_owner_buffer(buffer: float, dl_time: float, beta: float, cap: float) -> float:
    """Owner's buffer at estimated completion: drain, then gain one segment."""
    return min(cap, max(buffer - dl_time, 0.0) + beta)


def projected_peer_buffer(buffer: float, dl_time: float) -> float:
    """A bystander's buffer after draining through the download."""
    return max(buffer - dl_time, 0.0)


def drift_term(cap: float, q_now: float, q_next: float) -> float:
    """Change in the squared backlog 0.5 * (Q - q)^2 for one buffer."""
    return 0.5 * ((cap - q_next) ** 2 - (cap - q_now) ** 2)


def decision_welfare(
    decider: UserProfile,
    owner: UserProfile,
    level: int,
    capacity: float,
    owner_last_bitrate: float | None,
    playing: list[tuple[UserProfile, float]],
) -> float:
    """Estimated one-step welfare of downloading one segment now.

    `decider` fetches `owner`'s next segment at `level` over a link running
    at `capacity` Mbps.  The estimate charges the decider's energy, credits
    the owner's playback value net of estimated degradation, and charges
    every playing user (a co-located video user whose playback has started
    and not finished, passed as (profile, buffer)) for the stall the
    download time would inflict.  The owner is one of them once it plays;
    before that it has nothing to stall.
    """
    if capacity <= 0.0:
        raise ModelError("decision_welfare requires positive capacity")
    rate = owner.ladder.rate(level)
    volume = segment_volume(owner, level)
    dl_time = volume / capacity

    cost = decider.c_time * dl_time + decider.c_data * volume
    if owner.user_id != decider.user_id:
        cost += decider.w_data * volume

    gain = quality_value(owner.theta, rate) * owner.segment_len
    if owner_last_bitrate is not None:
        gain -= owner.phi_qdeg * max(owner_last_bitrate - rate, 0.0)
    for prof, buf in playing:
        gain -= prof.phi_rebuf * max(dl_time - buf, 0.0)
    return gain - cost
