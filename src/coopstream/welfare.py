"""QoE, energy, and welfare accounting over download / receive sequences.

Welfare of a user = playback value - quality-degradation loss - rebuffering
loss - cellular energy - local-exchange energy.  Social welfare is the sum
over users.  All terms are computed from emitted sequences only, so any
scheduler's output can be scored after the fact.
"""

from __future__ import annotations

import math

from .model import (
    DownloadSequence,
    ModelError,
    ReceiveSequence,
    UserProfile,
    WelfareBreakdown,
    derive_receive_sequences,
    segment_volume,
)

# (owner_seq_no, stall seconds) pairs; one entry per stalled segment.
RebufferLog = list[tuple[int, float]]


def quality_value(theta: float, bitrate: float) -> float:
    """Per-second playback value of watching at `bitrate`: log(1 + theta * r)."""
    return math.log(1.0 + theta * bitrate)


def total_value(rx: ReceiveSequence, profile: UserProfile) -> float:
    """Playback value accrued over every received segment."""
    rates = (profile.ladder.rate(rec.level) for rec in rx.records)
    return sum(quality_value(profile.theta, r) * profile.segment_len for r in rates)


def qdeg_loss(rx: ReceiveSequence, profile: UserProfile) -> float:
    """Penalty for downward bitrate switches between consecutive segments."""
    loss = 0.0
    rates = [profile.ladder.rate(rec.level) for rec in rx.records]
    for prev, cur in zip(rates, rates[1:]):
        loss += profile.phi_qdeg * max(prev - cur, 0.0)
    return loss


def buffer_trajectory(rx: ReceiveSequence, profile: UserProfile) -> list[float]:
    """Playback buffer level (seconds) right after each receipt.

    The buffer drains at one second per second from the first receipt on
    and gains segment_len per receipt; never negative between receipts.
    """
    levels: list[float] = []
    q = 0.0
    times = rx.receive_times
    for k, t in enumerate(times):
        if k > 0:
            q = max(q - (t - times[k - 1]), 0.0)
        q += profile.segment_len
        levels.append(q)
    return levels


def rebuf_loss(rx: ReceiveSequence, profile: UserProfile) -> tuple[float, RebufferLog]:
    """Rebuffering penalty plus a per-segment log of stall durations.

    Segment k stalls for the part of the inter-receipt gap that the buffer
    left after receipt k-1 could not cover; the first segment never charges.
    This is README's stall rule (Stalls): start-up and the tail after the
    last receipt are free.
    """
    log: RebufferLog = []
    total = 0.0
    times = rx.receive_times
    levels = buffer_trajectory(rx, profile)
    for k in range(1, len(times)):
        stall = max(times[k] - times[k - 1] - levels[k - 1], 0.0)
        if stall > 0.0:
            log.append((k + 1, stall))
            total += profile.phi_rebuf * stall
    return total, log


def energy_cell(dl: DownloadSequence, profile: UserProfile, profiles: dict[int, UserProfile]) -> float:
    """Cellular energy spent by the downloader: radio time plus data volume."""
    total = 0.0
    for rec in dl.records:
        total += profile.c_time * rec.duration
        total += profile.c_data * segment_volume(profiles[rec.owner], rec.level)
    return total


def energy_wifi(dl: DownloadSequence, profile: UserProfile, profiles: dict[int, UserProfile]) -> float:
    """Local-exchange energy for relayed segments; transfer time costs nothing."""
    total = 0.0
    for rec in dl.records:
        if rec.owner != rec.downloader:
            total += profile.w_data * segment_volume(profiles[rec.owner], rec.level)
    return total


def user_welfare(
    dl: DownloadSequence | None,
    rx: ReceiveSequence | None,
    profile: UserProfile,
    profiles: dict[int, UserProfile],
    rebuf: tuple[float, RebufferLog] | None = None,
) -> WelfareBreakdown:
    """Full welfare breakdown for one user from its two sequences.

    `rebuf` is rebuf_loss(rx, profile) when the caller has it already.
    """
    value = loss_q = loss_r = e_cell = e_wifi = 0.0
    if rx is not None and rx.records:
        if not profile.is_video_user:
            raise ModelError(f"idle helper {profile.user_id} cannot receive segments")
        value = total_value(rx, profile)
        loss_q = qdeg_loss(rx, profile)
        loss_r, _ = rebuf if rebuf is not None else rebuf_loss(rx, profile)
    if dl is not None and dl.records:
        e_cell = energy_cell(dl, profile, profiles)
        e_wifi = energy_wifi(dl, profile, profiles)
    return WelfareBreakdown(value, loss_q, loss_r, e_cell, e_wifi)


def welfare_breakdowns(
    downloads: dict[int, DownloadSequence], profiles: dict[int, UserProfile]
) -> dict[int, WelfareBreakdown]:
    """Per-user breakdowns, with receive sequences derived from the downloads."""
    receives = derive_receive_sequences(downloads, profiles)
    return {
        uid: user_welfare(downloads.get(uid), receives.get(uid), prof, profiles)
        for uid, prof in sorted(profiles.items())
    }

