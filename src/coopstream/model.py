"""Shared domain types for cooperative segmented video streaming.

Units are fixed across the package: times in seconds, bitrates in Mbps,
data volumes in Mbit.  Segment `k` of a user's video is the k-th piece in
playback order, 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Slack applied to every time / volume comparison in the package.
TIME_EPS = 1e-9
VOL_EPS = 1e-9


class ModelError(ValueError):
    """Raised when an object violates one of the structural invariants."""


@dataclass(frozen=True)
class BitrateLadder:
    """Encoding rates available for a video, strictly increasing, levels 1..Z."""

    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) == 0:
            raise ModelError("bitrate ladder must contain at least one rate")
        if any(r <= 0.0 for r in self.rates):
            raise ModelError("bitrate ladder rates must be positive")
        if any(b <= a for a, b in zip(self.rates, self.rates[1:])):
            raise ModelError("bitrate ladder rates must be strictly increasing")

    @property
    def top(self) -> int:
        """Highest level index Z."""
        return len(self.rates)

    def rate(self, level: int) -> float:
        """Bitrate (Mbps) of 1-based `level`."""
        if not 1 <= level <= len(self.rates):
            raise ModelError(f"ladder level {level} out of range 1..{len(self.rates)}")
        return self.rates[level - 1]


@dataclass(frozen=True)
class UserProfile:
    """Per-user constants: video parameters, QoE and energy coefficients.

    Idle helpers carry video_len = 0; they never own segments but may
    download for others.  A profile is valid when built: ModelError names
    the first violated invariant.
    """

    user_id: int
    ladder: BitrateLadder
    segment_len: float          # seconds of playback per segment
    buffer_cap: float           # playback buffer ceiling, seconds
    video_len: float            # total video duration, seconds (0 = idle helper)
    theta: float = 1.0          # log-value steepness per Mbps
    phi_qdeg: float = 1.0       # penalty per Mbps of downward bitrate switch
    phi_rebuf: float = 1.0      # penalty per second of rebuffering
    c_time: float = 0.5         # cellular energy per second of radio time
    c_data: float = 0.1         # cellular energy per Mbit downloaded
    w_data: float = 0.05        # local-exchange energy per Mbit relayed

    def __post_init__(self):
        if self.segment_len <= 0.0:
            raise ModelError("segment_len must be positive")
        if self.buffer_cap < self.segment_len - TIME_EPS:
            raise ModelError("buffer_cap must be at least one segment_len")
        if self.video_len < 0.0:
            raise ModelError("video_len must be nonnegative")
        k = self.video_len / self.segment_len
        if abs(k - round(k)) > TIME_EPS:
            raise ModelError("video_len must be an integer multiple of segment_len")
        for name in ("theta", "phi_qdeg", "phi_rebuf", "c_time", "c_data", "w_data"):
            if getattr(self, name) < 0.0:
                raise ModelError(f"coefficient {name} must be nonnegative")

    @property
    def is_video_user(self) -> bool:
        return self.video_len > 0.0

    @property
    def num_segments(self) -> int:
        """Total segments in this user's video."""
        return int(round(self.video_len / self.segment_len))


def segment_volume(owner: UserProfile, level: int) -> float:
    """Data volume (Mbit) of one of `owner`'s segments encoded at `level`."""
    return owner.ladder.rate(level) * owner.segment_len


@dataclass(frozen=True)
class DownloadRecord:
    """One completed segment download.

    owner_seq_no is the segment's position in the owner's playback order;
    the record's t_end is the instant the owner receives the segment.  Its
    bitrate is the owner's `ladder.rate(level)` and its volume
    `segment_volume(owner, level)`.
    """

    downloader: int
    owner: int
    owner_seq_no: int
    level: int
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.owner_seq_no < 1:
            raise ModelError("owner_seq_no must be 1-based")
        if self.level < 1:
            raise ModelError("level must be 1-based")
        if self.t_end < self.t_start - TIME_EPS:
            raise ModelError("download must not end before it starts")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class DownloadSequence:
    """All downloads performed by one user, in start-time order.

    Back-to-back is allowed, overlap is not: each record must start no
    earlier than the previous one ended.
    """

    downloader: int
    records: list[DownloadRecord] = field(default_factory=list)

    def validate(self) -> None:
        for rec in self.records:
            if rec.downloader != self.downloader:
                raise ModelError("record downloader does not match sequence owner")
        for a, b in zip(self.records, self.records[1:]):
            if b.t_start < a.t_end - TIME_EPS:
                raise ModelError(
                    f"downloads overlap: one ends at {a.t_end}, next starts at {b.t_start}"
                )


@dataclass
class ReceiveSequence:
    """Segments received by one video user, sorted by owner_seq_no."""

    owner: int
    records: list[DownloadRecord] = field(default_factory=list)

    def validate(self, profile: UserProfile) -> None:
        for rec in self.records:
            if rec.owner != self.owner:
                raise ModelError("record owner does not match sequence owner")
        for i, rec in enumerate(self.records):
            if rec.owner_seq_no != i + 1:
                raise ModelError(
                    f"receive sequence not contiguous: position {i + 1} holds seq_no {rec.owner_seq_no}"
                )
        for a, b in zip(self.records, self.records[1:]):
            if b.t_end < a.t_end - TIME_EPS:
                raise ModelError("receive times must be nondecreasing in playback order")
        if len(self.records) > profile.num_segments:
            raise ModelError("more segments received than the video contains")

    @property
    def receive_times(self) -> list[float]:
        return [rec.t_end for rec in self.records]


def derive_receive_sequences(
    downloads: dict[int, DownloadSequence], profiles: dict[int, UserProfile]
) -> dict[int, ReceiveSequence]:
    """Group download records by owner into per-owner receive sequences.

    Raises ModelError on duplicate (owner, owner_seq_no) pairs, unknown
    owners, or sequences that fail their structural checks.
    """
    by_owner: dict[int, list[DownloadRecord]] = {}
    seen: set[tuple[int, int]] = set()
    for seq in downloads.values():
        for rec in seq.records:
            if rec.owner not in profiles:
                raise ModelError(f"record for unknown owner {rec.owner}")
            if not profiles[rec.owner].is_video_user:
                raise ModelError(f"idle helper {rec.owner} cannot own segments")
            key = (rec.owner, rec.owner_seq_no)
            if key in seen:
                raise ModelError(f"duplicate segment delivery {key}")
            seen.add(key)
            by_owner.setdefault(rec.owner, []).append(rec)
    out: dict[int, ReceiveSequence] = {}
    for owner, recs in sorted(by_owner.items()):
        recs.sort(key=lambda r: r.owner_seq_no)
        rx = ReceiveSequence(owner, recs)
        rx.validate(profiles[owner])
        out[owner] = rx
    return out


@dataclass(frozen=True)
class WelfareBreakdown:
    """Welfare components for one user; derived quantities are properties."""

    value: float = 0.0
    loss_qdeg: float = 0.0
    loss_rebuf: float = 0.0
    energy_cell: float = 0.0
    energy_wifi: float = 0.0

    @property
    def utility(self) -> float:
        return self.value - self.loss_qdeg - self.loss_rebuf

    @property
    def cost(self) -> float:
        return self.energy_cell + self.energy_wifi

    @property
    def welfare(self) -> float:
        return self.utility - self.cost

    def __add__(self, other: "WelfareBreakdown") -> "WelfareBreakdown":
        return WelfareBreakdown(
            self.value + other.value,
            self.loss_qdeg + other.loss_qdeg,
            self.loss_rebuf + other.loss_rebuf,
            self.energy_cell + other.energy_cell,
            self.energy_wifi + other.energy_wifi,
        )
