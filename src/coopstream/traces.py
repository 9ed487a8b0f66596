"""Piecewise-constant capacity and mobility traces.

A trace assigns every user a step function over a common horizon [0, T]:
link capacity in Mbps, or hotspot id (0 = not at any hotspot).  Values are
right-continuous; the value at an interval boundary belongs to the later
interval, except at t = T which takes the final interval's value.
"""

from __future__ import annotations

import bisect
import csv
import math
import random
from dataclasses import dataclass

from .model import TIME_EPS, VOL_EPS


class TraceError(ValueError):
    """Raised for malformed trace data or out-of-domain queries."""


@dataclass(frozen=True)
class _Track:
    """One user's step function: value values[i] on [bounds[i], bounds[i+1])."""

    bounds: tuple[float, ...]
    values: tuple[float, ...]

    def value_at(self, t: float) -> float:
        if t < self.bounds[0] - TIME_EPS or t > self.bounds[-1] + TIME_EPS:
            raise TraceError(f"time {t} outside trace domain")
        i = bisect.bisect_right(self.bounds, t) - 1
        i = max(0, min(i, len(self.values) - 1))
        return self.values[i]

    def pieces(self, a: float, b: float):
        """(lo, hi, value) of each piece overlapping (a, b), clipped to [a, b]."""
        bounds = self.bounds
        for j in range(max(0, bisect.bisect_right(bounds, a) - 1), len(self.values)):
            if bounds[j] >= b:
                return
            lo = max(a, bounds[j])
            hi = min(b, bounds[j + 1])
            if hi > lo:
                yield lo, hi, self.values[j]

    def integrate(self, a: float, b: float) -> float:
        if b < a:
            raise TraceError("integration interval reversed")
        # Kept as +=: from Python 3.12 on, sum() compensates rounding and
        # would change the bits.
        total = 0.0
        for lo, hi, v in self.pieces(a, b):
            total += v * (hi - lo)
        return total

    def breakpoints_in(self, a: float, b: float) -> list[float]:
        """Interior bounds strictly inside (a, b]."""
        lo = bisect.bisect_right(self.bounds, a)
        hi = bisect.bisect_right(self.bounds, b)
        return [t for t in self.bounds[lo:hi] if t > a]


def _build_track(user_rows: list[tuple[float, float, float]], horizon: float, what: str) -> _Track:
    """Assemble sorted (t_from, t_to, value) rows into a gapless track."""
    rows = sorted(user_rows)
    bounds = [0.0]
    values = []
    for t_from, t_to, value in rows:
        if abs(t_from - bounds[-1]) > TIME_EPS:
            raise TraceError(f"{what}: intervals must tile [0, T]; gap or overlap at t={t_from}")
        if t_to <= t_from + TIME_EPS:
            raise TraceError(f"{what}: empty interval at t={t_from}")
        bounds.append(t_to)
        values.append(value)
    if abs(bounds[-1] - horizon) > TIME_EPS:
        raise TraceError(f"{what}: coverage ends at {bounds[-1]}, horizon is {horizon}")
    bounds[-1] = horizon
    return _Track(tuple(bounds), tuple(values))


class _StepTrace:
    """Per-user step functions over [0, horizon], one row per interval.

    Subclasses set `kind` and `value_name` (for messages), the CSV
    `header` and `cast` (raw value to stored value).  User ids must be integers, times and values finite, and
    a value that `cast` would change (a fractional hotspot id) is rejected.
    """

    def __init__(self, horizon: float, rows: list[tuple[int, float, float, float]]):
        if not 0.0 < horizon < math.inf:
            raise TraceError(f"horizon must be positive and finite, not {horizon}")
        self.horizon = float(horizon)
        per_user: dict[int, list[tuple[float, float, float]]] = {}
        for user_id, t_from, t_to, raw in rows:
            if not (math.isfinite(user_id) and int(user_id) == user_id):
                raise TraceError(f"{self.kind} user id {user_id} is not an integer")
            user_id = int(user_id)
            if not (math.isfinite(t_from) and math.isfinite(t_to) and math.isfinite(raw)):
                raise TraceError(f"non-finite time or {self.value_name} for user {user_id}")
            value = self.cast(raw)
            if value != raw:
                raise TraceError(f"{self.value_name} {raw} for user {user_id} is not an integer")
            if value < 0:
                raise TraceError(f"negative {self.value_name} for user {user_id}")
            per_user.setdefault(user_id, []).append((float(t_from), float(t_to), value))
        if not per_user:
            raise TraceError(f"{self.kind} trace has no users")
        self.tracks = {
            u: _build_track(urows, self.horizon, f"{self.kind} user {u}")
            for u, urows in sorted(per_user.items())
        }

    def users(self) -> list[int]:
        return sorted(self.tracks)

    @classmethod
    def from_csv(cls, path: str):
        rows = _read_csv_rows(path, cls.header)
        if not rows:
            raise TraceError(f"{path}: no rows")
        return cls(max(r[2] for r in rows), rows)

    def rows(self):
        """(user, t_from, t_to, value) per interval, users ascending."""
        for u in self.users():
            tr = self.tracks[u]
            for i, v in enumerate(tr.values):
                yield u, tr.bounds[i], tr.bounds[i + 1], v


class CapacityTrace(_StepTrace):
    """Cellular downlink capacity per user over [0, horizon]."""

    kind = "capacity"
    value_name = "capacity"
    header = ("user_id", "t_from", "t_to", "capacity_mbps")
    cast = float


class MobilityTrace(_StepTrace):
    """Hotspot membership per user over [0, horizon]; hotspot 0 = in transit."""

    kind = "mobility"
    value_name = "hotspot id"
    header = ("user_id", "t_from", "t_to", "hotspot_id")
    cast = int

    def next_breakpoint(self, t: float) -> float | None:
        """Earliest location change strictly after t, across all users."""
        later = [
            tr.bounds[i]
            for tr in self.tracks.values()
            if (i := bisect.bisect_right(tr.bounds, t + TIME_EPS, 1)) < len(tr.bounds) - 1
        ]
        return min(later, default=None)


def _read_csv_rows(path: str, header: tuple[str, ...]) -> list[tuple[float, float, float, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file")
        if tuple(h.strip() for h in first) != header:
            raise TraceError(f"{path}: expected header {','.join(header)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceError(f"{path}:{lineno}: expected 4 columns")
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2]), float(row[3])))
            except ValueError:
                raise TraceError(f"{path}:{lineno}: non-numeric field")
    return rows


def check_pair(cap: CapacityTrace, mob: MobilityTrace) -> None:
    """Raise TraceError unless the two traces cover the same users over the
    same horizon."""
    if cap.users() != mob.users():
        raise TraceError(f"user sets differ: capacity {cap.users()}, mobility {mob.users()}")
    if abs(cap.horizon - mob.horizon) > TIME_EPS:
        raise TraceError(f"horizons differ: capacity {cap.horizon}, mobility {mob.horizon}")


# ---------------------------------------------------------------------------
# Queries used by the schedulers and the engine.


def capacity_at(trace: CapacityTrace, user: int, t: float) -> float:
    """Link capacity of `user` at time t, Mbps."""
    return trace.tracks[user].value_at(t)


def integrate_capacity(trace: CapacityTrace, user: int, a: float, b: float) -> float:
    """Exact Mbit deliverable to `user` over [a, b] at full link rate."""
    return trace.tracks[user].integrate(a, b)


def download_end_time(trace: CapacityTrace, user: int, t_start: float, volume: float) -> float | None:
    """Smallest t_end with integrate_capacity(t_start, t_end) == volume.

    Returns None when the trace ends before the volume is attained.
    """
    if volume < 0.0:
        raise TraceError("volume must be nonnegative")
    track = trace.tracks[user]
    if t_start < -TIME_EPS or t_start > track.bounds[-1] + TIME_EPS:
        raise TraceError(f"t_start {t_start} outside trace domain")
    if volume <= VOL_EPS:
        return t_start
    remaining = volume
    for lo, hi, rate in track.pieces(t_start, track.bounds[-1]):
        chunk = rate * (hi - lo)
        if chunk >= remaining - VOL_EPS and rate > 0.0:
            return lo + remaining / rate
        remaining -= chunk
    return None


def next_positive_capacity(trace: CapacityTrace, user: int, t: float) -> float | None:
    """Earliest time >= t at which `user`'s capacity is positive, else None."""
    track = trace.tracks[user]
    i = max(0, bisect.bisect_right(track.bounds, t + TIME_EPS) - 1)
    for j in range(i, len(track.values)):
        if track.values[j] > 0.0 and track.bounds[j + 1] > t:
            return max(t, track.bounds[j])
    return None


def location_at(trace: MobilityTrace, user: int, t: float) -> int:
    return int(trace.tracks[user].value_at(t))


def encountered(trace: MobilityTrace, n: int, u: int, t: float) -> bool:
    """True iff n and u can exchange data at time t.

    Self-encounter is always true; distinct users must share a hotspot
    (id > 0).
    """
    if n == u:
        return True
    a = location_at(trace, n, t)
    return a != 0 and a == location_at(trace, u, t)


def encountered_throughout(trace: MobilityTrace, n: int, u: int, a: float, b: float) -> bool:
    """True iff encountered(n, u, t) holds for every t in [a, b]."""
    if n == u:
        return True
    if b < a:
        raise TraceError("interval reversed")
    return first_separation(trace, n, u, a, b) is None


def first_separation(trace: MobilityTrace, n: int, u: int, a: float, b: float) -> float | None:
    """Earliest t in [a, b] at which n and u are apart, None if never."""
    if n == u:
        return None
    points = sorted(set([a] + trace.tracks[n].breakpoints_in(a, b) + trace.tracks[u].breakpoints_in(a, b)))
    for t in points:
        if not encountered(trace, n, u, t):
            return t
    return None


# ---------------------------------------------------------------------------
# Synthetic trace generation.

CAPACITY_JITTER = 0.5  # relative half-width of a user's capacity draws around its average


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic hotspot mobility / capacity generator.

    Users alternate exponentially distributed dwell phases at a uniformly
    chosen hotspot with transit phases (hotspot 0); transition_mean = 0
    collapses transit to nothing.  [capacity_lo, capacity_hi] is the range
    of per-user *average* link capacity: each user draws one average from
    it, and the realized capacity is redrawn every capacity_period seconds
    uniformly within +-CAPACITY_JITTER of that average.  Heterogeneous
    averages are what give fast users spare capacity to share.
    """

    n_users: int
    horizon: float
    hotspots: int = 3
    dwell_mean: float = 30.0
    transition_mean: float = 10.0
    capacity_lo: float = 0.0
    capacity_hi: float = 2.5
    capacity_period: float = 2.0

    def validate(self) -> None:
        if self.n_users < 1:
            raise TraceError("need at least one user")
        if self.horizon <= 0.0:
            raise TraceError("horizon must be positive")
        if self.hotspots < 1:
            raise TraceError("need at least one hotspot")
        if self.dwell_mean <= 0.0:
            raise TraceError("dwell_mean must be positive")
        if self.transition_mean < 0.0:
            raise TraceError("transition_mean must be nonnegative")
        if self.capacity_lo < 0.0 or self.capacity_hi < self.capacity_lo:
            raise TraceError("capacity range must satisfy 0 <= lo <= hi")
        if self.capacity_period <= 0.0:
            raise TraceError("capacity_period must be positive")


def synth_traces(cfg: SynthConfig, seed: int) -> tuple[CapacityTrace, MobilityTrace]:
    """Deterministic synthetic traces; same (cfg, seed) gives identical output."""
    cfg.validate()
    rng = random.Random(seed)
    cap_rows: list[tuple[int, float, float, float]] = []
    mob_rows: list[tuple[int, float, float, int]] = []
    for user in range(cfg.n_users):
        mean = rng.uniform(cfg.capacity_lo, cfg.capacity_hi)
        t = 0.0
        while t < cfg.horizon - TIME_EPS:
            t2 = min(cfg.horizon, t + cfg.capacity_period)
            lo = mean * (1.0 - CAPACITY_JITTER)
            hi = mean * (1.0 + CAPACITY_JITTER)
            cap_rows.append((user, t, t2, rng.uniform(lo, hi)))
            t = t2
        segs: list[tuple[float, float, int]] = []
        t = 0.0
        spot = rng.randint(1, cfg.hotspots)
        at_spot = True
        while t < cfg.horizon - TIME_EPS:
            if at_spot:
                dur = rng.expovariate(1.0 / cfg.dwell_mean)
                loc = spot
            else:
                dur = rng.expovariate(1.0 / cfg.transition_mean) if cfg.transition_mean > 0 else 0.0
                loc = 0
                spot = rng.randint(1, cfg.hotspots)
            t2 = min(cfg.horizon, t + dur)
            if t2 > t:
                if segs and segs[-1][2] == loc:
                    segs[-1] = (segs[-1][0], t2, loc)
                else:
                    segs.append((t, t2, loc))
            t = t2
            at_spot = not at_spot
        for a, b, loc in segs:
            mob_rows.append((user, a, b, loc))
    return CapacityTrace(cfg.horizon, cap_rows), MobilityTrace(cfg.horizon, mob_rows)


def full_coop_mobility(users, horizon: float) -> MobilityTrace:
    """Every user id in `users` at hotspot 1 for the whole horizon."""
    return MobilityTrace(horizon, [(u, 0.0, horizon, 1) for u in users])


def constant_capacity(caps: dict[int, float], horizon: float) -> CapacityTrace:
    """Flat per-user capacity; convenience for tests and micro-instances."""
    return CapacityTrace(horizon, [(u, 0.0, horizon, c) for u, c in sorted(caps.items())])
