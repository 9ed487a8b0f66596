import math
import random

import pytest

from coopstream.traces import (
    CapacityTrace,
    MobilityTrace,
    SynthConfig,
    TraceError,
    capacity_at,
    constant_capacity,
    download_end_time,
    encountered,
    encountered_throughout,
    first_separation,
    full_coop_mobility,
    integrate_capacity,
    location_at,
    next_positive_capacity,
    synth_traces,
)
from trace_csv import write_trace_csv


def step_trace():
    # user 1: 2 Mbps on [0,1), 4 Mbps on [1,2)
    return CapacityTrace(2.0, [(1, 0.0, 1.0, 2.0), (1, 1.0, 2.0, 4.0)])


class TestCapacityTrace:
    def test_capacity_at_right_continuous(self):
        trace = step_trace()
        assert capacity_at(trace, 1, 0.0) == 2.0
        assert capacity_at(trace, 1, 1.0) == 4.0
        assert capacity_at(trace, 1, 0.999) == 2.0

    def test_integrate_across_breakpoint(self):
        assert integrate_capacity(step_trace(), 1, 0.5, 1.5) == pytest.approx(3.0)

    def test_integrate_additive(self):
        trace = step_trace()
        rng = random.Random(7)
        for _ in range(50):
            a, b = sorted(rng.uniform(0.0, 2.0) for _ in range(2))
            mid = rng.uniform(a, b)
            whole = integrate_capacity(trace, 1, a, b)
            parts = integrate_capacity(trace, 1, a, mid) + integrate_capacity(trace, 1, mid, b)
            assert whole == pytest.approx(parts, abs=1e-12)

    def test_rejects_gap(self):
        with pytest.raises(TraceError):
            CapacityTrace(2.0, [(1, 0.0, 0.5, 2.0), (1, 1.0, 2.0, 4.0)])

    def test_rejects_overlap(self):
        with pytest.raises(TraceError):
            CapacityTrace(2.0, [(1, 0.0, 1.5, 2.0), (1, 1.0, 2.0, 4.0)])

    @pytest.mark.parametrize(
        "horizon, rows, needle",
        [
            (1.0, [(1, 0.0, 1.0, math.nan)], "non-finite time or capacity for user 1"),
            (1.0, [(1, 0.0, 1.0, math.inf)], "non-finite time or capacity for user 1"),
            (1.0, [(1, 0.0, math.nan, 2.0)], "non-finite time or capacity for user 1"),
            (math.nan, [(1, 0.0, 1.0, 2.0)], "horizon must be positive and finite"),
            (math.inf, [(1, 0.0, 1.0, 2.0)], "horizon must be positive and finite"),
            (1.0, [(math.nan, 0.0, 1.0, 2.0)], "capacity user id nan is not an integer"),
        ],
    )
    def test_rejects_non_finite_values(self, horizon, rows, needle):
        with pytest.raises(TraceError, match=needle):
            CapacityTrace(horizon, rows)

    def test_rejects_negative_capacity(self):
        with pytest.raises(TraceError):
            CapacityTrace(1.0, [(1, 0.0, 1.0, -0.5)])


class TestDownloadTimes:
    def test_constant_rate_end(self):
        trace = constant_capacity({1: 2.3}, 10.0)
        assert download_end_time(trace, 1, 1.0, 4.6) == pytest.approx(3.0)

    def test_end_beyond_horizon_is_none(self):
        trace = constant_capacity({1: 1.0}, 5.0)
        assert download_end_time(trace, 1, 4.0, 2.0) is None

    def test_zero_volume_ends_immediately(self):
        trace = constant_capacity({1: 1.0}, 5.0)
        assert download_end_time(trace, 1, 2.0, 0.0) == pytest.approx(2.0)

    def test_waits_through_dead_stretch(self):
        trace = CapacityTrace(4.0, [(1, 0.0, 1.0, 1.0), (1, 1.0, 3.0, 0.0), (1, 3.0, 4.0, 1.0)])
        assert download_end_time(trace, 1, 0.5, 1.0) == pytest.approx(3.5)

    def test_end_time_is_the_earliest_that_moves_the_volume(self):
        trace = CapacityTrace(
            6.0,
            [(1, 0.0, 2.0, 1.5), (1, 2.0, 3.0, 0.0), (1, 3.0, 6.0, 2.5)],
        )
        rng = random.Random(11)
        for _ in range(100):
            t0 = rng.uniform(0.0, 5.0)
            vol = rng.uniform(0.1, 3.0)
            t_end = download_end_time(trace, 1, t0, vol)
            if t_end is None:
                continue
            assert integrate_capacity(trace, 1, t0, t_end) == pytest.approx(vol, abs=1e-9)
            # earliest possible end: any earlier end moves less than the volume
            earlier = t_end - 1e-6
            if earlier > t0:
                assert integrate_capacity(trace, 1, t0, earlier) < vol

    def test_next_positive_capacity(self):
        trace = CapacityTrace(4.0, [(1, 0.0, 2.0, 0.0), (1, 2.0, 4.0, 1.0)])
        assert next_positive_capacity(trace, 1, 0.5) == pytest.approx(2.0)
        assert next_positive_capacity(trace, 1, 3.0) == pytest.approx(3.0)
        dead = CapacityTrace(4.0, [(1, 0.0, 4.0, 0.0)])
        assert next_positive_capacity(dead, 1, 0.0) is None


class TestMobility:
    def two_user_mob(self):
        rows = [
            (1, 0.0, 5.0, 1),
            (1, 5.0, 10.0, 2),
            (2, 0.0, 3.0, 1),
            (2, 3.0, 10.0, 2),
        ]
        return MobilityTrace(10.0, rows)

    def test_location_and_encounter(self):
        mob = self.two_user_mob()
        assert location_at(mob, 1, 4.0) == 1
        assert encountered(mob, 1, 2, 1.0)
        assert not encountered(mob, 1, 2, 4.0)
        assert encountered(mob, 1, 2, 6.0)
        assert encountered(mob, 1, 1, 99.0) or True  # self always true
        assert encountered(mob, 2, 2, 4.0)

    def test_transit_is_not_an_encounter(self):
        mob = MobilityTrace(4.0, [(1, 0.0, 4.0, 0), (2, 0.0, 4.0, 0)])
        assert not encountered(mob, 1, 2, 1.0)

    def test_encountered_throughout(self):
        mob = self.two_user_mob()
        assert encountered_throughout(mob, 1, 2, 0.0, 2.9)
        assert not encountered_throughout(mob, 1, 2, 0.0, 4.0)
        assert encountered_throughout(mob, 1, 2, 5.0, 9.0)

    def test_first_separation(self):
        mob = self.two_user_mob()
        assert first_separation(mob, 1, 2, 0.0, 9.0) == pytest.approx(3.0)
        assert first_separation(mob, 1, 2, 5.0, 9.0) is None

    def test_next_breakpoint(self):
        mob = self.two_user_mob()
        assert mob.next_breakpoint(0.0) == pytest.approx(3.0)
        assert mob.next_breakpoint(3.0) == pytest.approx(5.0)
        assert mob.next_breakpoint(5.0) is None

    @pytest.mark.parametrize(
        "rows, needle",
        [
            ([(1.5, 0.0, 2.0, 1)], "mobility user id 1.5 is not an integer"),
            ([(1, 0.0, 2.0, 2.7)], "hotspot id 2.7 for user 1 is not an integer"),
            ([(1, 0.0, 2.0, math.nan)], "non-finite time or hotspot id for user 1"),
        ],
    )
    def test_rejects_non_integral_and_non_finite_values(self, rows, needle):
        with pytest.raises(TraceError, match=needle):
            MobilityTrace(2.0, rows)

    def test_rejects_negative_hotspot_id(self):
        with pytest.raises(TraceError, match="negative hotspot id for user 1"):
            MobilityTrace(2.0, [(1, 0.0, 1.0, 1), (1, 1.0, 2.0, -1)])


class TestSynth:
    def test_deterministic(self):
        def flat(trace):
            return {u: (t.bounds, t.values) for u, t in trace.tracks.items()}

        cfg = SynthConfig(n_users=4, horizon=60.0)
        cap1, mob1 = synth_traces(cfg, 42)
        cap2, mob2 = synth_traces(cfg, 42)
        assert flat(cap1) == flat(cap2)
        assert flat(mob1) == flat(mob2)
        cap3, _ = synth_traces(cfg, 43)
        assert flat(cap1) != flat(cap3)

    def test_capacity_within_jitter_band(self):
        cfg = SynthConfig(n_users=3, horizon=40.0, capacity_lo=0.5, capacity_hi=2.0)
        cap, _ = synth_traces(cfg, 5)
        for user in cap.users():
            values = cap.tracks[user].values
            mean = sum(values) / len(values)
            # each draw sits within +-50% of the user's average
            assert max(values) <= 2.0 * 1.5 + 1e-9
            assert min(values) >= 0.0
            for v in values:
                assert 0.4 * mean <= v <= 1.8 * mean + 1e-9

    def test_mobility_tiles_horizon(self):
        cfg = SynthConfig(n_users=3, horizon=50.0)
        _, mob = synth_traces(cfg, 9)
        for user in mob.users():
            track = mob.tracks[user]
            assert track.bounds[0] == 0.0
            assert track.bounds[-1] == pytest.approx(50.0)

    def test_zero_transit(self):
        cfg = SynthConfig(n_users=2, horizon=30.0, transition_mean=0.0)
        _, mob = synth_traces(cfg, 3)
        for user in mob.users():
            assert all(v != 0 for v in mob.tracks[user].values)

    def test_full_coop(self):
        mob = full_coop_mobility(range(3), 20.0)
        assert encountered_throughout(mob, 0, 2, 0.0, 20.0)

    def test_validation(self):
        with pytest.raises(TraceError):
            SynthConfig(n_users=0, horizon=10.0).validate()
        with pytest.raises(TraceError):
            SynthConfig(n_users=1, horizon=10.0, capacity_lo=2.0, capacity_hi=1.0).validate()


class TestCsvRoundTrip:
    def test_capacity(self, tmp_path):
        cfg = SynthConfig(n_users=3, horizon=30.0)
        cap, mob = synth_traces(cfg, 17)
        cap_path = tmp_path / "cap.csv"
        mob_path = tmp_path / "mob.csv"
        write_trace_csv(cap, cap_path)
        write_trace_csv(mob, mob_path)
        cap2 = CapacityTrace.from_csv(cap_path)
        mob2 = MobilityTrace.from_csv(mob_path)
        assert cap2.users() == cap.users()
        rng = random.Random(1)
        for _ in range(50):
            u = rng.choice(sorted(cap.users()))
            t = rng.uniform(0.0, 29.99)
            assert capacity_at(cap2, u, t) == pytest.approx(capacity_at(cap, u, t), abs=1e-9)
            assert location_at(mob2, u, t) == location_at(mob, u, t)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("user,start,stop,rate\n1,0,1,2\n")
        with pytest.raises(TraceError):
            CapacityTrace.from_csv(p)

    def test_mobility_rejects_a_capacity_file(self, tmp_path):
        p = tmp_path / "cap.csv"
        write_trace_csv(step_trace(), p)
        with pytest.raises(TraceError, match="expected header user_id,t_from,t_to,hotspot_id"):
            MobilityTrace.from_csv(p)
