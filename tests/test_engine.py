import math

import pytest

import coopstream.traces as tr
from coopstream.engine import (
    RunConfig,
    SimAuditError,
    SimError,
    _Simulation,
    audit_run,
    result_to_dict,
    run,
)
from coopstream.harness import ScenarioConfig, build_profiles, build_traces
from coopstream.model import (
    TIME_EPS,
    BitrateLadder,
    DownloadRecord,
    DownloadSequence,
    UserProfile,
)
from coopstream.schedulers import Download, Idle, PeerInfo, Wait, can_afford, make_scheduler
from coopstream.traces import CapacityTrace, MobilityTrace, constant_capacity, full_coop_mobility
from coopstream.welfare import rebuf_loss

LADDER = BitrateLadder((0.2, 0.4, 0.7, 1.3, 2.3))


def video_profile(uid, **kw):
    args = dict(
        user_id=uid,
        ladder=LADDER,
        segment_len=2.0,
        buffer_cap=40.0,
        video_len=100.0,
    )
    args.update(kw)
    return UserProfile(**args)


def idle_profile(uid):
    return video_profile(uid, video_len=0.0)


def top_rate_scheduler(view):
    """Self-serve at the ladder top whenever the buffer can take it."""
    me = view.peer(view.user_id)
    if me is None or me.remaining <= 0:
        return Idle()
    if can_afford(me):
        return Download(view.user_id, me.profile.ladder.top)
    gap = me.buffer + me.profile.segment_len - me.profile.buffer_cap
    return Wait(gap) if gap > 1e-9 else Idle()


class TestSingleUser:
    def test_ample_capacity_all_top_rate_no_stall(self):
        profiles = {1: video_profile(1, video_len=20.0)}
        cap = constant_capacity({1: 10.0}, 60.0)
        mob = full_coop_mobility([1], 60.0)
        res = run(profiles, cap, mob, top_rate_scheduler, RunConfig(horizon=60.0))
        rx = res.receives[1]
        assert len(rx.records) == 10
        assert all(r.bitrate == 2.3 for r in rx.records)
        total, _ = rebuf_loss(rx, profiles[1])
        assert total == 0.0
        assert res.rebuffer_by_user() == {1: 0.0}

    def test_zero_capacity_inert(self):
        profiles = {1: video_profile(1)}
        cap = constant_capacity({1: 0.0}, 30.0)
        mob = full_coop_mobility([1], 30.0)
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=30.0))
        assert res.downloads[1].records == []
        assert res.social_welfare == pytest.approx(0.0)
        assert 1 not in res.receives or not res.receives[1].records

    def test_download_crossing_horizon_is_discarded(self):
        profiles = {1: video_profile(1)}
        cap = constant_capacity({1: 0.2}, 2.5)
        mob = full_coop_mobility([1], 2.5)

        def z1_scheduler(view):
            me = view.peer(view.user_id)
            if me is None or me.remaining <= 0 or not can_afford(me):
                return Idle()
            return Download(view.user_id, 1)

        res = run(profiles, cap, mob, z1_scheduler, RunConfig(horizon=2.5))
        # the first z1 segment takes 2 s; a second would end past T
        assert len(res.downloads[1].records) == 1
        assert res.downloads[1].records[0].t_end == pytest.approx(2.0)

    def test_realized_stalls_match_receive_recursion(self):
        profiles = {1: video_profile(1, video_len=8.0)}
        # dead stretch mid-download forces a stall before segment 3
        cap = CapacityTrace(
            30.0,
            [(1, 0.0, 2.5, 0.4), (1, 2.5, 12.0, 0.0), (1, 12.0, 30.0, 0.4)],
        )
        mob = full_coop_mobility([1], 30.0)

        def z1(view):
            me = view.peer(view.user_id)
            if me is None or me.remaining <= 0 or not can_afford(me):
                return Idle()
            return Download(view.user_id, 1)

        res = run(profiles, cap, mob, z1, RunConfig(horizon=30.0))
        rx = res.receives[1]
        assert [r.t_end for r in rx.records] == pytest.approx([1.0, 2.0, 12.5, 13.5])
        # segment 3 lands 10.5 s after segment 2, with 3 s of buffer left
        penalty, log = rebuf_loss(rx, profiles[1])
        assert [seq for seq, _ in log] == [3]
        assert log[0][1] == pytest.approx(7.5, abs=1e-9)
        assert penalty == pytest.approx(7.5, abs=1e-9)
        assert res.rebuffer_by_user()[1] == pytest.approx(7.5, abs=1e-9)


class TestCooperation:
    def test_starved_user_served_by_peer(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(60.0, [(1, 0.0, 60.0, 5.0), (2, 0.0, 60.0, 0.0)])
        mob = full_coop_mobility([1, 2], 60.0)
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=60.0))
        assert res.receives[2].records
        assert all(r.downloader == 1 for r in res.receives[2].records)
        assert res.helper_downloads() > 0

    def test_noncoop_never_crosses(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(60.0, [(1, 0.0, 60.0, 5.0), (2, 0.0, 60.0, 0.0)])
        mob = full_coop_mobility([1, 2], 60.0)
        res = run(
            profiles, cap, mob, make_scheduler("lyapunov"),
            RunConfig(horizon=60.0, noncoop=True),
        )
        assert 2 not in res.receives or not res.receives[2].records
        assert all(r.owner == 1 for r in res.downloads[1].records)

    def test_concurrent_helpers_respect_buffer_cap(self):
        # tiny buffer, two fast helpers: the inflight guard must keep C.4
        profiles = {
            1: video_profile(1, buffer_cap=4.0, video_len=40.0),
            2: idle_profile(2),
            3: idle_profile(3),
        }
        cap = CapacityTrace(
            40.0,
            [(1, 0.0, 40.0, 0.0), (2, 0.0, 40.0, 8.0), (3, 0.0, 40.0, 8.0)],
        )
        mob = full_coop_mobility([1, 2, 3], 40.0)
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=40.0))
        assert res.receives[1].records  # audit inside run() validated C.4

    def test_separation_aborts_and_charges(self):
        profiles = {0: idle_profile(0), 1: video_profile(1)}
        cap = CapacityTrace(20.0, [(0, 0.0, 20.0, 0.1), (1, 0.0, 20.0, 0.0)])
        mob = MobilityTrace(
            20.0,
            [(0, 0.0, 20.0, 1), (1, 0.0, 10.0, 1), (1, 10.0, 20.0, 2)],
        )
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=20.0))
        # z1 at 0.1 Mbps takes 4 s: two deliveries, then an abort at t=10
        assert len(res.downloads[0].records) == 2
        count, cost = res.aborts[0]
        assert count == 1
        assert cost == pytest.approx(0.5 * 2.0 + 0.1 * 0.2, abs=1e-9)
        assert res.breakdowns[0].energy_cell == pytest.approx(
            2 * (0.5 * 4.0 + 0.1 * 0.4) + cost, abs=1e-9
        )


class TestDeterminism:
    def test_identical_runs(self):
        from coopstream.traces import SynthConfig, synth_traces

        cfg = SynthConfig(n_users=4, horizon=60.0)
        cap, mob = synth_traces(cfg, 13)
        profiles = {0: video_profile(0), 1: video_profile(1), 2: idle_profile(2), 3: video_profile(3)}
        a = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=60.0))
        b = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=60.0))
        assert result_to_dict(a) == result_to_dict(b)


class TestCoordinationAccounting:
    def test_ready_and_ack_per_decision(self):
        profiles = {0: idle_profile(0), 1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(
            12.0,
            [(0, 0.0, 12.0, 2.0), (1, 0.0, 12.0, 0.0), (2, 0.0, 12.0, 0.0)],
        )
        mob = full_coop_mobility(range(3), 12.0)
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=12.0))
        msgs = res.messages
        assert msgs.virtual_ack == 2  # both video users needy at start
        assert msgs.ready >= 1
        assert msgs.ack == 2 * msgs.ready  # two needy users answer every READY
        assert msgs.sleep == 0

    def test_sleep_then_virtual_ack_wake(self):
        profiles = {0: idle_profile(0), 1: idle_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(
            30.0,
            [(0, 0.0, 30.0, 4.0), (1, 0.0, 30.0, 4.0), (2, 0.0, 30.0, 0.0)],
        )
        mob = MobilityTrace(
            30.0,
            [
                (0, 0.0, 30.0, 1),
                (1, 0.0, 30.0, 1),
                (2, 0.0, 20.0, 2),
                (2, 20.0, 30.0, 1),
            ],
        )
        res = run(
            profiles, cap, mob, make_scheduler("lyapunov"),
            RunConfig(horizon=30.0, ack_window=10.0),
        )
        msgs = res.messages
        # both helpers armed their no-ACK timer at t=0 and dozed off before
        # the video user arrived at t=20 with a virtual ACK
        assert msgs.sleep == 2
        assert msgs.awake == 2
        assert msgs.virtual_ack == 1 + 2
        assert res.receives[2].records
        assert min(r.t_start for r in res.receives[2].records) >= 20.0

    def test_ready_growth_stops_after_videos_end(self):
        profiles = {0: video_profile(0, video_len=8.0), 1: video_profile(1, video_len=8.0)}
        cap = constant_capacity({0: 5.0, 1: 5.0}, 80.0)
        mob = full_coop_mobility(range(2), 80.0)
        res = run(
            profiles, cap, mob, make_scheduler("lyapunov"),
            RunConfig(horizon=80.0, ack_window=10.0),
        )
        assert all(len(res.receives[u].records) == 4 for u in (0, 1))
        last_delivery = max(r.t_end for u in (0, 1) for r in res.receives[u].records)
        if res.messages.ready_times:
            assert max(res.messages.ready_times) <= last_delivery + 10.0 + 1e-6


class TestAudit:
    def good_run(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(40.0, [(1, 0.0, 40.0, 3.0), (2, 0.0, 40.0, 1.0)])
        mob = full_coop_mobility([1, 2], 40.0)
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=40.0))
        return profiles, cap, mob, res

    def test_clean_run_passes(self):
        profiles, cap, mob, res = self.good_run()
        assert audit_run(profiles, cap, mob, res.downloads, 40.0) == []

    def test_detects_volume_mismatch(self):
        profiles, cap, mob, res = self.good_run()
        tampered = dict(res.downloads)
        recs = list(tampered[1].records)
        r = recs[0]
        recs[0] = DownloadRecord(
            r.downloader, r.owner, r.owner_seq_no, r.level, r.bitrate,
            r.t_start, r.t_end + 0.5,
        )
        tampered[1] = DownloadSequence(1, recs)
        bad = audit_run(profiles, cap, mob, tampered, 40.0)
        assert any("C.2" in v for v in bad)

    def test_detects_overlap(self):
        profiles, cap, mob, res = self.good_run()
        recs = list(res.downloads[1].records)
        assert len(recs) >= 2
        r = recs[1]
        recs[1] = DownloadRecord(
            r.downloader, r.owner, r.owner_seq_no, r.level, r.bitrate,
            recs[0].t_start + 1e-3, r.t_end,
        )
        bad = audit_run(profiles, cap, mob, {1: DownloadSequence(1, recs), 2: res.downloads[2]}, 40.0)
        assert any("C.1" in v or "C.2" in v for v in bad)

    def test_detects_cross_download_in_noncoop(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 1.0), (2, 0.0, 10.0, 1.0)])
        mob = full_coop_mobility([1, 2], 10.0)
        downloads = {
            1: DownloadSequence(1, [DownloadRecord(1, 2, 1, 1, 0.2, 0.0, 0.4)]),
            2: DownloadSequence(2, []),
        }
        bad = audit_run(profiles, cap, mob, downloads, 10.0, noncoop=True)
        assert any("C.3" in v for v in bad)

    def test_detects_buffer_overflow(self):
        profiles = {1: video_profile(1, buffer_cap=4.0)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 10.0)])
        mob = full_coop_mobility([1], 10.0)
        recs = [
            DownloadRecord(1, 1, k, 1, 0.2, 0.04 * (k - 1), 0.04 * k)
            for k in range(1, 5)
        ]
        bad = audit_run(profiles, cap, mob, {1: DownloadSequence(1, recs)}, 10.0)
        assert any("C.4" in v for v in bad)

    def test_detects_conservation_breach(self):
        profiles = {1: video_profile(1)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 0.1)])
        mob = full_coop_mobility([1], 10.0)
        downloads = {1: DownloadSequence(1, [DownloadRecord(1, 1, 1, 5, 2.3, 0.0, 2.0)])}
        bad = audit_run(profiles, cap, mob, downloads, 10.0)
        assert any("conservation" in v for v in bad)

    @pytest.mark.parametrize(
        "seq_nos, why",
        [
            ((1, 2, 2), "duplicate segment delivery"),
            ((1, 3), "not contiguous"),
            (tuple(range(1, 52)), "more segments received than the video contains"),
        ],
        ids=["duplicate", "gap", "too-many"],
    )
    def test_reports_bad_receive_structure(self, seq_nos, why):
        profiles = {1: video_profile(1)}  # 50 segments
        cap = CapacityTrace(30.0, [(1, 0.0, 30.0, 1.0)])
        mob = full_coop_mobility([1], 30.0)
        recs = [
            DownloadRecord(1, 1, k, 1, 0.2, 0.4 * i, 0.4 * (i + 1))
            for i, k in enumerate(seq_nos)
        ]
        bad = audit_run(profiles, cap, mob, {1: DownloadSequence(1, recs)}, 30.0)
        assert len(bad) == 1
        assert bad[0].startswith("receive structure") and why in bad[0]


class TestBadSchedulers:
    def test_cross_download_in_noncoop_mode_rejected(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 2.0), (2, 0.0, 10.0, 2.0)])
        mob = full_coop_mobility([1, 2], 10.0)

        def rogue(view):
            other = 2 if view.user_id == 1 else 1
            return Download(other, 1)

        with pytest.raises(SimError):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0, noncoop=True))

    def test_not_colocated_owner_rejected(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 2.0), (2, 0.0, 10.0, 2.0)])
        mob = MobilityTrace(10.0, [(1, 0.0, 10.0, 1), (2, 0.0, 10.0, 2)])

        def rogue(view):
            return Download(2, 1)

        with pytest.raises(SimError):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))

    def test_overfull_owner_rejected(self):
        profiles = {1: video_profile(1, buffer_cap=4.0)}
        cap = CapacityTrace(20.0, [(1, 0.0, 20.0, 50.0)])
        mob = full_coop_mobility([1], 20.0)

        def rogue(view):
            return Download(1, 1)

        with pytest.raises(SimError):
            run(profiles, cap, mob, rogue, RunConfig(horizon=20.0))

    def test_bad_level_rejected(self):
        profiles = {1: video_profile(1)}
        cap = constant_capacity({1: 2.0}, 10.0)
        mob = full_coop_mobility([1], 10.0)

        def rogue(view):
            return Download(1, 6)

        with pytest.raises(SimError):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))


class _CheckedSimulation(_Simulation):
    """Checks the engine's shortcuts against the paths they replace.

    At every decision the occupancy-index group must equal a scan of all
    users with `traces.encountered`, and every PeerInfo and the history
    handed to the scheduler must equal ones built afresh from the state.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.decision_times = []
        decide = self.scheduler

        def checked(view):
            st = self.users[view.user_id]
            for p in view.peers:
                assert p == self._fresh_peer_info(p.user_id)
            assert view.history == tuple(
                r.bitrate * self.profiles[r.owner].segment_len / (r.t_end - r.t_start)
                for r in st.records
                if r.t_end - r.t_start > TIME_EPS
            )
            return decide(view)

        self.scheduler = checked

    def _group(self, uid, t):
        group = super()._group(uid, t)
        assert group == [m for m in self.profiles if tr.encountered(self.mob, uid, m, t)]
        self.decision_times.append(t)
        return group

    def _fresh_peer_info(self, uid):
        st = self.users[uid]
        return PeerInfo(
            profile=st.profile,
            buffer=st.buffer,
            last_bitrate=st.last_bitrate,
            remaining=st.profile.num_segments - st.received - st.inflight,
            inflight=st.inflight,
            playback_started=st.received > 0,
            playback_finished=st.playback_finished,
        )


class TestDecisionPathDifferential:
    """The occupancy index and the snapshot cache change no decision input."""

    @pytest.mark.parametrize("mobility", ["synthetic", "dense-short", "full-coop", "non-coop"])
    def test_synthesized_traces(self, mobility):
        cfg = ScenarioConfig(n_users=12, horizon=80.0, mobility=mobility, capacity_hi=2.5)
        for seed in (1, 2):
            profiles = build_profiles(cfg, seed)
            cap, mob, noncoop = build_traces(cfg, seed)
            for name in ("lyapunov", "buffer"):
                sim = _CheckedSimulation(
                    profiles, cap, mob, make_scheduler(name), RunConfig(horizon=80.0, noncoop=noncoop)
                )
                sim.run()
                assert sim.decision_times == sorted(sim.decision_times)
                assert len(sim.decision_times) > 50

    def test_hand_built_trace(self):
        # Constant capacities and a two-rate ladder put every event on a
        # multiple of 0.25 s, so deliveries land exactly on mobility bounds.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {
            uid: UserProfile(uid, ladder, segment_len=2.0, buffer_cap=cap_s, video_len=video_len)
            for uid, video_len, cap_s in (
                (0, 0.0, 8.0), (1, 40.0, 8.0), (2, 40.0, 8.0), (3, 40.0, 8.0),
                (4, 40.0, 4.0), (5, 0.0, 8.0), (6, 0.0, 8.0),
            )
        }
        cap = constant_capacity({0: 2.0, 1: 0.5, 2: 1.0, 3: 2.0, 4: 0.125, 5: 1.0, 6: 1.0}, 20.0)
        mob = MobilityTrace(
            20.0,
            [
                # user 0: two consecutive rows at hotspot 1, then a transit stretch
                (0, 0.0, 4.0, 1), (0, 4.0, 8.0, 1), (0, 8.0, 10.0, 0), (0, 10.0, 20.0, 2),
                (1, 0.0, 6.0, 1), (1, 6.0, 20.0, 2),
                (2, 0.0, 20.0, 1),
                (3, 0.0, 3.0, 0), (3, 3.0, 12.0, 1), (3, 12.0, 20.0, 2),
                # hotspot 3: helper 5 starts user 4's second segment and leaves
                # before it lands, while user 4 has received nothing yet and
                # helper 6 idles beside it, blocked by the in-flight segments
                (4, 0.0, 20.0, 3),
                (5, 0.0, 0.75, 3), (5, 0.75, 20.0, 0),
                (6, 0.0, 20.0, 3),
            ],
        )
        sim = _CheckedSimulation(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=20.0))
        res = sim.run()
        bounds = {b for track in mob.tracks.values() for b in track.bounds[1:-1]}
        ends = {r.t_end for seq in res.downloads.values() for r in seq.records}
        assert {3.0, 4.0, 6.0, 8.0, 10.0} <= bounds & ends
        assert bounds & set(sim.decision_times) == bounds
        assert res.aborts[5][0] == 1
        assert min(r.t_end for r in res.receives[4].records) > 0.75
