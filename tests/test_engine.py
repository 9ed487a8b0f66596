import math
from dataclasses import asdict, replace

import pytest

import coopstream.traces as tr
from coopstream.engine import (
    EngineCounters,
    RunConfig,
    SimAuditError,
    SimError,
    _ARRIVE,
    _COMPLETE,
    _DECIDE,
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
from coopstream.schedulers import (
    Download,
    Idle,
    PeerInfo,
    SCHEDULER_NAMES,
    SchedulerView,
    Wait,
    can_afford,
    hold,
    make_scheduler,
)
from coopstream.traces import CapacityTrace, MobilityTrace, constant_capacity, full_coop_mobility
from coopstream.welfare import rebuf_loss
from engine_differential import classify, compare, micro_scenario, outcome, split

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
    return Wait(me.room_at) if gap > 1e-9 else Idle()


class TestSingleUser:
    def test_ample_capacity_all_top_rate_no_stall(self):
        profiles = {1: video_profile(1, video_len=20.0)}
        cap = constant_capacity({1: 10.0}, 60.0)
        mob = full_coop_mobility([1], 60.0)
        res = run(profiles, cap, mob, top_rate_scheduler, RunConfig(horizon=60.0))
        rx = res.receives[1]
        assert len(rx.records) == 10
        assert all(profiles[1].ladder.rate(r.level) == 2.3 for r in rx.records)
        total, _ = rebuf_loss(rx, profiles[1])
        assert total == 0.0
        assert res.rebuffer == {1: 0.0}

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
        assert res.rebuffer[1] == pytest.approx(7.5, abs=1e-9)

    def test_download_cut_by_horizon_parks_like_idle(self):
        # User 1 asks for a top-level segment that would end past T; the
        # request is dropped, and user 1 waits parked for the next wake-up
        # (here user 2's delivery at 9.5 s) instead of never deciding again.
        ladder = BitrateLadder((0.2, 2.3))
        profiles = {uid: video_profile(uid, ladder=ladder, video_len=40.0) for uid in (1, 2)}
        cap = constant_capacity({1: 2.0, 2: 0.8}, 10.0)
        mob = full_coop_mobility([1, 2], 10.0)
        calls = []

        def scripted(view):
            me = view.peer(view.user_id)
            if me.remaining <= 0 or not can_afford(me):
                return Idle()
            if view.user_id == 2:
                return Download(2, 1)
            calls.append(view)
            return Download(1, 2 if len(calls) <= 5 else 1)

        res = run(profiles, cap, mob, scripted, RunConfig(horizon=10.0))
        ends = [r.t_end for r in res.downloads[1].records]
        # four 2.3 s top-level segments, the fifth would end at 11.5 s
        assert ends == pytest.approx([2.3, 4.6, 6.9, 9.2, 9.7, 9.9])
        assert [r.level for r in res.downloads[1].records] == [2, 2, 2, 2, 1, 1]
        assert 9.5 in [r.t_end for r in res.downloads[2].records]


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
    def test_ready_and_ack_per_free_radio(self):
        profiles = {0: idle_profile(0), 1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(
            12.0,
            [(0, 0.0, 12.0, 2.0), (1, 0.0, 12.0, 0.0), (2, 0.0, 12.0, 0.0)],
        )
        mob = full_coop_mobility(range(3), 12.0)
        res = run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=12.0))
        msgs = res.messages
        # Helper 0 sends a READY at t = 0 and after each of its deliveries;
        # the dead links of users 1 and 2 never come back, so they send none.
        assert msgs.ready == 1 + res.counters.completions == 17
        assert msgs.ack == 2 * msgs.ready  # two needy users answer every READY
        assert msgs.sleep == 0

    def test_ready_is_at_most_one_per_free_radio(self):
        # A radio comes free at t = 0 and at each delivery or abort of its
        # own transfer, and sends at most one READY each time.
        for seed in range(100):
            profiles, cap, mob, run_cfg = micro_scenario(seed)
            for name in ("lyapunov", "buffer", "prediction"):
                res = run(profiles, cap, mob, make_scheduler(name), run_cfg)
                assert res.messages.ready <= len(profiles) + res.counters.completions

    def test_a_quiet_stretch_is_a_sleep(self):
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
        # Both helpers send a READY at t = 0 that nobody answers and idle
        # until the video user arrives at t = 20.  They fetch its segments
        # side by side over [20, 21.15], ..., and each of their READYs at
        # 21.15 ends a 21.15 s quiet stretch, as the video user's first ACK
        # ends its own: three sleeps, each with its awake.  Every later
        # stretch lasts 1.15 s.
        assert (msgs.ready, msgs.ack) == (2 + 16, 16)
        assert (msgs.sleep, msgs.awake) == (3, 3)
        assert len(res.receives[2].records) == 16
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
        last_ready = res.messages.last_ready
        assert last_ready is None or last_ready <= last_delivery + 10.0 + 1e-6


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
        recs[0] = replace(r, t_end=r.t_end + 0.5)
        tampered[1] = DownloadSequence(1, recs)
        bad = audit_run(profiles, cap, mob, tampered, 40.0)
        assert any("C.2" in v for v in bad)

    def test_detects_overlap(self):
        profiles, cap, mob, res = self.good_run()
        recs = list(res.downloads[1].records)
        assert len(recs) >= 2
        r = recs[1]
        recs[1] = replace(r, t_start=recs[0].t_start + 1e-3)
        bad = audit_run(profiles, cap, mob, {1: DownloadSequence(1, recs), 2: res.downloads[2]}, 40.0)
        assert any("C.1" in v or "C.2" in v for v in bad)

    def test_detects_cross_download_in_noncoop(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 1.0), (2, 0.0, 10.0, 1.0)])
        mob = full_coop_mobility([1, 2], 10.0)
        downloads = {
            1: DownloadSequence(1, [DownloadRecord(1, 2, 1, 1, 0.0, 0.4)]),
            2: DownloadSequence(2, []),
        }
        bad = audit_run(profiles, cap, mob, downloads, 10.0, noncoop=True)
        assert any("C.3" in v for v in bad)

    def test_detects_buffer_overflow(self):
        profiles = {1: video_profile(1, buffer_cap=4.0)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 10.0)])
        mob = full_coop_mobility([1], 10.0)
        recs = [
            DownloadRecord(1, 1, k, 1, 0.04 * (k - 1), 0.04 * k)
            for k in range(1, 5)
        ]
        bad = audit_run(profiles, cap, mob, {1: DownloadSequence(1, recs)}, 10.0)
        assert any("C.4" in v for v in bad)

    def test_detects_conservation_breach(self):
        profiles = {1: video_profile(1)}
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 0.1)])
        mob = full_coop_mobility([1], 10.0)
        downloads = {1: DownloadSequence(1, [DownloadRecord(1, 1, 1, 5, 0.0, 2.0)])}
        bad = audit_run(profiles, cap, mob, downloads, 10.0)
        assert any("conservation" in v for v in bad)

    def test_reports_level_off_the_owner_ladder(self):
        profiles = {1: video_profile(1)}  # a 5-level ladder
        cap = CapacityTrace(10.0, [(1, 0.0, 10.0, 1.0)])
        mob = full_coop_mobility([1], 10.0)
        downloads = {1: DownloadSequence(1, [DownloadRecord(1, 1, 1, 6, 0.0, 2.0)])}
        bad = audit_run(profiles, cap, mob, downloads, 10.0)
        assert bad == ["user 1: ladder level 6 out of range 1..5"]

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
            DownloadRecord(1, 1, k, 1, 0.4 * i, 0.4 * (i + 1))
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

    def test_idle_helper_owner_rejected(self):
        # Helper 2 shares the hotspot but owns no video.
        profiles = {1: video_profile(1), 2: idle_profile(2)}
        cap = constant_capacity({1: 2.0, 2: 2.0}, 10.0)
        mob = full_coop_mobility([1, 2], 10.0)

        def rogue(view):
            return Download(2, 1)

        with pytest.raises(SimError, match="owner 2 is not a pending owner"):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))

    def test_fully_reserved_owner_rejected(self):
        # Owner 1's one segment is reserved by its own decision at t = 0, so
        # user 2, deciding next at t = 0, may serve only itself.
        profiles = {1: video_profile(1, video_len=2.0), 2: video_profile(2)}
        cap = constant_capacity({1: 2.0, 2: 2.0}, 10.0)
        mob = full_coop_mobility([1, 2], 10.0)

        def rogue(view):
            return Download(1, 1)

        with pytest.raises(SimError, match="user 2: owner 1 is not a pending owner"):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))

    def test_unknown_owner_rejected(self):
        profiles = {1: video_profile(1)}
        cap = constant_capacity({1: 2.0}, 10.0)
        mob = full_coop_mobility([1], 10.0)

        def rogue(view):
            return Download(99, 1)

        with pytest.raises(SimError, match="owner 99 is not a pending owner"):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))

    def test_overfull_owner_rejected(self):
        # Owner 2 always has room, so the engine asks the scheduler even
        # once owner 1's 4 s buffer is full, and the rogue keeps asking for
        # owner 1's next segment.
        profiles = {1: video_profile(1, buffer_cap=4.0), 2: video_profile(2)}
        cap = CapacityTrace(20.0, [(1, 0.0, 20.0, 50.0), (2, 0.0, 20.0, 50.0)])
        mob = full_coop_mobility([1, 2], 20.0)

        def rogue(view):
            return Download(1, 1)

        with pytest.raises(SimError, match="buffer cannot take a segment"):
            run(profiles, cap, mob, rogue, RunConfig(horizon=20.0))

    def test_bad_level_rejected(self):
        profiles = {1: video_profile(1)}
        cap = constant_capacity({1: 2.0}, 10.0)
        mob = full_coop_mobility([1], 10.0)

        def rogue(view):
            return Download(1, 6)

        with pytest.raises(SimError):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))

    def test_wait_that_does_not_end_after_now_rejected(self):
        # A Wait names an absolute instant; one at the decision instant
        # would re-decide at that instant forever.
        profiles = {1: video_profile(1)}
        cap = constant_capacity({1: 2.0}, 10.0)
        mob = full_coop_mobility([1], 10.0)

        def rogue(view):
            return Wait(0.0)

        with pytest.raises(SimError, match="wait must end after"):
            run(profiles, cap, mob, rogue, RunConfig(horizon=10.0))


class _FreshScans:
    """The checks of `_CheckedSimulation` and the fresh scans of the engine
    state they compare with.  They sit apart from it, so that every method
    a `_Simulation` subclass in the tests defines overrides an engine step
    (see `tests/test_reach.py`)."""

    def _parked_on_none(self, skip):
        """The generation of every user whose park is None, `skip` aside."""
        return {m: st.gen for m, st in self.users.items() if st.park is None and m != skip}

    def _check_not_re_decided(self, unparked):
        assert all(self.users[m].gen == gen for m, gen in unparked.items())

    def _check_hold_park(self, uid, t):
        st = self.users[uid]
        cooperative = not self.cfg.noncoop
        group = self._scan_group(uid, t)
        peers = tuple(self._fresh_peer_info(m, t) for m in group if self.users[m].is_video_user)
        view = SchedulerView(
            profile=st.profile,
            capacity=tr.capacity_at(self.cap, uid, t),
            peers=peers,
            history=st.history,
            pending=self._fresh_pending(uid, peers),
        )
        answer = hold(view.pending)
        assert isinstance(answer, (Wait, Idle))
        if self.registry:
            assert self.decide(view) == answer
        if not cooperative and isinstance(answer, Idle):
            assert st.remaining == 0
        assert st.park == (answer if cooperative else None)
        assert self._pending_decisions(uid) == self._wakes(t, answer)

    def _check_held(self, uid, t):
        st = self.users[uid]
        assert tr.capacity_at(self.cap, uid, t) > 0.0  # else the decision would park on the dead link
        # The engine would answer the decision with the group's hold, and
        # park the user where it is parked (or decide at t anyway).
        answer = hold([self._fresh_peer_info(m, t) for m in self._fresh_needy(self._scan_group(uid, t))])
        assert isinstance(answer, (Wait, Idle)) and answer == st.park
        assert self._pending_decisions(uid) in (self._wakes(t, answer), [t])

    def _pending_decisions(self, uid):
        gen = self.users[uid].gen
        return [at for at, kind, who, g, _ in self.heap if kind == _DECIDE and who == uid and g == gen]

    def _wakes(self, t, answer):
        """The pending decisions a park on `answer` at t leaves: a Wait's at
        its instant, an Idle's none."""
        return [answer.until] if isinstance(answer, Wait) and answer.until < self.T - TIME_EPS else []

    def _scan_group(self, uid, t):
        return [m for m in self.profiles if tr.encountered(self.mob, uid, m, t)]

    def _fresh_pending(self, uid, peers):
        """The owners among `peers` that `uid` may serve: those with segments
        nobody has reserved, and in the twin `uid` alone."""
        return tuple(
            p for p in peers if p.remaining > 0 and (not self.cfg.noncoop or p.user_id == uid)
        )

    def _fresh_needy(self, members):
        """The video users among `members` with segments nobody has reserved."""
        needy = []
        for m in members:
            st, prof = self.users[m], self.profiles[m]
            if prof.is_video_user and prof.num_segments - st.received - st.inflight > 0:
                needy.append(m)
        return needy

    def _fresh_peer_info(self, uid, t):
        st = self.users[uid]
        prof = st.profile
        buffer = max(st.q0 - (t - st.t0), 0.0)
        finished = st.received >= prof.num_segments and buffer <= TIME_EPS
        return PeerInfo(
            profile=prof,
            buffer=0.0 if finished else buffer,
            last_bitrate=st.last_bitrate,
            remaining=prof.num_segments - st.received - st.inflight,
            inflight=st.inflight,
            playback_started=st.received > 0,
            playback_finished=finished,
            room_at=st.t0 + st.q0 + prof.segment_len - prof.buffer_cap,
        )


class _CheckedSimulation(_FreshScans, _Simulation):
    """Checks the engine's shortcuts against the paths they replace.

    At every decision and wake-up the group state's members must equal a
    scan of all users with `traces.encountered`, and its needy members a
    scan of their reservations; every PeerInfo, the pending owners and the
    history handed to the scheduler must equal ones built afresh from the
    state, the buffer drained from its delivery anchors to the decision
    instant.  The READY step runs at most once per radio-free instant (t = 0,
    and each delivery or abort of the user's own transfer), at the first
    cooperative decision on a live link after it, and after every such
    decision no READY is due.  It adds one READY when a fresh scan finds
    company and one ACK per needy co-located listener besides the sender,
    moves the last READY instant to t exactly when it adds a READY, moves
    the quiet instant of the sender and of each listener that answers to t
    and of no one else, so no quiet instant ever decreases, returns nothing
    and schedules no decision.  At the end of a cooperative run the sleeps
    and awakes equal those counted afresh from the log of READY and ACK
    instants, and READY is at most the users plus the completions.
    After every decision the user has a delivery or abort pending or is
    parked through `_park`: on None after a dead link and in the twin, on
    Idle after a cooperative horizon-cut Download, and on the Wait or Idle
    itself after a cooperative one.  No decision strands it: a park on None
    without a timer is a link dead to the end of its trace or a twin's Idle,
    which parks it for good.

    At every decision that the engine answers with the hold, without a
    scheduler call, a registry rule runs on the view that the decision
    would have handed it, built afresh, and must answer that same Wait or
    Idle; the user must be parked where that answer puts it.

    No peer's delivery, abort, move or READY re-decides a user whose park
    is None.  A Wait leaves a decision pending at its instant, an Idle none.
    After every abort the owner, built afresh, can take a segment, so
    the group has no hold and no wake at the abort is held.  After every
    delivery or abort before the horizon, each user co-located with the
    segment's owner and parked on a Wait or Idle has a decision pending at
    that instant, unless its wake was held; after every cooperative move
    before the horizon, so has each such user at the mover's new hotspot,
    the mover included.  For each held wake the hold of the group, built
    afresh, must equal the user's park, and its link must be alive.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.decision_times = []
        self.sent = []  # (user, instant) of every READY and ACK, in send order
        self.freed = dict.fromkeys(self.profiles, 1)  # radio-free instants so far, t = 0 the first
        self.readied = dict.fromkeys(self.profiles, 0)  # the one whose READY step has run
        self.decide = decide = self.scheduler
        self.registry = getattr(decide, "name", None) in SCHEDULER_NAMES

        def checked(view):
            st = self.users[view.user_id]
            if self.cfg.noncoop:
                assert st.inflight == 0
            for p in view.peers:
                assert p == self._fresh_peer_info(p.user_id, self.now)
            assert view.pending == self._fresh_pending(view.user_id, view.peers)
            assert view.history == tuple(
                self.profiles[r.owner].ladder.rate(r.level) * self.profiles[r.owner].segment_len
                / (r.t_end - r.t_start)
                for r in st.records
                if r.t_end - r.t_start > TIME_EPS
            )
            return decide(view)

        self.scheduler = checked

    def _decide(self, uid, t):
        self.now = t
        self.decision_times.append(t)
        c = self.counters
        parks, cuts, dead = c.hold_parks, c.calls_cut, c.dead_link_parks
        unparked = self._parked_on_none(uid)
        self.parked = None
        super()._decide(uid, t)
        self._check_not_re_decided(unparked)
        if not self.cfg.noncoop and c.dead_link_parks == dead:
            assert not self.users[uid].ready_due
        park = self.users[uid].park
        if self.parked is None:  # a transfer started
            assert park is None and any(kind == _COMPLETE and who == uid for _, kind, who, *_ in self.heap)
            return
        wake, parked_on = self.parked
        assert parked_on is park
        if wake is None and park is None:
            assert self.cfg.noncoop or tr.next_positive_capacity(self.cap, uid, t) is None
        if c.dead_link_parks > dead or self.cfg.noncoop:
            assert park is None
        elif c.calls_cut > cuts:
            assert park == Idle()
        else:
            assert isinstance(park, (Wait, Idle))
        if c.hold_parks > parks:
            self._check_hold_park(uid, t)

    def _park(self, uid, wake, park):
        self.parked = (wake, park)
        super()._park(uid, wake, park)

    def _complete(self, uid, t, payload):
        kind, owner = payload[:2]
        unparked = self._parked_on_none(uid)
        self.woken = None
        super()._complete(uid, t, payload)
        self.freed[uid] += 1
        self._check_not_re_decided(unparked)
        if kind == "abort":
            # Admission and deliveries keep buffer + inflight * beta <= Q.
            assert can_afford(self._fresh_peer_info(owner, t))
        live = not self.cfg.noncoop and t < self.T - TIME_EPS
        assert self.woken == ((t, owner) if live else None)

    def _move(self, uid, i):
        gens = {m: st.gen for m, st in self.users.items()}
        super()._move(uid, i)
        assert {m: st.gen for m, st in self.users.items()} == gens  # only its arrival wakes anyone
        t = self.mob.tracks[uid].bounds[i]
        live = not self.cfg.noncoop and t < self.T - TIME_EPS
        assert ((t, _ARRIVE, uid, None, None) in self.heap) == live

    def _wake_parked(self, t, owner):
        # `owner` is the segment's owner at a delivery or abort, or the mover
        # at an arrival.
        gens = {m: st.gen for m, st in self.users.items()}
        wakes_held = self.counters.wakes_held
        unparked = self._parked_on_none(None)
        super()._wake_parked(t, owner)
        self.woken = (t, owner)
        self._check_not_re_decided(unparked)
        held = 0
        for m, st in self.users.items():
            if st.park is not None and tr.encountered(self.mob, owner, m, t):
                if st.gen == gens[m]:
                    self._check_held(m, t)
                    held += 1
                else:
                    assert (t, _DECIDE, m) in {
                        (at, kind, who) for at, kind, who, gen, _ in self.heap if gen == st.gen
                    }
        assert self.counters.wakes_held - wakes_held == held

    def _group(self, uid, t):
        group = super()._group(uid, t)
        assert group.members == self._scan_group(uid, t)
        assert group.needy == self._fresh_needy(group.members)
        return group

    def _ready(self, uid, t, group):
        assert not self.cfg.noncoop and tr.capacity_at(self.cap, uid, t) > 0.0
        assert self.readied[uid] < self.freed[uid]  # one READY step per radio-free instant
        self.readied[uid] = self.freed[uid]
        st = self.users[uid]
        others = [m for m in self._scan_group(uid, t) if m != uid]
        senders = [uid, *self._fresh_needy(others)] if others else []
        m = self.msgs
        before = (m.ready, m.ack)
        last_ready = m.last_ready
        quiet = {u: s.quiet_since for u, s in self.users.items()}
        gens = {u: s.gen for u, s in self.users.items()}
        assert super()._ready(uid, t, group) is None
        assert {u: s.gen for u, s in self.users.items()} == gens
        want = (1, len(senders) - 1) if senders else (0, 0)
        assert (m.ready - before[0], m.ack - before[1]) == want
        assert m.last_ready == (t if senders else last_ready)
        assert not st.ready_due
        for u, s in self.users.items():
            assert s.quiet_since == (t if u in senders else quiet[u]) >= quiet[u]
        self.sent += [(u, t) for u in senders]

    def run(self):
        res = super().run()
        if not self.cfg.noncoop:
            # A stretch between two sends, or from the last to the horizon,
            # of at least ack_window and more than TIME_EPS is a sleep.
            window = self.cfg.ack_window
            quiet_since = dict.fromkeys(self.profiles, 0.0)
            stretches = []
            for u, t in self.sent:
                stretches.append(t - quiet_since[u])
                quiet_since[u] = t
            long = [q > TIME_EPS and q >= window for q in stretches]
            tails = [self.T - q > TIME_EPS and self.T - q >= window for q in quiet_since.values()]
            assert (res.messages.sleep, res.messages.awake) == (sum(long) + sum(tails), sum(long))
            assert res.messages.ready <= len(self.profiles) + self.counters.completions
        return res


class TestDecisionPathDifferential:
    """The occupancy index and the group state change no decision input."""

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
        # at 8 s and 12 s users 0 and 3 move out of hotspot 1's group
        assert {3.0, 4.0, 8.0, 10.0, 12.0} <= bounds & ends
        assert bounds & set(sim.decision_times) == bounds
        assert res.aborts[5][0] == 1
        assert min(r.t_end for r in res.receives[4].records) > 0.75


_WAKES = "wakes"  # a park that no hold equals: every wake-up that reaches it re-decides


class _TwinWakes(_Simulation):
    """Runs the wake rule at a twin's deliveries and aborts too, as the
    engine did before.  The engine skips it there, since every twin park
    is None; a retired rule that parks a twin on something else needs it."""

    def _complete(self, uid, t, payload):
        super()._complete(uid, t, payload)
        if self.cfg.noncoop and t < self.T - TIME_EPS:
            self._wake_parked(t, payload[1])


class _WakeAllSimulation(_TwinWakes):
    """The wake rule before hotspot pruning and held wakes: every delivery,
    abort or cooperative move, nearby or not, re-decides every parked user
    in ascending uid order.  A park on None is recorded as _WAKES."""

    def _park(self, uid, wake, park):
        super()._park(uid, wake, _WAKES if park is None else park)

    def _wake_parked(self, t, owner):
        for uid, st in self.users.items():
            if st.park is not None:
                self.counters.wakeups += 1
                self._schedule_decision(uid, t)


class _UnheldSimulation(_Simulation):
    """The wake rule before held wakes: every delivery, abort or arrival
    re-decides each user at the owner's or mover's hotspot parked on a
    cooperative Wait or Idle."""

    def _park(self, uid, wake, park):
        super()._park(uid, wake, park if park is None else _WAKES)


class _DeadLinkWakeSimulation(_Simulation):
    """The cooperative dead-link rule before dead links parked on their own
    timer: every delivery, abort or arrival at the owner's or mover's
    hotspot re-decides a user parked on a dead link, only to park it there
    again."""

    def _park(self, uid, wake, park):
        super()._park(uid, wake, _WAKES if park is None and not self.cfg.noncoop else park)


class _TwinWakeAllSimulation(_TwinWakes):
    """The twin rule before twins re-decided only on their own events: every
    park wakes at its owner's-hotspot completions, and an Idle, a
    horizon-cut Download's included, revisits at the next mobility
    breakpoint.  Cooperative runs are unchanged."""

    def _decide(self, uid, t):
        self.now = t
        super()._decide(uid, t)

    def _park(self, uid, wake, park):
        if self.cfg.noncoop:
            park = _WAKES
            # Only an Idle parks on a live link with no timer.
            if wake is None and tr.capacity_at(self.cap, uid, self.now) > 0.0:
                wake = self.mob.next_breakpoint(self.now)
        super()._park(uid, wake, park)


class TestWakeRule:
    """A delivery, abort or arrival re-decides only the parked users that
    can see it."""

    def test_an_arrival_wakes_an_idle_park_and_nothing_else_does(self):
        # Helper 1 idles at hotspot 1, where nobody needs a segment, and
        # has no timer.  Helper 3 moves from hotspot 2 to 3 at 2 s, and
        # helper 4 leaves hotspot 1 for hotspot 2 at 3 s: each arrives alone,
        # where its own Idle is the hold, so neither move re-decides anyone.
        # Video user 2, on a dead link in transit, arrives at hotspot 1 with
        # an empty buffer at 5 s, which wakes helper 1: it decides at 5 s
        # and fetches user 2's segments, one a second.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {uid: idle_profile(uid) for uid in (1, 3, 4)}
        profiles[2] = video_profile(2, ladder=ladder)
        cap = constant_capacity({1: 1.0, 2: 0.0, 3: 1.0, 4: 1.0}, 10.0)
        mob = MobilityTrace(
            10.0,
            [
                (1, 0.0, 10.0, 1),
                (2, 0.0, 5.0, 0), (2, 5.0, 10.0, 1),
                (3, 0.0, 2.0, 2), (3, 2.0, 10.0, 3),
                (4, 0.0, 3.0, 1), (4, 3.0, 10.0, 2),
            ],
        )
        sim = _CheckedSimulation(
            profiles, cap, mob, lambda view: Download(view.pending[0].user_id, 1), RunConfig(horizon=10.0)
        )
        decided = TestCoordinationOnlyCounts.logged(sim)
        res = sim.run()
        assert [t for t, uid in decided if uid == 1] == [0.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        assert [(r.owner, r.t_start) for r in res.downloads[1].records][:2] == [(2, 5.0), (2, 6.0)]
        assert [t for t, uid in decided if uid in (3, 4)] == [0.0, 0.0]
        c = res.counters
        assert (c.wakeups, c.wakes_held, c.stale) == (1, 2, 0)

    def test_delivery_wakes_only_parked_users_beside_the_owner(self):
        # User 1 fetches one of its own segments over [0, 1] at hotspot 1.
        # User 2 walks from hotspot 2 to hotspot 1 at 0.5 s and user 3 the
        # other way, so at the delivery user 2 sits beside the owner and
        # user 3 does not.  User 4 fetches its own segment in transit over
        # [0, 2]; user 5, also in transit, shares no hotspot with it.  Users
        # 2, 3 and 5 wait past the horizon, so only a wake-up re-decides them.
        # At 0.5 s each of users 2 and 3 arrives where its Wait is not the
        # hold, so each re-decides there.
        profiles = {uid: video_profile(uid) for uid in range(1, 6)}
        cap = constant_capacity({1: 0.4, 2: 1.0, 3: 1.0, 4: 0.2, 5: 1.0}, 10.0)
        mob = MobilityTrace(
            10.0,
            [
                (1, 0.0, 10.0, 1),
                (2, 0.0, 0.5, 2), (2, 0.5, 10.0, 1),
                (3, 0.0, 0.5, 1), (3, 0.5, 10.0, 2),
                (4, 0.0, 10.0, 0),
                (5, 0.0, 10.0, 0),
            ],
        )

        def scripted(view):
            me = view.peer(view.user_id)
            if view.user_id in (1, 4) and me.remaining == me.profile.num_segments:
                return Download(view.user_id, 1)
            return Wait(100.0)

        sim = _CheckedSimulation(profiles, cap, mob, scripted, RunConfig(horizon=10.0))
        decided = []
        decide = sim._decide

        def logged(uid, t):
            decided.append((uid, t))
            decide(uid, t)

        sim._decide = logged
        res = sim.run()
        assert [r.t_end for r in res.downloads[1].records] == [1.0]
        assert [r.t_end for r in res.downloads[4].records] == [2.0]
        later = sorted((t, uid) for uid, t in decided if t > 0.0)
        # user 1's delivery at 1.0 re-decides user 1 and its new neighbour
        # 2; user 4's delivery at 2.0 re-decides user 4 alone
        assert later == [(0.5, 2), (0.5, 3), (1.0, 1), (1.0, 2), (2.0, 4)]
        assert res.counters.wakeups == 3

    @pytest.mark.parametrize("name", ["lyapunov", "buffer", "prediction"])
    def test_full_coop_matches_wake_all(self, name):
        # With every user always at one hotspot, the pruned rule wakes the
        # same users in the same order as waking every parked user, bar the
        # held wakes, whose decisions would repeat their parks: the same
        # outcome from no more decisions.  Coordination is counted from the
        # protocol, not from the decisions run, so the messages are equal.
        # A twin wakes at nothing: the same downloads bit for bit (every
        # time is anchored to a write), from fewer decisions.  Its horizon-cut
        # request parks it for good, where waking every parked user retries
        # it; in buffer seed 3 a retry at a lower level lands user 0's
        # segment 48 over [79.07, 79.99] s, elsewhere every retry is cut too.
        # Either way a decision that no pending owner can serve is answered
        # with the hold, so both sides ask the scheduler the same questions,
        # bar those retries.
        cfg = ScenarioConfig(n_users=8, horizon=80.0, mobility="full-coop")
        for seed in range(1, 11):
            profiles = build_profiles(cfg, seed)
            cap, mob, _ = build_traces(cfg, seed)
            for noncoop in (False, True):
                run_cfg = RunConfig(horizon=80.0, noncoop=noncoop)
                got, want = (
                    sim_cls(profiles, cap, mob, make_scheduler(name), run_cfg).run()
                    for sim_cls in (_Simulation, _WakeAllSimulation)
                )
                if noncoop and (name, seed) == ("buffer", 3):
                    assert classify(outcome(got), outcome(want)) == "material"
                    assert len(want.downloads[0].records) - len(got.downloads[0].records) == 1
                    continue
                assert classify(outcome(got), outcome(want)) == "identical"
                retries = want.counters.calls_cut - got.counters.calls_cut if noncoop else 0
                assert got.counters.calls == want.counters.calls - retries
                if noncoop:
                    assert got.counters.decisions < want.counters.decisions
                else:
                    assert got.counters.decisions <= want.counters.decisions
                assert got.messages == want.messages
                assert any(seq.records for seq in got.downloads.values())

    @pytest.mark.parametrize("name, completion_parks", [("lyapunov", 49), ("buffer", 46), ("prediction", 47)])
    def test_dead_link_park_keeps_its_own_timer(self, name, completion_parks):
        # Criterion 9's hotspot (three video users, rowed in 10 s spans),
        # with user 1's link dead from the start until 75 s while users 0
        # and 2 deliver its segments.  Only the link's return re-decides it:
        # one dead-link park, where re-deciding it at every nearby delivery
        # and abort, and at the 7 row bounds (10, 20, ..., 70 s) where all
        # three arrive again, parks it on the dead link again and again,
        # with the same downloads and messages.
        profiles = {uid: video_profile(uid, buffer_cap=20.0, video_len=60.0) for uid in range(3)}
        cap = CapacityTrace(
            120.0, [(0, 0.0, 120.0, 3.5), (1, 0.0, 75.0, 0.0), (1, 75.0, 120.0, 3.5), (2, 0.0, 120.0, 3.5)]
        )
        mob = MobilityTrace(120.0, [(uid, 10.0 * k, 10.0 * (k + 1), 1) for uid in range(3) for k in range(12)])
        got, want = (
            sim_cls(profiles, cap, mob, make_scheduler(name), RunConfig(horizon=120.0)).run()
            for sim_cls in (_CheckedSimulation, _DeadLinkWakeSimulation)
        )
        a, b = outcome(got), outcome(want)
        assert classify(a, b) == "identical" and a.messages == b.messages
        assert len([r for r in got.receives[1].records if r.t_end < 75.0]) == 30
        old_parks = completion_parks + 7
        assert (got.counters.dead_link_parks, want.counters.dead_link_parks) == (1, old_parks)
        assert want.counters.decisions - got.counters.decisions == old_parks - 1

    def test_twin_re_decides_only_on_its_own_events(self):
        # A non-cooperative twin at one hotspot: user 1 fetches its own
        # 0.5 Mbit segments at 0.5 Mbps, landing at 1, 2 and 3 s (= T).
        # User 2 waits 1.5 s, then 100 s; helper 3 idles; user 4's link is
        # so slow that the horizon cuts its request, an Idle.  Nobody wakes
        # at user 1's deliveries: user 2 re-decides at its own timer alone
        # and users 3 and 4 never again.  The old twin rule re-decides all
        # three.
        ladder = BitrateLadder((0.25, 0.5))
        profiles = {uid: video_profile(uid, ladder=ladder) for uid in (1, 2, 4)}
        profiles[3] = idle_profile(3)
        cap = constant_capacity({1: 0.5, 2: 1.0, 3: 1.0, 4: 0.125}, 3.0)
        mob = full_coop_mobility([1, 2, 3, 4], 3.0)

        def decisions(sim_cls):
            waits = []

            def scripted(view):  # never asked for helper 3, which has nothing pending
                if view.user_id == 2:
                    waits.append(view)
                    return Wait(1.5 if len(waits) == 1 else 100.0)
                return Download(view.user_id, 1)

            sim = sim_cls(profiles, cap, mob, scripted, RunConfig(horizon=3.0, noncoop=True))
            decided = []
            decide = sim._decide

            def logged(uid, t):
                decided.append((t, uid))
                decide(uid, t)

            sim._decide = logged
            res = sim.run()
            return sorted((t, uid) for t, uid in decided if 0.0 < t < 3.0), res

        got, res = decisions(_CheckedSimulation)
        assert [r.t_end for r in res.downloads[1].records] == [1.0, 2.0, 3.0]
        assert got == [(1.0, 1), (1.5, 2), (2.0, 1)]
        assert res.counters.hold_parks == 1 and res.counters.calls_cut == 1  # user 3's Idle
        assert res.counters.wakeups == 0
        old, _ = decisions(_TwinWakeAllSimulation)
        assert old == [(1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4), (2.0, 1), (2.0, 2), (2.0, 3), (2.0, 4)]


class TestHorizonCut:
    """A Download that the horizon cuts short is answered as an Idle."""

    @staticmethod
    def cut_run(profiles, noncoop):
        # User 1's 0.125 Mbps link would take 4 s over a 0.5 Mbit segment,
        # past T = 3 s; user 2 fetches its own over 1 Mbps in 0.5 s.
        cap = constant_capacity({1: 0.125, 2: 1.0}, 3.0)
        mob = full_coop_mobility([1, 2], 3.0)
        sim = _CheckedSimulation(
            profiles, cap, mob, lambda view: Download(view.pending[0].user_id, 1),
            RunConfig(horizon=3.0, noncoop=noncoop),
        )
        decided = TestCoordinationOnlyCounts.logged(sim)
        return sim, sim.run(), decided

    def test_co_located_delivery_does_not_re_decide_a_cut_twin(self):
        # In the twin, user 1's cut parks it for good: user 2's deliveries
        # beside it at 0.5, 1, ... s re-decide user 2 alone.
        ladder = BitrateLadder((0.25, 0.5))
        profiles = {uid: video_profile(uid, ladder=ladder) for uid in (1, 2)}
        sim, res, decided = self.cut_run(profiles, noncoop=True)
        assert len(res.downloads[2].records) == 6
        assert [t for t, uid in decided if uid == 1] == [0.0]
        assert (res.counters.calls_cut, res.counters.wakeups, res.counters.wakes_held) == (1, 0, 0)
        assert sim.users[1].park is None

    def test_cooperative_cut_parks_on_idle_and_its_wake_is_held(self):
        # Helper 1 asks for user 2's only segment, which the horizon cuts,
        # and parks on Idle.  User 2 fetches it itself by 0.5 s, which leaves
        # nobody needy: the group's hold is Idle, so the wake is held.
        ladder = BitrateLadder((0.25, 0.5))
        profiles = {1: idle_profile(1), 2: video_profile(2, ladder=ladder, video_len=2.0)}
        sim, res, decided = self.cut_run(profiles, noncoop=False)
        assert [r.t_end for r in res.downloads[2].records] == [0.5]
        assert [t for t, uid in decided if uid == 1] == [0.0]
        assert (res.counters.calls_cut, res.counters.wakeups, res.counters.wakes_held) == (1, 0, 1)
        assert sim.users[1].park == Idle()


class TestHeldWakes:
    def test_random_micro_scenarios(self):
        # Every held wake repeats its park (checked against the scheduler on
        # a fresh view), and holding them changes no download, abort or
        # welfare term, nor any coordination count: only the counters.
        held = 0
        for seed in range(150):
            profiles, cap, mob, run_cfg = micro_scenario(seed)
            for name in ("lyapunov", "buffer", "prediction"):
                got, want = (
                    sim_cls(profiles, cap, mob, make_scheduler(name), run_cfg).run()
                    for sim_cls in (_CheckedSimulation, _UnheldSimulation)
                )
                a, b = outcome(got), outcome(want)
                assert classify(a, b) == "identical"
                assert got.counters.calls == want.counters.calls
                assert got.messages == want.messages
                held += got.counters.wakes_held
        assert held > 1000


class TestCoordinationOnlyCounts:
    """READY, ACK and sleep are counted; they steer no decision."""

    @staticmethod
    def logged(sim):
        decided = []
        decide = sim._decide

        def logged(uid, t):
            decided.append((t, uid))
            decide(uid, t)

        sim._decide = logged
        return decided

    def test_twin_counts_no_coordination_traffic(self):
        # A twin acts alone: it counts no READY, ACK, sleep or wake.
        cfg = ScenarioConfig()
        profiles = build_profiles(cfg, 1)
        cap, mob, _ = build_traces(cfg, 1)
        for name in SCHEDULER_NAMES:
            run_cfg = RunConfig(horizon=cfg.horizon, noncoop=True, ack_window=cfg.ack_window)
            res = run(profiles, cap, mob, make_scheduler(name), run_cfg)
            assert any(seq.records for seq in res.downloads.values())
            assert all(value in (0, None) for value in asdict(res.messages).values())

    def test_ready_that_wakes_a_parked_sleeper_schedules_no_decision(self):
        # User 1 fills its 4 s buffer at hotspot 1 beside helper 3, whose
        # link is dead, so its READYs draw no ACK.  User 2's link comes back
        # at 5.75 s as it arrives: only then does it send the READY due
        # since t = 0.  User 1, parked on a Wait and quiet since its READY
        # at 5 s, answers it: its ACK ends a 0.75 s sleep.  User 1 decides
        # at 5.75 s, before user 2, since user 2's arrival woke it; the
        # READY schedules no decision (_CheckedSimulation checks), and user
        # 1 decides next at user 2's delivery (6.25 s).  With a 0.6 s
        # window, user 1 sleeps before its sends at 3, 5, 5.75 and 8.75 s and
        # user 2 before its sends at 5.75 and 8.75 s; both, and helper 3,
        # which never sends, are quiet to the horizon for longer: nine
        # sleeps, six of them ended by a send.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {uid: video_profile(uid, ladder=ladder, buffer_cap=4.0) for uid in (1, 2)}
        profiles[3] = idle_profile(3)
        cap = CapacityTrace(
            10.0, [(1, 0.0, 10.0, 4.0), (2, 0.0, 5.75, 0.0), (2, 5.75, 10.0, 4.0), (3, 0.0, 10.0, 0.0)]
        )
        mob = MobilityTrace(
            10.0, [(1, 0.0, 10.0, 1), (2, 0.0, 5.75, 2), (2, 5.75, 10.0, 1), (3, 0.0, 10.0, 1)]
        )
        run_cfg = RunConfig(horizon=10.0, ack_window=0.6)
        sim = _CheckedSimulation(profiles, cap, mob, top_rate_scheduler, run_cfg)
        decided = self.logged(sim)
        res = sim.run()
        assert (1, 5.0) in sim.sent and (1, 5.75) in sim.sent
        assert not any(uid == 1 and 5.0 < t < 5.75 for uid, t in sim.sent)
        assert (res.messages.sleep, res.messages.awake) == (9, 6)
        assert decided.index((5.75, 1)) < decided.index((5.75, 2))
        assert [t for t, uid in decided if uid == 1 and 5.0 < t < 6.5] == [5.75, 6.25]

    def test_no_sleep_ends_where_it_begins(self):
        # User 4 reserves its only segment at t = 0 and receives it at 4 s.
        # With a 1 s window, user 1's sends at 3, 4, 5 and 7 s end quiet
        # stretches of 2, 1, 1 and 2 s, and user 4's READY at 4 s ends one
        # of 4 s: five sleeps, each with its awake.  Both are quiet from
        # their last send to the horizon at 8 s for at least 1 s: two more
        # sleeps, with no awake.  Each sleep lasts at least the window, so
        # none is undone at the instant it began.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {
            1: video_profile(1, ladder=ladder, buffer_cap=4.0),
            4: video_profile(4, ladder=ladder, video_len=2.0),
        }
        cap = constant_capacity({1: 4.0, 4: 0.5}, 8.0)
        mob = full_coop_mobility([1, 4], 8.0)
        sim = _CheckedSimulation(profiles, cap, mob, top_rate_scheduler, RunConfig(horizon=8.0, ack_window=1.0))
        res = sim.run()
        assert [r.t_end for r in res.downloads[1].records] == [0.5, 1.0, 3.0, 5.0, 7.0]
        assert [r.t_end for r in res.downloads[4].records] == [4.0]
        msgs = res.messages
        assert (msgs.ready, msgs.ack, msgs.sleep, msgs.awake) == (8, 3, 7, 5)
        assert {uid: st.quiet_since for uid, st in sim.users.items()} == {1: 7.0, 4: 4.0}

    def test_wake_is_held_while_the_no_ack_window_is_armed(self):
        # As above, with a 10 s window and T = 6 s: user 1 is parked on
        # Wait(4.5) when user 4's segment lands at 4 s.  That leaves the
        # group's hold equal to the park, so the wake is held.  No quiet
        # stretch reaches the 10 s window, so nobody sleeps.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {
            1: video_profile(1, ladder=ladder, buffer_cap=4.0),
            4: video_profile(4, ladder=ladder, video_len=2.0),
        }
        cap = constant_capacity({1: 4.0, 4: 0.5}, 6.0)
        mob = full_coop_mobility([1, 4], 6.0)
        run_cfg = RunConfig(horizon=6.0, ack_window=10.0)
        sim = _CheckedSimulation(profiles, cap, mob, top_rate_scheduler, run_cfg)
        decided = self.logged(sim)
        res = sim.run()
        assert [r.t_end for r in res.downloads[4].records] == [4.0]
        assert {uid: st.quiet_since for uid, st in sim.users.items()} == {1: 5.0, 4: 4.0}
        assert res.messages.sleep == res.messages.awake == 0
        assert res.counters.wakes_held == 1
        assert [t for t, uid in decided if uid == 1 and 3.0 < t < 5.0] == [4.5]


class TestGroupState:
    def test_waits_on_one_room_expire_together(self):
        # Three video users at one hotspot with 4, 3 and 5 s buffers fetch
        # 0.5 s segments over 4 Mbps links.  At 2.5, 4.5 and 5.5 s all three
        # are parked on a Wait for that instant and decide in uid order:
        # user 1 starts a segment, which leaves no owner with room, so users
        # 2 and 3 park on the next room or, once every segment is reserved,
        # on Idle.  A Wait's expiry frees no radio, so none of these
        # decisions sends a READY or draws an ACK.  _CheckedSimulation checks
        # the group state, the hold and the READY/ACK counts of every step
        # against fresh scans.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {
            uid: video_profile(uid, ladder=ladder, buffer_cap=cap_s, video_len=8.0)
            for uid, cap_s in ((1, 4.0), (2, 3.0), (3, 5.0))
        }
        cap = constant_capacity({1: 4.0, 2: 4.0, 3: 4.0}, 12.0)
        mob = full_coop_mobility([1, 2, 3], 12.0)
        sim = _CheckedSimulation(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=12.0))
        steps = {}
        decide = sim._decide

        def logged(uid, t):
            st, acks = sim.users[uid], sim.msgs.ack
            before = st.park
            decide(uid, t)
            steps.setdefault(t, []).append((uid, before, st.park, sim.msgs.ack - acks))

        sim._decide = logged
        res = sim.run()
        started = {r.t_start: r.owner for r in res.downloads[1].records}
        assert {t: started[t] for t in (2.5, 4.5, 5.5)} == {2.5: 1, 4.5: 1, 5.5: 2}
        assert steps[2.5] == [
            (1, Wait(2.5), None, 0), (2, Wait(2.5), Wait(3.5), 0), (3, Wait(2.5), Wait(3.5), 0)
        ]
        # user 1's start reserves its own last segment
        assert steps[4.5] == [
            (1, Wait(4.5), None, 0), (2, Wait(4.5), Wait(5.5), 0), (3, Wait(4.5), Wait(5.5), 0)
        ]
        # user 1's start reserves user 2's last segment: nobody is needy
        assert steps[5.5] == [
            (1, Wait(5.5), None, 0), (2, Wait(5.5), Idle(), 0), (3, Wait(5.5), Idle(), 0)
        ]
        assert all(r.remaining == 0 for r in sim.users.values())


class TestSnapshots:
    @staticmethod
    def scribbling(rule):
        """`rule`, after which every PeerInfo it was handed is overwritten."""

        def decide(view):
            answer = rule(view)
            for p in view.peers + view.pending:
                p.buffer, p.remaining, p.inflight, p.room_at = 1e9, 0, 99, -1.0
            return answer

        return decide

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    @pytest.mark.parametrize("noncoop", [False, True])
    def test_a_snapshot_belongs_to_one_call(self, name, noncoop):
        # A scheduler that writes over its view's snapshots changes no
        # later decision: every view is built afresh from the engine state.
        cfg = ScenarioConfig(n_users=10, horizon=80.0, mobility="dense-short", capacity_hi=2.5)
        scenarios = [(build_profiles(cfg, 2), *build_traces(cfg, 2)[:2], RunConfig(horizon=80.0))]
        scenarios += [micro_scenario(seed) for seed in range(8)]
        calls = 0
        for profiles, cap, mob, run_cfg in scenarios:
            run_cfg = replace(run_cfg, noncoop=noncoop)
            clean, scribbled = (
                run(profiles, cap, mob, decide, run_cfg)
                for decide in (make_scheduler(name), self.scribbling(make_scheduler(name)))
            )
            assert scribbled.downloads == clean.downloads
            assert scribbled.messages == clean.messages
            assert scribbled.counters == clean.counters
            calls += clean.counters.calls
        assert calls > 100


class TestEngineCounters:
    def run_twice(self, mobility):
        cfg = ScenarioConfig(n_users=12, horizon=80.0, mobility=mobility, capacity_hi=2.5)
        profiles = build_profiles(cfg, 3)
        cap, mob, noncoop = build_traces(cfg, 3)
        return [
            run(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=80.0, noncoop=noncoop))
            for _ in range(2)
        ]

    @pytest.mark.parametrize("mobility", ["dense-short", "full-coop", "non-coop"])
    def test_counts_repeat_and_add_up(self, mobility):
        a, b = self.run_twice(mobility)
        c = a.counters
        assert c == b.counters
        assert c.calls == c.calls_download + c.calls_wait + c.calls_idle + c.calls_cut
        assert c.events == c.completions + c.decisions + c.stale
        # every started transfer lands or aborts by the horizon
        downloads = sum(len(seq.records) for seq in a.downloads.values())
        aborts = sum(count for count, _ in a.aborts.values())
        assert c.calls_download == c.completions == downloads + aborts
        # every decision parks on a dead link, parks on the hold, or asks
        # the scheduler, and lyapunov downloads whenever it is asked
        assert c.decisions == c.dead_link_parks + c.hold_parks + c.calls
        assert c.calls == c.calls_download + c.calls_cut
        assert c.hold_parks > 0 and c.calls_download > 0
        if mobility == "non-coop":
            # Only a wake-up can supersede a twin's pending decision.
            assert c.stale <= c.wakeups
        else:
            assert c.stale > 0
        assert result_to_dict(a)["engine"] == asdict(c)

    def test_scheduler_outcomes_are_classified(self):
        # User 1 fetches a segment over [0, 0.4], then asks for one that the
        # horizon cuts.  User 2's link is dead until 1.5 s, and only that
        # timer ends its park: the delivery at 0.4 leaves it parked.  At
        # 1.5 s it waits 1 s, then idles.
        profiles = {1: video_profile(1), 2: video_profile(2)}
        cap = CapacityTrace(3.0, [(1, 0.0, 3.0, 1.0), (2, 0.0, 1.5, 0.0), (2, 1.5, 3.0, 1.0)])
        mob = full_coop_mobility([1, 2], 3.0)
        waited = []

        def scripted(view):
            if view.user_id == 2:
                if waited:
                    return Idle()
                waited.append(view)
                return Wait(2.5)
            me = view.peer(1)
            return Download(1, 1 if me.remaining == me.profile.num_segments else 5)

        res = run(profiles, cap, mob, scripted, RunConfig(horizon=3.0))
        assert [r.t_end for r in res.downloads[1].records] == [0.4]
        assert res.counters == EngineCounters(
            events=6, completions=1, decisions=5, stale=0, hold_parks=0,
            calls=4, calls_download=1, calls_wait=1, calls_idle=1, calls_cut=1,
            dead_link_parks=1, wakeups=0, wakes_held=0,
        )

    def test_held_wakes_are_counted(self):
        # Three video users at one hotspot fill 4 s buffers over 4, 2 and
        # 1 Mbps links and spend most of the run waiting for room.  Thirteen
        # deliveries leave the group's hold equal to a waiting user's park,
        # so those wake-ups are held: the downloads and messages are those
        # of waking every parked user, from fewer decisions.
        ladder = BitrateLadder((0.5, 1.0))
        profiles = {
            uid: video_profile(uid, ladder=ladder, buffer_cap=4.0, video_len=40.0)
            for uid in (1, 2, 3)
        }
        cap = constant_capacity({1: 4.0, 2: 2.0, 3: 1.0}, 10.0)
        mob = full_coop_mobility([1, 2, 3], 10.0)
        got, want = (
            sim_cls(profiles, cap, mob, make_scheduler("lyapunov"), RunConfig(horizon=10.0)).run()
            for sim_cls in (_CheckedSimulation, _WakeAllSimulation)
        )
        # Every Wait is the group's hold, answered by the engine: the
        # scheduler is asked only for the 18 downloads.
        assert got.counters == EngineCounters(
            events=66, completions=18, decisions=40, stale=8, hold_parks=22,
            calls=18, calls_download=18, calls_wait=0, calls_idle=0, calls_cut=0,
            dead_link_parks=0, wakeups=8, wakes_held=13,
        )
        assert result_to_dict(got)["engine"]["wakes_held"] == 13
        assert got.downloads == want.downloads
        assert want.counters.wakeups == got.counters.wakeups + got.counters.wakes_held
        assert (got.counters.decisions, got.counters.hold_parks, got.messages.ready) == (40, 22, 20)
        assert (want.counters.decisions, want.counters.hold_parks, want.messages.ready) == (53, 35, 20)
        assert got.messages == want.messages
        assert got.counters.calls == want.counters.calls == 18


class TestEngineDifferential:
    def test_one_seed_of_the_engine_set_against_wake_all(self):
        # Buffers read from their delivery anchors and Wait expiries at an
        # owner's anchored instant make every time a function of the writes,
        # not of how often a user decided, so no run differs from waking
        # every parked user in the last bits only.  A twin makes the old
        # rule's decisions that matter, so it is identical.  Messages are
        # counted from the protocol, not from the decisions run, so they are
        # equal wherever the downloads are.
        rows = compare(_Simulation, _WakeAllSimulation, seeds=(1,))
        parts = split(rows)
        coop, twin = parts["cooperative"], parts["twin"]
        assert coop["noise"] == twin["noise"] == 0
        assert coop["identical"] > 0
        assert all(row.same_messages for row in rows if row.verdict == "identical")
        assert twin["identical"] == twin["same_messages"] == twin["runs"] == 27
        assert twin["calls_a"] == twin["calls_b"]
        assert twin["decisions_a"] < twin["decisions_b"]

    def test_one_seed_of_the_engine_set_against_the_old_twin_rule(self):
        # Seed 1 of the 540-run set: cooperative runs are bit for bit the
        # old rule's, and so are twins, from far fewer decisions.  The old
        # rule's extra twin decisions are answered with the hold, or retry
        # a horizon-cut request only to be cut again, so both sides ask the
        # scheduler the same questions besides those retries.
        parts = split(compare(_Simulation, _TwinWakeAllSimulation, seeds=(1,)))
        coop, twin = parts["cooperative"], parts["twin"]
        assert coop["identical"] == coop["same_messages"] == coop["same_counters"] == coop["runs"] == 27
        assert twin["identical"] == twin["same_messages"] == twin["runs"] == 27
        assert twin["calls_a"] - twin["calls_cut_a"] == twin["calls_b"] - twin["calls_cut_b"]
        assert twin["calls_cut_a"] < twin["calls_cut_b"]
        assert twin["decisions_a"] <= 0.4 * twin["decisions_b"]
