import math
import random
from dataclasses import replace

import pytest

from coopstream.model import BitrateLadder, UserProfile
from coopstream.schedulers import (
    Download,
    Idle,
    PeerInfo,
    SchedulerView,
    Wait,
    buffer_based_decide,
    can_afford,
    drift_term,
    lyapunov_decide,
    lyapunov_score,
    make_scheduler,
    prediction_based_decide,
    projected_owner_buffer,
    projected_peer_buffer,
)

LADDER = BitrateLadder((0.2, 0.4, 0.7, 1.3, 2.3))


def video_profile(uid=1, **kw):
    args = dict(
        user_id=uid,
        ladder=LADDER,
        segment_len=2.0,
        buffer_cap=40.0,
        video_len=100.0,
    )
    args.update(kw)
    return UserProfile(**args)


def peer(uid, buffer, last=None, remaining=10, inflight=0, started=True,
         finished=False, profile=None):
    return PeerInfo(
        profile=profile or video_profile(uid),
        buffer=buffer,
        last_bitrate=last,
        remaining=remaining,
        inflight=inflight,
        playback_started=started,
        playback_finished=finished,
    )


def view(uid, peers, capacity=2.3, history=(), cooperative=True, profile=None):
    return SchedulerView(
        profile=profile or video_profile(uid),
        capacity=capacity,
        peers=tuple(peers),
        history=tuple(history),
        cooperative=cooperative,
    )


class TestDriftPieces:
    def test_owner_projection_caps_at_buffer(self):
        assert projected_owner_buffer(10.0, 2.0, 2.0, 40.0) == pytest.approx(10.0)
        assert projected_owner_buffer(39.0, 0.5, 2.0, 40.0) == pytest.approx(40.0)
        assert projected_owner_buffer(1.0, 3.0, 2.0, 40.0) == pytest.approx(2.0)

    def test_owner_drift_zero_when_projection_matches(self):
        # Q=40, q=10, gamma=2, beta=2: q(t+gamma) = 10, drift contribution 0
        q_next = projected_owner_buffer(10.0, 2.0, 2.0, 40.0)
        assert drift_term(40.0, 10.0, q_next) == pytest.approx(0.0, abs=1e-12)

    def test_helper_drift_golden_62(self):
        # bystander Q=40, q=10, gamma=2: 0.5 * (32^2 - 30^2) = 62
        q_next = projected_peer_buffer(10.0, 2.0)
        assert drift_term(40.0, 10.0, q_next) == pytest.approx(62.0, abs=1e-12)


class TestLyapunovDecide:
    def test_wait_when_all_buffers_full(self):
        # shortfalls 1.5 and 1.0 -> wait for the smaller
        v = view(1, [peer(1, 39.5), peer(2, 39.0)])
        got = lyapunov_decide(v)
        assert isinstance(got, Wait)
        assert got.duration == pytest.approx(1.0, abs=1e-9)

    def test_inflight_blocked_owner_idles_instead_of_waiting(self):
        v = view(1, [peer(1, 30.0, inflight=5)])
        assert isinstance(lyapunov_decide(v), Idle)

    def test_downloads_top_rate_on_easy_link(self):
        v = view(1, [peer(1, 20.0)], capacity=10.0)
        got = lyapunov_decide(v)
        assert got == Download(1, 5)

    def test_prefers_starving_peer_under_high_weight(self):
        # pure drift: the emptier buffer gains more from a segment
        v = view(1, [peer(1, 30.0), peer(2, 2.0)], capacity=10.0)
        got = lyapunov_decide(v, drift_weight=0.0)
        assert got.owner == 2

    def test_tie_breaks_to_lower_owner_then_level(self):
        # two identical empty owners: all levels tie at beta gain; the
        # lower owner id and level win
        v = view(1, [peer(2, 0.0, started=False), peer(3, 0.0, started=False)], capacity=1e9)
        got = lyapunov_decide(v, drift_weight=0.0)
        assert got == Download(2, 1)

    def test_respects_afford_guard(self):
        v = view(1, [peer(1, 38.5), peer(2, 10.0)], capacity=10.0)
        got = lyapunov_decide(v)
        assert got.owner == 2

    def test_noncoop_view_restricts_to_self(self):
        v = view(1, [peer(1, 30.0), peer(2, 0.0)], capacity=10.0, cooperative=False)
        got = lyapunov_decide(v)
        assert isinstance(got, Download) and got.owner == 1

    def test_idle_when_nothing_pending(self):
        v = view(1, [peer(1, 10.0, remaining=0)])
        assert isinstance(lyapunov_decide(v), Idle)


class TestScoreScaling:
    def test_argmin_invariant_under_joint_rescale(self):
        # with theta = 0 the whole penalty is linear in the coefficients:
        # scaling lambda by c while dividing phi/c/w by c preserves argmin
        rng = random.Random(5)
        for _ in range(20):
            c = rng.uniform(0.5, 20.0)
            base = dict(theta=0.0, phi_qdeg=1.0, phi_rebuf=1.0, c_time=0.5,
                        c_data=0.1, w_data=0.05)
            scaled = dict(
                theta=0.0,
                phi_qdeg=base["phi_qdeg"] / c,
                phi_rebuf=base["phi_rebuf"] / c,
                c_time=base["c_time"] / c,
                c_data=base["c_data"] / c,
                w_data=base["w_data"] / c,
            )
            bufs = [rng.uniform(0.0, 30.0) for _ in range(3)]
            lasts = [rng.choice([None, 0.7, 2.3]) for _ in range(3)]
            cap = rng.uniform(0.3, 6.0)

            def decide(params, weight):
                peers = [
                    peer(i + 1, bufs[i], last=lasts[i],
                         profile=video_profile(i + 1, **params))
                    for i in range(3)
                ]
                v = view(1, peers, capacity=cap,
                         profile=video_profile(1, **params))
                return lyapunov_decide(v, drift_weight=weight)

            assert decide(base, 100.0) == decide(scaled, 100.0 * c)

    def test_score_matches_manual_sum(self):
        me = video_profile(1)
        owner = peer(1, 10.0)
        bystander = peer(2, 10.0)
        v = view(1, [owner, bystander], capacity=2.3)
        # gamma = 2: owner drift 0, bystander drift 62, welfare golden
        expected_welfare = 2.0 * math.log(3.3) - 1.46
        got = lyapunov_score(v, owner, 5, drift_weight=100.0)
        assert got == pytest.approx(62.0 - 100.0 * expected_welfare, abs=1e-9)


class TestGreedyNoncoop:
    noncoop = staticmethod(make_scheduler("noncoop"))

    def test_self_only(self):
        v = view(1, [peer(1, 30.0), peer(2, 0.0)], capacity=10.0)
        got = self.noncoop(v)
        assert isinstance(got, Download) and got.owner == 1

    def test_idle_when_video_done(self):
        v = view(1, [peer(1, 10.0, remaining=0), peer(2, 0.0)])
        assert isinstance(self.noncoop(v), Idle)

    def test_wait_on_own_full_buffer(self):
        v = view(1, [peer(1, 39.0), peer(2, 0.0)])
        got = self.noncoop(v)
        assert isinstance(got, Wait)
        assert got.duration == pytest.approx(1.0, abs=1e-9)

    def test_matches_lyapunov_when_alone(self):
        for cap in (0.4, 1.0, 2.3, 6.0):
            for buf in (0.0, 12.0, 31.0):
                v = view(1, [peer(1, buf)], capacity=cap)
                assert self.noncoop(v) == lyapunov_decide(v)
        # with co-located peers, which still enter the drift and bystander
        # terms, it is the same rule on the self-only view
        rng = random.Random(11)
        for _ in range(60):
            peers = [
                peer(uid, rng.uniform(0.0, 39.0), last=rng.choice([None, 0.4, 2.3]),
                     remaining=rng.choice([0, 3, 10]), inflight=rng.choice([0, 1]),
                     started=rng.random() < 0.8)
                for uid in (1, 2, 3)
            ]
            v = view(1, peers, capacity=rng.uniform(0.3, 6.0))
            assert self.noncoop(v) == lyapunov_decide(replace(v, cooperative=False))


class TestBufferBaseline:
    def test_owner_rule_worked_example(self):
        # q = (30, 5, 20), delta_th = 0.5, Delta_th = 10: decider 1 helps 2
        v = view(1, [peer(1, 30.0), peer(2, 5.0), peer(3, 20.0)])
        got = buffer_based_decide(v, low_reserve=0.5, min_gap=10.0)
        assert got.owner == 2

    def test_keeps_own_when_reserve_low(self):
        v = view(1, [peer(1, 15.0), peer(2, 5.0)])
        assert buffer_based_decide(v, low_reserve=0.5, min_gap=10.0).owner == 1

    def test_keeps_own_when_gap_small(self):
        v = view(1, [peer(1, 22.0), peer(2, 18.0)])
        assert buffer_based_decide(v, low_reserve=0.5, min_gap=10.0).owner == 1

    def test_idle_decider_helps_unconditionally(self):
        v = view(9, [peer(2, 30.0), peer(3, 29.0)],
                 profile=video_profile(9, video_len=0.0))
        assert buffer_based_decide(v, low_reserve=0.5, min_gap=10.0).owner == 3

    def test_level_tracks_buffer_fill(self):
        cases = {0.0: 1, 20.0: 3, 40.0: 5, 39.0: 5, 8.0: 1, 8.1: 2}
        for buf, want in cases.items():
            v = view(1, [peer(1, min(buf, 37.9))])
            got = buffer_based_decide(v)
            if buf < 38.0:
                assert got == Download(1, max(1, min(5, math.ceil(buf / 40.0 * 5))))
        # full-buffer mapping checked through a helped peer
        v = view(9, [peer(2, 40.0, inflight=-1)],
                 profile=video_profile(9, video_len=0.0))
        assert buffer_based_decide(v).level == 5


class TestPredictionBaseline:
    def test_level_from_history_mean(self):
        v = view(1, [peer(1, 10.0)], capacity=9.9, history=(1.0, 1.0, 1.0))
        assert prediction_based_decide(v) == Download(1, 3)

    def test_window_uses_recent_entries(self):
        v = view(1, [peer(1, 10.0)], history=(9.0, 2.3, 2.3, 2.3))
        assert prediction_based_decide(v, window=3).level == 5

    def test_fallback_to_current_capacity(self):
        v = view(1, [peer(1, 10.0)], capacity=0.7, history=())
        assert prediction_based_decide(v).level == 3

    def test_floor_and_ceiling(self):
        low = view(1, [peer(1, 10.0)], history=(0.1, 0.1, 0.1))
        high = view(1, [peer(1, 10.0)], history=(5.0, 5.0, 5.0))
        assert prediction_based_decide(low).level == 1
        assert prediction_based_decide(high).level == 5


class TestAffordGuard:
    def test_counts_inflight(self):
        assert can_afford(peer(1, 36.0, inflight=0))
        assert can_afford(peer(1, 36.0, inflight=1))  # exactly fills the buffer
        assert not can_afford(peer(1, 36.0, inflight=2))
        assert not can_afford(peer(1, 36.5, inflight=1))
        assert not can_afford(peer(1, 38.5))


class TestRegistry:
    def test_known_names(self):
        for name in ("lyapunov", "buffer", "prediction", "noncoop"):
            fn = make_scheduler(name)
            assert fn.name == name
            v = view(1, [peer(1, 10.0)], capacity=2.3)
            assert fn(v) is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("nope")

    def test_params_forwarded(self):
        fn = make_scheduler("lyapunov", drift_weight=0.0)
        v = view(1, [peer(1, 30.0), peer(2, 2.0)], capacity=10.0)
        assert fn(v).owner == 2

    @pytest.mark.parametrize(
        "name, rule, params",
        [
            ("buffer", buffer_based_decide, dict(low_reserve=0.2, min_gap=1.0)),
            (
                "prediction",
                prediction_based_decide,
                dict(low_reserve=0.8, min_gap=8.0, window=1),
            ),
        ],
    )
    def test_baseline_params_forwarded(self, name, rule, params):
        fn = make_scheduler(name, **params)
        rng = random.Random(17)
        changed = 0
        for _ in range(300):
            peers = [
                peer(uid, rng.uniform(0.0, 39.0), remaining=rng.choice([0, 3, 10]),
                     inflight=rng.choice([0, 0, 1]))
                for uid in (1, 2, 3)
            ]
            history = tuple(rng.uniform(0.1, 3.0) for _ in range(rng.randint(0, 5)))
            v = view(1, peers, capacity=rng.uniform(0.3, 6.0), history=history)
            assert fn(v) == rule(v, **params)
            changed += rule(v, **params) != rule(v)
        # the non-default values do change decisions, so they reach the rule
        assert changed > 0

    def test_unknown_param_rejected_when_built(self):
        for name in ("lyapunov", "buffer", "prediction", "noncoop"):
            with pytest.raises(TypeError):
                make_scheduler(name, bogus=1.0)
        with pytest.raises(TypeError):
            make_scheduler("buffer", window=3)
