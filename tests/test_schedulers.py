import math
import random
from dataclasses import replace

import pytest

from coopstream.model import BitrateLadder, UserProfile, segment_volume
from coopstream.schedulers import (
    SCHEDULER_NAMES,
    Download,
    Idle,
    PeerInfo,
    SchedulerView,
    Wait,
    buffer_based_decide,
    can_afford,
    drift_term,
    hold,
    lyapunov_decide,
    lyapunov_scores,
    make_scheduler,
    prediction_based_decide,
    projected_owner_buffer,
    projected_peer_buffer,
)
from coopstream.welfare import decision_welfare, quality_value

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
    """A peer as seen at a decision at t = 0, where its buffer last filled."""
    prof = profile or video_profile(uid)
    return PeerInfo(
        profile=prof,
        buffer=buffer,
        last_bitrate=last,
        remaining=remaining,
        inflight=inflight,
        playback_started=started,
        playback_finished=finished,
        room_at=buffer + prof.segment_len - prof.buffer_cap,
    )


def view(uid, peers, capacity=2.3, history=(), cooperative=True, profile=None):
    """A view whose pending owners are derived as the engine derives them:
    every peer with segments left, and in the twin the decider's own alone."""
    return SchedulerView(
        profile=profile or video_profile(uid),
        capacity=capacity,
        peers=tuple(peers),
        history=tuple(history),
        pending=tuple(p for p in peers if p.remaining > 0 and (cooperative or p.user_id == uid)),
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
        assert got.until == pytest.approx(1.0, abs=1e-9)

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


def fuzz_view(rng):
    """A random view: 2-26 peers on one or two ladders of 1-6 levels, every
    second to fourth of them of one clone profile and last bitrate, each
    clone with the clones' buffer or a short one of its own (so equal
    states sit among different peers, and unequal ones drain during a
    download), peers not started or finished, and sometimes a decider that
    owns no video."""
    def ladder():
        return BitrateLadder(tuple(sorted(rng.uniform(0.1, 3.0) for _ in range(rng.randint(1, 6)))))

    def coefficients():
        return dict(
            segment_len=rng.choice([1.0, 2.0, 2.5]), buffer_cap=rng.choice([8.0, 20.0, 40.0]),
            theta=rng.uniform(0.0, 2.0), phi_qdeg=rng.uniform(0.0, 2.0),
            phi_rebuf=rng.uniform(0.0, 3.0), c_time=rng.uniform(0.0, 1.0),
            c_data=rng.uniform(0.0, 0.3), w_data=rng.uniform(0.0, 0.2),
        )

    ladders = [ladder(), ladder()]
    clone = dict(coefficients(), ladder=ladders[0])
    n = rng.randint(2, 26)
    clones = set(range(rng.randint(1, 3), n + 1, rng.randint(2, 4)))   # others sit between
    state = (rng.uniform(0.2, 3.0), rng.choice([None, 0.3, 1.7]), rng.random() < 0.8)
    peers = []
    for uid in range(1, n + 1):
        if uid in clones:
            prof, (buffer, last, started) = video_profile(uid, **clone), state
            buffer = rng.choice([buffer, rng.uniform(0.0, 3.0)])
        else:
            prof = video_profile(uid, ladder=rng.choice(ladders), **coefficients())
            buffer = rng.choice([0.0, *(rng.uniform(0.0, prof.buffer_cap) for _ in range(3))])
            last, started = rng.choice([None, 0.3, 1.7, 2.9]), rng.random() < 0.8
        remaining = rng.choice([0, 1, 5, 5, 5])
        peers.append(peer(
            uid, buffer, last=last, remaining=remaining, inflight=rng.choice([0, 0, 0, 1, 2]),
            started=started, finished=started and remaining == 0 and rng.random() < 0.5,
            profile=prof,
        ))
    decider = rng.randint(1, n + 1)
    me = video_profile(decider, ladder=ladders[0], **coefficients())
    if decider > n:
        me = replace(me, video_len=0.0)
    return view(decider, peers, capacity=rng.uniform(0.05, 6.0), profile=me)


def drifts(p):
    return p.playback_started and not p.playback_finished


class TestEqualStatesTie:
    """Owners in equal states score bit-equal wherever they sit among the
    peers, so an exact tie falls to the lower owner id."""

    def test_drained_owners_tie_to_the_lower_id(self):
        # A helper on a 0.043 Mbps link, where a level-1 download takes
        # 9.2 s: it drains the buffers of owners 1, 2, 3 and 8, which are
        # equal in all else, so the four tie exactly at level 1.
        rows = [
            (1, 4.493974392394831, 45, 1), (2, 2.243718592424128, 43, 4),
            (3, 6.252553474426632, 44, 1), (5, 11.644905859146233, 42, 1),
            (8, 3.8893710679036495, 46, 0),
        ]
        peers = [peer(uid, buf, last=0.2, remaining=left, inflight=n) for uid, buf, left, n in rows]
        v = view(6, peers, capacity=0.04337412032810255, profile=video_profile(6, video_len=0.0))
        scores = lyapunov_scores(v, peers, 100.0)
        assert scores[0][0] == scores[1][0] == scores[2][0] == scores[4][0]
        assert lyapunov_decide(v, drift_weight=100.0) == Download(1, 1)

    def test_equal_states_score_bit_equal_on_fuzzed_views(self):
        rng = random.Random(19)
        seen = {"clones": 0, "drained": 0, "no_video": 0, "two_ladders": 0}
        for _ in range(2_000):
            v = fuzz_view(rng)
            weight = rng.choice([0.0, 1.0, 100.0, 1e4])
            owners = [p for p in v.peers if p.user_id != v.user_id]
            ladders = dict(zip((p.user_id for p in owners), lyapunov_scores(v, owners, weight)))
            for a in owners:
                for b in owners:
                    if a.user_id >= b.user_id or a.last_bitrate != b.last_bitrate:
                        continue
                    if replace(a.profile, user_id=0) != replace(b.profile, user_id=0):
                        continue
                    if a.buffer == b.buffer and drifts(a) == drifts(b):
                        assert ladders[a.user_id] == ladders[b.user_id]
                        seen["clones"] += 1
                    elif drifts(a) and drifts(b):
                        prof = a.profile
                        for level, (x, y) in enumerate(zip(ladders[a.user_id], ladders[b.user_id]), 1):
                            if segment_volume(prof, level) / v.capacity >= max(a.buffer, b.buffer):
                                assert x == y
                                seen["drained"] += 1
            cands = [p for p in v.pending if can_afford(p)]
            if cands:   # the decision is the (score, owner id, level) minimum
                _, owner, level = min(
                    (score, p.user_id, level)
                    for p, scores in zip(cands, lyapunov_scores(v, cands, weight))
                    for level, score in enumerate(scores, 1)
                )
                assert lyapunov_decide(v, drift_weight=weight) == Download(owner, level)
            seen["no_video"] += v.peer(v.user_id) is None
            seen["two_ladders"] += len({p.profile.ladder for p in v.peers}) > 1
        assert min(seen.values()) > 100, seen


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
        got = lyapunov_scores(v, [owner], drift_weight=100.0)[0][5 - 1]
        assert got == pytest.approx(62.0 - 100.0 * expected_welfare, abs=1e-9)


def composed_score(v, owner, level, drift_weight):
    """The drift-plus-penalty score composed of the public per-term pieces,
    in `lyapunov_scores`' order: each drifting peer's bystander terms summed
    in view order, then the owner's own."""
    prof = owner.profile
    rate, beta, cap, q = prof.ladder.rate(level), prof.segment_len, prof.buffer_cap, owner.buffer
    volume = segment_volume(prof, level)
    dl_time = volume / v.capacity
    drift = stalls = 0.0
    for p in v.peers:
        if drifts(p):
            drift += drift_term(p.profile.buffer_cap, p.buffer, projected_peer_buffer(p.buffer, dl_time))
            stalls += p.profile.phi_rebuf * max(dl_time - p.buffer, 0.0)
    q_next = projected_owner_buffer(q, dl_time, beta, cap)
    if drifts(owner):   # its bystander terms are in the sums already
        drift += drift_term(cap, projected_peer_buffer(q, dl_time), q_next)
    else:
        drift += drift_term(cap, q, q_next)
        stalls += prof.phi_rebuf * max(dl_time - q, 0.0)
    last = owner.last_bitrate
    drop = 0.0 if last is None else prof.phi_qdeg * max(last - rate, 0.0)
    cost = v.profile.c_time * dl_time + v.profile.c_data * volume
    if owner.user_id != v.user_id:
        cost += v.profile.w_data * volume
    return drift - drift_weight * (quality_value(prof.theta, rate) * beta - drop - stalls - cost)


def folded_score(v, owner, level, drift_weight):
    """The same score folded per owner: its `drift_term`, each other drifting
    peer's, and `decision_welfare`."""
    prof = owner.profile
    dl_time = segment_volume(prof, level) / v.capacity
    others = [p for p in v.peers if p.user_id != owner.user_id and drifts(p)]
    drift = drift_term(
        prof.buffer_cap,
        owner.buffer,
        projected_owner_buffer(owner.buffer, dl_time, prof.segment_len, prof.buffer_cap),
    )
    for p in others:
        drift += drift_term(p.profile.buffer_cap, p.buffer, projected_peer_buffer(p.buffer, dl_time))
    welfare = decision_welfare(
        v.profile, prof, level, v.capacity, owner.buffer, owner.last_bitrate,
        [(p.profile, p.buffer) for p in others],
    )
    return drift - drift_weight * welfare


class TestScoreKernel:
    def test_ladder_scores_equal_the_composed_terms(self):
        # Random ladders, coefficients and views: own and helped owners,
        # with and without a last bitrate, peers not yet started or already
        # finished, several candidates per view.  Each score is bit for bit
        # the per-level composition of the public terms in the scores' own
        # order, and the per-owner fold with `decision_welfare` up to rounding.
        rng = random.Random(23)
        seen = {"own": 0, "helper": 0, "last": 0, "no_last": 0, "waiting": 0, "finished": 0}
        for _ in range(400):
            ladder = BitrateLadder(tuple(sorted(rng.uniform(0.1, 3.0) for _ in range(rng.randint(1, 6)))))

            def prof(uid):
                return video_profile(
                    uid, ladder=ladder, segment_len=rng.choice([1.0, 2.0, 2.5]),
                    buffer_cap=rng.choice([8.0, 40.0]), theta=rng.uniform(0.0, 2.0),
                    phi_qdeg=rng.uniform(0.0, 2.0), phi_rebuf=rng.uniform(0.0, 3.0),
                    c_time=rng.uniform(0.0, 1.0), c_data=rng.uniform(0.0, 0.3),
                    w_data=rng.uniform(0.0, 0.2),
                )

            peers = []
            for uid in range(1, rng.randint(2, 7)):
                p = prof(uid)
                peers.append(peer(
                    uid, rng.uniform(0.0, p.buffer_cap), last=rng.choice([None, 0.3, 1.7]),
                    started=rng.random() < 0.8, finished=rng.random() < 0.15, profile=p,
                ))
            decider = rng.randint(1, len(peers) + 1)
            v = view(decider, peers, capacity=rng.uniform(0.05, 5.0), profile=prof(decider))
            weight = rng.choice([0.0, 1.0, 100.0])
            for owner, got in zip(peers, lyapunov_scores(v, peers, weight)):
                levels = range(1, ladder.top + 1)
                assert got == [composed_score(v, owner, level, weight) for level in levels]
                assert got == pytest.approx([folded_score(v, owner, level, weight) for level in levels],
                                            rel=1e-12, abs=1e-9)
                seen["own" if owner.user_id == v.user_id else "helper"] += 1
                seen["no_last" if owner.last_bitrate is None else "last"] += 1
            seen["waiting"] += any(not p.playback_started for p in peers)
            seen["finished"] += any(p.playback_finished for p in peers)
        assert min(seen.values()) > 20


class TestGreedyNoncoop:
    """The lyapunov rule in the non-cooperative twin: peers still drift,
    none are served."""

    @staticmethod
    def noncoop(v):
        twin = view(v.user_id, v.peers, v.capacity, v.history, cooperative=False, profile=v.profile)
        return make_scheduler("lyapunov")(twin)

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
        assert got.until == pytest.approx(1.0, abs=1e-9)

    def test_matches_lyapunov_when_alone(self):
        for cap in (0.4, 1.0, 2.3, 6.0):
            for buf in (0.0, 12.0, 31.0):
                v = view(1, [peer(1, buf)], capacity=cap)
                assert self.noncoop(v) == lyapunov_decide(v)
        # with co-located peers, which still enter the drift and bystander
        # terms, it is the cooperative rule with nothing of theirs left
        rng = random.Random(11)
        for _ in range(60):
            peers = [
                peer(uid, rng.uniform(0.0, 39.0), last=rng.choice([None, 0.4, 2.3]),
                     remaining=rng.choice([0, 3, 10]), inflight=rng.choice([0, 1]),
                     started=rng.random() < 0.8)
                for uid in (1, 2, 3)
            ]
            v = view(1, peers, capacity=rng.uniform(0.3, 6.0))
            served = [p if p.user_id == 1 else replace(p, remaining=0) for p in peers]
            assert self.noncoop(v) == lyapunov_decide(view(1, served, capacity=v.capacity))


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


class TestHold:
    def test_none_while_an_owner_can_take_a_segment(self):
        assert hold([peer(1, 39.5), peer(2, 20.0)]) is None
        assert hold([peer(1, 39.5), peer(2, 39.0)]) == Wait(1.0)
        assert hold([peer(1, 30.0, inflight=5)]) == Idle()
        assert hold([]) == Idle()

    def test_holding_rules_answer_the_hold(self):
        # Random cooperative views, many with every owner full or blocked by
        # in-flight segments: whenever the hold is not None, each holding
        # rule answers exactly it.
        rng = random.Random(5)
        rules = {name: make_scheduler(name) for name in ("lyapunov", "buffer", "prediction")}
        held = 0
        for _ in range(300):
            peers = [
                peer(uid, rng.choice([rng.uniform(0.0, 40.0), rng.uniform(37.0, 40.0)]),
                     remaining=rng.choice([0, 3]), inflight=rng.choice([0, 0, 1, 2]),
                     last=rng.choice([None, 0.7]))
                for uid in range(1, rng.randint(2, 6))
            ]
            v = view(rng.randint(1, len(peers) + 1), peers, capacity=rng.uniform(0.1, 5.0),
                     history=[rng.uniform(0.1, 3.0) for _ in range(rng.randint(0, 3))])
            want = hold([p for p in peers if p.remaining > 0])
            if want is None:
                continue
            held += 1
            for rule in rules.values():
                assert rule(v) == want
        assert held > 50


class TestAffordGuard:
    def test_counts_inflight(self):
        assert can_afford(peer(1, 36.0, inflight=0))
        assert can_afford(peer(1, 36.0, inflight=1))  # exactly fills the buffer
        assert not can_afford(peer(1, 36.0, inflight=2))
        assert not can_afford(peer(1, 36.5, inflight=1))
        assert not can_afford(peer(1, 38.5))


class TestRegistry:
    def test_known_names(self):
        assert SCHEDULER_NAMES == ("lyapunov", "buffer", "prediction")
        for name in SCHEDULER_NAMES:
            fn = make_scheduler(name)
            assert fn.name == name
            v = view(1, [peer(1, 10.0)], capacity=2.3)
            assert fn(v) is not None

    def test_unknown_name(self):
        # the twin is every rule's own non-cooperative run, not a rule
        for name in ("nope", "noncoop"):
            with pytest.raises(ValueError):
                make_scheduler(name)

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
        for name in SCHEDULER_NAMES:
            with pytest.raises(TypeError):
                make_scheduler(name, bogus=1.0)
        with pytest.raises(TypeError):
            make_scheduler("buffer", window=3)
