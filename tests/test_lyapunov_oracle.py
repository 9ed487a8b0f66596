import math

import pytest

from coopstream.model import BitrateLadder, ModelError, UserProfile
from lyapunov_oracle import decision_welfare

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


class TestDecisionWelfare:
    def test_self_download_golden(self):
        me = video_profile()
        got = decision_welfare(me, me, 5, 2.3, None, [(me, 10.0)])
        assert got == pytest.approx(2.0 * math.log(3.3) - 1.46, abs=1e-9)

    def test_cross_download_adds_wifi(self):
        me, other = video_profile(1), video_profile(2)
        own = decision_welfare(me, me, 5, 2.3, None, [])
        cross = decision_welfare(me, other, 5, 2.3, None, [])
        assert own - cross == pytest.approx(0.23, abs=1e-12)

    def test_qdeg_estimate_only_on_drops(self):
        me = video_profile()
        base = decision_welfare(me, me, 3, 2.3, None, [])
        dropped = decision_welfare(me, me, 3, 2.3, 2.3, [])
        raised = decision_welfare(me, me, 3, 2.3, 0.2, [])
        assert base - dropped == pytest.approx(1.6, abs=1e-12)
        assert raised == pytest.approx(base)

    def test_stall_estimates(self):
        me = video_profile()
        # dl_time = 2 s against a 0.5 s owner buffer: 1.5 s estimated stall
        low = decision_welfare(me, me, 5, 2.3, None, [(me, 0.5)])
        high = decision_welfare(me, me, 5, 2.3, None, [(me, 10.0)])
        assert high - low == pytest.approx(1.5, abs=1e-12)
        bystander = video_profile(3)
        with_peer = decision_welfare(me, me, 5, 2.3, None, [(me, 10.0), (bystander, 0.5)])
        assert high - with_peer == pytest.approx(1.5, abs=1e-12)

    def test_owner_stalls_only_once_it_plays(self):
        # A 4.6 Mbit segment over 0.46 Mbps takes 10 s.  Before its first
        # receipt the owner has nothing to stall; once it plays, an empty
        # buffer stalls for all 10 s.
        me = video_profile()
        waiting = decision_welfare(me, me, 5, 0.46, None, [])
        assert waiting == pytest.approx(2.0 * math.log(3.3) - 5.46, abs=1e-9)
        dry = decision_welfare(me, me, 5, 0.46, None, [(me, 0.0)])
        assert waiting - dry == pytest.approx(10.0, abs=1e-9)

    def test_requires_positive_capacity(self):
        me = video_profile()
        with pytest.raises(ModelError):
            decision_welfare(me, me, 1, 0.0, None, [])
