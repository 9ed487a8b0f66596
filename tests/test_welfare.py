import math
import random

import pytest

from coopstream.model import (
    BitrateLadder,
    DownloadRecord,
    DownloadSequence,
    ModelError,
    ReceiveSequence,
    UserProfile,
)
from coopstream.welfare import (
    buffer_trajectory,
    energy_cell,
    energy_wifi,
    qdeg_loss,
    quality_value,
    rebuf_loss,
    social_welfare,
    total_value,
    user_welfare,
    welfare_breakdowns,
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


def idle_profile(uid=9):
    return video_profile(uid, video_len=0.0)


def rx_seq(owner, entries):
    """entries: list of (level, t_end); seq_no filled in."""
    recs = []
    for i, (level, t_end) in enumerate(entries, start=1):
        recs.append(DownloadRecord(owner, owner, i, level, t_end - 0.5, t_end))
    return ReceiveSequence(owner, recs)


class TestQualityValue:
    def test_log_form(self):
        assert quality_value(1.0, 2.3) == pytest.approx(math.log(3.3), abs=1e-12)

    def test_zero_theta_kills_value(self):
        assert quality_value(0.0, 2.3) == pytest.approx(0.0)

    def test_total_value_weights_by_segment_len(self):
        seq = rx_seq(1, [(5, 2.0)])
        assert total_value(seq, video_profile()) == pytest.approx(2.0 * math.log(3.3), abs=1e-9)


class TestQdegLoss:
    def test_drop_then_rise(self):
        # bitrates 2.3, 0.7, 1.3: only the drop 2.3 -> 0.7 is charged
        seq = rx_seq(1, [(5, 2.0), (3, 4.0), (4, 6.0)])
        assert qdeg_loss(seq, video_profile()) == pytest.approx(1.6, abs=1e-12)

    def test_nondecreasing_sequence_free(self):
        rng = random.Random(3)
        for _ in range(20):
            levels = sorted(rng.choices(range(1, 6), k=6))
            seq = rx_seq(1, [(z, 2.0 * i) for i, z in enumerate(levels, start=1)])
            assert qdeg_loss(seq, video_profile()) == 0.0

    def test_scales_with_phi(self):
        seq = rx_seq(1, [(5, 2.0), (3, 4.0)])
        assert qdeg_loss(seq, video_profile(phi_qdeg=2.5)) == pytest.approx(4.0)


class TestRebufLoss:
    def test_recursion_with_headroom(self):
        # receipts at 0, 4: gap 4 against buffer 2 -> 2 s stall on segment 2
        seq = rx_seq(1, [(1, 0.0), (1, 4.0)])
        total, log = rebuf_loss(seq, video_profile())
        assert total == pytest.approx(2.0)
        assert log == [(2, pytest.approx(2.0))]

    def test_no_stall_when_buffer_covers_gap(self):
        seq = rx_seq(1, [(1, 0.0), (1, 1.0), (1, 2.0), (1, 3.5)])
        total, log = rebuf_loss(seq, video_profile())
        assert total == 0.0
        assert log == []

    def test_startup_delay_free(self):
        # first receipt late: no charge for the wait before playback starts
        seq = rx_seq(1, [(1, 50.0), (1, 51.0)])
        total, _ = rebuf_loss(seq, video_profile())
        assert total == 0.0

    def test_trajectory_recursion(self):
        # q_k = [q_{k-1} - gap]^+ + beta
        seq = rx_seq(1, [(1, 0.0), (1, 4.0), (1, 5.0)])
        traj = buffer_trajectory(seq, video_profile())
        assert traj == [
            pytest.approx(2.0),
            pytest.approx(2.0),  # [2 - 4]^+ + 2
            pytest.approx(3.0),  # [2 - 1]^+ + 2
        ]

    def test_worked_example_q10(self):
        # q = 10, gap 4, beta 2: no stall, buffer becomes 8
        seq = rx_seq(
            1, [(1, 0.0), (1, 0.0), (1, 0.0), (1, 0.0), (1, 0.0), (1, 4.0)]
        )
        traj = buffer_trajectory(seq, video_profile())
        assert traj[4] == pytest.approx(10.0)
        total, _ = rebuf_loss(seq, video_profile())
        assert total == 0.0
        assert traj[5] == pytest.approx(8.0)

    def test_empty_buffer_full_gap_charged(self):
        # one segment, then a 5 s wait with a 2 s buffer: 3 s stall; then
        # an immediate receipt: no extra stall
        seq = rx_seq(1, [(1, 0.0), (1, 5.0), (1, 5.0)])
        total, log = rebuf_loss(seq, video_profile())
        assert total == pytest.approx(3.0)
        assert log == [(2, pytest.approx(3.0))]


class TestEnergies:
    def test_energy_cell(self):
        profiles = {1: video_profile()}
        dl = DownloadSequence(1, [DownloadRecord(1, 1, 1, 5, 0.0, 2.0)])
        # 0.5 * 2 s + 0.1 * 4.6 Mbit
        assert energy_cell(dl, profiles[1], profiles) == pytest.approx(1.46, abs=1e-12)

    def test_energy_wifi_only_for_cross_downloads(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        own = DownloadSequence(1, [DownloadRecord(1, 1, 1, 5, 0.0, 2.0)])
        cross = DownloadSequence(1, [DownloadRecord(1, 2, 1, 5, 0.0, 2.0)])
        assert energy_wifi(own, profiles[1], profiles) == 0.0
        assert energy_wifi(cross, profiles[1], profiles) == pytest.approx(0.23, abs=1e-12)


class TestUserWelfare:
    def test_helper_has_pure_cost(self):
        profiles = {1: idle_profile(1), 2: video_profile(2)}
        dl = DownloadSequence(1, [DownloadRecord(1, 2, 1, 5, 0.0, 2.0)])
        b = user_welfare(dl, None, profiles[1], profiles)
        assert b.value == 0.0
        assert b.welfare == pytest.approx(-(1.46 + 0.23))

    def test_idle_helper_cannot_receive(self):
        profiles = {1: idle_profile(1)}
        rx = ReceiveSequence(1, [DownloadRecord(1, 1, 1, 1, 0.0, 1.0)])
        with pytest.raises(ModelError):
            user_welfare(None, rx, profiles[1], profiles)

    def test_breakdowns_reconcile_with_social(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        downloads = {
            1: DownloadSequence(
                1,
                [
                    DownloadRecord(1, 1, 1, 5, 0.0, 2.0),
                    DownloadRecord(1, 2, 1, 3, 2.0, 3.0),
                ],
            ),
            2: DownloadSequence(2, []),
        }
        parts = welfare_breakdowns(downloads, profiles)
        assert social_welfare(downloads, profiles) == pytest.approx(
            sum(b.welfare for b in parts.values())
        )

