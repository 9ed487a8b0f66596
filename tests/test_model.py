import math

import pytest

from coopstream.model import (
    BitrateLadder,
    DownloadRecord,
    DownloadSequence,
    ModelError,
    ReceiveSequence,
    UserProfile,
    WelfareBreakdown,
    derive_receive_sequences,
    segment_volume,
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


class TestBitrateLadder:
    def test_rates_one_based(self):
        assert LADDER.rate(1) == 0.2
        assert LADDER.rate(5) == 2.3
        assert LADDER.top == 5

    def test_out_of_range_level(self):
        with pytest.raises(ModelError):
            LADDER.rate(0)
        with pytest.raises(ModelError):
            LADDER.rate(6)

    def test_must_be_strictly_increasing(self):
        with pytest.raises(ModelError):
            BitrateLadder((0.2, 0.2, 0.7))
        with pytest.raises(ModelError):
            BitrateLadder(())
        with pytest.raises(ModelError):
            BitrateLadder((0.0, 1.0))


class TestUserProfile:
    def test_video_user_flags(self):
        assert video_profile().is_video_user
        assert not idle_profile().is_video_user

    def test_num_segments(self):
        assert video_profile().num_segments == 50
        assert idle_profile().num_segments == 0

    def test_validate_rejects_nonmultiple_video_len(self):
        with pytest.raises(ModelError):
            video_profile(video_len=99.0)

    def test_validate_rejects_small_buffer(self):
        with pytest.raises(ModelError):
            video_profile(buffer_cap=1.0)

    def test_validate_rejects_negative_coefficients(self):
        with pytest.raises(ModelError):
            video_profile(c_time=-0.1)

    def test_segment_volume(self):
        # level 5 at 2.3 Mbps over a 2 s segment
        assert segment_volume(video_profile(), 5) == pytest.approx(4.6)


class TestDownloadRecord:
    def test_duration_and_volume(self):
        rec = DownloadRecord(1, 1, 1, 5, 0.0, 2.0)
        assert rec.duration == pytest.approx(2.0)
        assert segment_volume(video_profile(), rec.level) == pytest.approx(4.6)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ModelError):
            DownloadRecord(1, 1, 1, 5, 2.0, 1.0)


class TestDownloadSequence:
    def test_validate_accepts_back_to_back(self):
        seq = DownloadSequence(
            1,
            [
                DownloadRecord(1, 1, 1, 1, 0.0, 1.0),
                DownloadRecord(1, 1, 2, 1, 1.0, 2.0),
            ],
        )
        seq.validate()

    def test_validate_rejects_overlap(self):
        seq = DownloadSequence(
            1,
            [
                DownloadRecord(1, 1, 1, 1, 0.0, 1.5),
                DownloadRecord(1, 1, 2, 1, 1.0, 2.0),
            ],
        )
        with pytest.raises(ModelError):
            seq.validate()


class TestReceiveSequences:
    def test_derive_orders_by_seq_no(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        downloads = {
            1: DownloadSequence(
                1,
                [
                    DownloadRecord(1, 2, 2, 1, 1.0, 2.0),
                    DownloadRecord(1, 1, 1, 1, 2.0, 3.0),
                ],
            ),
            2: DownloadSequence(2, [DownloadRecord(2, 2, 1, 1, 0.0, 1.0)]),
        }
        rx = derive_receive_sequences(downloads, profiles)
        assert [r.owner_seq_no for r in rx[2].records] == [1, 2]
        assert [r.downloader for r in rx[2].records] == [2, 1]
        rx[2].validate(profiles[2])

    def test_duplicate_seq_no_rejected(self):
        profiles = {1: video_profile(1), 2: video_profile(2)}
        downloads = {
            1: DownloadSequence(1, [DownloadRecord(1, 2, 1, 1, 0.0, 1.0)]),
            2: DownloadSequence(2, [DownloadRecord(2, 2, 1, 1, 0.0, 1.0)]),
        }
        with pytest.raises(ModelError):
            derive_receive_sequences(downloads, profiles)

    def test_idle_owner_rejected(self):
        profiles = {1: video_profile(1), 9: idle_profile()}
        downloads = {
            1: DownloadSequence(1, [DownloadRecord(1, 9, 1, 1, 0.0, 1.0)]),
        }
        with pytest.raises(ModelError):
            derive_receive_sequences(downloads, profiles)

    def test_gap_in_seq_numbers_rejected(self):
        prof = video_profile()
        seq = ReceiveSequence(1, [DownloadRecord(1, 1, 2, 1, 0.0, 1.0)])
        with pytest.raises(ModelError):
            seq.validate(prof)

    def test_receive_times_must_be_nondecreasing(self):
        prof = video_profile()
        seq = ReceiveSequence(
            1,
            [
                DownloadRecord(1, 1, 1, 1, 0.0, 5.0),
                DownloadRecord(1, 1, 2, 1, 0.0, 4.0),
            ],
        )
        with pytest.raises(ModelError):
            seq.validate(prof)


class TestWelfareBreakdown:
    def test_welfare_identity(self):
        b = WelfareBreakdown(10.0, 1.0, 2.0, 3.0, 0.5)
        assert b.utility == pytest.approx(7.0)
        assert b.cost == pytest.approx(3.5)
        assert b.welfare == pytest.approx(3.5)

    def test_add(self):
        b = WelfareBreakdown(1.0, 0.5, 0.0, 0.25, 0.0)
        total = b + b
        assert total.value == pytest.approx(2.0)
        assert total.welfare == pytest.approx(2 * b.welfare)
