"""Core domain types: conversions, lookups, validation."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ethokit import (
    AnalysisParams,
    BoundingBox,
    LabelStream,
    ObservationStream,
    ObsInterval,
    Segment,
    Track,
    VideoMeta,
    validate_session,
)
from conftest import EPOCH0, T0, make_track, obs


class TestVideoMeta:
    def test_frame_to_seconds(self, meta):
        assert meta.frame_to_seconds(0) == 0.0
        assert meta.frame_to_seconds(30) == 1.0
        assert meta.frame_to_seconds(45) == 1.5

    def test_frame_to_epoch_preserves_start(self, meta):
        assert meta.frame_to_epoch(0) == EPOCH0
        assert meta.frame_to_epoch(60) == EPOCH0 + 2.0

    def test_seconds_to_frame_floor(self, meta):
        assert meta.seconds_to_frame(1.0) == 30
        assert meta.seconds_to_frame(0.999) == 29

    def test_naive_start_coerced_to_utc(self):
        m = VideoMeta("s", 100, 100, datetime(2023, 1, 1, 12, 0, 0))
        assert m.start_time.tzinfo is timezone.utc


class TestTrack:
    def test_box_at_exact_frames(self):
        track = make_track(frames=[3, 4, 7])
        assert track.box_at(4).frame == 4
        assert track.box_at(5) is None
        assert track.box_at(2) is None

    def test_frame_range(self):
        track = make_track(frames=[3, 4, 7])
        assert (track.start_frame, track.end_frame) == (3, 7)

    def test_center_and_area(self):
        box = BoundingBox(0, 10.0, 20.0, 60.0, 40.0)
        assert box.center == (40.0, 40.0)
        assert box.area == 2400.0


class TestLabelStream:
    def test_code_at_boundaries(self):
        stream = LabelStream("t1", (Segment(0, 9, "G"), Segment(10, 19, "W")))
        assert stream.code_at(0) == "G"
        assert stream.code_at(9) == "G"
        assert stream.code_at(10) == "W"
        assert stream.code_at(20) is None

    def test_clip_inside_segment(self):
        stream = LabelStream("t1", (Segment(0, 9, "G"), Segment(10, 19, "W")))
        clipped = stream.clip(5, 12)
        assert clipped.segments == (Segment(5, 9, "G"), Segment(10, 12, "W"))

    def test_n_frames(self):
        stream = LabelStream("t1", (Segment(10, 19, "G"),))
        assert stream.n_frames == 10

    @given(
        st.lists(st.sampled_from(["G", "W", "R", "OOS"]), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=1000),
    )
    def test_from_frames_round_trip(self, codes, start):
        stream = LabelStream.from_frames("t1", start, codes)
        assert stream.expand() == codes
        assert stream.start_frame == start
        # runs are maximal: no two adjacent segments share a code
        for a, b in zip(stream.segments, stream.segments[1:]):
            assert b.start_frame == a.end_frame + 1
            assert a.code != b.code


class TestObservationStream:
    def test_span_and_duration(self):
        stream = obs("z1", "ground_focal", (0, 60, "G"), (60, 90, "W"))
        assert stream.span == (EPOCH0, EPOCH0 + 90)
        assert stream.covered_duration() == 90.0

    def test_code_at_half_open(self):
        stream = obs("z1", "ground_focal", (0, 60, "G"), (60, 90, "W"))
        assert stream.code_at(EPOCH0) == "G"
        assert stream.code_at(EPOCH0 + 60) == "W"
        assert stream.code_at(EPOCH0 + 90) is None

    def test_covered_intervals_merges_contiguous(self):
        stream = obs("z1", "ground_focal", (0, 60, "G"), (60, 90, "W"), (100, 110, "G"))
        assert stream.covered_intervals() == [(EPOCH0, EPOCH0 + 90), (EPOCH0 + 100, EPOCH0 + 110)]

    def test_is_instantaneous(self):
        scan = obs("z1", "ground_scan", (0, 0, "G"), (120, 120, "W"))
        assert scan.is_instantaneous()
        assert not obs("z1", "ground_focal", (0, 60, "G")).is_instantaneous()


class TestAnalysisParams:
    def test_defaults(self):
        p = AnalysisParams()
        assert p.downsample_interval_s == 10.0
        assert p.scan_propagation_s == 120.0
        assert p.min_miniscene_frames == 90
        assert p.overlap_ratio_threshold == 0.5
        assert p.min_overlap_frames == 4
        assert p.max_track_gap_frames == 30
        assert p.overlap_metric == "min_area"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"downsample_interval_s": 0.0},
            {"scan_propagation_s": -1.0},
            {"min_miniscene_frames": 0},
            {"overlap_ratio_threshold": 1.5},
            {"min_overlap_frames": 0},
            {"max_track_gap_frames": -1},
            {"overlap_metric": "center_distance"},
            {"downsample_interval_s": float("nan")},
            {"downsample_interval_s": float("inf")},
            {"scan_propagation_s": float("nan")},
            {"scan_propagation_s": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisParams(**kwargs)


class TestValidateSession:
    def test_clean_session(self, meta, ethogram):
        tracks = [make_track()]
        labels = [LabelStream("t1", (Segment(0, 99, "G"),))]
        report = validate_session(tracks, labels, meta, ethogram)
        assert report.ok
        assert len(report) == 0

    def test_flags_unknown_code(self, meta, ethogram):
        tracks = [make_track()]
        labels = [LabelStream("t1", (Segment(0, 99, "ZZZ"),))]
        report = validate_session(tracks, labels, meta, ethogram)
        assert not report.ok
        assert any("ZZZ" in issue.message for issue in report)

    def test_flags_duplicate_track_ids(self, meta, ethogram):
        report = validate_session([make_track(), make_track()], [], meta, ethogram)
        assert any("duplicate" in issue.message for issue in report)

    def test_flags_center_out_of_bounds(self, meta, ethogram):
        track = Track("t1", "grevys_zebra", (BoundingBox(0, 5000.0, 10.0, 20.0, 20.0),))
        report = validate_session([track], [], meta, ethogram)
        assert not report.ok

    def test_flags_non_contiguous_labels(self, meta, ethogram):
        labels = [LabelStream("t1", (Segment(0, 9, "G"), Segment(12, 19, "W")))]
        report = validate_session([make_track()], labels, meta, ethogram)
        assert not report.ok

    def test_flags_overlapping_observation_intervals(self, meta, ethogram):
        stream = ObservationStream(
            "z1",
            "ground_focal",
            (ObsInterval(EPOCH0, EPOCH0 + 10, "G"), ObsInterval(EPOCH0 + 5, EPOCH0 + 20, "W")),
        )
        report = validate_session([], [stream], meta, ethogram)
        assert any("overlap" in issue.message for issue in report)

    def test_flags_instantaneous_event_outside_scan(self, meta, ethogram):
        stream = ObservationStream(
            "z1", "ground_focal", (ObsInterval(EPOCH0, EPOCH0, "G"),)
        )
        report = validate_session([], [stream], meta, ethogram)
        assert not report.ok
