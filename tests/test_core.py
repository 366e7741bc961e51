"""Core domain types: conversions, lookups, validation."""

from __future__ import annotations

import gc
import math
import os
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ethokit import (
    AnalysisParams,
    ObservationStream,
    ObsInterval,
    Track,
    VideoMeta,
    import_cvat_video_xml,
    validate_session,
)
from ethokit import core
from ethokit.core import BoundingBox
from conftest import (
    EPOCH0,
    T0,
    cvat_document,
    make_labels,
    make_track,
    obs,
    track_from_boxes,
)
from scalar_labels import LabelStream, Segment


class TestVideoMeta:
    def test_frame_to_epoch_preserves_start(self, meta):
        assert meta.frame_to_epoch(0) == EPOCH0
        assert meta.frame_to_epoch(60) == EPOCH0 + 2.0

    def test_naive_start_coerced_to_utc(self):
        m = VideoMeta("s", 100, 100, datetime(2023, 1, 1, 12, 0, 0))
        assert m.start_time.tzinfo is timezone.utc

    @pytest.mark.parametrize("fps", [0.0, -30.0, math.nan, math.inf])
    def test_fps_must_be_positive_and_finite(self, fps):
        with pytest.raises(ValueError, match="fps must be positive and finite"):
            VideoMeta("s", 100, 100, T0, fps)

    @pytest.mark.parametrize("width,height", [(0, 100), (100, -1)])
    def test_frame_size_must_be_positive(self, width, height):
        with pytest.raises(ValueError, match=f"frame size must be positive, got {width}x{height}"):
            VideoMeta("s", width, height, T0)


class TestTrack:
    """A track holds its boxes as columns and enforces their shape and order."""

    def test_boxes_view_gives_rows_in_frame_order(self):
        track = Track("t1", "giraffe", [3, 4, 7], [1.0, 2.0, 3.0], [5.0] * 3, [10.0] * 3, [8.0] * 3)
        assert track.frames == (3, 4, 7) and track.x == (1.0, 2.0, 3.0)
        assert track.boxes == (
            BoundingBox(3, 1.0, 5.0, 10.0, 8.0),
            BoundingBox(4, 2.0, 5.0, 10.0, 8.0),
            BoundingBox(7, 3.0, 5.0, 10.0, 8.0),
        )

    @given(st.lists(st.integers(-3, 12), max_size=8))
    def test_rejects_frames_that_do_not_increase(self, frames):
        columns = [[1.0] * len(frames)] * 4
        if all(a < b for a, b in zip(frames, frames[1:])):
            assert Track("t1", "giraffe", frames, *columns).frames == tuple(frames)
        else:
            with pytest.raises(ValueError, match="'t1': frames not strictly increasing"):
                Track("t1", "giraffe", frames, *columns)

    @given(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    def test_rejects_ragged_columns(self, lengths):
        frames, *columns = (list(range(n)) for n in lengths)
        if len(set(lengths)) == 1:
            assert len(Track("t1", "giraffe", frames, *columns).boxes) == lengths[0]
        else:
            with pytest.raises(ValueError, match="'t1': box columns differ in length"):
                Track("t1", "giraffe", frames, *columns)


class TestLabelStream:
    """Frame label streams: half-open frame intervals with a frame rate."""

    def test_code_at_boundaries(self):
        stream = make_labels(0, 9, "G", 10, 19, "W")
        assert stream.code_at(0) == "G"
        assert stream.code_at(9) == "G"
        assert stream.code_at(10) == "W"
        assert stream.code_at(20) is None

    def test_clip_inside_segment(self):
        stream = make_labels(0, 9, "G", 10, 19, "W")
        clipped = stream.clip(5, 13)
        assert clipped.intervals == (ObsInterval(5, 10, "G"), ObsInterval(10, 13, "W"))
        assert clipped.fps == stream.fps

    def test_n_frames(self):
        stream = make_labels(10, 19, "G")
        assert stream.span == (10, 20)
        assert stream.covered_duration() == 10

    def test_rejects_non_contiguous_segments(self):
        # the oracle type the differential tests draw from stays contiguous
        with pytest.raises(ValueError, match="does not start on the frame after 9"):
            LabelStream("t1", (Segment(0, 9, "G"), Segment(12, 19, "W")))

    def test_rejects_overlapping_segments(self):
        with pytest.raises(ValueError, match="starts before the previous one ends"):
            make_labels(0, 9, "G", 5, 19, "W")

    def test_rejects_unsorted_segments(self):
        # code_at(3) would read None on this stream
        with pytest.raises(ValueError, match="starts before the previous one ends"):
            make_labels(10, 19, "G", 0, 5, "W")

    def test_rejects_empty_segment_range(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            make_labels(5, 3, "G")
        with pytest.raises(ValueError, match="holds no frame"):
            make_labels(5, 4, "G")

    def test_accepts_one_frame_segments_and_no_segments(self):
        assert make_labels(3, 3, "G", 4, 4, "G").covered_duration() == 2
        assert make_labels().intervals == ()

    @pytest.mark.parametrize("fps", [1.0, 25.0, 29.97, 30.0])
    def test_seconds_divide_frames_by_the_frame_rate(self, fps):
        stream = make_labels(0, 9, "G", 10, 19, "W", fps=fps)
        assert stream.to_seconds(10) == 10 / fps
        assert stream.code_at_seconds(9.5 / fps) == "G"
        assert stream.code_at_seconds(10 / fps) == "W"
        assert stream.code_at_seconds(20 / fps) is None
        # a seconds stream reads its bounds as they are
        assert obs("z1", "ground_focal", (0, 10, "G")).to_seconds(10.0) == 10.0

    @given(
        st.lists(st.sampled_from(["G", "W", "R", "OOS"]), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=1000),
    )
    def test_from_frames_round_trip(self, codes, start):
        # per-frame codes, as a CVAT export holds them, become one frame stream
        document = cvat_document(enumerate(codes, start))
        _, (stream,) = import_cvat_video_xml(document, VideoMeta("s", 1920, 1080, T0, 30.0))
        assert [stream.code_at(f) for f in range(start, start + len(codes))] == codes
        assert stream.span == (start, start + len(codes))
        # runs are maximal: no two adjacent intervals share a code
        for a, b in zip(stream.intervals, stream.intervals[1:]):
            assert b.start == a.end
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

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(ValueError, match="starts before the previous one ends"):
            ObservationStream(
                "z1",
                "ground_focal",
                (ObsInterval(EPOCH0, EPOCH0 + 10, "G"), ObsInterval(EPOCH0 + 5, EPOCH0 + 20, "W")),
            )

    def test_rejects_unsorted_intervals(self):
        # code_at(15.0) would read None on this stream
        with pytest.raises(ValueError, match="starts before the previous one ends"):
            ObservationStream("z", "ground_focal", ((10, 20, "G"), (0, 5, "W")))

    def test_rejects_interval_nested_in_another(self):
        # code_at(8.0) would read None on this stream, though (0, 10, A) covers 8
        with pytest.raises(ValueError, match="starts before the previous one ends"):
            ObservationStream("z", "ground_focal", ((0, 10, "A"), (5, 7, "B")))

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            ObservationStream("z", "ground_focal", ((0, 10, "A"), (20, 15, "B")))

    @pytest.mark.parametrize(
        "bounds",
        [
            (math.nan, 5.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 5.0),
            (math.inf, math.inf), (0, 10**400), (-(10**400), 5),  # ints past float range
        ],
    )
    def test_rejects_non_finite_bound(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            ObservationStream("z", "ground_focal", ((*bounds, "A"),))

    def test_instants_and_touching_intervals_are_legal(self):
        scan = obs("z1", "ground_scan", (0, 0, "G"), (0, 0, "W"), (5, 5, "G"))
        assert len(scan.intervals) == 3
        focal = obs("z1", "ground_focal", (0, 10, "G"), (10, 10, "W"), (10, 20, "R"))
        assert focal.code_at(EPOCH0 + 10) == "R"

    @given(
        parts=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 4), st.sampled_from("GWR")), max_size=12
        )
    )
    def test_accepts_exactly_the_sorted_disjoint_streams(self, parts):
        # any start/length draw, in the drawn order: legal iff each start >= the previous end
        triples, legal, prev_end = [], True, -math.inf
        for start, length, code in parts:
            triples.append((start, start + length, code))
            legal = legal and start >= prev_end
            prev_end = start + length
        if legal:
            assert len(obs("z1", "ground_scan", *triples).intervals) == len(triples)
        else:
            with pytest.raises(ValueError):
                obs("z1", "ground_scan", *triples)

    @given(
        bounds=st.lists(
            st.tuples(
                st.integers(-2, 6) | st.sampled_from([math.nan, math.inf, -math.inf, 2.5, -0.0]),
                st.integers(-2, 6) | st.sampled_from([math.nan, math.inf, 2.5, "x"]),
            ),
            max_size=6,
        ),
        fps=st.none() | st.just(30.0),
    )
    def test_same_verdict_as_the_interval_loop(self, bounds, fps):
        intervals = tuple(ObsInterval(a, b, "G") for a, b in bounds)
        try:
            _interval_loop(intervals, fps)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as err:
                ObservationStream("z", "ground_focal", intervals, fps=fps)
            assert str(err.value) == str(exc)
        else:
            assert ObservationStream("z", "ground_focal", intervals, fps=fps).intervals == intervals


def _interval_loop(intervals, fps) -> None:
    """The check ObservationStream once ran on every interval of every stream."""
    prev_end = -math.inf
    for iv in intervals:
        if not (math.isfinite(iv.start) and math.isfinite(iv.end)):
            raise ValueError(f"interval bounds must be finite: {tuple(iv)}")
        if iv.end < iv.start:
            raise ValueError(f"interval ends before it starts: {tuple(iv)}")
        if iv.end == iv.start and fps is not None:
            raise ValueError(f"frame interval holds no frame: {tuple(iv)}")
        if iv.start < prev_end:
            raise ValueError(
                f"interval {tuple(iv)} starts before the previous one ends at {prev_end!r}"
            )
        prev_end = iv.end


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
            {"min_miniscene_frames": float("nan")},
            {"min_miniscene_frames": float("inf")},
            {"min_overlap_frames": float("nan")},
            {"min_overlap_frames": float("inf")},
            {"max_track_gap_frames": float("nan")},
            {"max_track_gap_frames": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisParams(**kwargs)


class TestValidateSession:
    def test_clean_session(self, meta, ethogram):
        tracks = [make_track()]
        labels = [make_labels(0, 99, "G")]
        report = validate_session(tracks, labels, meta, ethogram)
        assert report.ok
        assert len(report) == 0

    def test_flags_unknown_code(self, meta, ethogram):
        tracks = [make_track()]
        labels = [make_labels(0, 99, "ZZZ")]
        report = validate_session(tracks, labels, meta, ethogram)
        assert not report.ok
        assert any("ZZZ" in issue.message for issue in report)

    def test_flags_duplicate_track_ids(self, meta, ethogram):
        report = validate_session([make_track(), make_track()], [], meta, ethogram)
        assert any("duplicate" in issue.message for issue in report)

    def test_flags_center_out_of_bounds(self, meta, ethogram):
        track = make_track(frames=[0], x=5000.0, y=10.0, w=20.0, h=20.0)
        report = validate_session([track], [], meta, ethogram)
        assert not report.ok

    def test_flags_instantaneous_event_outside_scan(self, meta, ethogram):
        stream = ObservationStream(
            "z1", "ground_focal", (ObsInterval(EPOCH0, EPOCH0, "G"),)
        )
        report = validate_session([], [stream], meta, ethogram)
        assert not report.ok

    def test_names_each_fault_where_it_is(self, meta, ethogram):
        boxes = [
            (-2, 500.0, 400.0, 60.0, 40.0),
            (1, 500.0, 400.0, 0.0, 40.0),
            (2, 5000.0, 400.0, 60.0, 40.0),
            (3, -100.0, 400.0, -10.0, 40.0),
            (4, 500.0, 400.0, 60.0, 40.0),
        ]
        tracks = [make_track("t0"), track_from_boxes("t1", "giraffe", boxes)]
        focal = obs("z1", "ground_focal", (0, 5, "G"), (5, 5, "G"), (6, 7, "ZZ"))
        scan = obs("z1", "ground_scan", (0, 0, "G"))
        report = validate_session(tracks, [focal, scan], meta, ethogram)
        assert list(report) == [
            ("track[t1].boxes[0]", "negative frame index -2"),
            ("track[t1].boxes[1]", "degenerate box 0.0x40.0"),
            ("track[t1].boxes[2]", "box center (5030, 420) outside frame bounds"),
            ("track[t1].boxes[3]", "degenerate box -10.0x40.0"),
            ("track[t1].boxes[3]", "box center (-105, 420) outside frame bounds"),
            ("obs[z1@ground_focal].intervals[1]", "instantaneous event outside a scan stream"),
            ("obs[z1@ground_focal].intervals[2]", "unknown behavior code 'ZZ'"),
        ]


class TestWriteText:
    def test_makes_the_directory_and_returns_the_path(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        assert core.write_text(path, "x\n") == path
        assert path.read_text() == "x\n"
        assert [p.name for p in path.parent.iterdir()] == ["out.csv"]

    def test_keeps_the_old_file_when_the_rename_fails(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        sources = []

        def fail(src, dst):
            sources.append(Path(src).name)
            raise OSError("disk full")

        monkeypatch.setattr(core.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            core.write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert sources == [f"out.csv.{os.getpid()}.tmp"]
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]  # no temporary file left

    def test_leaves_no_temporary_file_when_the_write_fails(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            core.write_text(path, "a lone surrogate \ud800 cannot be encoded\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestGcPaused:
    @pytest.fixture(autouse=True)
    def _restore(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_re_enables_an_enabled_collector(self):
        gc.enable()
        with core.gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with core.gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_state_when_the_body_raises(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(KeyError):
            with core.gc_paused():
                raise KeyError("x")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    def test_readers_leave_the_state_as_it_was(self, tmp_path, enabled, end):
        from ethokit.ingest import ObservationIndex, read_labels

        labels = tmp_path / "labels.csv"
        labels.write_bytes(end.join(["session_id,track_id,start_frame,end_frame,code",
                                     "s,a,0,9,G", "s,b,0,4,W", ""]).encode())
        text = end.join(["observer_id,subject_id,method,timestamp_iso8601,code",
                         "o,z1,ground_focal,2023-06-01T08:00:00+00:00,G",
                         "o,z1,ground_focal,2023-06-01T08:01:00+00:00,END", ""])
        (gc.enable if enabled else gc.disable)()
        assert len(read_labels(labels, 30.0)) == 2
        assert gc.isenabled() is enabled
        assert len(ObservationIndex(text).streams()) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(core.ParseError):  # a fault found on the way out
            ObservationIndex(text.replace("08:01:00+00:00,END", "08:00:00+00:00,END")).streams()
        assert gc.isenabled() is enabled


class TestRowsNumbers:
    """Rows reads a numeric cell only as written: ASCII, no whitespace, no _."""

    @staticmethod
    def _cell(raw: str):
        rows = core.Rows(f"n\n{raw}\n", None, "t")
        return rows, next(iter(rows))

    @pytest.mark.parametrize("raw", ["1_0", " 7", "7 ", "\t7", "\u0661", "\uff17", "7\x0c"])
    def test_loose_cells_are_refused(self, raw):
        rows, row = self._cell(raw if raw.strip() == raw else f'"{raw}"')
        with pytest.raises(core.ParseError, match=r"^t row 2 column 'n': not an integer: "):
            rows.to_int(row, "n")
        with pytest.raises(core.ParseError, match=r"^t row 2 column 'n': not a number: "):
            rows.to_float(row, "n")

    @pytest.mark.parametrize("raw,value", [("+7", 7), ("-0", 0), ("007", 7)])
    def test_plain_cells_still_read(self, raw, value):
        rows, row = self._cell(raw)
        assert rows.to_int(row, "n") == value
        assert rows.to_float(row, "n") == float(value)

    def test_a_column_is_checked_joined(self):
        assert core.plain_numbers("".join(["1.5", "-2", "1e3"]))
        assert not core.plain_numbers("".join(["1.5", "2_0"]))
