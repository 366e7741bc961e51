"""Crop-window geometry and mini-scene extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    AnalysisParams,
    VideoMeta,
    crop_window,
    dump_miniscene_manifest,
    extract_miniscenes,
)
from conftest import T0, make_labels, make_track, track_from_boxes


class TestCropWindow:
    def test_symmetric_center(self, meta):
        assert crop_window(960.0, 540.0, 400, 300, meta) == (960.0, 540.0)

    def test_clamped_to_origin(self, meta):
        assert crop_window(10.0, 10.0, 400, 300, meta) == (200.0, 150.0)

    def test_clamped_to_far_edge(self, meta):
        assert crop_window(1895.0, 1060.0, 400, 300, meta) == (1720.0, 930.0)

    def test_center_out_of_bounds(self, meta):
        with pytest.raises(ValueError, match="center out of bounds"):
            crop_window(1930.0, 520.0, 400, 300, meta)

    def test_output_larger_than_frame(self, meta):
        with pytest.raises(ValueError):
            crop_window(960.0, 540.0, 2000, 300, meta)

    def test_non_positive_output(self, meta):
        with pytest.raises(ValueError):
            crop_window(960.0, 540.0, 0, 300, meta)

    @given(
        cx=st.floats(0, 1920, allow_nan=False),
        cy=st.floats(0, 1080, allow_nan=False),
        out_w=st.integers(2, 1920),
        out_h=st.integers(2, 1080),
    )
    @settings(max_examples=200)
    def test_window_inside_frame_and_contains_center(self, cx, cy, out_w, out_h):
        meta = VideoMeta("hyp", 1920, 1080, T0, fps=30.0)
        wx, wy = crop_window(cx, cy, out_w, out_h, meta)
        x, y = wx - out_w / 2, wy - out_h / 2  # the window's top-left corner
        assert 0 <= x and x + out_w <= meta.width_px
        assert 0 <= y and y + out_h <= meta.height_px
        assert x <= cx <= x + out_w
        assert y <= cy <= y + out_h


class TestExtractMiniscenes:
    def test_89_frames_dropped(self, meta):
        tracks = [make_track(frames=range(0, 89))]
        labels = [make_labels(0, 88, "G")]
        assert extract_miniscenes(tracks, labels, AnalysisParams(), meta) == []

    def test_90_frames_retained(self, meta):
        tracks = [make_track(frames=range(0, 90))]
        labels = [make_labels(0, 89, "G")]
        scenes = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        assert len(scenes) == 1
        assert (scenes[0].start_frame, scenes[0].end_frame) == (0, 89)
        assert scenes[0].n_frames == 90

    def test_gap_splits_then_filters(self, meta):
        # 100 frames, a 40-frame hole, then 60 frames: only the first half survives
        frames = list(range(0, 100)) + list(range(140, 200))
        tracks = [make_track(frames=frames)]
        labels = [make_labels(0, 99, "G", 140, 199, "G")]
        scenes = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        assert [(s.start_frame, s.end_frame) for s in scenes] == [(0, 99)]

    def test_gap_at_threshold_not_split(self, meta):
        # 30 missing frames is the default limit, not over it
        frames = list(range(0, 60)) + list(range(90, 150))
        tracks = [make_track(frames=frames)]
        labels = [make_labels(0, 149, "G")]
        scenes = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        assert [(s.start_frame, s.end_frame) for s in scenes] == [(0, 149)]

    def test_excluded_track_skipped(self, meta):
        tracks = [make_track(frames=range(0, 120), excluded=True)]
        labels = [make_labels(0, 119, "G")]
        assert extract_miniscenes(tracks, labels, AnalysisParams(), meta) == []

    def test_missing_label_coverage(self, meta):
        tracks = [make_track(frames=range(0, 120))]
        labels = [make_labels(0, 50, "G")]
        with pytest.raises(ValueError, match=r"t1.*0.*119"):
            extract_miniscenes(tracks, labels, AnalysisParams(), meta)

    def test_gap_inside_window_is_missing_coverage(self, meta):
        # one frame stream spans the window but leaves frames 60..64 unlabeled
        tracks = [make_track(frames=range(0, 120))]
        labels = [make_labels(0, 59, "G", 65, 119, "W")]
        with pytest.raises(ValueError, match=r"missing label coverage for track 't1' frames 0\.\.119"):
            extract_miniscenes(tracks, labels, AnalysisParams(), meta)

    def test_two_streams_for_one_track_rejected(self, meta):
        tracks = [make_track(frames=range(0, 90))]
        labels = [make_labels(0, 89, "G"), make_labels(100, 109, "W")]
        with pytest.raises(ValueError, match="track 't1' has more than one label stream"):
            extract_miniscenes(tracks, labels, AnalysisParams(), meta)

    def test_labels_clipped_to_window(self, meta):
        tracks = [make_track(frames=range(10, 110))]
        labels = [make_labels(0, 49, "G", 50, 119, "W", fps=meta.fps)]
        (scene,) = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        assert scene.labels.intervals == ((10, 50, "G"), (50, 110, "W"))
        assert scene.labels.fps == meta.fps

    def test_windows_follow_box_centers(self, meta):
        tracks = [make_track(frames=range(0, 90), x=900.0, y=500.0, w=60.0, h=40.0)]
        labels = [make_labels(0, 89, "W")]
        (scene,) = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        assert len(scene.windows) == 90
        assert all(w.cx == 930.0 and w.cy == 520.0 for w in scene.windows)

    def test_count_bounded_by_segments(self, meta):
        frames = list(range(0, 95)) + list(range(200, 300)) + list(range(400, 450))
        tracks = [make_track(frames=frames)]
        labels = [make_labels(0, 94, "G", 200, 299, "W", 400, 449, "G")]
        scenes = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        assert len(scenes) == 2  # the 50-frame tail segment is dropped


class TestManifest:
    def test_constant_center_collapses_rows(self, meta):
        tracks = [make_track(frames=range(0, 90))]
        labels = [make_labels(0, 89, "G")]
        scenes = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        text = dump_miniscene_manifest(scenes)
        lines = text.strip().split("\n")
        assert lines[0] == "track_id,start_frame,end_frame,cx,cy,out_w,out_h"
        assert len(lines) == 2  # one maximal run: center never moves

    def test_moving_center_splits_rows(self, meta):
        boxes = [(f, 500.0 + (10.0 if f >= 45 else 0.0), 400.0, 60.0, 40.0) for f in range(0, 90)]
        tracks = [track_from_boxes("t1", "grevys_zebra", boxes)]
        labels = [make_labels(0, 89, "G")]
        scenes = extract_miniscenes(tracks, labels, AnalysisParams(), meta)
        lines = dump_miniscene_manifest(scenes).strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("t1,0,44,")
        assert lines[2].startswith("t1,45,89,")
