"""File formats: round-trips, schema errors, CVAT import."""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    BoundingBox,
    CvatImportWarning,
    LabelStream,
    ObservationStream,
    ObsInterval,
    ParseError,
    Segment,
    Track,
    VideoMeta,
)
from ethokit.ingest import (
    dump_ground_observations,
    dump_labels,
    dump_tracks,
    dump_video_meta,
    import_cvat_video_xml,
    parse_ground_observations,
    parse_labels,
    parse_tracks,
    parse_video_meta,
)
from conftest import EPOCH0, T0


class TestTracks:
    def test_round_trip(self):
        tracks = [
            Track("a", "grevys_zebra", (BoundingBox(0, 1.5, 2.0, 10.0, 8.0),
                                        BoundingBox(1, 2.5, 2.0, 10.0, 8.0))),
            Track("b", "giraffe", (BoundingBox(5, 100.0, 50.0, 40.0, 90.0),), excluded=True),
        ]
        text = dump_tracks(tracks, "sess01")
        assert parse_tracks(text) == tracks
        assert dump_tracks(parse_tracks(text), "sess01") == text

    def test_header_enforced(self):
        with pytest.raises(ParseError, match="header"):
            parse_tracks("nope,nope\n1,2\n")

    def test_unsorted_rows_rejected(self):
        text = (
            "session_id,track_id,species,frame,x,y,w,h,excluded\n"
            "s,a,grevys_zebra,1,0.0,0.0,1.0,1.0,0\n"
            "s,a,grevys_zebra,0,0.0,0.0,1.0,1.0,0\n"
        )
        with pytest.raises(ParseError, match="sorted"):
            parse_tracks(text)

    def test_duplicate_frame_rejected(self):
        text = (
            "session_id,track_id,species,frame,x,y,w,h,excluded\n"
            "s,a,grevys_zebra,1,0.0,0.0,1.0,1.0,0\n"
            "s,a,grevys_zebra,2,0.0,0.0,1.0,1.0,0\n"
            "s,a,grevys_zebra,2,5.0,0.0,1.0,1.0,0\n"
        )
        with pytest.raises(ParseError, match=r"row 4 column 'frame': duplicate frame 2 in track 'a'"):
            parse_tracks(text)

    def test_species_change_rejected(self):
        text = (
            "session_id,track_id,species,frame,x,y,w,h,excluded\n"
            "s,a,grevys_zebra,0,0.0,0.0,1.0,1.0,0\n"
            "s,a,giraffe,1,0.0,0.0,1.0,1.0,0\n"
        )
        with pytest.raises(ParseError, match="species"):
            parse_tracks(text)

    def test_mixed_sessions_rejected(self):
        text = (
            "session_id,track_id,species,frame,x,y,w,h,excluded\n"
            "s1,a,grevys_zebra,0,0.0,0.0,1.0,1.0,0\n"
            "s2,b,grevys_zebra,0,0.0,0.0,1.0,1.0,0\n"
        )
        with pytest.raises(ParseError, match="mixed sessions"):
            parse_tracks(text)

    def test_error_names_row_and_column(self):
        text = (
            "session_id,track_id,species,frame,x,y,w,h,excluded\n"
            "s,a,grevys_zebra,zero,0.0,0.0,1.0,1.0,0\n"
        )
        with pytest.raises(ParseError, match=r"row 2.*frame"):
            parse_tracks(text)

    @pytest.mark.parametrize("column", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_coordinate_rejected(self, column, value):
        row = {"x": "0.0", "y": "0.0", "w": "1.0", "h": "1.0", column: value}
        text = (
            "session_id,track_id,species,frame,x,y,w,h,excluded\n"
            "s,a,grevys_zebra,0,0.0,0.0,1.0,1.0,0\n"
            f"s,a,grevys_zebra,1,{row['x']},{row['y']},{row['w']},{row['h']},0\n"
        )
        with pytest.raises(ParseError, match=rf"row 3 column '{column}': not a finite number"):
            parse_tracks(text)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 500),
                st.floats(0, 1000, allow_nan=False, width=32),
                st.floats(0, 1000, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=20,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=50)
    def test_value_round_trip_property(self, rows):
        rows.sort()
        boxes = tuple(BoundingBox(f, float(x), float(y), 10.0, 5.0) for f, x, y in rows)
        tracks = [Track("t", "giraffe", boxes)]
        assert parse_tracks(dump_tracks(tracks, "s")) == tracks


class TestLabels:
    def test_round_trip(self):
        streams = [
            LabelStream("a", (Segment(0, 9, "G"), Segment(10, 19, "W"))),
            LabelStream("b", (Segment(5, 7, "OOS"),)),
        ]
        text = dump_labels(streams, "sess01")
        assert parse_labels(text) == streams
        assert dump_labels(parse_labels(text), "sess01") == text

    def test_gap_splits_streams(self):
        text = (
            "session_id,track_id,start_frame,end_frame,code\n"
            "s,a,0,9,G\n"
            "s,a,20,29,W\n"
        )
        streams = parse_labels(text)
        assert len(streams) == 2
        assert streams[0].segments == (Segment(0, 9, "G"),)
        assert streams[1].segments == (Segment(20, 29, "W"),)

    def test_overlap_rejected(self):
        text = (
            "session_id,track_id,start_frame,end_frame,code\n"
            "s,a,0,9,G\n"
            "s,a,9,12,W\n"
        )
        with pytest.raises(ParseError, match="overlap"):
            parse_labels(text)

    def test_backwards_range_rejected(self):
        text = "session_id,track_id,start_frame,end_frame,code\ns,a,9,0,G\n"
        with pytest.raises(ParseError, match="end_frame"):
            parse_labels(text)

    @given(st.lists(st.sampled_from("GWRT"), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_per_frame_round_trip_property(self, codes):
        stream = LabelStream.from_frames("t", 0, codes)
        assert parse_labels(dump_labels([stream], "s")) == [stream]


class TestGroundObservations:
    def test_focal_round_trip(self):
        stream = ObservationStream(
            "z1",
            "ground_focal",
            (
                ObsInterval(EPOCH0, EPOCH0 + 60, "G"),
                ObsInterval(EPOCH0 + 60, EPOCH0 + 90, "W"),
            ),
            "obs1",
        )
        text = dump_ground_observations([stream])
        assert parse_ground_observations(text) == [stream]
        assert dump_ground_observations(parse_ground_observations(text)) == text

    def test_focal_with_gap_round_trip(self):
        stream = ObservationStream(
            "z1",
            "ground_focal",
            (
                ObsInterval(EPOCH0, EPOCH0 + 60, "G"),
                ObsInterval(EPOCH0 + 100, EPOCH0 + 130, "W"),
            ),
            "obs1",
        )
        text = dump_ground_observations([stream])
        # gap forces an interior END row plus a reopening event
        assert text.count("END") == 2
        assert parse_ground_observations(text) == [stream]

    def test_scan_round_trip_instantaneous(self):
        stream = ObservationStream(
            "z1",
            "ground_scan",
            (ObsInterval(EPOCH0, EPOCH0, "G"), ObsInterval(EPOCH0 + 120, EPOCH0 + 120, "W")),
            "obs1",
        )
        text = dump_ground_observations([stream])
        assert "END" not in text
        assert parse_ground_observations(text) == [stream]

    def test_propagated_scan_round_trip(self):
        stream = ObservationStream(
            "z1",
            "ground_scan",
            (ObsInterval(EPOCH0, EPOCH0 + 120, "G"), ObsInterval(EPOCH0 + 120, EPOCH0 + 240, "W")),
            "obs1",
        )
        text = dump_ground_observations([stream])
        assert parse_ground_observations(text) == [stream]

    def test_multiple_observers_kept_apart(self):
        a = ObservationStream("z1", "ground_focal", (ObsInterval(EPOCH0, EPOCH0 + 10, "G"),), "ann")
        b = ObservationStream("z1", "ground_focal", (ObsInterval(EPOCH0, EPOCH0 + 12, "W"),), "ben")
        text = dump_ground_observations([a, b])
        assert parse_ground_observations(text) == [a, b]

    def test_missing_end_rejected(self):
        text = (
            "observer_id,subject_id,method,timestamp_iso8601,code\n"
            f"o,z1,ground_focal,{T0.isoformat()},G\n"
        )
        with pytest.raises(ParseError, match="END"):
            parse_ground_observations(text)

    def test_end_without_open_rejected(self):
        text = (
            "observer_id,subject_id,method,timestamp_iso8601,code\n"
            f"o,z1,ground_focal,{T0.isoformat()},END\n"
        )
        with pytest.raises(ParseError, match="no open interval"):
            parse_ground_observations(text)

    def test_unknown_method_rejected(self):
        text = (
            "observer_id,subject_id,method,timestamp_iso8601,code\n"
            f"o,z1,telepathy,{T0.isoformat()},G\n"
        )
        with pytest.raises(ParseError, match="method"):
            parse_ground_observations(text)

    def test_decreasing_timestamps_rejected(self):
        later = "2023-06-01T09:00:00+00:00"
        earlier = "2023-06-01T08:00:00+00:00"
        text = (
            "observer_id,subject_id,method,timestamp_iso8601,code\n"
            f"o,z1,ground_focal,{later},G\n"
            f"o,z1,ground_focal,{earlier},END\n"
        )
        with pytest.raises(ParseError, match="decrease|zero-length"):
            parse_ground_observations(text)

    def test_fractional_seconds_byte_stable(self):
        text = (
            "observer_id,subject_id,method,timestamp_iso8601,code\n"
            "o,z1,ground_focal,2023-06-01T08:30:00.250000+00:00,G\n"
            "o,z1,ground_focal,2023-06-01T08:31:00.750000+00:00,END\n"
        )
        again = dump_ground_observations(parse_ground_observations(text))
        assert again == text

    @given(
        st.lists(st.tuples(st.integers(1, 300), st.sampled_from("GWRH")), min_size=1, max_size=15)
    )
    @settings(max_examples=50)
    def test_focal_value_round_trip_property(self, runs):
        t = EPOCH0
        intervals = []
        for dur, code in runs:
            intervals.append(ObsInterval(t, t + dur, code))
            t += dur
        stream = ObservationStream("z1", "ground_focal", tuple(intervals), "o")
        assert parse_ground_observations(dump_ground_observations([stream])) == [stream]


class TestVideoMeta:
    def test_round_trip(self, meta):
        text = dump_video_meta(meta)
        assert parse_video_meta(text) == meta

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown keys"):
            parse_video_meta('{"session_id": "s", "bogus": 1}')

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="missing keys"):
            parse_video_meta('{"session_id": "s"}')

    @pytest.mark.parametrize("fps", ["nan", "inf", "-inf", float("nan"), float("inf"), 0.0, -30.0])
    def test_fps_must_be_positive_and_finite(self, meta, fps):
        doc = json.loads(dump_video_meta(meta))
        doc["fps"] = fps
        with pytest.raises(ParseError, match="fps must be positive and finite"):
            parse_video_meta(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("fps", "abc"),
            ("fps", None),
            ("fps", [30]),
            ("width_px", "wide"),
            ("height_px", 1e400),
            ("height_px", {}),
            ("start_time", "yesterday"),
            ("start_time", 7),
        ],
    )
    def test_malformed_field_is_a_parse_error(self, meta, key, value):
        doc = json.loads(dump_video_meta(meta))
        doc[key] = value
        with pytest.raises(ParseError, match=key):
            parse_video_meta(json.dumps(doc))


CVAT_SAMPLE = """<?xml version="1.0" encoding="utf-8"?>
<annotations>
  <version>1.1</version>
  <meta><task><name>demo</name></task></meta>
  <track id="1" label="Zebra_Grevys">
    <box frame="0" xtl="100.0" ytl="200.0" xbr="220.0" ybr="280.0" outside="0" occluded="0">
      <attribute name="behavior">Walk</attribute>
    </box>
    <box frame="1" xtl="104.0" ytl="200.0" xbr="224.0" ybr="280.0" outside="0" occluded="0">
      <attribute name="behavior">Walk</attribute>
    </box>
    <box frame="2" xtl="104.0" ytl="200.0" xbr="224.0" ybr="280.0" outside="1" occluded="0"/>
    <box frame="3" xtl="110.0" ytl="200.0" xbr="230.0" ybr="280.0" outside="0" occluded="0">
      <attribute name="behavior">Graze</attribute>
    </box>
  </track>
  <track id="2" label="Giraffe">
    <box frame="0" xtl="400.0" ytl="100.0" xbr="520.0" ybr="400.0" outside="0" occluded="0">
      <attribute name="behavior">Browsing</attribute>
    </box>
  </track>
</annotations>
"""


class TestCvatImport:
    def test_tracks_and_labels(self, meta, ethogram):
        tracks, labels = import_cvat_video_xml(CVAT_SAMPLE, meta, ethogram)
        assert [t.track_id for t in tracks] == ["1", "2"]
        assert tracks[0].species == "grevys_zebra"
        assert tracks[1].species == "giraffe"
        # outside box at frame 2 is dropped from geometry
        assert [b.frame for b in tracks[0].boxes] == [0, 1, 3]
        assert tracks[0].boxes[0] == BoundingBox(0, 100.0, 200.0, 120.0, 80.0)
        # labeled runs split at the outside frame
        by_track = [s for s in labels if s.track_id == "1"]
        assert [s.segments for s in by_track] == [
            (Segment(0, 1, "W"),),
            (Segment(3, 3, "G"),),
        ]
        assert [s.segments for s in labels if s.track_id == "2"] == [(Segment(0, 0, "B"),)]

    def test_malformed_xml_names_position(self, meta):
        with pytest.raises(ParseError, match="line"):
            import_cvat_video_xml("<annotations><track></annotations>", meta)

    def test_degenerate_box_rejected(self, meta):
        doc = (
            '<annotations><track id="1" label="Zebra"><box frame="0" xtl="10" ytl="10" '
            'xbr="10" ybr="20" outside="0"/></track></annotations>'
        )
        with pytest.raises(ParseError, match="degenerate"):
            import_cvat_video_xml(doc, meta)

    def test_unknown_behavior_kept_with_warning(self, meta):
        doc = (
            '<annotations><track id="1" label="Zebra"><box frame="0" xtl="10" ytl="10" '
            'xbr="60" ybr="40" outside="0"><attribute name="behavior">Moonwalk</attribute>'
            "</box></track></annotations>"
        )
        with pytest.warns(CvatImportWarning, match="Moonwalk"):
            _, labels = import_cvat_video_xml(doc, meta)
        assert labels[0].segments[0].code == "Moonwalk"

    def test_unsupported_elements_warn_once(self, meta):
        doc = (
            "<annotations><image id=\"0\"/><image id=\"1\"/>"
            '<track id="1" label="Zebra"><box frame="0" xtl="10" ytl="10" xbr="60" ybr="40" '
            'outside="0"/></track></annotations>'
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            import_cvat_video_xml(doc, meta)
        messages = [str(w.message) for w in caught if w.category is CvatImportWarning]
        assert len([m for m in messages if "image" in m]) == 1

    def test_out_of_bounds_box_warns(self, meta):
        doc = (
            '<annotations><track id="1" label="Zebra"><box frame="0" xtl="-5" ytl="10" '
            'xbr="60" ybr="40" outside="0"/></track></annotations>'
        )
        with pytest.warns(CvatImportWarning, match="outside frame bounds"):
            tracks, _ = import_cvat_video_xml(doc, meta)
        assert len(tracks[0].boxes) == 1

    def test_unspecified_zebra_species(self, meta):
        doc = (
            '<annotations><track id="7" label="Zebra"><box frame="0" xtl="10" ytl="10" '
            'xbr="60" ybr="40" outside="0"/></track></annotations>'
        )
        tracks, _ = import_cvat_video_xml(doc, meta)
        assert tracks[0].species == "zebra_unspecified"
