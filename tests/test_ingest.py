"""File formats: round-trips, schema errors, CVAT import."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import (
    METHODS,
    CvatImportWarning,
    ObservationStream,
    ObsInterval,
    ParseError,
    Track,
    VideoMeta,
)
from ethokit import core
from ethokit.core import BoundingBox
from ethokit.ingest import (
    LABEL_HEADER,
    OBS_HEADER,
    TRACK_HEADER,
    _Rows,
    dump_ground_observations,
    dump_labels,
    dump_tracks,
    dump_video_meta,
    import_cvat_video_xml,
    parse_ground_observations,
    parse_labels,
    parse_tracks,
    parse_video_meta,
    read_ground_observations,
    write_labels,
    write_tracks,
)
from conftest import EPOCH0, T0, cvat_document, make_labels, make_track, track_from_boxes
from scalar_ingest import parse_labels as oracle_parse_labels
from scalar_ingest import parse_tracks as oracle_parse_tracks
import scalar_ingest as oracle


class TestTracks:
    def test_round_trip(self):
        tracks = [
            track_from_boxes("a", "grevys_zebra", [(0, 1.5, 2.0, 10.0, 8.0),
                                                   (1, 2.5, 2.0, 10.0, 8.0)]),
            track_from_boxes("b", "giraffe", [(5, 100.0, 50.0, 40.0, 90.0)], excluded=True),
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
        boxes = [(f, float(x), float(y), 10.0, 5.0) for f, x, y in rows]
        tracks = [track_from_boxes("t", "giraffe", boxes)]
        assert parse_tracks(dump_tracks(tracks, "s")) == tracks


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# cell values near the edges of what tracks.csv accepts
BAD_CELLS = ("", "x", "1.5", "-1", "nan", "inf", "1e400", "2", "true", "other", "giraffe")


@st.composite
def track_lists(draw):
    """1-4 tracks with distinct ids, 1-6 boxes each, any finite coordinates."""
    ids = draw(st.lists(st.text(st.characters(exclude_categories=["C"]), max_size=4),
                        min_size=1, max_size=4, unique=True))
    tracks = []
    for track_id in ids:
        frames = sorted(draw(st.sets(st.integers(-3, 40), min_size=1, max_size=6)))
        boxes = [(f, draw(FINITE), draw(FINITE), draw(FINITE), draw(FINITE)) for f in frames]
        species = draw(st.sampled_from(["giraffe", "grevys_zebra", "zebra, plains"]))
        tracks.append(track_from_boxes(track_id, species, boxes, draw(st.booleans())))
    return tracks


@st.composite
def faulty_track_file(draw):
    """A tracks.csv written from track_lists, with at most one fault in it."""
    rows = list(csv.reader(io.StringIO(dump_tracks(draw(track_lists()), "s"), newline="")))
    fault = draw(st.sampled_from(["none", "cell", "swap", "repeat", "fields"]))
    k = draw(st.integers(1, len(rows) - 1))
    if fault == "cell":
        rows[k][draw(st.integers(0, len(TRACK_HEADER) - 1))] = draw(st.sampled_from(BAD_CELLS))
    elif fault == "swap" and k + 1 < len(rows):
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
    elif fault == "repeat":
        rows.insert(k, list(rows[k]))
    elif fault == "fields":
        rows[k].append("extra")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _parse_outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestTracksMatchRowOracle:
    """The columnar parser against the row-based one it replaced."""

    @given(faulty_track_file())
    @settings(max_examples=300, deadline=None)
    def test_same_tracks_or_same_error(self, text):
        assert _parse_outcome(parse_tracks, text) == _parse_outcome(oracle_parse_tracks, text)

    @given(track_lists())
    @settings(max_examples=300, deadline=None)
    def test_dump_then_parse_round_trips(self, tracks):
        text = dump_tracks(tracks[::-1], "s")
        parsed = parse_tracks(text)
        assert parsed == sorted(tracks, key=lambda t: t.track_id)
        assert dump_tracks(parsed, "s") == text  # -0.0 keeps its sign


# numbers int() or float() would read from more than the number: an
# underscore, padding, another script's digits
LOOSE_INTEGERS = ("1_0", " 6", "6\t", "\u0666", "\uff16")
LOOSE_NUMBERS = ("5_0.0", " 50.0", "50.0\x0c", "\u0665\u0660.0")

TRACK_LINE = ",".join(TRACK_HEADER)
FIELD_LIMIT = csv.field_size_limit()
PLAIN_ROWS = ["s,a,giraffe,0,1.5,2.0,10.0,8.0,0", "s,a,giraffe,1,2.5,2.0,10.0,8.0,0",
              "s,b,grevys_zebra,5,100.0,50.0,40.0,90.0,1"]


def _tracks_text(rows, end="\n"):
    return end.join([TRACK_LINE, *rows]) + end


class TestTracksOnBothPaths:
    """Texts the block reader hands to the row loop, and plain texts that fail
    a bulk check, against the row-based oracle."""

    HALF = "x" * (FIELD_LIMIT // 2)

    @pytest.mark.parametrize(
        "text",
        [
            _tracks_text([PLAIN_ROWS[0], "", *PLAIN_ROWS[1:]]),
            _tracks_text(PLAIN_ROWS, end="\r\n"),
            _tracks_text(PLAIN_ROWS)[:-1],
            _tracks_text([*PLAIN_ROWS[:2], 's,c,"zebra, plains",0,1.0,1.0,1.0,1.0,0']),
            _tracks_text([*PLAIN_ROWS[:2], f"s,{'x' * (FIELD_LIMIT + 1)},giraffe,0,1,1,1,1,0"]),
            _tracks_text([*PLAIN_ROWS[:2], f"s,{HALF}a,{HALF},0,1.0,1.0,1.0,1.0,0"]),
            _tracks_text(["s,a,giraffe,0,1.5,2.0,10.0,8.0,0,extra",
                          "s,a,giraffe,1,2.5,2.0,10.0,8.0", PLAIN_ROWS[2]]),
        ],
        ids=["blank-line", "crlf", "no-final-newline", "quoted-species", "oversized-field",
             "line-over-field-limit", "balancing-field-counts"],
    )
    def test_handed_to_row_loop(self, text):
        assert _Rows.lines(text, TRACK_HEADER) is None
        assert _parse_outcome(parse_tracks, text) == _parse_outcome(oracle_parse_tracks, text)

    @pytest.mark.parametrize(
        "row",
        [
            "s,b,grevys_zebra,1.0,100.0,50.0,40.0,90.0,1",
            "s,b,grevys_zebra,6,100.0,50.0,40.0,90.0,yes",
            "s,b,grevys_zebra,6,nan,50.0,40.0,90.0,1",
            "s,a,giraffe,2,2.5,2.0,10.0,8.0,0",
            "s,b,giraffe,6,100.0,50.0,40.0,90.0,1",
            "s,b,grevys_zebra,6,100.0,50.0,40.0,90.0,0",
            "s,b,grevys_zebra,5,100.0,50.0,40.0,90.0,1",
            "t,b,grevys_zebra,6,100.0,50.0,40.0,90.0,1",
            *(f"s,b,grevys_zebra,{cell},100.0,50.0,40.0,90.0,1" for cell in LOOSE_INTEGERS),
            *(f"s,b,grevys_zebra,6,100.0,{cell},40.0,90.0,1" for cell in LOOSE_NUMBERS),
        ],
        ids=["fractional-frame", "excluded-yes", "nan-x", "track-id-backwards", "species-change",
             "excluded-change", "repeated-frame", "mixed-session",
             *(f"loose-frame-{i}" for i in range(len(LOOSE_INTEGERS))),
             *(f"loose-y-{i}" for i in range(len(LOOSE_NUMBERS)))],
    )
    def test_fails_a_bulk_check(self, row):
        text = _tracks_text([*PLAIN_ROWS, row])
        assert _Rows.lines(text, TRACK_HEADER) is not None
        outcome = _parse_outcome(parse_tracks, text)
        assert outcome.startswith("ParseError: tracks row 5 column ")
        assert outcome == _parse_outcome(oracle_parse_tracks, text)

    @pytest.mark.parametrize("block_lines", [1, 2, 5])
    @given(text=faulty_track_file())
    @settings(max_examples=100, deadline=None)
    def test_small_blocks(self, block_lines, text):
        # a track, and a fault, may straddle the edge between two blocks
        with patch.object(core, "_BLOCK_LINES", block_lines):
            assert _parse_outcome(parse_tracks, text) == _parse_outcome(oracle_parse_tracks, text)


class TestLooseNumbers:
    """A numeric cell reads only as written: ASCII, no whitespace, no underscore."""

    @pytest.mark.parametrize("cell", LOOSE_INTEGERS)
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    def test_frame_in_tracks(self, cell, end):
        text = _tracks_text([*PLAIN_ROWS[:2], f"s,b,giraffe,{cell},1.0,1.0,1.0,1.0,0"], end)
        with pytest.raises(ParseError) as err:
            parse_tracks(text)
        assert str(err.value) == f"tracks row 4 column 'frame': not an integer: {cell!r}"

    @pytest.mark.parametrize("cell", LOOSE_NUMBERS)
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    def test_coordinate_in_tracks(self, cell, end):
        text = _tracks_text([*PLAIN_ROWS[:2], f"s,b,giraffe,0,1.0,1.0,{cell},1.0,0"], end)
        with pytest.raises(ParseError) as err:
            parse_tracks(text)
        assert str(err.value) == f"tracks row 4 column 'w': not a number: {cell!r}"

    @pytest.mark.parametrize("cell", LOOSE_INTEGERS)
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    @pytest.mark.parametrize("column", ["start_frame", "end_frame"])
    def test_frame_in_labels(self, cell, end, column):
        row = "s,b,20,30,G".split(",")
        row[LABEL_HEADER.index(column)] = cell
        text = _labels_text([*LABEL_ROWS, ",".join(row)], end)
        with pytest.raises(ParseError) as err:
            parse_labels(text, 30.0)
        assert str(err.value) == f"labels row 5 column {column!r}: not an integer: {cell!r}"

    @pytest.mark.parametrize("text", ["+6", "-0", "007", "6"])
    def test_plain_integers_still_read(self, text):
        row = f"s,b,{text},{text},G"
        assert parse_labels(_labels_text([row]), 30.0)[0].intervals[0].start == int(text)


class TestLabels:
    def test_round_trip(self):
        streams = [
            make_labels(0, 9, "G", 10, 19, "W", track_id="a", fps=25.0),
            make_labels(5, 7, "OOS", track_id="b", fps=25.0),
        ]
        text = dump_labels(streams, "sess01")
        assert text.splitlines()[1:] == ["sess01,a,0,9,G", "sess01,a,10,19,W", "sess01,b,5,7,OOS"]
        assert parse_labels(text, 25.0) == streams
        assert dump_labels(parse_labels(text, 25.0), "sess01") == text

    def test_gap_stays_inside_one_stream(self):
        text = (
            "session_id,track_id,start_frame,end_frame,code\n"
            "s,a,0,9,G\n"
            "s,a,20,29,W\n"
            "s,b,5,6,G\n"
        )
        streams = parse_labels(text, 30.0)
        assert [s.subject_id for s in streams] == ["a", "b"]
        assert streams[0].intervals == (ObsInterval(0, 10, "G"), ObsInterval(20, 30, "W"))
        # frames 10..19 are unlabeled time inside the stream
        assert streams[0].code_at(15) is None
        assert dump_labels(streams, "s") == text

    def test_dump_orders_streams_by_track(self):
        empty = ObservationStream("a", "labels", (), fps=30.0)
        text = dump_labels([make_labels(0, 4, "G", track_id="b"), empty], "s")
        assert text == "session_id,track_id,start_frame,end_frame,code\ns,b,0,4,G\n"

    def test_overlap_rejected(self):
        text = (
            "session_id,track_id,start_frame,end_frame,code\n"
            "s,a,0,9,G\n"
            "s,a,9,12,W\n"
        )
        with pytest.raises(ParseError, match="overlap"):
            parse_labels(text, 30.0)

    def test_backwards_range_rejected(self):
        text = "session_id,track_id,start_frame,end_frame,code\ns,a,9,0,G\n"
        with pytest.raises(ParseError, match="end_frame"):
            parse_labels(text, 30.0)

    @pytest.mark.parametrize("row", ["s,a,-3,-1,A", "s,a,-1,5,A"])
    def test_negative_frame_rejected(self, row):
        text = "session_id,track_id,start_frame,end_frame,code\n" + row + "\ns,a,0,4,G\n"
        with pytest.raises(ParseError, match="labels row 2 column 'start_frame': negative frame"):
            parse_labels(text, 30.0)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    def test_empty_code_rejected(self, end):
        text = end.join(["session_id,track_id,start_frame,end_frame,code", "s,a,0,9,G",
                         "s,ind000,10,19,", "s,z,0,4,G"]) + end
        message = "labels row 3 column 'code': empty behavior code"
        for track_id in (None, "ind000"):
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse_labels(text, 30.0, track_id=track_id)
        # a one-track read checks only that track's codes
        assert parse_labels(text, 30.0, track_id="z") == [make_labels(0, 4, "G", track_id="z")]

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.sampled_from("GWRT")), min_size=1, max_size=40),
        st.sampled_from([1.0, 25.0, 29.97, 30.0]),
    )
    @settings(max_examples=50)
    def test_per_frame_round_trip_property(self, runs, fps):
        triples, frame = [], 0
        for length, code in runs:
            triples += [frame, frame + length - 1, code]
            frame += length
        stream = make_labels(*triples, track_id="t", fps=fps)
        assert parse_labels(dump_labels([stream], "s"), fps) == [stream]


LABEL_LINE = ",".join(LABEL_HEADER)
LABEL_ROWS = ["s,a,0,9,G", "s,a,10,19,W", "s,b,5,7,OOS"]
# cell values near the edges of what labels.csv accepts
BAD_LABEL_CELLS = ("", "x", "1.5", "-1", "0", "1_0", " 7", "\u0663", "99", "a", "t", "G")


def _labels_text(rows, end="\n"):
    return end.join([LABEL_LINE, *rows]) + end


@st.composite
def label_streams(draw):
    """1-4 label streams with distinct track ids, runs of frames with gaps."""
    ids = draw(st.lists(st.text(st.characters(exclude_categories=["C"]), max_size=3),
                        min_size=1, max_size=4, unique=True))
    streams = []
    for track_id in ids:
        triples, frame = [], draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 5))):
            length = draw(st.integers(1, 4))
            triples += [frame, frame + length - 1, draw(st.sampled_from(["G", "W", "a,b"]))]
            frame += length + draw(st.integers(0, 2))
        streams.append(make_labels(*triples, track_id=track_id))
    return streams


@st.composite
def faulty_label_file(draw):
    """A labels.csv written from label_streams, with at most one fault in it."""
    text = dump_labels(draw(label_streams()), "s")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    fault = draw(st.sampled_from(["none", "cell", "swap", "repeat", "fields"]))
    k = draw(st.integers(1, len(rows) - 1))
    if fault == "cell":
        rows[k][draw(st.integers(0, len(LABEL_HEADER) - 1))] = draw(st.sampled_from(BAD_LABEL_CELLS))
    elif fault == "swap" and k + 1 < len(rows):
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
    elif fault == "repeat":
        rows.insert(k, list(rows[k]))
    elif fault == "fields":
        rows[k].append("extra")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _labels(text, track_id=None):
    return parse_labels(text, 30.0, track_id=track_id)


class TestLabelsOnBothPaths:
    """Texts the block reader hands to the row loop, and plain texts that fail
    a bulk check, against the row-based oracle."""

    @pytest.mark.parametrize(
        "text",
        [
            _labels_text([LABEL_ROWS[0], "", *LABEL_ROWS[1:]]),
            _labels_text(LABEL_ROWS, end="\r\n"),
            _labels_text(LABEL_ROWS)[:-1],
            _labels_text([*LABEL_ROWS, 's,c,0,4,"walk, fast"']),
            _labels_text([*LABEL_ROWS, f"s,c,0,4,{'x' * (FIELD_LIMIT + 1)}"]),
            _labels_text([*LABEL_ROWS[:2], "s,b,5,7,OOS,extra", "s,c,0,4"]),
            _labels_text([LABEL_ROWS[0], "s,a,5,12,W", "s,b,5,7,OOS"], end="\r\n"),
        ],
        ids=["blank-line", "crlf", "no-final-newline", "quoted-code", "oversized-field",
             "balancing-field-counts", "crlf-overlap"],
    )
    def test_handed_to_row_loop(self, text):
        assert _Rows.lines(text, LABEL_HEADER) is None
        assert _parse_outcome(_labels, text) == _parse_outcome(oracle_parse_labels, text, 30.0)

    @pytest.mark.parametrize(
        "row",
        ["t,b,8,9,G", "s,b,-1,9,G", "s,b,9,8,G", "s,a,20,29,G", "s,b,7,9,G", "s,b,8,9.0,G",
         "s,b,1e1,19,G", "s,b,8_0,90,G", "s,b,8, 9,G", "s,b,\u0668,9,G"],
        ids=["mixed-session", "negative-start", "end-before-start", "track-id-backwards",
             "overlap", "fractional-end", "exponent-start", "underscore", "padded-end",
             "arabic-digit"],
    )
    def test_fails_a_bulk_check(self, row):
        text = _labels_text([*LABEL_ROWS, row])
        assert _Rows.lines(text, LABEL_HEADER) is not None
        outcome = _parse_outcome(_labels, text)
        assert outcome.startswith("ParseError: labels row 5 column ")
        assert outcome == _parse_outcome(oracle_parse_labels, text, 30.0)

    def test_frame_past_float_range_before_a_fault(self):
        # the stream cannot be built from such a frame, so the row loop must run
        text = _labels_text(["s,a,0,1" + "0" * 400 + ",G", "s,a,5,9,G"])
        outcome = _parse_outcome(_labels, text)
        assert outcome == "ParseError: labels row 3 column 'start_frame': segments overlap in track 'a'"
        assert outcome == _parse_outcome(oracle_parse_labels, text, 30.0)

    @given(faulty_label_file())
    @settings(max_examples=300, deadline=None)
    def test_same_streams_or_same_error(self, text):
        assert _parse_outcome(_labels, text) == _parse_outcome(oracle_parse_labels, text, 30.0)

    @pytest.mark.parametrize("block_lines", [1, 2, 5])
    @given(text=faulty_label_file())
    @settings(max_examples=100, deadline=None)
    def test_small_blocks(self, block_lines, text):
        # a track, and a fault, may straddle the edge between two blocks
        with patch.object(core, "_BLOCK_LINES", block_lines):
            assert _parse_outcome(_labels, text) == _parse_outcome(oracle_parse_labels, text, 30.0)


class TestOneTrackOfLabels:
    """``track_id`` reads one track's stream; only its frames are checked."""

    @given(faulty_label_file(), st.sampled_from(["", "a", "t", "\x80"]))
    @settings(max_examples=200, deadline=None)
    def test_is_the_whole_files_stream_of_that_track(self, text, track_id):
        try:
            whole = oracle_parse_labels(text, 30.0)
        except ParseError:
            return
        assert _labels(text, track_id) == [s for s in whole if s.subject_id == track_id]

    @pytest.mark.parametrize("block_lines", [2, 4096])
    @given(text=faulty_label_file(), pick=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_same_on_both_paths(self, block_lines, text, pick):
        ids = sorted({line.split(",")[1] for line in text.splitlines()[1:] if line.count(",") > 1})
        track_id = ids[pick % len(ids)] if ids else "a"
        crlf = text.replace("\n", "\r\n")  # the same rows, read by the row loop
        with patch.object(core, "_BLOCK_LINES", block_lines):
            assert _parse_outcome(_labels, text, track_id) == _parse_outcome(
                _labels, crlf, track_id)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    @pytest.mark.parametrize("bad", ["s,b,x,9,G", "s,b,-1,9,G", "s,b,9,8,G", "s,b,6,9,G"])
    def test_frames_of_other_tracks_are_not_read(self, end, bad):
        text = _labels_text([*LABEL_ROWS, bad, "s,c,0,4,G"], end)
        assert _labels(text, "a") == [make_labels(0, 9, "G", 10, 19, "W", track_id="a")]
        assert _labels(text, "c") == [make_labels(0, 4, "G", track_id="c")]
        assert _labels(text, "z") == []
        with pytest.raises(ParseError, match="labels row 5 column "):
            _labels(text, "b")

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
    @pytest.mark.parametrize(
        "rows,message",
        [
            (["s,b,0,4,G", "s,a,0,4,G"], "row 3 column 'track_id': rows not sorted by track_id"),
            (["s,a,0,4,G", "t,b,0,4,G"], "row 3 column 'session_id': mixed sessions"),
            (["s,a,0,4,G", "s,b,0,4"], "row 3: expected 5 fields, got 4"),
        ],
        ids=["track-order", "session", "field-count"],
    )
    def test_structure_of_other_tracks_is_read(self, end, rows, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            _labels(_labels_text(rows, end), "a")

    def test_header_is_read(self):
        with pytest.raises(ParseError, match="unexpected header"):
            _labels("session_id,track_id,start,end,code\ns,a,0,4,G\n", "a")

    @pytest.mark.parametrize("block_lines", [1, 2, 5])
    @given(text=faulty_label_file(), pick=st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_small_blocks_give_the_row_loops_outcome(self, block_lines, text, pick):
        ids = sorted({line.split(",")[1] for line in text.splitlines()[1:] if line.count(",") > 1})
        track_id = [*ids, "absent"][pick % (len(ids) + 1)]
        crlf = text.replace("\n", "\r\n")  # the same rows, read by the row loop
        with patch.object(core, "_BLOCK_LINES", block_lines):
            assert _parse_outcome(_labels, text, track_id) == _parse_outcome(_labels, crlf, track_id)


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


# ids and codes that the csv module must quote
QUOTED_TEXT = st.text(st.sampled_from('ab,"\n '), min_size=1, max_size=4)
# coordinates as a track may hold them: any float, an integer, a NumPy float
COORDINATES = st.one_of(
    st.floats(), st.integers(-100, 100), st.floats(width=32).map(np.float64)
)


@st.composite
def observation_streams(draw):
    """0-5 streams over one pool of instants, as a session's streams share them."""
    pool = sorted(draw(st.sets(
        st.sampled_from([0.0, -0.0, EPOCH0, EPOCH0 + 0.5, EPOCH0 + 1e-6])
        | st.tuples(st.floats(-1e6, 4e9), st.integers(0, 7)).map(lambda p: round(*p)),
        min_size=2, max_size=10,
    )))
    streams = []
    for _ in range(draw(st.integers(0, 5))):
        method = draw(st.sampled_from(METHODS))
        times = sorted(draw(st.sets(st.sampled_from(pool), min_size=2)))
        code = st.sampled_from(["G", "W"]) | QUOTED_TEXT
        if method == "ground_scan" and draw(st.booleans()):
            intervals = [(t, t, draw(code)) for t in times]
        else:  # consecutive instants bound an interval, or leave a gap
            spans = zip(times, times[1:])
            intervals = [(a, b, draw(code)) for a, b in spans if draw(st.booleans())]
        observer = draw(st.sampled_from(["", "sim", 'o,"1"']))
        subject = draw(QUOTED_TEXT)
        streams.append(ObservationStream(subject, method, tuple(intervals), observer))
    return streams


class TestWritersMatchRowOracle:
    """The column writers give the text of the row-at-a-time ones they replaced."""

    @given(observation_streams(), st.sampled_from(["field", 'f,"x"']))
    @settings(max_examples=300, deadline=None)
    def test_ground_observations(self, streams, observer):
        want = oracle.dump_ground_observations(streams, observer)
        assert dump_ground_observations(streams, observer) == want

    @given(st.lists(
        st.tuples(QUOTED_TEXT, st.sets(st.integers(-3, 40), min_size=1, max_size=6),
                  st.data(), st.booleans()),
        max_size=4, unique_by=lambda t: t[0],
    ))
    @settings(max_examples=300, deadline=None)
    def test_tracks(self, specs):
        tracks = []
        for track_id, frames, data, excluded in specs:
            n = len(frames)
            x, y, w, h = (data.draw(st.lists(COORDINATES, min_size=n, max_size=n)) for _ in "xywh")
            tracks.append(Track(track_id, 'zebra, "plains"', sorted(frames), x, y, w, h, excluded))
        bad = [t for t in tracks if not all(map(math.isfinite, t.x + t.y + t.w + t.h))]
        if bad:  # parse_tracks would refuse what the oracle writes
            with pytest.raises(ValueError, match=f"track {re.escape(repr(bad[0].track_id))}: "):
                dump_tracks(tracks, 's,"1"')
            return
        assert dump_tracks(tracks, 's,"1"') == oracle.dump_tracks(tracks, 's,"1"')

    @pytest.mark.parametrize("column", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_tracks_refuse_a_non_finite_coordinate(self, tmp_path, column, value):
        boxes = {"x": [1.0, 2.0], "y": [1.0, 2.0], "w": [3.0, 3.0], "h": [4.0, 4.0]}
        boxes[column][1] = value
        tracks = [make_track("a"), Track("b", "giraffe", (0, 1), **boxes)]
        message = f"track 'b': {column} {value!r} is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_tracks(tracks, tmp_path / "tracks.csv", "s")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("frame", [1.0, True, 2.5])
    def test_tracks_refuse_a_frame_that_is_not_an_integer(self, frame):
        track = Track("b", "giraffe", (0, frame), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (2.0, 2.0))
        with pytest.raises(ValueError, match=rf"^track 'b': frame {re.escape(repr(frame))} is not"):
            dump_tracks([track], "s")

    def test_numpy_integer_frames_are_written(self):
        track = Track("b", "giraffe", (np.int64(0), np.int32(1)), (1.0, 1.0), (1.0, 1.0),
                      (2.0, 2.0), (2.0, 2.0))
        assert parse_tracks(dump_tracks([track], "s"))[0].frames == (0, 1)

    @pytest.mark.parametrize(
        "intervals, fps, message",
        [
            (((1.5, 3.25, "G"),), None, "frame 1.5 is not an integer"),
            (((0, 2, "G"), (2, 3.0, "W")), 30.0, "frame 3.0 is not an integer"),
            (((-2, 3, "G"),), 30.0, "frame -2 is negative"),
            (((0, 2, "G"), (2, 3, "")), 30.0, "empty behavior code"),
        ],
        ids=["seconds", "float-end", "negative", "empty-code"],
    )
    def test_labels_refuse_what_parse_labels_refuses(self, tmp_path, intervals, fps, message):
        streams = [
            make_labels(0, 4, "G", track_id="a"),
            ObservationStream("b", "labels", intervals, fps=fps),
        ]
        with pytest.raises(ValueError, match=rf"^track 'b': {re.escape(message)}$"):
            write_labels(streams, tmp_path / "labels.csv", "s")
        assert not any(tmp_path.iterdir())

    def test_integer_coordinates_print_as_floats(self):
        track = Track("a", "giraffe", (0,), (32,), (np.float64(1.5),), (-0.0,), (2,))
        assert dump_tracks([track], "s").splitlines()[1] == "s,a,giraffe,0,32.0,1.5,-0.0,2.0,0"

    @given(st.lists(
        st.tuples(QUOTED_TEXT, st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3),
                                                  st.sampled_from(["G", 'W,"x"'])),
                                        max_size=5)),
        max_size=4, unique_by=lambda t: t[0],
    ))
    @settings(max_examples=200, deadline=None)
    def test_labels(self, specs):
        streams = []
        for track_id, runs in specs:
            intervals, frame = [], 0
            for length, gap, code in runs:
                frame += gap
                intervals.append((frame, frame + length, code))
                frame += length
            streams.append(ObservationStream(track_id, "labels", tuple(intervals), fps=30.0))
        assert dump_labels(streams, "s") == oracle.dump_labels(streams, "s")


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

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"fps": ' * 5_000, "1" * 5_000])
    def test_unreadable_json_is_a_parse_error(self, text):
        # nesting past the recursion limit, and an integer past int()'s digit limit
        with pytest.raises(ParseError, match="^meta: invalid JSON"):
            parse_video_meta(text)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("width_px", 432.9, "meta: width_px must be a positive integer, got 432.9"),
        ("height_px", "324", "meta: height_px must be a positive integer, got '324'"),
        ("fps", True, "meta: fps must be positive and finite, got True"),
        ("width_px", 0, "meta: width_px must be a positive integer, got 0"),
        ("fps", 10**400, "meta: fps must be positive and finite, got 1000"),
        ("session_id", None, "meta: session_id must be a string, got None"),
        ("session_id", 7, "meta: session_id must be a string, got 7"),
        ("start_time", [1, 2], "meta: start_time must be a string, got [1, 2]"),
    ],
    ids=[
        "float-width", "string-height", "bool-fps", "zero-width", "huge-fps",
        "null-session-id", "number-session-id", "list-start-time",
    ],
)
def test_meta_numbers_are_not_coerced(meta, key, value, message):
    doc = json.loads(dump_video_meta(meta))
    doc[key] = value
    with pytest.raises(ParseError) as err:
        parse_video_meta(json.dumps(doc))
    assert str(err.value).startswith(message)


def test_meta_whole_float_frame_size_reads_as_int(meta):
    doc = json.loads(dump_video_meta(meta))
    doc["width_px"] = 1920.0
    got = parse_video_meta(json.dumps(doc))
    assert got == meta and type(got.width_px) is int


BIG = "x" * 200_000  # over the csv module's 131 072-character field limit


class TestOversizedField:
    """A field the csv module refuses is a ParseError naming the file and row."""

    @pytest.mark.parametrize(
        "parse,header,good,bad",
        [
            (parse_tracks, TRACK_HEADER, "s,a,giraffe,0,0,0,1,1,0", f"s,{BIG},giraffe,0,0,0,1,1,0"),
            (lambda text, name: parse_labels(text, 30.0, name), LABEL_HEADER, "s,a,0,1,G",
             f"s,{BIG},2,3,G"),
            (parse_ground_observations, OBS_HEADER, "o,a,ground_scan,2023-06-01T08:30:00Z,G",
             f"o,a,ground_scan,2023-06-01T08:30:01Z,{BIG}"),
        ],
        ids=["tracks", "labels", "observations"],
    )
    def test_in_a_row(self, parse, header, good, bad):
        text = "\n".join([",".join(header), good, bad]) + "\n"
        with pytest.raises(ParseError, match=r"^f row 3: field larger than field limit"):
            parse(text, "f")

    def test_in_the_header(self):
        with pytest.raises(ParseError, match=r"^f row 1: field larger than field limit"):
            parse_tracks(BIG + "\n", "f")


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
        assert tracks[0].frames == (0, 1, 3)
        assert tracks[0].boxes[0] == BoundingBox(0, 100.0, 200.0, 120.0, 80.0)
        # one stream per track; the outside frame is unlabeled time inside it
        assert [(s.subject_id, s.intervals) for s in labels] == [
            ("1", (ObsInterval(0, 2, "W"), ObsInterval(3, 4, "G"))),
            ("2", (ObsInterval(0, 1, "B"),)),
        ]
        assert {s.fps for s in labels} == {meta.fps}

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

    def test_frame_past_float_range_rejected(self, meta):
        # its interval's end, frame + 1, could not be a time in seconds
        with pytest.raises(ParseError) as err:
            import_cvat_video_xml(cvat_document([(0, "G"), (10**400, "W")]), meta)
        assert str(err.value) == (
            "box in track t1 has frame 100000000000... (401 digits), past the float range"
        )

    def test_negative_frame_rejected(self, meta):
        doc = (
            '<annotations><track id="1" label="Zebra"><box frame="-1" xtl="10" ytl="10" '
            'xbr="60" ybr="40" outside="0"/></track></annotations>'
        )
        with pytest.raises(ParseError, match="track 1 has negative frame -1"):
            import_cvat_video_xml(doc, meta)

    @pytest.mark.parametrize(
        "attr, value", [("xtl", "nan"), ("ytl", "-inf"), ("xbr", "inf"), ("ybr", "NaN")]
    )
    def test_non_finite_coordinate_rejected(self, meta, attr, value):
        box = {"frame": "3", "xtl": "10", "ytl": "10", "xbr": "60", "ybr": "40", "outside": "0"}
        box[attr] = value
        attrs = " ".join(f'{k}="{v}"' for k, v in box.items())
        doc = f'<annotations><track id="1" label="Zebra"><box {attrs}/></track></annotations>'
        with pytest.raises(ParseError, match="track 1 at frame 3 has a non-finite coordinate"):
            import_cvat_video_xml(doc, meta)

    @pytest.mark.parametrize("outside", ["0", "1"])
    def test_repeated_frame_rejected(self, meta, outside):
        doc = (
            '<annotations><track id="1" label="Zebra">'
            '<box frame="4" xtl="10" ytl="10" xbr="60" ybr="40" outside="0"/>'
            f'<box frame="4" xtl="12" ytl="10" xbr="62" ybr="40" outside="{outside}"/>'
            "</track></annotations>"
        )
        with pytest.raises(ParseError, match="track 1 repeats frame 4"):
            import_cvat_video_xml(doc, meta)

    def test_repeated_track_id_rejected(self, meta):
        track = (
            '<track id="1" label="Zebra">'
            '<box frame="0" xtl="10" ytl="10" xbr="60" ybr="40" outside="0"/></track>'
        )
        with pytest.raises(ParseError, match="track 1 appears twice"):
            import_cvat_video_xml(f"<annotations>{track}{track}</annotations>", meta)

    def test_track_without_visible_box_is_skipped(self, meta):
        box = '<box frame="0" xtl="10" ytl="10" xbr="60" ybr="40" outside="{}"/>'
        doc = (
            f'<annotations><track id="1" label="Zebra">{box.format(0)}</track>'
            f'<track id="2" label="Zebra">{box.format(1)}</track></annotations>'
        )
        with pytest.warns(CvatImportWarning, match="skipping track 2: no visible box"):
            tracks, labels = import_cvat_video_xml(doc, meta)
        assert [t.track_id for t in tracks] == ["1"]
        assert labels == []
        # every imported track has a row in tracks.csv, so the import round-trips
        assert parse_tracks(dump_tracks(tracks, "s")) == tracks

    def test_unknown_behavior_kept_with_warning(self, meta):
        doc = (
            '<annotations><track id="1" label="Zebra"><box frame="0" xtl="10" ytl="10" '
            'xbr="60" ybr="40" outside="0"><attribute name="behavior">Moonwalk</attribute>'
            "</box></track></annotations>"
        )
        with pytest.warns(CvatImportWarning, match="Moonwalk"):
            _, labels = import_cvat_video_xml(doc, meta)
        assert labels[0].intervals[0].code == "Moonwalk"

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
        assert len(tracks[0].frames) == 1

    def test_unspecified_zebra_species(self, meta):
        doc = (
            '<annotations><track id="7" label="Zebra"><box frame="0" xtl="10" ytl="10" '
            'xbr="60" ybr="40" outside="0"/></track></annotations>'
        )
        tracks, _ = import_cvat_video_xml(doc, meta)
        assert tracks[0].species == "zebra_unspecified"


class TestRunsAreSplitABlockAtATime:
    """Every reader splits a run of lines ``_BLOCK_LINES`` lines at a time,
    never the whole run at once, however long the run is."""

    @pytest.fixture
    def split_sizes(self):
        """The number of lines in each block ``Rows.blocks`` splits, at 3 lines a block."""
        sizes = []
        blocks = core.Rows.blocks

        def spy(lines, a, b, width):
            for block in blocks(lines, a, b, width):
                sizes.append(len(block[0]))
                yield block

        with patch.object(core, "_BLOCK_LINES", 3), \
                patch.object(core.Rows, "blocks", staticmethod(spy)):
            yield sizes

    def test_a_track(self, split_sizes):
        boxes = [(f, 1.0 + f, 2.0, 10.0, 8.0) for f in range(10)]
        track = track_from_boxes("a", "giraffe", boxes)
        assert parse_tracks(dump_tracks([track], "s")) == [track]
        assert split_sizes == [3, 3, 3, 1]

    @pytest.mark.parametrize("track_id", [None, "a"], ids=["whole-file", "one-track"])
    def test_a_label_track(self, split_sizes, track_id):
        ten = make_labels(*(x for f in range(0, 20, 2) for x in (f, f, "GW"[f % 4 // 2])),
                          track_id="a")
        other = make_labels(0, 4, "G", track_id="b")
        streams = parse_labels(dump_labels([ten, other], "s"), 30.0, track_id=track_id)
        assert streams == ([ten] if track_id else [ten, other])
        assert split_sizes == ([3, 3, 3, 1] if track_id else [3, 3, 3, 1, 1])

    def test_an_observation_stream(self, split_sizes):
        instants = tuple(ObsInterval(EPOCH0 + t, EPOCH0 + t, "GW"[t % 2]) for t in range(10))
        stream = ObservationStream("z1", "ground_scan", instants, "o")
        assert parse_ground_observations(dump_ground_observations([stream])) == [stream]
        assert split_sizes == [3, 3, 3, 1]


def test_read_ground_observations_rejects_non_utf8(tmp_path):
    # the other readers are covered through the CLI in test_cli.py
    header = (",".join(OBS_HEADER) + "\n").encode()
    path = tmp_path / "observations.csv"
    path.write_bytes(header + b"\xfb\n")
    with pytest.raises(ParseError, match=f"observations.csv: not UTF-8 at byte {len(header)}"):
        read_ground_observations(path)
