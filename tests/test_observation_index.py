"""The indexed observations.csv parser against the single-pass oracle.

``ObservationIndex`` checks the file's structure in one pass and each
stream when it is built. On any file whose faults lie inside one stream
(or in its structure), ``parse_ground_observations`` must give the
oracle's streams, or raise the oracle's ParseError text; every other
stream must still build.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import METHODS, ObservationIndex, ParseError, parse_ground_observations
from ethokit import core, ingest
from ethokit.ingest import OBS_HEADER
from conftest import EPOCH0
from scalar_ingest import parse_ground_observations as oracle_parse

KEYS = [(o, s, m) for o in ("ann", "ben") for s in ("z1", "z2") for m in METHODS]
CODES = "GWR"
BAD_STAMPS = ("", "yesterday", "2023-13-01T00:00:00", "2023-06-01T25:00:00+00:00")
EPOCH0_8 = datetime(2023, 6, 1, 8, tzinfo=timezone.utc).timestamp()
ZONES = (timezone.utc, timezone(timedelta(hours=3)), timezone(timedelta(hours=-7, minutes=-30)))


@st.composite
def stamps(draw, offset: float) -> str:
    """offset seconds after EPOCH0, written in one of the accepted forms."""
    zone = draw(st.sampled_from(ZONES + (None, "Z")))
    utc = datetime.fromtimestamp(EPOCH0 + offset, timezone.utc)
    if zone is None:  # naive: read as UTC
        return utc.replace(tzinfo=None).isoformat()
    if zone == "Z":
        return utc.isoformat()[:-6] + "Z"
    return datetime.fromtimestamp(EPOCH0 + offset, zone).isoformat()


@st.composite
def stream_rows(draw, key) -> list[list[str]]:
    """The rows of one valid stream: scan instants, or END-closed runs of intervals."""
    observer, subject, method = key
    rows = []
    t = draw(st.integers(0, 40)) / 4
    if method == "ground_scan" and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 6))):
            rows.append([observer, subject, method, draw(stamps(t)), draw(st.sampled_from(CODES))])
            t += draw(st.integers(0, 40)) / 4
        return rows
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 4))):
            rows.append([observer, subject, method, draw(stamps(t)), draw(st.sampled_from(CODES))])
            t += draw(st.integers(1, 40)) / 4
        rows.append([observer, subject, method, draw(stamps(t)), "END"])
        t += draw(st.integers(0, 40)) / 4  # 0: the next run touches this one
    return rows


def _with_end(rows: list[list[str]]) -> bool:
    return any(r[4] == "END" for r in rows)


@st.composite
def faulty_file(draw):
    """(text, faulty key or None, fault) for a file with at most one faulty stream.

    A fault of the file's structure (header, field count) has no key.
    """
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True))
    streams = {key: draw(stream_rows(key)) for key in keys}
    fault = draw(st.sampled_from(
        ["none", "timestamp", "method", "code", "decrease", "end", "zero", "unterminated",
         "fields", "header"]
    ))
    key = draw(st.sampled_from(keys))
    rows = streams[key]
    i = draw(st.integers(0, len(rows) - 1))
    closed = _with_end(rows)
    if fault == "timestamp":
        rows[i][3] = draw(st.sampled_from(BAD_STAMPS))
    elif fault == "method":
        for row in rows:
            row[2] = "telepathy"
        del streams[key]
        key = (key[0], key[1], "telepathy")
        streams[key] = rows
    elif fault == "code":
        rows[i][4] = ""
    elif fault == "decrease" and len(rows) > 1:
        i = min(i, len(rows) - 2)
        rows[i][3], rows[i + 1][3] = rows[i + 1][3], rows[i][3]
    elif fault == "end" and closed:
        j = max(j for j, r in enumerate(rows) if r[4] == "END")
        rows.insert(j + 1, list(rows[j]))
    elif fault == "zero" and closed and rows[i][4] != "END":
        rows.insert(i + 1, rows[i][:4] + ["Z" + rows[i][4]])
    elif fault == "unterminated" and closed:
        rows.pop()
    elif fault == "fields":
        rows[i].append("extra")
        key = None
    elif fault != "header":
        fault = "none"
    if fault in ("none", "header"):
        key = None
    # interleave the streams in file order, each keeping its own order
    order = draw(st.permutations([k for k in streams for _ in streams[k]]))
    queues = {k: iter(r) for k, r in streams.items()}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(OBS_HEADER if fault != "header" else OBS_HEADER[::-1])
    writer.writerows(next(queues[k]) for k in order)
    return out.getvalue(), key, fault


def _outcome(parse, text):
    try:
        return parse(text, name="observations.csv")
    except ParseError as exc:
        return f"ParseError: {exc}"


@given(faulty_file())
@settings(max_examples=300, deadline=None)
def test_same_streams_or_error_text_as_the_oracle(case):
    text, _, _ = case
    assert _outcome(parse_ground_observations, text) == _outcome(oracle_parse, text)


@given(faulty_file())
@settings(max_examples=200, deadline=None)
def test_every_other_stream_builds_as_in_the_oracle(case):
    _check_every_other_stream(case)


def _check_every_other_stream(case):
    text, faulty, fault = case
    if fault in ("fields", "header"):
        with pytest.raises(ParseError):
            ObservationIndex(text, "observations.csv")
        return
    index = ObservationIndex(text, "observations.csv")
    for key in index.keys():
        if key == faulty:
            continue
        observer, subject, method = key
        prefix = f"{observer},{subject},{method},"
        rows = [line for line in text.splitlines()[1:] if line.startswith(prefix)]
        alone = oracle_parse("\n".join([",".join(OBS_HEADER), *rows]) + "\n")
        assert [index.build(key)] == alone
        if faulty is None or faulty[1:] != key[1:]:
            assert index.build(key) in index.streams(subject, method)


@pytest.mark.parametrize("block_lines", [1, 2, 5])
@given(case=faulty_file())
@settings(max_examples=100, deadline=None)
def test_small_blocks_give_the_oracles_outcome(block_lines, case):
    # a stream's rows, and a fault, may straddle the edge between two blocks
    text, _, _ = case
    with patch.object(core, "_BLOCK_LINES", block_lines):
        assert _outcome(parse_ground_observations, text) == _outcome(oracle_parse, text)


@pytest.mark.parametrize("block_lines", [1, 2, 5])
@given(case=faulty_file())
@settings(max_examples=50, deadline=None)
def test_every_other_stream_builds_in_small_blocks(block_lines, case):
    with patch.object(core, "_BLOCK_LINES", block_lines):
        _check_every_other_stream(case)


INTERLEAVED = (
    "observer_id,subject_id,method,timestamp_iso8601,code\n"
    "o,z1,ground_focal,2023-06-01T08:00:00+00:00,G\n"
    "o,z2,ground_scan,2023-06-01T08:00:00+00:00,W\n"
    "o,z1,ground_focal,2023-06-01T08:01:00+00:00,W\n"
    "o,z2,ground_scan,2023-06-01T08:02:00+00:00,R\n"
    "o,z2,ground_scan,2023-06-01T08:02:00+00:00,G\n"
    "o,z1,ground_focal,2023-06-01T08:03:00+00:00,END\n"
    "o,z2,ground_scan,2023-06-01T08:04:00+00:00,W\n"
)


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["columns", "rows"])
@pytest.mark.parametrize("block_lines", [1, 3, 4096])
def test_interleaved_streams(end, block_lines):
    text = INTERLEAVED.replace("\n", end)
    with patch.object(core, "_BLOCK_LINES", block_lines):
        index = ObservationIndex(text, "observations.csv")
        assert index.keys() == [("o", "z1", "ground_focal"), ("o", "z2", "ground_scan")]
        assert index.streams() == oracle_parse(text)
        focal, scan = index.streams()
        assert [iv.code for iv in focal.intervals] == ["G", "W"]
        assert [iv.code for iv in scan.intervals] == ["W", "R", "G", "W"]
        # a fault names its own row, wherever its stream's rows lie
        bad = text.replace("08:03:00+00:00,END", "08:01:00+00:00,END")
        with pytest.raises(ParseError) as err:
            ObservationIndex(bad, "observations.csv").streams("z1")
        assert str(err.value) == "observations.csv row 7: zero-length interval"


def test_streams_filter_by_subject_and_method():
    text = (
        "observer_id,subject_id,method,timestamp_iso8601,code\n"
        "ben,z1,ground_focal,2023-06-01T08:00:00+00:00,G\n"
        "ben,z1,ground_focal,2023-06-01T08:01:00+00:00,END\n"
        "ann,z1,ground_focal,2023-06-01T08:00:00+00:00,W\n"
        "ann,z1,ground_focal,2023-06-01T08:02:00+00:00,END\n"
        "ann,z2,ground_focal,2023-06-01T08:00:00+00:00,R\n"
        "ann,z2,ground_focal,2023-06-01T08:03:00+00:00,END\n"
        "ann,z1,ground_scan,2023-06-01T08:00:00+00:00,G\n"
    )
    index = ObservationIndex(text)
    assert index.keys() == [
        ("ann", "z1", "ground_focal"), ("ann", "z1", "ground_scan"),
        ("ann", "z2", "ground_focal"), ("ben", "z1", "ground_focal"),
    ]
    z1 = index.streams("z1", "ground_focal")
    assert [(s.observer_id, s.intervals[0].code) for s in z1] == [("ann", "W"), ("ben", "G")]
    assert index.streams("z3", "ground_focal") == []
    assert index.streams() == parse_ground_observations(text)


def test_fault_in_one_stream_fails_only_that_stream():
    text = (
        "observer_id,subject_id,method,timestamp_iso8601,code\n"
        "o,z1,ground_focal,2023-06-01T08:00:00+00:00,G\n"
        "o,z2,ground_focal,not-a-time,G\n"
        "o,z1,ground_focal,2023-06-01T08:01:00+00:00,END\n"
    )
    index = ObservationIndex(text, "observations.csv")
    assert len(index.streams("z1", "ground_focal")) == 1
    with pytest.raises(ParseError) as err:
        index.streams("z2", "ground_focal")
    assert str(err.value) == (
        "observations.csv row 3 column 'timestamp_iso8601': bad timestamp 'not-a-time'"
    )


def test_full_parse_reports_the_first_faulty_stream_in_key_order():
    # z2's fault comes first in the file, z1's first in key order
    text = (
        "observer_id,subject_id,method,timestamp_iso8601,code\n"
        "o,z2,ground_focal,not-a-time,G\n"
        "o,z1,ground_focal,2023-06-01T08:00:00+00:00,G\n"
    )
    with pytest.raises(ParseError, match="bad timestamp"):
        oracle_parse(text)
    with pytest.raises(ParseError, match=r"\('o', 'z1', 'ground_focal'\) not terminated"):
        parse_ground_observations(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("observer_id,subject_id,method,timestamp_iso8601\n", "unexpected header"),
        ("observer_id,subject_id,method,timestamp_iso8601,code\n"
         "o,z2,ground_focal,2023-06-01T08:00:00+00:00,G,extra\n", "row 2: expected 5 fields"),
    ],
)
def test_structure_is_checked_on_every_row_when_indexing(text, message):
    with pytest.raises(ParseError, match=message):
        ObservationIndex(text)


def test_each_distinct_stamp_is_parsed_once(monkeypatch):
    # six rows in three streams share two stamp texts; a third is written
    # another way (Z) and so parsed on its own
    text = (
        "observer_id,subject_id,method,timestamp_iso8601,code\n"
        "o,z1,ground_focal,2023-06-01T08:00:00+00:00,G\n"
        "o,z2,ground_focal,2023-06-01T08:00:00+00:00,W\n"
        "o,z1,ground_focal,2023-06-01T08:01:00+00:00,END\n"
        "o,z2,ground_focal,2023-06-01T08:01:00+00:00,END\n"
        "o,z1,ground_scan,2023-06-01T08:00:00+00:00,G\n"
        "o,z2,ground_scan,2023-06-01T08:00:00Z,G\n"
    )
    parsed = []
    parse_iso = ingest._parse_iso
    monkeypatch.setattr(ingest, "_parse_iso", lambda s: parsed.append(s) or parse_iso(s))
    index = ObservationIndex(text)
    streams = index.streams()
    assert sorted(parsed) == [
        "2023-06-01T08:00:00+00:00", "2023-06-01T08:00:00Z", "2023-06-01T08:01:00+00:00",
    ]
    monkeypatch.setattr(ingest, "_parse_iso", parse_iso)
    assert streams == oracle_parse(text)


def test_a_bad_stamp_fails_at_its_own_row_in_every_stream():
    text = (
        "observer_id,subject_id,method,timestamp_iso8601,code\n"
        "o,z1,ground_scan,2023-06-01T08:00:00+00:00,G\n"
        "o,z1,ground_scan,not-a-time,G\n"
        "o,z2,ground_scan,2023-06-01T08:00:00+00:00,W\n"
        "o,z2,ground_scan,not-a-time,W\n"
    )
    index = ObservationIndex(text, "observations.csv")
    for _ in range(2):  # a failure is not remembered as a time
        for subject, row in (("z1", 3), ("z2", 5), ("z1", 3)):
            with pytest.raises(ParseError) as err:
                index.streams(subject)
            assert str(err.value) == (
                f"observations.csv row {row} column 'timestamp_iso8601': "
                "bad timestamp 'not-a-time'"
            )


# keys that a format string, a regex or a strip would mangle, and an empty observer
ODD_KEYS = [
    (o, s, m) for o in ("", "{o}", "a b") for s in ("z1", "{}", " z ")
    for m in ("ground_focal", "ground_scan")
]


@st.composite
def odd_key_file(draw) -> str:
    """A valid file of streams with ODD_KEYS, their rows interleaved in any order."""
    keys = draw(st.lists(st.sampled_from(ODD_KEYS), min_size=1, max_size=4, unique=True))
    streams = {key: draw(stream_rows(key)) for key in keys}
    order = draw(st.permutations([k for k in streams for _ in streams[k]]))
    queues = {k: iter(r) for k, r in streams.items()}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(OBS_HEADER)
    writer.writerows(next(queues[k]) for k in order)
    return out.getvalue()


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lines", "rows"])
@given(text=odd_key_file(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_odd_keys_build_in_any_order(end, text, rnd):
    text = text.replace("\n", end)
    index = ObservationIndex(text, "observations.csv")
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    assert index.keys() == sorted({tuple(row[:3]) for row in rows})
    built = {key: index.build(key) for key in rnd.sample(index.keys(), len(index.keys()))}
    assert [built[key] for key in index.keys()] == oracle_parse(text)


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lines", "rows"])
@pytest.mark.parametrize("observer", ["", "o"])
def test_one_row_file(end, observer):
    text = f"{','.join(OBS_HEADER)}\n{observer},z1,ground_scan,2023-06-01T08:00:00+00:00,G\n"
    index = ObservationIndex(text.replace("\n", end))
    assert index.keys() == [(observer, "z1", "ground_scan")]
    (stream,) = index.streams()
    assert (stream.observer_id, stream.intervals) == (observer, ((EPOCH0_8, EPOCH0_8, "G"),))
