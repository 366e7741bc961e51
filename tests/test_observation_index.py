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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import METHODS, ObservationIndex, ParseError, parse_ground_observations
from ethokit.ingest import OBS_HEADER
from conftest import EPOCH0
from scalar_ingest import parse_ground_observations as oracle_parse

KEYS = [(o, s, m) for o in ("ann", "ben") for s in ("z1", "z2") for m in METHODS]
CODES = "GWR"
BAD_STAMPS = ("", "yesterday", "2023-13-01T00:00:00", "2023-06-01T25:00:00+00:00")
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
