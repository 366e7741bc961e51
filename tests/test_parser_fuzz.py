"""Parser fuzzing: arbitrary input gives a value or a ParseError, never another exception.

Each parser gets plain arbitrary text and text shaped like its format
(the right header, then rows or elements built from tokens near the
edges of what it accepts), so the draws reach past the header check.
``load_config`` gets arbitrary JSON documents, documents shaped like a
config, and text that no JSON reader can take. The ``regress`` table
reader also gets a field past the csv module's size limit.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ethokit import AnalysisParams, ParseError, VideoMeta, parse_ethogram
from ethokit.cli import RunConfig, _read_table, load_config
from ethokit.ingest import (
    LABEL_HEADER,
    OBS_HEADER,
    TRACK_HEADER,
    import_cvat_video_xml,
    parse_ground_observations,
    parse_labels,
    parse_tracks,
    parse_video_meta,
)
from conftest import T0

META = VideoMeta("s", 1920, 1080, T0, 30.0)
FUZZ = settings(max_examples=300, deadline=None)

TOKENS = st.one_of(
    st.sampled_from(
        [
            "", "s", "a", "b", "0", "1", "-1", "2", "10", "3.5", "1e3", "-0", "nan", "inf",
            "-inf", "1e400", "99999999999999999999", "true", "false", "G", "W", "OOS", "END",
            "both", "zebra", "ground_focal", "ground_scan", "ml_auto", "drone_focal",
            "2023-06-01T08:30:00Z", "2023-06-01T08:30:01+00:00", "2023-06-01T08:30:00",
            "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-23:59", '"', "\r", "\n", "\x00",
        ]
    ),
    st.text(max_size=6),
)


def csv_like(header: list[str]) -> st.SearchStrategy[str]:
    """The header, then rows of TOKENS, most with the header's field count."""
    n = len(header)
    row = st.one_of(st.lists(TOKENS, min_size=n, max_size=n), st.lists(TOKENS, max_size=n + 1))
    rows = st.lists(row.map(",".join), max_size=8)
    return rows.map(lambda body: "\n".join([",".join(header), *body]) + "\n")


def meta_like() -> st.SearchStrategy[str]:
    value = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), TOKENS, st.lists(st.integers())
    )
    keys = st.sampled_from(["session_id", "width_px", "height_px", "start_time", "fps", "x"])
    return st.dictionaries(keys, value).map(json.dumps)


def cvat_like() -> st.SearchStrategy[str]:
    attr_names = st.sampled_from(["frame", "xtl", "ytl", "xbr", "ybr", "outside", "id", "label"])
    attrs = st.dictionaries(attr_names, TOKENS, max_size=7)
    behavior = st.one_of(
        st.just(""), TOKENS.map(lambda t: f'<attribute name="behavior">{t}</attribute>')
    )

    def element(tag: str, attributes: dict[str, str], body: str = "") -> str:
        text = " ".join(f"{k}={quoteattr(v)}" for k, v in attributes.items())
        return f"<{tag} {text}>{body}</{tag}>"

    box = st.builds(
        lambda a, b: element("box", {"frame": "0", "outside": "0", **a}, b), attrs, behavior
    )
    track = st.builds(
        lambda a, boxes: element("track", a, "".join(boxes)), attrs, st.lists(box, max_size=5)
    )
    return st.lists(st.one_of(track, st.just("<image/>")), max_size=3).map(
        lambda parts: f"<annotations>{''.join(parts)}</annotations>"
    )


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), TOKENS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TOKENS, inner, max_size=4)),
    max_leaves=12,
)
# nesting past the recursion limit, and an integer past int()'s digit limit
UNREADABLE = st.sampled_from(["[" * 100_000, '{"params": ' * 5_000, "1" * 5_000])


def sometimes_any(shaped: st.SearchStrategy) -> st.SearchStrategy:
    """Mostly the shaped value, sometimes any JSON value in its place."""
    return st.one_of(shaped, shaped, shaped, shaped, JSON)


def section(keys) -> st.SearchStrategy:
    """An object over the section's own keys, each holding a number or any JSON value."""
    values = st.one_of(st.integers(-3, 500), st.floats(-10.0, 1e3), JSON)
    return sometimes_any(st.dictionaries(st.sampled_from(keys), values, max_size=3))


def config_like() -> st.SearchStrategy[str]:
    sections = {
        "ethogram": sometimes_any(st.one_of(st.none(), TOKENS)),
        "params": section([f.name for f in dataclasses.fields(AnalysisParams)]),
        "label_map": sometimes_any(st.dictionaries(TOKENS, TOKENS, max_size=2)),
        "crop": section(["out_w", "out_h"]),
        "clock_offset_s": sometimes_any(st.floats()),
        "composition": section(["giraffe", "grevys_zebra"]),
        "overlap_counts": section(["giraffe|giraffe", "giraffe|grevys_zebra", "giraffe"]),
        "simulation": section(["fps", "codes", "seed"]),
        "references": section(["habitat"]),
        "factors": sometimes_any(st.lists(TOKENS, max_size=3)),
        "interactions": sometimes_any(st.lists(st.lists(TOKENS, min_size=2, max_size=2))),
    }
    return st.fixed_dictionaries({}, optional=sections).map(json.dumps)


def value_or_parse_error(parse, text: str) -> None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parse(text)
    except ParseError:
        pass


@FUZZ
@given(st.one_of(st.text(), csv_like(TRACK_HEADER)))
def test_parse_tracks(text):
    value_or_parse_error(parse_tracks, text)


@FUZZ
@given(st.one_of(st.text(), csv_like(LABEL_HEADER)))
def test_parse_labels(text):
    value_or_parse_error(lambda t: parse_labels(t, 30.0), text)


@FUZZ
@given(st.one_of(st.text(), csv_like(OBS_HEADER)))
def test_parse_ground_observations(text):
    value_or_parse_error(parse_ground_observations, text)


@FUZZ
@given(st.one_of(st.text(), meta_like()))
def test_parse_video_meta(text):
    value_or_parse_error(parse_video_meta, text)


@FUZZ
@given(st.one_of(st.text(), csv_like(["code", "name", "species", "technical"])))
def test_parse_ethogram(text):
    value_or_parse_error(parse_ethogram, text)


@FUZZ
@given(st.one_of(st.text(), cvat_like()))
def test_import_cvat_video_xml(text):
    value_or_parse_error(lambda t: import_cvat_video_xml(t, META), text)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@FUZZ
@given(text=st.one_of(JSON.map(json.dumps), config_like(), UNREADABLE))
def test_load_config(config_path, text):
    config_path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_config(config_path), RunConfig)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("table") / "data.csv"


# a field past the csv module's 131 072-character limit, in row 2
OVERSIZED = st.integers(131_073, 140_000).map(lambda n: "a,b\n" + "x" * n + ",1\n")


@FUZZ
@given(text=st.one_of(st.text(), csv_like(["habitat", "herd", "y"]), OVERSIZED))
def test_read_table(table_path, text):
    table_path.write_text(text, encoding="utf-8")
    try:
        header, body = _read_table(table_path)
    except ParseError:
        return
    assert all(len(row) == len(header) for row in body)
