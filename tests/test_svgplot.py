"""SVG emitters: valid XML, faithful segment counts, determinism."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as saxutils_escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ethokit import (
    CountMatrix,
    gantt_svg,
    heatmap_svg,
    transition_heatmap_svg,
)
from ethokit.svgplot import _escape
from conftest import make_labels, obs
from scalar_runs import coalesce

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_root(text: str) -> ET.Element:
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    return ET.fromstring(text)


def lane_rects(root: ET.Element) -> list[ET.Element]:
    # only segment bars carry a tooltip; background and legend do not
    return [r for r in root.iter(f"{SVG_NS}rect") if r.find(f"{SVG_NS}title") is not None]


class TestGantt:
    def test_valid_xml(self):
        stream = obs("z1", "ground_focal", (0, 30, "G"), (30, 45, "W"))
        root = svg_root(gantt_svg([("ground", stream)]))
        assert root.tag == f"{SVG_NS}svg"

    def test_rect_count_matches_segments(self):
        stream = obs("z1", "ground_focal", (0, 30, "G"), (30, 45, "W"), (45, 60, "G"))
        text = gantt_svg([("ground", stream)])
        root = svg_root(text)
        assert len(lane_rects(root)) == len(coalesce(stream.intervals))

    def test_multiple_lanes(self):
        a = make_labels(0, 89, "G")
        b = obs("z1", "drone_focal", (0, 3, "W"))
        root = svg_root(gantt_svg([("labels", a), ("drone", b)]))
        assert len(lane_rects(root)) == 2

    def test_adjacent_equal_codes_merge_into_one_rect(self):
        stream = make_labels(0, 4, "G", 5, 9, "G", 10, 14, "W", 15, 24, "G")
        root = svg_root(gantt_svg([("t1", stream)]))
        assert len(lane_rects(root)) == 3

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            gantt_svg([])

    def test_deterministic(self):
        stream = obs("z1", "ground_focal", (0, 30, "G"), (30, 45, "W"))
        rows = [("ground", stream)]
        assert gantt_svg(rows) == gantt_svg(rows)

    def test_label_escaped(self):
        stream = obs("z1", "ground_focal", (0, 30, "G"))
        text = gantt_svg([("a<b>&c", stream)])
        svg_root(text)  # parse would fail on raw angle brackets
        assert "a&lt;b&gt;&amp;c" in text


class TestHeatmap:
    def test_valid_xml_and_cell_count(self):
        text = heatmap_svg(["G", "W"], ["G", "W"], [[0.9, 0.1], [0.5, 0.5]])
        root = svg_root(text)
        rects = list(root.iter(f"{SVG_NS}rect"))
        assert len(rects) == 1 + 4  # background + one per cell

    def test_values_printed_two_decimals(self):
        text = heatmap_svg(["G"], ["G"], [[1 / 3]])
        assert ">0.33<" in text

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            heatmap_svg(["G", "W"], ["G"], [[0.5]])

    def test_transition_wrapper(self):
        tm = CountMatrix(("G", "W"), ((9, 1), (2, 2)))
        text = transition_heatmap_svg(tm, title="transitions")
        svg_root(text)
        assert ">0.90<" in text

    def test_confusion_wrapper(self):
        cm = CountMatrix(("G", "W"), ((8, 2), (0, 10)))
        text = heatmap_svg(cm.codes, cm.codes, cm.probabilities)
        svg_root(text)
        assert ">0.80<" in text and ">1.00<" in text

    def test_deterministic(self):
        args = (["G", "W"], ["G", "W"], [[0.9, 0.1], [0.5, 0.5]])
        assert heatmap_svg(*args) == heatmap_svg(*args)


@given(st.text(alphabet=st.sampled_from("&<>\"' aZ;#\n") | st.characters()))
def test_escape_matches_saxutils(text):
    assert _escape(text) == saxutils_escape(text)
