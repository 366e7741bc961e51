"""Shared fixtures: a reference session and small stream builders."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from ethokit import (
    LABELS,
    ObservationStream,
    ObsInterval,
    Track,
    VideoMeta,
    default_ethogram,
)

T0 = datetime(2023, 6, 1, 8, 30, 0, tzinfo=timezone.utc)
EPOCH0 = T0.timestamp()


@pytest.fixture
def meta() -> VideoMeta:
    return VideoMeta("sess01", 1920, 1080, T0, fps=30.0)


@pytest.fixture
def ethogram():
    return default_ethogram()


def make_track(
    track_id: str = "t1",
    species: str = "grevys_zebra",
    frames=range(0, 100),
    x: float = 500.0,
    y: float = 400.0,
    w: float = 60.0,
    h: float = 40.0,
    excluded: bool = False,
) -> Track:
    return track_from_boxes(track_id, species, [(f, x, y, w, h) for f in frames], excluded)


def track_from_boxes(track_id: str, species: str, boxes, excluded: bool = False) -> Track:
    """A track built from its boxes given as (frame, x, y, w, h) rows."""
    columns = tuple(zip(*boxes)) or ((),) * 5
    return Track(track_id, species, *columns, excluded=excluded)


def make_labels(*triples, track_id: str = "t1", fps: float = 30.0) -> ObservationStream:
    """A frame stream; triples are flat (start_frame, end_frame, code) groups, ends inclusive."""
    groups = [triples[i : i + 3] for i in range(0, len(triples), 3)]
    intervals = tuple(ObsInterval(s, e + 1, code) for s, e, code in groups)
    return ObservationStream(track_id, LABELS, intervals, fps=fps)


def cvat_document(labels, track_id: str = "t1") -> str:
    """CVAT video XML with one track, a visible box per (frame, code) labeled with code."""
    boxes = "".join(
        f'<box frame="{frame}" xtl="10" ytl="10" xbr="60" ybr="40" outside="0">'
        f'<attribute name="behavior">{code}</attribute></box>'
        for frame, code in labels
    )
    return f'<annotations><track id="{track_id}" label="Zebra">{boxes}</track></annotations>'


def obs(subject: str, method: str, *triples, observer: str = "obs1") -> ObservationStream:
    """triples are (start_offset_s, end_offset_s, code) relative to T0."""
    intervals = tuple(ObsInterval(EPOCH0 + s, EPOCH0 + e, code) for s, e, code in triples)
    return ObservationStream(subject, method, intervals, observer)
