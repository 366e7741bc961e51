"""Proximity-based social interaction detection between tracked animals.

An interaction is a sustained stretch of frames where two animals'
bounding boxes overlap by more than a threshold fraction. Counts are
normalized by the number of possible pairs per species combination so
groups of different sizes are comparable. Detection is plain Python: a
windowed sweep and prune (Cohen, Lin, Manocha & Ponamgi 1995, I-COLLIDE)
finds the pairs whose boxes may meet, and only those are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, compress
from operator import add, itemgetter, mul, sub
from typing import Mapping, NamedTuple, Sequence

from .core import AnalysisParams, ObservationStream, Track, csv_text, run_edges, streams_by_track

__all__ = [
    "InteractionEvent",
    "OverlapEntry",
    "OverlapMatrix",
    "detect_interactions",
    "tag_interactions",
    "overlap_summary",
    "dump_interaction_events",
    "dump_overlap_matrix",
]


@dataclass(frozen=True)
class InteractionEvent:
    """One sustained overlap run between a canonical track pair (a < b)."""

    track_a: str
    track_b: str
    species_a: str
    species_b: str
    start_frame: int
    end_frame: int  # inclusive
    mean_ratio: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.track_a >= self.track_b:
            raise ValueError(f"pair not in canonical order: {self.track_a!r} !< {self.track_b!r}")
        if self.end_frame < self.start_frame:
            raise ValueError("event ends before it starts")

    @property
    def frame_count(self) -> int:
        return self.end_frame - self.start_frame + 1

    @property
    def species_pair(self) -> tuple[str, str]:
        return tuple(sorted((self.species_a, self.species_b)))


# Frames per window of the broad phase: short windows bound each track's
# boxes tightly, long ones need fewer sweeps.
_WINDOW = 32


def detect_interactions(
    tracks: Sequence[Track], params: AnalysisParams | None = None
) -> list[InteractionEvent]:
    """Find runs of >threshold overlap lasting >= min_overlap_frames.

    Both cutoffs come from params; the ratio threshold is strict, so a
    frame at exactly the threshold breaks a run. A frame's ratio is the
    intersection over the smaller box (min_area) or over the union
    (iou), capped at 1; a box with a NaN or infinite coordinate, or an
    intersection area no float can hold, overlaps nothing.

    A broad phase bounds each track's finite boxes in each window of
    frames by one box and sweeps those sorted by left edge for pairs that
    meet. Only those pairs' shared frames in the window get a ratio, by
    the operations of a per-frame loop in its order, so results match
    that loop (``tests/scalar_social.py``) bit for bit. The work grows
    with boxes and overlapping pair-frames, not pairs times frames.
    Duplicate track ids raise ValueError.
    """
    if params is None:
        params = AnalysisParams()
    active = sorted((t for t in tracks if not t.excluded and t.frames), key=lambda t: t.track_id)
    for ta, tb in zip(active, active[1:]):
        if ta.track_id == tb.track_id:
            raise ValueError(f"duplicate track id {ta.track_id!r}")
    boxes = [_box_columns(t) for t in active]
    # window -> (left, right, top, bottom, track index, first box, end box) per track
    windows: dict[int, list[tuple]] = {}
    for i, (frames, x, y, right, bottom, _) in enumerate(boxes):
        edges = run_edges([f // _WINDOW for f in frames])
        for s, e in zip(edges, edges[1:]):
            bounds = (min(x[s:e]), max(right[s:e]), min(y[s:e]), max(bottom[s:e]))
            windows.setdefault(frames[s] // _WINDOW, []).append((*bounds, i, s, e))
    hits: dict[tuple[int, int], tuple[list[int], list[float]]] = {}
    for window in sorted(windows):
        swept: list[tuple] = []  # boxes whose right edge passes the sweep line
        for box in sorted(windows[window]):
            left, right, top, bottom = box[:4]
            swept = [other for other in swept if other[1] > left]
            for other in swept:
                if right > other[0] and other[3] > top and bottom > other[2]:
                    a, b = sorted((other, box), key=itemgetter(4))
                    hit = hits.setdefault((a[4], b[4]), ([], []))
                    _ratios(boxes[a[4]], a[5:], boxes[b[4]], b[5:], params, *hit)
            swept.append(box)
    events: list[InteractionEvent] = []
    for (i, j), (frames, ratios) in hits.items():
        pair = (active[i].track_id, active[j].track_id, active[i].species, active[j].species)
        edges = run_edges(list(map(sub, frames, range(len(frames)))))  # consecutive frames
        for s, e in zip(edges, edges[1:]):
            if e - s >= params.min_overlap_frames:
                mean = sum(ratios[s:e]) / (e - s)  # builtin sum in frame order, as the loop adds
                events.append(InteractionEvent(*pair, frames[s], frames[e - 1], mean))
    events.sort(key=lambda e: (e.track_a, e.track_b, e.start_frame))
    return events


def _box_columns(track: Track) -> tuple[tuple, ...]:
    """frames, x, y, right (x + w), bottom (y + h) and area (w * h) of the track's
    boxes with finite coordinates; a box with a NaN or infinity overlaps nothing."""
    columns = (track.frames, track.x, track.y, track.w, track.h)
    if not all(map(math.isfinite, chain(*columns[1:]))):
        keep = [all(map(math.isfinite, box)) for box in zip(*columns[1:])]
        columns = [tuple(compress(c, keep)) for c in columns]
    frames, x, y, w, h = columns
    return frames, x, y, tuple(map(add, x, w)), tuple(map(add, y, h)), tuple(map(mul, w, h))


def _ratios(a: tuple, span_a, b: tuple, span_b, params, frames, ratios) -> None:
    """Append to frames and ratios each frame that a holds in span_a and b in
    span_b (each a [start, end) range of _box_columns indices) and whose ratio
    passes the threshold, and that ratio."""
    cols_a = [column[slice(*span_a)] for column in a]
    cols_b = [column[slice(*span_b)] for column in b]
    if cols_a[0] != cols_b[0]:  # keep the frames both tracks hold
        shared = set(cols_a[0]).intersection(cols_b[0])
        for cols in (cols_a, cols_b):
            keep = list(map(shared.__contains__, cols[0]))
            cols[:] = [list(compress(column, keep)) for column in cols]
    threshold, iou = params.overlap_ratio_threshold, params.overlap_metric == "iou"
    for f, xa, ya, ra, ba, aa, xb, yb, rb, bb, ab in zip(*cols_a, *cols_b[1:]):
        # tests/scalar_social.py's overlap_ratio, operation for operation;
        # min(p, q) is (q if q < p else p) and max(p, q) is (q if q > p else p)
        ix = (rb if rb < ra else ra) - (xb if xb > xa else xa)
        if ix > 0:
            iy = (bb if bb < ba else ba) - (yb if yb > ya else ya)
            inter = ix * iy
            if iy > 0 and 0 < inter < math.inf:
                denom = (aa + ab - inter) if iou else min(aa, ab)
                ratio = min(1.0, inter / denom) if denom else 1.0  # an area may underflow
                if ratio > threshold:
                    frames.append(f)
                    ratios.append(ratio)


def tag_interactions(
    events: Sequence[InteractionEvent], labels: Sequence[ObservationStream]
) -> list[InteractionEvent]:
    """Attach to each event the modal concurrent code pair, as "A|B".

    labels are frame streams, at most one per track (ValueError
    otherwise). Frames where either animal lacks a label are skipped;
    events with no jointly labeled frame keep an empty tag.
    """
    by_track = streams_by_track(labels)
    tagged = []
    for event in events:
        a, b = by_track.get(event.track_a), by_track.get(event.track_b)
        tally: dict[tuple[str, str], int] = {}
        if a is not None and b is not None:
            for frame in range(event.start_frame, event.end_frame + 1):
                ca, cb = a.code_at(frame), b.code_at(frame)
                if ca is not None and cb is not None:
                    tally[(ca, cb)] = tally.get((ca, cb), 0) + 1
        if tally:
            best = max(tally.values())
            pair = sorted(p for p, n in tally.items() if n == best)[0]
            tag = f"{pair[0]}|{pair[1]}"
        else:
            tag = ""
        tagged.append(replace(event, tag=tag))
    return tagged


class OverlapEntry(NamedTuple):
    """One species-pair row of the normalized overlap summary."""

    species_a: str
    species_b: str
    overlap_count: int
    possible_pairs: int

    @property
    def normalized(self) -> float:
        return self.overlap_count / self.possible_pairs if self.possible_pairs else 0.0


@dataclass(frozen=True)
class OverlapMatrix:
    """Per species-pair overlap totals, normalized per possible pair."""

    entries: tuple[OverlapEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def entry(self, species_a: str, species_b: str) -> OverlapEntry:
        key = tuple(sorted((species_a, species_b)))
        for item in self.entries:
            if (item.species_a, item.species_b) == key:
                return item
        raise KeyError(key)

    @classmethod
    def from_counts(
        cls, composition: Mapping[str, int], counts: Mapping[tuple[str, str], int]
    ) -> OverlapMatrix:
        """Build a summary from already-tallied per-pair frame counts."""
        for pair in counts:
            for species in pair:
                if species not in composition:
                    raise ValueError(f"species {species!r} missing from composition")
        entries = []
        for sa, sb, possible in _possible_pairs(composition):
            entries.append(OverlapEntry(sa, sb, int(counts.get((sa, sb), 0)), possible))
        return cls(tuple(entries))


def _possible_pairs(composition: Mapping[str, int]):
    """(species_a, species_b, possible) over all unordered combinations."""
    names = sorted(composition)
    for i, sa in enumerate(names):
        na = composition[sa]
        yield sa, sa, na * (na - 1) // 2
        for sb in names[i + 1 :]:
            yield sa, sb, na * composition[sb]


def overlap_summary(
    events: Sequence[InteractionEvent], composition: Mapping[str, int]
) -> OverlapMatrix:
    """Total qualifying frames per species pair, per possible pair.

    Same-species pairs number n(n-1)/2 and cross-species pairs n1*n2;
    pairs with no events report zero.
    """
    counts: dict[tuple[str, str], int] = {}
    for event in events:
        for species in event.species_pair:
            if species not in composition:
                raise ValueError(f"species {species!r} missing from composition")
        key = event.species_pair
        counts[key] = counts.get(key, 0) + event.frame_count
    return OverlapMatrix.from_counts(composition, counts)


def dump_interaction_events(events: Sequence[InteractionEvent]) -> str:
    return csv_text(
        ["a", "b", "start_frame", "end_frame", "frames", "mean_ratio", "tag"],
        (
            [e.track_a, e.track_b, e.start_frame, e.end_frame, e.frame_count, e.mean_ratio, e.tag]
            for e in events
        ),
    )


def dump_overlap_matrix(matrix: OverlapMatrix) -> str:
    return csv_text(
        ["species_a", "species_b", "overlap_count", "possible_pairs", "normalized"],
        (
            [e.species_a, e.species_b, e.overlap_count, e.possible_pairs, f"{e.normalized:.2f}"]
            for e in matrix.entries
        ),
    )
