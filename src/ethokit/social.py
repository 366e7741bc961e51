"""Proximity-based social interaction detection between tracked animals.

An interaction is a sustained stretch of frames where two animals'
bounding boxes overlap by more than a threshold fraction. Counts are
normalized by the number of possible pairs per species combination so
groups of different sizes are comparable. NumPy is imported inside the
functions that use it, so only a command that detects interactions
loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .core import AnalysisParams, ObservationStream, Track, csv_text, streams_by_track

if TYPE_CHECKING:
    import numpy as np

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


def detect_interactions(
    tracks: Sequence[Track], params: AnalysisParams | None = None
) -> list[InteractionEvent]:
    """Find runs of >threshold overlap lasting >= min_overlap_frames.

    Both cutoffs come from params; the ratio threshold is strict, so a
    frame at exactly the threshold breaks a run. A frame's ratio is the
    intersection over the smaller box (min_area) or over the union
    (iou), capped at 1; a box with a NaN or infinite coordinate, or an
    intersection area no float can hold, overlaps nothing. Each track
    pair costs a few array operations over its shared frames, done in
    the order a per-frame loop does them, so results match that loop
    (``tests/scalar_social.py``) bit for bit. Duplicate track ids raise
    ValueError.
    """
    import numpy as np

    if params is None:
        params = AnalysisParams()
    active = sorted((t for t in tracks if not t.excluded and t.frames), key=lambda t: t.track_id)
    for ta, tb in zip(active, active[1:]):
        if ta.track_id == tb.track_id:
            raise ValueError(f"duplicate track id {ta.track_id!r}")
    events: list[InteractionEvent] = []
    # an area beyond float range makes a ratio NaN, which never passes
    # the threshold (such a pair overlaps nothing), so nothing to warn of
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [_BoxColumns.of(t) for t in active]
        for i, ta in enumerate(active):
            for j in range(i + 1, len(active)):
                tb = active[j]
                for start, end, mean in _overlap_runs(columns[i], columns[j], params):
                    events.append(
                        InteractionEvent(
                            ta.track_id, tb.track_id, ta.species, tb.species, start, end, mean
                        )
                    )
    events.sort(key=lambda e: (e.track_a, e.track_b, e.start_frame))
    return events


class _BoxColumns(NamedTuple):
    """One track's columns as arrays, right/bottom edges and areas precomputed."""

    frames: np.ndarray  # int64, strictly increasing
    x: np.ndarray
    y: np.ndarray
    right: np.ndarray  # x + w
    bottom: np.ndarray  # y + h
    area: np.ndarray  # w * h

    @classmethod
    def of(cls, track: Track) -> _BoxColumns:
        import numpy as np

        xywh = np.array((track.x, track.y, track.w, track.h), dtype=float)
        x, y, w, h = xywh
        # a box with a NaN or infinite coordinate overlaps nothing: a NaN
        # x makes every extent with it NaN
        x = np.where(np.isfinite(xywh).all(axis=0), x, np.nan)
        return cls(np.asarray(track.frames, dtype=np.int64), x, y, x + w, y + h, w * h)


def _overlap_runs(a: _BoxColumns, b: _BoxColumns, params: AnalysisParams):
    """(start_frame, end_frame, mean_ratio) of each qualifying run of one pair."""
    import numpy as np

    shared, ia, ib = np.intersect1d(a.frames, b.frames, assume_unique=True, return_indices=True)
    if shared.size < params.min_overlap_frames:
        return
    ix = np.minimum(a.right[ia], b.right[ib]) - np.maximum(a.x[ia], b.x[ib])
    iy = np.minimum(a.bottom[ia], b.bottom[ib]) - np.maximum(a.y[ia], b.y[ib])
    # frames without a positive intersection have ratio 0, never above
    # the threshold, so only the rest are divided
    hit = np.flatnonzero((ix > 0) & (iy > 0))
    inter = ix[hit] * iy[hit]
    if params.overlap_metric == "min_area":
        denom = np.minimum(a.area[ia[hit]], b.area[ib[hit]])
    else:
        denom = a.area[ia[hit]] + b.area[ib[hit]] - inter
    ratio = np.minimum(1.0, inter / denom)
    over = ratio > params.overlap_ratio_threshold
    frames = shared[hit][over]
    ratio = ratio[over]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(frames) != 1) + 1, [frames.size]))
    for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if e - s >= params.min_overlap_frames:
            # builtin sum, in frame order, as the per-frame loop adds them
            yield int(frames[s]), int(frames[e - 1]), sum(ratio[s:e].tolist()) / (e - s)


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
