"""Streams are read as columns in the package.

An ``ObservationStream`` holds its intervals as its ``starts``, ``ends``
and ``codes`` fields, and its ``intervals`` property builds them as
``ObsInterval`` rows for callers outside the package. The syntax tree of
every module in ``src/ethokit`` is searched for reads of ``.intervals``
and uses of the name ``ObsInterval``: the only site is the view itself,
so a module that went back to rows fails here.
"""

from __future__ import annotations

from test_readers import sites


def test_only_the_view_builds_interval_rows():
    found = sites(name="ObsInterval", attr="intervals")
    # the view's return annotation, then its body
    assert found == ["core.ObservationStream.intervals"] * 2
