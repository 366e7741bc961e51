"""Reference oracle: distribution tails through ``scipy.stats``.

``ethokit.stats`` evaluates the t and F tails with the ``scipy.special``
functions that ``scipy.stats.t`` and ``scipy.stats.f`` call underneath,
so a fit never pays for importing ``scipy.stats``. These helpers are
the old path, through the public distribution objects with their
argument checks and support bounds; the differential tests require the
two to agree bit for bit.
"""

from __future__ import annotations

import scipy.stats


def t_sf(t: float, df: float) -> float:
    return float(scipy.stats.t.sf(t, df))


def t_ppf(q: float, df: float) -> float:
    return float(scipy.stats.t.ppf(q, df))


def f_sf(f: float, df1: float, df2: float) -> float:
    return float(scipy.stats.f.sf(f, df1, df2))


def two_sided_p(t: float, df: float) -> float:
    """2 P(T > |t|), as ``ethokit.stats.two_sided_p`` computed it before."""
    return 2.0 * t_sf(abs(t), df)
