"""Reference oracle: the t quantile through ``scipy.stats``.

``ethokit.stats`` evaluates the t and F tails itself, as the regularized
incomplete beta, and solves for the t quantile on that tail; it needs no
scipy. This goes through scipy's public distribution object, an
independent implementation, and the tests hold the confidence bounds of
``ethokit.stats.ols_fit`` to a relative 1e-10 against it, not to the bit.
"""

from __future__ import annotations

import scipy.stats


def t_ppf(q: float, df: float) -> float:
    return float(scipy.stats.t.ppf(q, df))
