"""Behavioral analytics for tracked animal video and field observations.

The pipeline runs: ingest (canonical CSV/JSON/XML readers) -> mini-scene
extraction -> timeline harmonization across observation methods ->
metrics (time budgets, transition matrices, agreement) -> social
interaction detection -> regression, with a deterministic herd
simulator providing ground truth for end-to-end verification.

Each module lists its public names in its own ``__all__``; the package
re-exports every one of them, and its own ``__all__`` is those names
alone, so ``from ethokit import *`` binds no submodule.
"""

from .core import *
from .ethogram import *
from .ingest import *
from .metrics import *
from .miniscene import *
from .social import *
from .stats import *
from .simulator import *
from .svgplot import *
from .timeline import *

__version__ = "0.1.0"

# importing the submodules binds each here as well; they are not exported
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, type(core))
]
