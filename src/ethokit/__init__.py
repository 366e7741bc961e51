"""Behavioral analytics for tracked animal video and field observations.

The pipeline runs: ingest (canonical CSV/JSON/XML readers) -> mini-scene
extraction -> timeline harmonization across observation methods ->
metrics (time budgets, transition matrices, agreement) -> social
interaction detection -> regression, with a deterministic herd
simulator providing ground truth for end-to-end verification.

Each module lists its public names in its own ``__all__``. Importing the
package imports none of them: a name such as ``ethokit.read_tracks`` is
resolved on first use from the module whose ``__all__`` lists it (PEP
562), and ``ethokit.__all__`` is every module's names, so
``from ethokit import *`` binds the public names and no submodule.
"""

__version__ = "0.1.0"

# searched in this order for a public name
_SUBMODULES = (
    "core",
    "ethogram",
    "ingest",
    "metrics",
    "miniscene",
    "social",
    "stats",
    "simulator",
    "svgplot",
    "timeline",
)


def _submodule(name: str):
    from importlib import import_module

    return import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)  # importing it binds it here
    if name == "__all__":
        value = sorted(n for module in _SUBMODULES for n in _submodule(module).__all__)
    else:
        # no dunder is a public name; tools probe for them
        owners = () if name.startswith("__") else map(_submodule, _SUBMODULES)
        module = next((m for m in owners if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value
