"""Behavior vocabulary: class catalog, technical codes, label resolution.

The default ethogram ships as a versioned CSV data file
(``data/ethogram_v1.csv``, schema ``code,name,species,technical``) with
18 behavioral classes for zebras and giraffes plus the four technical
visibility classes. "Out of Sight" and friends are modeled as labels,
not absence of data, so visibility filtering stays explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .core import ParseError, Rows, read_text

__all__ = [
    "OCCLUDED",
    "OUT_OF_FOCUS",
    "OUT_OF_FRAME",
    "OUT_OF_SIGHT",
    "TECHNICAL_CODES",
    "BehaviorClass",
    "Ethogram",
    "parse_ethogram",
    "read_ethogram",
    "default_ethogram",
]

OCCLUDED = "OCL"
OUT_OF_FOCUS = "OOC"
OUT_OF_FRAME = "OOF"
OUT_OF_SIGHT = "OOS"
TECHNICAL_CODES = frozenset({OCCLUDED, OUT_OF_FOCUS, OUT_OF_FRAME, OUT_OF_SIGHT})

SPECIES_SCOPES = ("zebra", "giraffe", "both")

_ETHOGRAM_HEADER = ["code", "name", "species", "technical"]

# Free-text behavior labels seen in annotation exports, normalized to
# lowercase alphanumerics, mapped to ethogram codes.
_NAME_ALIASES = {
    "walk": "W",
    "run": "R",
    "trot": "TR",
    "browse": "B",
    "graze": "G",
    "grazing": "G",
    "chase": "C",
    "fight": "F",
    "herd": "H",
    "sniff": "S",
    "drink": "D",
    "dust": "DU",
    "urinate": "U",
    "defecate": "DF",
    "lyingdown": "L",
    "liedown": "L",
    "headup": "HU",
    "autogroom": "AG",
    "selfgroom": "AG",
    "mutualgroom": "MG",
    "mount": "M",
    "mating": "M",
    "occluded": OCCLUDED,
    "outoffocus": OUT_OF_FOCUS,
    "outofframe": OUT_OF_FRAME,
    "outofsight": OUT_OF_SIGHT,
}


def _normalize(label: str) -> str:
    return "".join(ch for ch in label.lower() if ch.isalnum())


@dataclass(frozen=True)
class BehaviorClass:
    code: str
    name: str
    species: str  # zebra | giraffe | both
    technical: bool = False


@dataclass(frozen=True)
class Ethogram:
    """Immutable behavior catalog with unique codes.

    Technical (visibility) classes are restricted to the four canonical
    codes so that visibility filtering means the same thing for every
    ethogram variant.
    """

    classes: tuple[BehaviorClass, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        seen: set[str] = set()
        for cls in self.classes:
            if cls.code in seen:
                raise ValueError(f"duplicate ethogram code {cls.code!r}")
            seen.add(cls.code)
            if cls.species not in SPECIES_SCOPES:
                raise ValueError(
                    f"class {cls.code!r}: species must be one of {SPECIES_SCOPES}"
                )
            if cls.technical and cls.code not in TECHNICAL_CODES:
                raise ValueError(
                    f"class {cls.code!r}: technical classes must use one of "
                    f"{sorted(TECHNICAL_CODES)}"
                )
            if not cls.technical and cls.code in TECHNICAL_CODES:
                raise ValueError(f"class {cls.code!r} must be marked technical")
        object.__setattr__(self, "_by_code", {c.code: c for c in self.classes})

    def codes(self) -> list[str]:
        return [c.code for c in self.classes]

    def technical_codes(self) -> frozenset[str]:
        return frozenset(c.code for c in self.classes if c.technical)

    def resolve(self, label: str) -> str | None:
        """Map a free-text behavior label to an ethogram code.

        Tries exact code, exact name, then a normalized alias table.
        Returns None when nothing matches.
        """
        if label in self._by_code:
            return label
        for cls in self.classes:
            if cls.name == label:
                return cls.code
        norm = _normalize(label)
        for cls in self.classes:
            if _normalize(cls.name) == norm:
                return cls.code
        return _NAME_ALIASES.get(norm)


def parse_ethogram(text: str, name: str = "ethogram") -> Ethogram:
    """Parse ethogram CSV text (``code,name,species,technical``, technical
    being 0, 1, false or true); ParseError naming the file (``name``) and
    row if malformed."""
    rows = Rows(text, _ETHOGRAM_HEADER, name)
    classes = [BehaviorClass(*row[:3], rows.to_bool(row, "technical")) for row in rows]
    try:
        return Ethogram(tuple(classes))
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}") from None


def read_ethogram(path: str | Path) -> Ethogram:
    p = Path(path)
    return parse_ethogram(read_text(p), p.name)


@lru_cache(maxsize=1)
def default_ethogram() -> Ethogram:
    """The combined zebra/giraffe ethogram shipped with the package."""
    text = resources.files("ethokit.data").joinpath("ethogram_v1.csv").read_text("utf-8")
    return parse_ethogram(text, "ethogram_v1.csv")
