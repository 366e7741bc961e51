"""Default ethogram contents, lookup, and CSV round-trip."""

from __future__ import annotations

from importlib import resources

import pytest

from ethokit import (
    TECHNICAL_CODES,
    BehaviorClass,
    Ethogram,
    ParseError,
    default_ethogram,
    parse_ethogram,
)
from ethokit.core import csv_text


class TestDefaultEthogram:
    def test_has_both_kinds(self, ethogram):
        assert len(ethogram.codes()) - len(ethogram.technical_codes()) == 18
        assert ethogram.technical_codes() == TECHNICAL_CODES

    def test_core_codes_present(self, ethogram):
        for code in ("G", "W", "HU", "AG", "MG", "B", "OOS", "OCL"):
            assert code in ethogram.codes()

    def test_species_restrictions(self, ethogram):
        species = {cls.code: cls.species for cls in ethogram.classes}
        assert species["B"] == "giraffe"
        assert species["G"] == "zebra"
        assert species["W"] == "both"

    def test_is_technical(self, ethogram):
        assert "OOS" in ethogram.technical_codes()
        assert "G" not in ethogram.technical_codes()


class TestResolve:
    def test_exact_code(self, ethogram):
        assert ethogram.resolve("G") == "G"

    def test_by_name(self, ethogram):
        assert ethogram.resolve("Walking") == "W"
        assert ethogram.resolve("walking") == "W"

    def test_by_alias(self, ethogram):
        assert ethogram.resolve("Walk") == "W"
        assert ethogram.resolve("Head Up") == "HU"
        assert ethogram.resolve("Out of Sight") == "OOS"
        assert ethogram.resolve("graze") == "G"

    def test_unknown_is_none(self, ethogram):
        assert ethogram.resolve("teleporting") is None


class TestRoundTrip:
    def test_dump_parse_identity(self, ethogram):
        # parsing keeps every field: written back, the classes give the shipped file
        shipped = resources.files("ethokit.data").joinpath("ethogram_v1.csv").read_text("utf-8")
        rows = [(c.code, c.name, c.species, "1" if c.technical else "0") for c in ethogram.classes]
        assert csv_text(["code", "name", "species", "technical"], rows) == shipped
        assert parse_ethogram(shipped) == ethogram


class TestValidation:
    def test_duplicate_codes_rejected(self):
        classes = (
            BehaviorClass("G", "Graze", "zebra", False),
            BehaviorClass("G", "Graze again", "zebra", False),
        )
        with pytest.raises(ValueError):
            Ethogram(classes)

    def test_bad_species_rejected(self):
        with pytest.raises(ValueError):
            Ethogram((BehaviorClass("G", "Graze", "unicorn", False),))

    def test_technical_must_be_canonical(self):
        with pytest.raises(ValueError):
            Ethogram((BehaviorClass("XX", "Strange", "both", True),))

    def test_oversized_field_is_a_parse_error(self):
        # over the csv module's 131 072-character field limit
        text = "code,name,species,technical\nG," + "x" * 200_000 + ",zebra,0\n"
        with pytest.raises(ParseError, match="^ethogram row 2: field larger than field limit"):
            parse_ethogram(text)

    def test_default_is_cached(self):
        assert default_ethogram() is default_ethogram()

    def test_technical_reads_true_and_false(self):
        text = "code,name,species,technical\nW,Walk,both,false\nOOS,Out of Sight,both,true\n"
        assert parse_ethogram(text).technical_codes() == {"OOS"}
