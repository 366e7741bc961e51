"""Default ethogram contents, lookup, and CSV round-trip."""

from __future__ import annotations

import pytest

from ethokit import (
    TECHNICAL_CODES,
    BehaviorClass,
    Ethogram,
    ParseError,
    default_ethogram,
    parse_ethogram,
)
from ethokit.ethogram import dump_ethogram


class TestDefaultEthogram:
    def test_has_both_kinds(self, ethogram):
        assert len(ethogram.behavioral_codes()) == 18
        assert ethogram.technical_codes() == TECHNICAL_CODES

    def test_core_codes_present(self, ethogram):
        for code in ("G", "W", "HU", "AG", "MG", "B", "OOS", "OCL"):
            assert code in ethogram

    def test_species_restrictions(self, ethogram):
        assert ethogram.class_for("B").species == "giraffe"
        assert ethogram.class_for("G").species == "zebra"
        assert ethogram.class_for("W").species == "both"

    def test_is_technical(self, ethogram):
        assert ethogram.is_technical("OOS")
        assert not ethogram.is_technical("G")


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
        text = dump_ethogram(ethogram)
        again = parse_ethogram(text)
        assert again == ethogram
        assert dump_ethogram(again) == text


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
