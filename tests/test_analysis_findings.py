"""Tests for ``resolve_codes_in``, the code resolver both finding catalogues share."""

from types import SimpleNamespace

import pytest

from repro.analysis import rules
from repro.analysis.findings import resolve_codes_in
from repro.verify import checks

CATALOGUE = {
    "ABC001": SimpleNamespace(name="first-thing"),
    "ABC002": SimpleNamespace(name="second-thing"),
}


class TestResolveCodesIn:
    def test_a_code_resolves_in_any_case(self):
        assert resolve_codes_in(CATALOGUE, "rule", ["abc001", "ABC002"]) == {"ABC001", "ABC002"}

    def test_a_name_resolves_in_any_case(self):
        assert resolve_codes_in(CATALOGUE, "rule", ["First-Thing"]) == {"ABC001"}

    def test_a_code_and_its_name_resolve_once(self):
        assert resolve_codes_in(CATALOGUE, "rule", ["ABC002", "second-thing"]) == {"ABC002"}

    def test_blank_tokens_are_skipped_and_tokens_stripped(self):
        assert resolve_codes_in(CATALOGUE, "rule", ["", "  ", " abc001 "]) == {"ABC001"}
        assert resolve_codes_in(CATALOGUE, "rule", []) == set()

    def test_unknown_token_names_the_noun_codes_and_names(self):
        with pytest.raises(ValueError) as error:
            resolve_codes_in(CATALOGUE, "widget", ["ABC001", "nope"])
        assert str(error.value) == (
            "unknown widget 'nope'; have ['ABC001', 'ABC002'] "
            "(or names ['first-thing', 'second-thing'])"
        )

    @pytest.mark.parametrize(
        "resolve, catalogue, noun",
        [(rules.resolve_codes, rules.RULES, "lint rule"),
         (checks.resolve_codes, checks.CHECKS, "verify check")],
        ids=["lint", "verify"],
    )
    def test_each_catalogue_resolves_every_code_and_name(self, resolve, catalogue, noun):
        assert resolve(list(catalogue)) == set(catalogue)
        assert resolve([entry.name for entry in catalogue.values()]) == set(catalogue)
        with pytest.raises(ValueError, match=f"^unknown {noun} 'NOPE999';"):
            resolve(["NOPE999"])
