"""The ``repro`` command line against its golden record (tests/cli_golden.py)."""

import json

import pytest

from tests.cli_golden import ARGVS, FIXTURES, option_table, record


def test_option_table_is_unchanged():
    expected = json.loads((FIXTURES / "options.json").read_text())
    assert option_table() == expected


@pytest.fixture(scope="module")
def outputs():
    return record()


@pytest.mark.parametrize("name", list(ARGVS))
def test_argv_output_is_unchanged(name, outputs):
    assert outputs[name] == (FIXTURES / "argv" / f"{name}.txt").read_text()


def test_every_fixture_has_an_argv():
    assert sorted(path.stem for path in (FIXTURES / "argv").glob("*.txt")) == sorted(ARGVS)
