"""The ``repro`` command line against its golden record (tests/cli_golden.py)."""

import json

import pytest

from tests.cli_golden import ARGVS, FIXTURES, option_table, record


def test_option_table_is_unchanged():
    expected = json.loads((FIXTURES / "options.json").read_text())
    assert option_table() == expected


def _names(argv, command):
    """Whether ``argv`` runs ``command`` (its subcommand words, in order)."""
    return any(argv[i:i + len(command)] == command for i in range(len(argv)))


def test_every_option_row_is_passed_by_a_golden():
    """A flag is functionality only if some command output shows it: each
    option row (``-h`` aside) is passed by a golden argv of its command,
    or of another command that shares the very same flag."""
    rows = [row for row in option_table() if row["options"] and "-h" not in row["options"]]

    def flag(row):
        return json.dumps({key: value for key, value in row.items() if key != "parser"})

    passed = {
        flag(row) for row in rows for argv in ARGVS.values()
        if _names(argv, row["parser"].split()[1:]) and set(row["options"]) & set(argv)
    }
    assert [(row["parser"], row["options"]) for row in rows if flag(row) not in passed] == []


@pytest.fixture(scope="module")
def outputs():
    return record()


@pytest.mark.parametrize("name", list(ARGVS))
def test_argv_output_is_unchanged(name, outputs):
    assert outputs[name] == (FIXTURES / "argv" / f"{name}.txt").read_text()


def test_every_fixture_has_an_argv():
    assert sorted(path.stem for path in (FIXTURES / "argv").glob("*.txt")) == sorted(ARGVS)
