"""Each planted mutant of `mutants.py` applies to the source as it stands: its old
text is there once, and the mutated file parses to a different program, so a kill
in its table is a test failing on changed code and not on a syntax error."""

import pytest

import mutants


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=[row[0] for row in mutants.MUTANTS])
def test_the_mutant_applies_and_changes_the_program(row):
    assert mutants.problem(*row) is None
