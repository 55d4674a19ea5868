"""The mutant table stays current: every mutant still applies to the source
and names tests that exist.  Running the mutants is a script of its own,
``python tests/run_mutants.py``, so the suite does not grow by its runs."""

import os

import pytest
from mutants import MUTANTS, NO_OP

import looprep

SRC = os.path.dirname(os.path.abspath(looprep.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_applies_exactly_once(name):
    mutant = MUTANTS[name]
    with open(os.path.join(SRC, mutant.file), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(mutant.old) == 1, "stale mutant %r" % name
    assert (mutant.new == mutant.old) == (name == NO_OP)
    assert mutant.tests
    for node in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, node.split("::")[0])), node
