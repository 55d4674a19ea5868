"""Checks on the library source itself."""

import ast
import os

import looprep

SRC = os.path.dirname(os.path.abspath(looprep.__file__))


def test_no_assert_statements_in_library():
    # python -O strips assert statements: a claim-bearing check must be real
    # code raising a named LoopRepError, and a pure cross-check belongs in tests/
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
