"""Checks on the library source itself."""

import ast
import os

import looprep

SRC = os.path.dirname(os.path.abspath(looprep.__file__))


def library_nodes():
    """(module file name, AST node) for every node of every library module."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            for node in ast.walk(tree):
                yield name, node


def test_no_assert_statements_in_library():
    # python -O strips assert statements: a claim-bearing check must be real
    # code raising a named LoopRepError, and a pure cross-check belongs in tests/
    found = ["%s:%d" % (name, node.lineno)
             for name, node in library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_only_exact_reads_coordinates():
    # field elements order, hash and compare themselves on the integer form;
    # the Fraction coordinates are for exact's own JSON, repr and PolyQ views
    found = ["%s:%d" % (name, node.lineno) for name, node in library_nodes()
             if name != "exact.py" and isinstance(node, ast.Attribute)
             and node.attr == "coords"]
    assert found == []


def test_series_sorts_only_to_print():
    # monomials are frozensets and polynomials dicts keyed by them, so the
    # arithmetic never needs an order; only __str__ sorts, for stable output
    with open(os.path.join(SRC, "series.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="series.py")

    def sorted_calls(root):
        return {node for node in ast.walk(root) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "sorted"}

    printing = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__str__":
            printing |= sorted_calls(node)
    assert printing
    assert ["series.py:%d" % node.lineno for node in sorted_calls(tree) - printing] == []


def attribute_calls(attr):
    """'module:line' of every call of a method or class method named attr."""
    return ["%s:%d" % (name, node.lineno) for name, node in library_nodes()
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr]


def test_lweight_layer_conjugates_through_the_point_table():
    # conjugates, stabilizers, class keys and translates relabel points
    # through GaloisContext.point_images; apply is for one-off elements
    layer = ("lweights.py", "blocks.py", "classify.py")
    assert [c for c in attribute_calls("apply") if c.split(":")[0] in layer] == []


def test_unchecked_constructor_stays_private():
    # only products, powers, conjugates and F-level constituents, whose
    # validity is inherited from validated l-weights, skip the checks
    callers = {c.split(":")[0] for c in attribute_calls("_unchecked")}
    assert callers == {"lweights.py", "classify.py"}
