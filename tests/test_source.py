"""Checks on the library source itself."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

import looprep
from looprep import cli

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
    # the Fraction coordinates are for exact's own JSON and reprs
    found = ["%s:%d" % (name, node.lineno) for name, node in library_nodes()
             if name != "exact.py" and isinstance(node, ast.Attribute)
             and node.attr == "coords"]
    assert found == []


def test_series_sorts_only_to_print():
    # monomials are packed exponent ints and polynomials dicts keyed by them,
    # so the arithmetic never needs an order; only __str__ sorts, for stable
    # output
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


def test_one_elimination_routine_and_no_test_imports():
    # int_rref is the library's only elimination; the Fraction Gauss-Jordan
    # and extended Euclid it replaced are oracles in tests/exact_oracle.py
    oracles = {"frac_rref", "poly_xgcd"}
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.FunctionDef) and node.name in oracles:
            found.append("%s:%d defines %s" % (name, node.lineno, node.name))
        elif isinstance(node, ast.ImportFrom):
            imported = {alias.name for alias in node.names}
            module = (node.module or "").split(".")[0]
            if imported & oracles or module in ("tests", "conftest") \
                    or module.endswith("_oracle"):
                found.append("%s:%d imports from %s" % (name, node.lineno, node.module))
        elif isinstance(node, ast.Import):
            found += ["%s:%d imports %s" % (name, node.lineno, alias.name)
                      for alias in node.names if alias.name.split(".")[0] == "tests"
                      or alias.name.endswith("_oracle")]
        elif isinstance(node, ast.Name) and node.id in oracles:
            found.append("%s:%d uses %s" % (name, node.lineno, node.id))
    assert found == []
    assert not oracles & (set(dir(looprep)) | set(looprep.__all__) | set(dir(looprep.exact)))


def test_split_certificate_uses_no_char_poly():
    # char_poly_split_check proves the split on the eigenrows of the
    # Vandermonde matrix; Faddeev-LeVerrier stays public for callers and is
    # the certificate's oracle in tests/test_kxmodules.py
    found = ["%s:%d" % (name, node.lineno) for name, node in library_nodes()
             if name == "kxmodules.py" and (
                 isinstance(node, ast.Name) and node.id == "char_poly"
                 or isinstance(node, ast.Attribute) and node.attr == "char_poly"
                 or isinstance(node, ast.alias) and node.name == "char_poly")]
    assert found == []
    assert "char_poly" in looprep.__all__


def test_one_primitive_search_in_kxmodules():
    # build_kx_module runs the only primitive search; the embedding rank
    # reads K(a) and K(b) as the fixed fields of the stabilizers and builds
    # no module, primitive or power of one
    with open(os.path.join(SRC, "kxmodules.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="kxmodules.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def calls(root, name):
        return [node.lineno for node in ast.walk(root) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    search = calls(tree, "_primitive_candidates")
    assert len(search) == 1
    assert calls(functions["build_kx_module"], "_primitive_candidates") == search
    rank = functions["tensor_embedding_rank"]
    assert calls(rank, "_primitive_candidates") == calls(rank, "build_kx_module") == []
    assert not any(isinstance(node, ast.Pow) for node in ast.walk(rank))
    assert "_primitive_embedding" not in functions


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


def test_no_dataclasses_typing_or_inspect_in_library():
    # importing dataclasses pulls in inspect, ast, dis, tokenize and typing,
    # which every fresh interpreter (every CLI job) would pay for; the CLI
    # takes arities from its command table, not from signature introspection
    found = []
    for name, node in library_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += ["%s:%d %s" % (name, node.lineno, m) for m in modules
                  if m.split(".")[0] in ("dataclasses", "typing", "inspect")]
    assert found == []


def test_readme_lists_the_command_table():
    # the "Supported commands" sentence names every command and option of
    # cli.COMMANDS and nothing else
    with open(os.path.join(os.path.dirname(SRC), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    sentence = re.search(r"Supported commands: (.*?)\.\s", text, re.S).group(1)
    spans = re.findall(r"`([^`]+)`", sentence)
    assert {span.split()[0] for span in spans} == set(cli.COMMANDS)
    declared = {option for _, _, options in cli.COMMANDS.values() for option in options}
    assert set(re.findall(r"--([a-z-]+)", sentence)) == declared


def loaded_after(src_env, code):
    """The modules of a fresh interpreter after it runs code: the looprep
    ones, and whether dataclasses is among the rest."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('looprep')))"
    code += "\nprint('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env, timeout=60)
    assert out.returncode == 0, out.stderr
    modules, dataclasses = out.stdout.splitlines()[-2:]
    return set(ast.literal_eval(modules)), dataclasses == "True"


CLI_MODULES = {"looprep." + m for m in (
    "cli", "classify", "errors", "exact", "galois", "lweights", "record", "roots")}

PUBLIC_NAMES = {
    "CertificateFailed", "Decomposition", "FieldElem", "GaloisContext", "IrrClass",
    "KXModule", "LWeight", "LoopRepError", "MatrixL", "NumberField",
    "RootDataInconsistency", "RootSystem", "SmithForm", "SpectralCharacter", "SymPoly",
    "TruncSeries", "binom_poly", "build_context", "build_kx_module", "char_poly",
    "char_poly_split_check", "classify", "compositum_degree", "context_from_json",
    "cyclotomic_context", "dim_weyl_f", "dim_weyl_k", "ev_lambda_check",
    "eval_at", "gaussian_context", "h_from_lambda", "h_series",
    "h_symbol", "iso_test", "lambda_alpha_from_simples", "lambda_alpha_identity_holds",
    "lambda_from_h", "multiplication_matrix", "partition_blocks", "rational_context",
    "root_system", "same_block", "series_inverse", "smith_normal_form",
    "spectral_character", "tensor_decompose_k", "tensor_embedding_rank",
    "tp_irreducible_criterion",
}


def test_cli_import_loads_no_dataclasses(src_env):
    # the package resolves its names on first use, and the CLI imports the
    # series, kxmodules and blocks layers only in the commands that use them
    assert loaded_after(src_env, "import looprep") == ({"looprep"}, False)
    assert loaded_after(src_env, "import looprep.cli") == ({"looprep"} | CLI_MODULES, False)


def test_package_names_resolve_on_first_use(src_env):
    assert set(looprep.__all__) == PUBLIC_NAMES and len(looprep.__all__) == 48
    assert set(looprep.__all__) <= set(dir(looprep))
    with pytest.raises(AttributeError):
        looprep.nope
    # after the CLI has loaded the modules of its layers, each name is still
    # the object its module defines (the function classify, not the module)
    code = ("import looprep.cli, sys\n"
            "names = {}\nexec('from looprep import *', names)\n"
            "names.pop('__builtins__')\n"
            "import looprep\n"
            "assert set(names) == set(looprep.__all__), set(names) ^ set(looprep.__all__)\n"
            "for name, value in names.items():\n"
            "    module = sys.modules[value.__module__]\n"
            "    assert module.__name__.startswith('looprep.'), name\n"
            "    assert getattr(module, name) is value is getattr(looprep, name), name\n")
    modules, _ = loaded_after(src_env, code)
    assert {"looprep.series", "looprep.kxmodules", "looprep.blocks"} <= modules


def test_package_init_imports_no_library_module():
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = [node.lineno for node in tree.body if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "looprep")
             or isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "looprep" for alias in node.names)]
    assert found == []


@pytest.mark.parametrize("commands, layers", [
    (["lw-info p", "tensor p q"], set()),
    (["series-check --order 2 --type A1"], {"series"}),
    (["kx-matrix p"], {"kxmodules"}),
    (["embedding-rank p q"], {"kxmodules"}),
    (["blocks p q"], {"blocks"}),
], ids=["core", "series-check", "kx-matrix", "embedding-rank", "blocks"])
def test_cli_job_loads_only_the_layers_it_uses(tmp_path, src_env, commands, layers):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "field": {"modulus": ["1", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]]},
        "lieType": "A1",
        "lweights": {"p": [{"node": 1, "point": ["0", "1"], "exp": 1}],
                     "q": [{"node": 1, "point": ["0", "2"], "exp": 1}]},
        "commands": commands,
    }))
    code = "import looprep.cli\nassert looprep.cli.run(%r, quiet=True) == 0" % str(job)
    modules, _ = loaded_after(src_env, code)
    assert modules - CLI_MODULES == {"looprep"} | {"looprep." + m for m in layers}
