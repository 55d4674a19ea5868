"""Named mutants of the library: small deliberate faults that named tests
must catch.

Each mutant replaces one exact text in one file of src/looprep/ by another.
The old text must occur exactly once there (tests/test_mutants.py checks
this in every test run, so a refactor that moves the code fails by name
instead of leaving a mutant that tests nothing).  With the mutant applied,
running its tests must fail; with ``optimized`` they must fail under
``python -O`` as well, which matters for checks that guard a mathematical
claim and so must be real code.  The no-op mutant changes nothing, and its
tests must pass: that shows the runner can tell a pass from a failure.

Run the mutants with ``python tests/run_mutants.py [NAME ...]``.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    file: str  # under src/looprep/
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    optimized: bool = False


NO_OP = "no-op"

MUTANTS = {
    NO_OP: Mutant(
        "galois.py", "def build_context(", "def build_context(",
        ("tests/test_galois.py::TestBuildContext",)),
    # -- the root check of build_context: one chain of powers per image
    "root-check-skips-top-power": Mutant(
        "galois.py",
        "for m_k, (col, d) in zip(m_nums, terms):",
        "for m_k, (col, d) in zip(m_nums[:n], terms):",
        ("tests/test_galois.py::TestBuildContext::test_gaussian",
         "tests/test_galois.py::TestBuildContext::test_changed_image_coefficient_is_not_a_root"),
        optimized=True),
    "root-check-reads-one-coordinate": Mutant(
        "galois.py",
        "        if any(value):\n            raise NotARoot(",
        "        if value[0]:\n            raise NotARoot(",
        ("tests/test_galois.py::TestBuildContext::test_changed_image_coefficient_is_not_a_root",),
        optimized=True),
    # -- square-free test and the stock cyclotomic moduli
    "square-free-test-uses-m-for-m-prime": Mutant(
        "galois.py",
        "field.elem([k * c for k, c in enumerate(field.modulus)][1:]).inverse()",
        "field.elem(list(field.modulus)).inverse()",
        ("tests/test_galois.py::TestFieldSetUp::test_square_free_matches_xgcd",)),
    "cyclotomic-quotient-off-by-one": Mutant(
        "galois.py",
        "for k in range(len(quotient) - 1, -1, -1):",
        "for k in range(len(quotient) - 1, 0, -1):",
        ("tests/test_galois.py::TestFieldSetUp::test_cyclotomic_polynomials",)),
    "fixed-space-on-first-generator-only": Mutant(
        "galois.py",
        "for g in _generators(table, subgroup):",
        "for g in _generators(table, subgroup)[:1]:",
        ("tests/test_exact.py::test_fixed_space_of_every_subgroup_matches_oracle",)),
    # -- exact arithmetic and the one rational rule
    "reduction-drops-top-coefficient": Mutant(
        "exact.py",
        "for i in range(n):\n                    r[k - n + i] -= c * m[i]",
        "for i in range(n - 1):\n                    r[k - n + i] -= c * m[i]",
        ("tests/test_galois.py::TestFieldSetUp::test_images_may_be_unreduced",)),
    "rational-accepts-bool": Mutant(
        "exact.py",
        "    if type(x) is int:\n        return Fraction(x)",
        "    if isinstance(x, int):\n        return Fraction(x)",
        ("tests/test_exact.py::test_constructors_reject_what_rational_rejects",)),
    "rational-accepts-exponents": Mutant(
        "exact.py",
        'r"[+-]?[0-9]+(/[0-9]+)?"',
        'r"[+-]?[0-9]+(/[0-9]+)?(e[0-9]+)?"',
        ("tests/test_exact.py::test_constructors_reject_what_rational_rejects",
         "tests/test_cli.py::TestStrictLiterals::test_bad_rational_exits_2_before_any_context")),
    # -- root data
    "dominant-check-drops-int-test": Mutant(
        "roots.py",
        "            if type(x) is not int:\n                raise ValueError(",
        "            if False:\n                raise ValueError(",
        ("tests/test_roots.py::TestWeightMults::test_non_int_entries_are_rejected",),
        optimized=True),
    "type-rank-takes-non-ascii-digits": Mutant(
        "roots.py",
        "not (s[1:].isascii() and s[1:].isdigit())",
        "not s[1:].isdigit()",
        ("tests/test_cli.py::TestStrictLiterals::test_type_rank_is_ascii_digits",)),
    # -- K-matrix modules
    "embedding-rank-off-by-one": Mutant(
        "kxmodules.py",
        "rank = q_rank // k_deg",
        "rank = q_rank // k_deg + 1",
        ("tests/test_kxmodules.py::TestEmbeddingRank",)),
    # -- package and CLI
    "cli-options-through-int": Mutant(
        "cli.py",
        '"link-chain": (_link_chain, 3, {"max-steps": int_literal}),',
        '"link-chain": (_link_chain, 3, {"max-steps": int}),',
        ("tests/test_cli.py::TestStrictLiterals::test_option_exits_2",)),
    "cli-imports-series-eagerly": Mutant(
        "cli.py",
        "from .roots import _parse_type, root_system\n",
        "from .roots import _parse_type, root_system\nfrom . import series  # noqa: F401\n",
        ("tests/test_source.py::test_cli_import_loads_no_dataclasses",)),
    "package-without-name-guard": Mutant(
        "__init__.py",
        "sys.modules[__name__].__class__ = _Package",
        "pass",
        ("tests/test_source.py::test_package_names_resolve_on_first_use",)),
}
