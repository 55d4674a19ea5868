import contextlib
import copy
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import LWeight, cli, lambda_from_h, root_system, series, tp_irreducible_criterion
from looprep.classify import _tensor_f_level
from looprep.cli import main, run

from conftest import random_dominant

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


GAUSSIAN_FIELD = {
    "modulus": ["1", "0", "1"],
    "automorphisms": [["0", "1"], ["0", "-1"]],
    "subgroup": [0, 1],
}


def write_job(tmp_path, commands, lweights=None, field=None, lie_type="A1"):
    job = {
        "field": field or GAUSSIAN_FIELD,
        "lieType": lie_type,
        "lweights": lweights if lweights is not None else {
            "p": [{"node": 1, "point": ["0", "1"], "exp": 1}],
            "q": [{"node": 1, "point": ["0", "2"], "exp": 1}],
            "pc": [{"node": 1, "point": ["0", "-1"], "exp": 1}],
            "one": [],
        },
        "commands": commands,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return path


def run_json(tmp_path, commands, **kwargs):
    job = write_job(tmp_path, commands, **kwargs)
    report = tmp_path / "report.json"
    code = run(str(job), json_path=str(report), quiet=True)
    assert code == 0
    return json.loads(report.read_text())


class TestCommands:
    def test_validate_field(self, tmp_path):
        rep = run_json(tmp_path, ["validate-field"])
        result = rep["results"][0]["result"]
        assert result == {
            "groupOrder": 2, "subgroupOrder": 2, "baseFieldDegree": 1, "valid": True,
        }

    def test_lw_info_identity(self, tmp_path):
        rep = run_json(tmp_path, ["lw-info one"])
        result = rep["results"][0]["result"]
        assert result["degree"] == 1
        assert result["dimK"] == 1
        assert result["weight"] == [0]

    def test_tensor_example_pair(self, tmp_path):
        rep = run_json(tmp_path, ["tensor p q"])
        result = rep["results"][0]["result"]
        dims = [(part["degree"], part["dimK"], part["mult"])
                for part in result["decomposition"]]
        assert dims == [(2, 8, 1), (2, 8, 1)]
        assert result["totalDim"] == 16
        assert result["irreducibleCriterion"] is False

    def test_commands_as_token_lists(self, tmp_path):
        rep = run_json(tmp_path, [["tensor", "p", "pc"]])
        assert rep["results"][0]["result"]["totalDim"] == 16

    def test_blocks(self, tmp_path):
        rep = run_json(tmp_path, ["blocks p pc one"])
        assert len(rep["results"][0]["result"]["blocks"]) == 2

    def test_kx_matrix(self, tmp_path):
        rep = run_json(tmp_path, ["kx-matrix p --node 1 --index 1"])
        result = rep["results"][0]["result"]
        assert result["dim"] == 2
        assert result["charPolySplits"] is True
        assert result["fixedByH"] is True

    def test_embedding_rank(self, tmp_path):
        rep = run_json(tmp_path, ["embedding-rank p pc"])
        assert rep["results"][0]["result"] == {
            "left": "p", "right": "pc", "rank": 2, "injective": False,
        }

    def test_link_chain(self, tmp_path):
        rep = run_json(tmp_path, ["link-chain A1 4 0 --max-steps 5"])
        assert rep["results"][0]["result"]["chain"] == [[0], [2], [4]]

    def test_series_check(self, tmp_path):
        rep = run_json(tmp_path, ["series-check --order 4 --type G2"])
        result = rep["results"][0]["result"]
        assert result["allPassed"] is True
        assert result["order"] == 4

    def test_weyl_criterion_is_the_irreducible_criterion(self, tmp_path, qi, a1):
        pairs = [("p", "q"), ("p", "pc"), ("p", "one")]
        rep = run_json(tmp_path, ["tensor %s %s" % pair for pair in pairs])
        i = qi.field.gen
        library = {"p": LWeight.single(qi, a1, 0, i), "q": LWeight.single(qi, a1, 0, 2 * i),
                   "pc": LWeight.single(qi, a1, 0, -i), "one": LWeight.identity(qi, a1)}
        for (left, right), record in zip(pairs, rep["results"]):
            result = record["result"]
            expected = tp_irreducible_criterion(library[left], library[right])
            assert result["irreducibleCriterion"] is expected
            assert result["weylCriterion"] is expected

    def test_binomial_series_is_computed(self, tmp_path, monkeypatch):
        # binomialSeries compares every coefficient with binom_poly, so a wrong
        # series reads false instead of passing as "not None"
        rep = run_json(tmp_path, ["series-check --order 3"])
        assert rep["results"][0]["result"]["checks"]["binomialSeries"] is True
        monkeypatch.setattr(series, "h_series", lambda alpha, order: lambda_from_h(alpha, order))
        rep = run_json(tmp_path, ["series-check --order 3"])
        result = rep["results"][0]["result"]
        assert result["checks"]["binomialSeries"] is False
        assert result["allPassed"] is False

    def test_rational_split_and_dual(self, tmp_path):
        rep = run_json(tmp_path, ["rational-split p", "dual p"])
        split = rep["results"][0]["result"]
        assert split["rationalPart"] == []
        assert split["rest"] == [{"node": 1, "point": ["0", "1"], "exp": 1}]
        assert rep["results"][1]["result"]["dual"] == \
            [{"node": 1, "point": ["0", "1"], "exp": 1}]


class TestDeterminismAndRoundTrip:
    def test_reports_are_byte_identical(self, tmp_path):
        job = write_job(tmp_path, ["lw-info p", "tensor p pc", "conjugates p"])
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(str(job), json_path=str(out1), quiet=True) == 0
        assert run(str(job), json_path=str(out2), quiet=True) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lweights_in_report_reparse(self, tmp_path, qi, a1):
        rep = run_json(tmp_path, ["conjugates p"])
        orbit = rep["results"][0]["result"]["orbit"]
        parsed = [LWeight.from_json(qi, a1, data) for data in orbit]
        original = LWeight.single(qi, a1, 0, qi.field.gen)
        assert set(parsed) == set(original.conjugacy_class()[0])


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json")) == 2

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(str(path)) == 2

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lieType": "A1"}))
        assert run(str(path)) == 2

    def test_unknown_command(self, tmp_path):
        job = write_job(tmp_path, ["frobnicate p"])
        assert run(str(job), quiet=True) == 2

    def test_unknown_name(self, tmp_path):
        job = write_job(tmp_path, ["lw-info nope"])
        assert run(str(job), quiet=True) == 2

    def test_wrong_arity(self, tmp_path):
        job = write_job(tmp_path, ["lw-info"])
        assert run(str(job), quiet=True) == 2

    def test_bad_generator_index(self, tmp_path):
        job = write_job(tmp_path, ["kx-matrix p --index 9"])
        assert run(str(job), quiet=True) == 2

    def test_invalid_field_is_validation_failure(self, tmp_path, capsys):
        bad_field = {
            "modulus": ["1", "0", "1"],
            "automorphisms": [["0", "1"], ["1", "1"]],
            "subgroup": [0, 1],
        }
        job = write_job(tmp_path, ["validate-field"], field=bad_field)
        assert run(str(job), quiet=True) == 1
        assert "NotARoot" in capsys.readouterr().err

    def test_library_error_names_command_index(self, tmp_path, capsys):
        job = write_job(tmp_path, ["validate-field", "link-chain A1 1 0"])
        assert run(str(job), quiet=True) == 1
        err = capsys.readouterr().err
        assert "command 1" in err and "NotSameClass" in err

    def test_main_entry_point(self, tmp_path):
        job = write_job(tmp_path, ["validate-field"])
        assert main([str(job), "--quiet"]) == 0

    def test_nesting_too_deep_to_decode_is_malformed(self, tmp_path, src_env):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(path), "--quiet"],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert out.stderr.count("\n") == 1
        assert out.stderr.startswith("error: malformed job file: ")

    @pytest.mark.parametrize("command, flags", [
        ("link-chain A1 4 0 --max-steps -1", []),
        ("link-chain A1 4 0", ["--max-steps", "-5"]),
    ], ids=["inline", "global"])
    def test_negative_max_steps_is_malformed(self, tmp_path, src_env, command, flags):
        job = write_job(tmp_path, [command])
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--quiet"] + flags,
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "max-steps" in out.stderr

    @pytest.mark.parametrize("command, flags, option", [
        ("link-chain A1 4 0 --max-steps 17", [], "max-steps"),
        ("link-chain A1 4 0", ["--max-steps", "17"], "max-steps"),
        ("series-check --order 13 --type A1", [], "order"),
        ("series-check --type A1", ["--order", "13"], "order"),
    ], ids=["max-steps-inline", "max-steps-global", "order-inline", "order-global"])
    def test_work_above_the_bound_is_malformed(self, tmp_path, src_env, command, flags,
                                               option):
        job = write_job(tmp_path, [command])
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--quiet"] + flags,
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert option in out.stderr

    @pytest.mark.parametrize("lie_type, command", [
        ("A200", "validate-field"),
        ("A1", "link-chain A9 1,0,0,0,0,0,0,0,1 0,0,0,0,0,0,0,0,0"),
        ("A1", "series-check --order 2 --type B9"),
    ], ids=["lieType", "link-chain", "series-check"])
    def test_rank_above_the_bound_is_malformed(self, tmp_path, capsys, monkeypatch,
                                               lie_type, command):
        built = []
        monkeypatch.setattr(cli, "root_system", lambda t: built.append(t) or root_system(t))
        job = write_job(tmp_path, [command], lie_type=lie_type)
        assert run(str(job), quiet=True) == 2
        err = capsys.readouterr().err
        assert "rank" in err and "Traceback" not in err
        assert built == ([] if lie_type == "A200" else ["A1"])

    def test_rank_bound_covers_e8(self, tmp_path):
        assert cli.MAX_RANK == 8
        rep = run_json(tmp_path, ["link-chain E8 0,0,0,0,0,0,0,0 0,0,0,0,0,0,0,0 --max-steps 0",
                                  "series-check --order 1 --type E8"])
        assert rep["results"][0]["result"]["chain"] == [[0] * 8]
        assert rep["results"][1]["result"]["allPassed"]

    @pytest.mark.parametrize("command", [
        "series-check --type E8",
        "series-check --order 8 --type E8",
        "series-check --order 7 --type A6",
    ], ids=["E8-default-order", "E8-order-inline", "A6-order-7"])
    def test_rank_times_order_above_the_bound_is_malformed(self, tmp_path, capsys,
                                                           monkeypatch, command):
        # E8 at the default order ran for minutes; the bound rejects it before
        # any series work is done
        monkeypatch.setattr(cli, "_series_suite",
                            lambda rs, order: pytest.fail("series suite ran"))
        job = write_job(tmp_path, [command])
        assert main([str(job), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "rank*order bound %d" % cli.MAX_RANK_ORDER in err
        assert "Traceback" not in err

    def test_rank_order_bound_is_inclusive(self, tmp_path):
        # the largest series-check in perfbench is B3 at order 10, the README's G2 at 8
        assert cli.MAX_RANK_ORDER == 36
        rep = run_json(tmp_path, ["series-check --order 6 --type A6"])
        assert rep["results"][0]["result"]["allPassed"]

    @pytest.mark.parametrize("part", ["modulus", "automorphisms", "image", "point"])
    def test_degree_above_the_bound_is_malformed(self, tmp_path, capsys, monkeypatch,
                                                 part):
        # the job is rejected before any field context is built
        monkeypatch.setattr(cli, "context_from_json",
                            lambda data: pytest.fail("context built"))
        too_long = ["0"] * cli.MAX_DEGREE + ["1"]
        field = copy.deepcopy(GAUSSIAN_FIELD)
        lweights = {"p": [{"node": 1, "point": ["0", "1"], "exp": 1}]}
        if part == "modulus":
            field["modulus"] = ["1"] + too_long
        elif part == "automorphisms":
            field["automorphisms"] += [["0", "1"]] * cli.MAX_DEGREE
        elif part == "image":
            field["automorphisms"][1] = too_long
        else:
            lweights["p"][0]["point"] = too_long
        job = write_job(tmp_path, ["validate-field"], lweights=lweights, field=field)
        assert run(str(job), quiet=True) == 2
        err = capsys.readouterr().err
        assert "malformed job file" in err and "above" in err
        assert "Traceback" not in err

    def test_degree_bound_is_inclusive(self, tmp_path):
        # a modulus of degree MAX_DEGREE padded to the bound still validates
        assert cli.MAX_DEGREE == 32
        field = copy.deepcopy(GAUSSIAN_FIELD)
        field["modulus"] += ["0"] * (cli.MAX_DEGREE + 1 - len(field["modulus"]))
        field["automorphisms"][1] += ["0"] * (cli.MAX_DEGREE - 2)
        rep = run_json(tmp_path, ["validate-field"], field=field)
        assert rep["results"][0]["result"]["groupOrder"] == 2

    @pytest.mark.parametrize("exps", [[20000], [-20000], [10 ** 9], [100, 29], [64, -65]],
                             ids=["a1-20000", "negative", "huge", "sum", "sum-of-abs"])
    def test_exponent_above_the_bound_is_malformed(self, tmp_path, src_env, exps):
        # lw-info on A1 printed 2^20000 and died with a ValueError traceback;
        # the bound rejects the job before any context is built
        points = [["0", str(k + 1)] for k in range(len(exps))]
        job = write_job(tmp_path, ["lw-info p"], lweights={
            "p": [{"node": 1, "point": pt, "exp": e} for pt, e in zip(points, exps)]})
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--quiet"],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "malformed job file" in out.stderr
        assert "more than %d" % cli.MAX_EXPONENT in out.stderr

    def test_exponent_bound_is_inclusive(self, tmp_path):
        assert cli.MAX_EXPONENT == 128
        rep = run_json(tmp_path, ["lw-info p"], lweights={
            "p": [{"node": 1, "point": ["0", "1"], "exp": cli.MAX_EXPONENT - 1},
                  {"node": 1, "point": ["0", "2"], "exp": 1}]})
        assert rep["results"][0]["result"]["weight"] == [cli.MAX_EXPONENT]

    def test_bounds_cover_the_documented_values(self, tmp_path):
        assert cli.MAX_STEPS >= 8 and series.MAX_ORDER >= 10
        rep = run_json(tmp_path, ["link-chain A1 4 0 --max-steps %d" % cli.MAX_STEPS])
        assert rep["results"][0]["result"]["chain"] == [[0], [2], [4]]


# a valid call of every command on the job of write_job: (arguments, options)
VALID_CALLS = {
    "validate-field": ([], {}),
    "lw-info": (["p"], {}),
    "conjugates": (["p"], {}),
    "tensor": (["p", "q"], {}),
    "rational-split": (["p"], {}),
    "dual": (["p"], {}),
    "blocks": (["p", "pc"], {}),
    "kx-matrix": (["p"], {"node": "1", "index": "1"}),
    "embedding-rank": (["p", "pc"], {}),
    "link-chain": (["A1", "4", "0"], {"max-steps": "5"}),
    "series-check": ([], {"order": "2", "type": "A1"}),
}


def command_text(name, args, options):
    return " ".join([name] + args + ["--%s %s" % item for item in options.items()])


def malformed_calls():
    """(id, command) for every COMMANDS entry: one argument too many and one
    too few (none at all for ONE_OR_MORE), an unknown option, and each
    declared option given twice."""
    for name, (args, options) in sorted(VALID_CALLS.items()):
        arity, known = cli.COMMANDS[name][1:]
        if arity == cli.ONE_OR_MORE:
            yield name + "-none", command_text(name, [], options)
        else:
            yield name + "-too-many", command_text(name, args + ["p"], options)
            if arity:
                yield name + "-too-few", command_text(name, args[:-1], options)
        yield name + "-unknown-option", command_text(name, args, dict(options, bogus="1"))
        for key in known:
            yield (name + "-repeated-" + key,
                   command_text(name, args, options) + " --%s %s" % (key, options[key]))


MALFORMED_CALLS = list(malformed_calls())


class TestCommandTable:
    """Arity and options come from cli.COMMANDS: a wrong count, an unknown or
    repeated option exits 2 with one line that names the command."""

    def test_valid_calls_cover_the_table(self, tmp_path):
        assert set(VALID_CALLS) == set(cli.COMMANDS)
        for name, (args, options) in VALID_CALLS.items():
            assert set(options) == set(cli.COMMANDS[name][2])
        rep = run_json(tmp_path, [command_text(name, *call)
                                  for name, call in sorted(VALID_CALLS.items())])
        assert len(rep["results"]) == len(VALID_CALLS)

    @pytest.mark.parametrize("command", [c for _, c in MALFORMED_CALLS],
                             ids=[i for i, _ in MALFORMED_CALLS])
    def test_malformed_call_exits_2(self, tmp_path, capsys, command):
        job = write_job(tmp_path, ["validate-field", command])
        assert run(str(job), quiet=True) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: command 1: %s" % command.split()[0])
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        "link-chain A1 2 0 --max-step 1",
        "kx-matrix p --node 1 --node 2",
        "validate-field x",
        "dual p q",
        "kx-matrix p --node",
    ], ids=["option-typo", "repeated-option", "extra-argument", "wrong-arity",
            "missing-value"])
    def test_exit_2_naming_the_command(self, tmp_path, src_env, command):
        # a misspelt option must not fall back to the default it misspells
        job = write_job(tmp_path, [command])
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--quiet"],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: command 0: %s" % command.split()[0])
        assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr

    @pytest.mark.parametrize("lie_type", [5, None, ["A1"], {"A": 1}])
    def test_non_string_lie_type_is_malformed(self, tmp_path, capsys, lie_type):
        job = write_job(tmp_path, ["validate-field"], lie_type=lie_type)
        assert run(str(job), quiet=True) == 2
        assert "lieType must be a string" in capsys.readouterr().err

    def test_unknown_type_name_is_a_validation_failure(self, tmp_path, capsys):
        job = write_job(tmp_path, ["validate-field"], lie_type="Z2")
        assert run(str(job), quiet=True) == 1
        assert "UnknownType" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        ("kx-matrix p --node %s", "node"),
        ("kx-matrix p --index %s", "index"),
        ("link-chain A1 4 0 --max-steps %s", "max-steps"),
        ("series-check --order %s --type A1", "order"),
    ], ids=["node", "index", "max-steps", "order"])
    @pytest.mark.parametrize("value", ["x", "1.5", "two"])
    def test_bad_integer_option_names_command_and_option(self, tmp_path, capsys, command,
                                                         option, value):
        job = write_job(tmp_path, ["validate-field", command % value])
        assert run(str(job), quiet=True) == 2
        err = capsys.readouterr().err
        assert err == "error: command 1: %s: option --%s takes an integer, got %r\n" % (
            command.split()[0], option, value)

    @pytest.mark.parametrize("command", [
        "series-check --order 0 --type A1",
        "series-check --order -2 --type A1",
    ], ids=["zero", "negative"])
    def test_order_below_one_names_command_and_option(self, tmp_path, capsys, command):
        job = write_job(tmp_path, [command])
        assert run(str(job), quiet=True) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: command 0: series-check: --order must be in 1..")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestStrictLiterals:
    """Integers in command options and weights are ASCII decimal literals
    and rationals in job files ASCII [+-]?[0-9]+(/[0-9]+)?: int() and
    Fraction() alone would also take underscores, spaces, a plus sign,
    non-ASCII digits, decimals and exponents."""

    @pytest.mark.parametrize("command, option, value", [
        (["link-chain", "A1", "4", "0", "--max-steps", "1_0"], "max-steps", "1_0"),
        (["kx-matrix", "p", "--node", " +1"], "node", " +1"),
        (["kx-matrix", "p", "--node", "+1"], "node", "+1"),
        (["kx-matrix", "p", "--node", "\u0661"], "node", "\u0661"),
        (["series-check", "--order", "\u0663", "--type", "A1"], "order", "\u0663"),
    ], ids=["underscore", "space-plus", "plus", "arabic-indic-node", "arabic-indic-order"])
    def test_option_exits_2(self, tmp_path, capsys, command, option, value):
        job = write_job(tmp_path, [command])
        assert run(str(job), quiet=True) == 2
        assert capsys.readouterr().err == \
            "error: command 0: %s: option --%s takes an integer, got %r\n" % (
                command[0], option, value)

    @pytest.mark.parametrize("flag, value", [
        ("--order", "\u0663"), ("--max-steps", "\u0663"), ("--order", "1_0"),
        ("--max-steps", " +1"), ("--order", "3"),
    ], ids=["order-arabic-indic", "max-steps-arabic-indic", "order-underscore",
            "max-steps-space-plus", "order-valid"])
    def test_global_flag_exits_2(self, tmp_path, src_env, flag, value):
        # --max-steps and --order are options of link-chain and series-check
        # only; the command line has no such flag, whatever its value
        job = write_job(tmp_path, ["validate-field"])
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--quiet", flag, value],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2 and out.stdout == ""
        assert "unrecognized arguments: %s" % flag in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("weight", ["\u0664", "+4", "4_0", " 4"])
    def test_weight_exits_2(self, tmp_path, capsys, weight):
        job = write_job(tmp_path, [["link-chain", "A1", weight, "0"]])
        assert run(str(job), quiet=True) == 2
        assert capsys.readouterr().err == \
            "error: command 0: bad weight literal %r\n" % weight

    def test_negative_literals_still_parse(self, tmp_path, capsys):
        # the weight reaches the library, which finds it not dominant (exit 1)
        assert cli.int_literal("-12") == -12 and cli.int_literal("007") == 7
        job = write_job(tmp_path, ["link-chain A2 1,1 -1,2 --max-steps 0"])
        assert run(str(job), quiet=True) == 1
        assert "weight (-1, 2) is not dominant" in capsys.readouterr().err

    @pytest.mark.parametrize("lie_type", ["A+1", "A \u0661", "A\u0661", "A-1", "A1 1",
                                          " a_3 ", "a3", "A_1_0", " A1"])
    def test_type_rank_is_ascii_digits(self, tmp_path, capsys, lie_type):
        for job in (write_job(tmp_path, ["validate-field"], lie_type=lie_type),
                    write_job(tmp_path, [["series-check", "--order", "1", "--type", lie_type]])):
            assert run(str(job), quiet=True) == 1
            err = capsys.readouterr().err
            assert "UnknownType: bad Lie type %r" % lie_type in err

    @pytest.mark.parametrize("entry", [
        "1e5", "1E5", "1.5", " 1", "1 ", "1_0", "\u0661", "1/0", "1/-2", "+-1", "", "0x1",
        "1/", "/2", "--1", "1/2/3", "1" * 4301,
    ], ids=lambda entry: entry if len(entry) < 10 else "4301-digits")
    @pytest.mark.parametrize("part", ["modulus", "image", "point"])
    def test_bad_rational_exits_2_before_any_context(self, tmp_path, capsys, monkeypatch,
                                                     part, entry):
        monkeypatch.setattr(cli, "context_from_json",
                            lambda data: pytest.fail("context built"))
        field = copy.deepcopy(GAUSSIAN_FIELD)
        lweights = {"p": [{"node": 1, "point": ["0", "1"], "exp": 1}]}
        where = {"modulus": "modulus", "image": "automorphism 1",
                 "point": "point of l-weight 'p'"}[part]
        if part == "modulus":
            field["modulus"][0] = entry
        elif part == "image":
            field["automorphisms"][1][1] = entry
        else:
            lweights["p"][0]["point"][1] = entry
        job = write_job(tmp_path, ["validate-field"], lweights=lweights, field=field)
        assert run(str(job), quiet=True) == 2
        assert capsys.readouterr().err == \
            "error: malformed job file: %s has a non-rational entry %r\n" % (where, entry)

    def test_huge_exponent_literal_exits_2_at_once(self, tmp_path, src_env):
        # Fraction("1e10000000") builds a ten-million-digit integer: 26.7 s
        # before the check, then Python's digit limit message
        job = write_job(tmp_path, ["lw-info p"], lweights={
            "p": [{"node": 1, "point": ["0", "1e10000000"], "exp": 1}]})
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--quiet"],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert time.perf_counter() - start < 5
        assert out.returncode == 2
        assert out.stderr == ("error: malformed job file: point of l-weight 'p' has a "
                              "non-rational entry '1e10000000'\n")

    def test_documented_rational_forms_still_parse(self, tmp_path):
        field = copy.deepcopy(GAUSSIAN_FIELD)
        field["modulus"] = ["+2/2", 0, "001"]
        rep = run_json(tmp_path, ["lw-info p", "lw-info q"], field=field, lweights={
            "p": [{"node": 1, "point": ["-0", "+4/4"], "exp": 1}],
            "q": [{"node": 1, "point": [0, "1"], "exp": 1}]})
        assert rep["results"][0]["result"] == dict(rep["results"][1]["result"], name="p")


def rational_records(exps, start=1):
    """A1 l-weight records at the rational points start, start + 1, ..."""
    return [{"node": 1, "point": [str(start + k), "0"], "exp": e} for k, e in enumerate(exps)]


class TestTensorBound:
    """tensor is rejected before any multiplicity map is built when its work
    measure is above MAX_TENSOR_WORK; B3 with exponent 42 at each node ran
    past 20 s within MAX_EXPONENT."""

    # eight shared points: 8 points times 4^4 * 2^4 constituents = 2^15
    AT_BOUND = rational_records([3, 3, 3, 3, 1, 1, 1, 1])

    def test_bound_is_inclusive(self, tmp_path, qi, a1):
        assert cli.MAX_TENSOR_WORK == 2 ** 15
        lw = LWeight.from_json(qi, a1, self.AT_BOUND)
        assert cli._tensor_work(lw, lw) == cli.MAX_TENSOR_WORK
        rep = run_json(tmp_path, ["tensor a a"], lweights={"a": self.AT_BOUND})
        assert rep["results"][0]["result"]["totalDim"] == 4 ** 8 * 2 ** 8

    @pytest.mark.parametrize("lie_type, lweights, work", [
        ("A1", {"a": AT_BOUND, "b": AT_BOUND + rational_records([1], start=9)},
         9 * 4 ** 4 * 2 ** 4),
        ("B3", {"a": [{"node": n, "point": ["0", "1"], "exp": 42} for n in (1, 2, 3)],
                "b": [{"node": n, "point": ["0", "1"], "exp": 42} for n in (1, 2, 3)]},
         None),
    ], ids=["one-more-point", "b3-exponent-42"])
    def test_above_the_bound_is_malformed(self, tmp_path, capsys, monkeypatch, lie_type,
                                          lweights, work):
        monkeypatch.setattr(cli, "tensor_decompose_k",
                            lambda a, b: pytest.fail("tensor decomposed"))
        job = write_job(tmp_path, ["tensor a b"], lweights=lweights, lie_type=lie_type)
        assert run(str(job), quiet=True) == 2
        err = capsys.readouterr().err
        assert "above the tensor work bound %d" % cli.MAX_TENSOR_WORK in err
        if work is not None:
            assert "has work %d," % work in err

    def test_not_dominant_stays_a_validation_failure(self, tmp_path, capsys):
        job = write_job(tmp_path, ["tensor n p"], lweights={
            "n": [{"node": 1, "point": ["0", "1"], "exp": -64}, {"node": 1, "point": ["0", "2"],
                                                                  "exp": -64}],
            "p": [{"node": 1, "point": ["0", "1"], "exp": 1}]})
        assert run(str(job), quiet=True) == 1
        assert "NotDominant" in capsys.readouterr().err

    @pytest.mark.parametrize("ctx_name, rs_name", [
        ("qi", "a1"), ("qi", "a2"), ("cyclo5", "a2"), ("zeta8", "a1")])
    def test_work_bounds_the_constituents(self, settings_by_name, ctx_name, rs_name):
        # the F-level constituents over all pairs (a, b'), b' a conjugate of
        # b, are at most the work
        ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
        rng = random.Random(ctx_name + rs_name)
        for _ in range(25):
            a = random_dominant(ctx, rs, rng, max_support=4, max_exp=3)
            b = random_dominant(ctx, rs, rng, max_support=4, max_exp=3)
            constituents = sum(len(_tensor_f_level(a, bp)) for bp in b.conjugacy_class()[0])
            assert constituents <= cli._tensor_work(a, b)


class TestReadmeGolden:
    """The README job's stdout and --json report are pinned byte for byte in
    tests/golden."""

    def test_stdout_and_report(self, tmp_path, src_env):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(readme_job()))
        report = tmp_path / "report.json"
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(path), "--json", str(report)],
            capture_output=True, env=src_env, timeout=120,
        )
        assert (out.returncode, out.stderr) == (0, b"")
        with open(os.path.join(GOLDEN, "readme.stdout"), "rb") as fh:
            assert out.stdout == fh.read()
        with open(os.path.join(GOLDEN, "readme.json"), "rb") as fh:
            assert report.read_bytes() == fh.read()


class TestReportPath:
    """A --json path that cannot take the report exits 2 before any command
    runs; it used to run every command and die with a traceback."""

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_bad_report_path_exits_2(self, tmp_path, src_env, where):
        job = write_job(tmp_path, ["lw-info p"])
        report = tmp_path if where == "directory" else tmp_path / "nosuch" / "out.json"
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(job), "--json", str(report)],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: bad --json report path")
        assert out.stderr.count("\n") == 1

    def test_checked_before_the_job_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_run_command", lambda *args: pytest.fail("command ran"))
        job = write_job(tmp_path, ["lw-info p"])
        assert run(str(job), json_path=str(tmp_path), quiet=True) == 2

    def test_failed_write_exits_2(self, tmp_path, capsys, monkeypatch):
        # a path that passes the early check but fails to open still keeps
        # the contract
        job = write_job(tmp_path, ["lw-info p"])
        real_open = open

        def failing_open(path, *args, **kwargs):
            if str(path).endswith("out.json"):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", failing_open)
        assert run(str(job), json_path=str(tmp_path / "out.json"), quiet=True) == 2
        assert "bad --json report path" in capsys.readouterr().err


class TestFailedJobReport:
    """A job that fails at a command after loading still writes its --json
    report: the results before the command and one error record."""

    NOT_DOMINANT = {"n": [{"node": 1, "point": ["0", "1"], "exp": -1}],
                    "p": [{"node": 1, "point": ["0", "1"], "exp": 1}]}

    def test_validation_failure_keeps_the_completed_results(self, tmp_path, capsys):
        commands = ["validate-field", "lw-info p", "tensor n p", "dual p"]
        job = write_job(tmp_path, commands, lweights=self.NOT_DOMINANT)
        report = tmp_path / "report.json"
        assert run(str(job), json_path=str(report)) == 1
        out, err = capsys.readouterr()
        assert out.count("\n[") == 1 and out.startswith("[0] validate-field")
        written = json.loads(report.read_text())
        complete = run_json(tmp_path, commands[:2], lweights=self.NOT_DOMINANT)
        assert written["results"] == complete["results"]
        assert written["error"] == {
            "index": 2, "command": ["tensor", "n", "p"], "errorClass": "NotDominant",
            "message": err.split("NotDominant: ", 1)[1].rstrip("\n")}
        assert sorted(written) == ["error", "results", "schemaVersion"]

    def test_malformed_command_names_its_class(self, tmp_path, capsys):
        job = write_job(tmp_path, ["validate-field", "lw-info nope"])
        report = tmp_path / "report.json"
        assert run(str(job), json_path=str(report), quiet=True) == 2
        written = json.loads(report.read_text())
        assert [r["index"] for r in written["results"]] == [0]
        assert written["error"] == {"index": 1, "command": ["lw-info", "nope"],
                                    "errorClass": "JobError",
                                    "message": "unknown l-weight name 'nope'"}
        assert capsys.readouterr().err == "error: command 1: unknown l-weight name 'nope'\n"

    def test_failure_in_the_first_command(self, tmp_path):
        job = write_job(tmp_path, ["link-chain A1 1 0"])
        report = tmp_path / "report.json"
        assert run(str(job), json_path=str(report), quiet=True) == 1
        written = json.loads(report.read_text())
        assert written["results"] == [] and written["error"]["errorClass"] == "NotSameClass"

    @pytest.mark.parametrize("lie_type, code", [("Z2", 1), ("A9", 2)])
    def test_failure_while_loading_leaves_no_report(self, tmp_path, lie_type, code):
        job = write_job(tmp_path, ["validate-field"], lie_type=lie_type)
        report = tmp_path / "report.json"
        assert run(str(job), json_path=str(report), quiet=True) == code
        assert not report.exists()


def _node_zero(job):
    job["lweights"]["p"][0]["node"] = 0


def _node_missing(job):
    del job["lweights"]["p"][0]["node"]


def _modulus_non_numeric(job):
    job["field"]["modulus"][0] = "x"


class TestMalformedRecords:
    """Job files that once crashed with a traceback exit 2 (malformed)."""

    @pytest.mark.parametrize(
        "corrupt", [_node_zero, _node_missing, _modulus_non_numeric],
        ids=["node-zero", "node-missing", "modulus-non-numeric"],
    )
    def test_exit_2_without_traceback(self, tmp_path, src_env, corrupt):
        path = write_job(tmp_path, ["lw-info p"])
        job = json.loads(path.read_text())
        corrupt(job)
        path.write_text(json.dumps(job))
        out = subprocess.run(
            [sys.executable, "-m", "looprep.cli", str(path), "--quiet"],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "malformed job file" in out.stderr

    @pytest.mark.parametrize("record", [
        {"node": 1, "point": ["0", "1"], "exp": 1.7},
        {"node": True, "point": ["0", "1"], "exp": 1},
        {"node": "1", "point": ["0", "1"], "exp": 1},
        {"node": 2, "point": ["0", "1"], "exp": 1},
        {"node": 1, "point": ["0", "0"], "exp": 1},
        {"node": 1, "point": ["0", "a"], "exp": 1},
        {"node": 1, "point": "0,1", "exp": 1},
    ], ids=["exp-float", "node-bool", "node-string", "node-above-rank",
            "point-zero", "point-non-numeric", "point-not-array"])
    def test_bad_lweight_record(self, tmp_path, capsys, record):
        job = write_job(tmp_path, ["lw-info p"], lweights={"p": [record]})
        assert run(str(job), quiet=True) == 2
        assert "malformed job file" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"modulus": ["1", "0", "1/0"], "automorphisms": [["0", "1"], ["0", "-1"]]},
        {"modulus": ["1", "0", "1"], "automorphisms": [["0", "1"], ["0", 1.5]]},
        {"modulus": ["1", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]],
         "subgroup": ["0", "1"]},
        ["1", "0", "1"],
    ], ids=["zero-denominator", "float-coefficient", "subgroup-strings", "not-object"])
    def test_bad_field(self, tmp_path, capsys, field):
        job = write_job(tmp_path, ["validate-field"], field=field)
        assert run(str(job), quiet=True) == 2
        assert "malformed job file" in capsys.readouterr().err

    def test_commands_not_array(self, tmp_path, capsys):
        path = write_job(tmp_path, [])
        job = json.loads(path.read_text())
        job["commands"] = 5
        path.write_text(json.dumps(job))
        assert run(str(path), quiet=True) == 2
        assert "malformed job file" in capsys.readouterr().err

    def test_integer_coordinates_still_accepted(self, tmp_path):
        rep = run_json(tmp_path, ["lw-info p"], lweights={
            "p": [{"node": 1, "point": [0, 1], "exp": 1}],
        })
        assert rep["results"][0]["result"]["degree"] == 2


# --- fuzzed job files ---------------------------------------------------------

def readme_job():
    """The example job file of the README."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(re.search(r"```json\n(\{.*?\n\})\n```", text, re.S).group(1))


# replacement values: valid, invalid and wrongly typed, none of them large
# enough to make a command slow
FIELD_VALUES = {
    "modulus": [["1", "0", "2"], ["-1", "0", "1"], ["0", "0", "1"], ["1"], [],
                ["1", "0", "1", "0"], ["x"], "1", [None], ["1/0"], [True], [1, 0, 1]],
    "automorphisms": [[["0", "1"]], [["0", "1"], ["0", "1"]], [["0", "1"], ["1", "-1"]],
                      [["0", "1"], ["0", "-1"], ["0", "2"]], [], "x", [["0", "1"], 3],
                      [["0", "1"], ["0", "-1/2"]]],
    "subgroup": [[0], [1], [0, 1, 2], [], [-1], [0, 0, 1], "x", [True], None, [1.5]],
}
RECORD_VALUES = {
    "node": [0, 1, 2, -1, "1", 1.5, None, True, 10 ** 30],
    "point": [["0"], ["0", "0"], ["1/0"], ["x"], [1, 2], ["0", "1", "2"], 5, [],
              ["3/2", "-1/3"], ["2"], ["0", "-1"], ["0", "1e5"], ["0", " 1"], ["+1", "0"]],
    "exp": [-1, 0, 1, 2, 3, "1", 1.5, None, True, -10 ** 30, 129, 20000, 10 ** 9],
}
# where the fuzzed job's --json report goes: a fresh file, an existing
# directory, or a file in a missing directory
REPORT_PATHS = ["report.json", ".", os.path.join("nosuch", "report.json")]
TOKENS = ["p", "q", "pc", "nosuch", "", "1", "-1", "0", "4", "1,1", "1,1,1", "A1", "A2",
          "G2", "B2", "Z9", "E8", "--node", "--index", "--order", "--max-steps", "--type",
          "--bogus", "2", "12", "13", "16", "17", "3/2", "x", "tensor", "blocks", "1_0",
          "+4", "\u0663", "A+1"]
# misspelt options, each drawn with a value
OPTION_TYPOS = ["--max-step", "--maxsteps", "--nodes", "--Index", "--ordre", "--typ", "--"]


def mutate_field(data, job):
    key = data.draw(st.sampled_from(sorted(FIELD_VALUES)))
    if data.draw(st.booleans()):
        job["field"].pop(key, None)
    else:
        job["field"][key] = copy.deepcopy(data.draw(st.sampled_from(FIELD_VALUES[key])))


def mutate_record(data, job):
    records = job["lweights"][data.draw(st.sampled_from(sorted(job["lweights"])))]
    action = data.draw(st.sampled_from(["set", "drop", "add", "replace"]))
    if action == "add" or not records or not isinstance(records[0], dict):
        records.append({"node": 1, "point": ["0", "3"], "exp": 1})
    elif action == "replace":
        records[0] = data.draw(st.sampled_from([None, 5, "x", [], {}]))
    else:
        key = data.draw(st.sampled_from(sorted(RECORD_VALUES)))
        if action == "drop":
            records[0].pop(key, None)
        else:
            records[0][key] = copy.deepcopy(data.draw(st.sampled_from(RECORD_VALUES[key])))


def mutate_command(data, job):
    commands = job["commands"]
    index = data.draw(st.integers(0, len(commands) - 1))
    tokens = commands[index].split() if isinstance(commands[index], str) else []
    action = data.draw(st.sampled_from(["replace", "insert", "drop", "whole", "typo",
                                        "repeat", "extra"]))
    if action == "whole":
        commands[index] = data.draw(st.sampled_from([5, None, [], [1, "p"], ["lw-info", "p"]]))
        return
    position = data.draw(st.integers(0, len(tokens)))
    options = [i for i, tok in enumerate(tokens[:-1]) if tok.startswith("--")]
    if action == "typo":
        tokens[position:position] = [data.draw(st.sampled_from(OPTION_TYPOS)), "1"]
    elif action == "repeat" and options:
        i = data.draw(st.sampled_from(options))
        tokens[position:position] = tokens[i:i + 2]
    elif action in ("repeat", "extra"):
        tokens.append(data.draw(st.sampled_from(["p", "q", "1", "A1", "1,1"])))
    elif action == "drop":
        del tokens[position:position + 1]
    else:
        token = data.draw(st.sampled_from(TOKENS))
        if action == "replace" and position < len(tokens):
            tokens[position] = token
        else:
            tokens.insert(position, token)
    commands[index] = " ".join(tokens)


class TestFuzzedJobs:
    """The README job with mutated field, l-weight records and command
    tokens keeps the CLI contract: exit 0, 1 or 2 and never a traceback."""

    @settings(deadline=None, max_examples=120)
    @given(data=st.data())
    def test_contract_holds(self, data):
        job = readme_job()
        picked = data.draw(st.lists(st.sampled_from(job["commands"]), min_size=1, max_size=3))
        job["commands"] = picked
        for _ in range(data.draw(st.integers(1, 3))):
            mutate = data.draw(st.sampled_from([mutate_field, mutate_record, mutate_command]))
            mutate(data, job)
        where = data.draw(st.sampled_from(REPORT_PATHS))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "job.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job, fh)
            report = os.path.join(tmp, where)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(path, json_path=report)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            # a job that fails after loading reports the command it failed
            # at; one that fails before loading, or on its report path, none
            failed_command = err.getvalue().startswith("error: command ")
            assert (code == 0 or failed_command) == os.path.isfile(report)
            assert (code == 0) == (err.getvalue() == "")
            if os.path.isfile(report):
                with open(report, encoding="utf-8") as fh:
                    written = json.load(fh)
                errors = [written["error"]] if "error" in written else []
                assert len(errors) == (code != 0)
                assert all(e["index"] == len(written["results"]) for e in errors)
            if where != REPORT_PATHS[0]:
                assert code == 2 and out.getvalue() == ""

    def test_readme_job_runs(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(readme_job()))
        assert run(str(path), quiet=True) == 0
