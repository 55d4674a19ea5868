import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import LWeight, cli, lambda_from_h, root_system, tp_irreducible_criterion
from looprep.cli import main, run


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
        monkeypatch.setattr(cli, "h_series", lambda alpha, order: lambda_from_h(alpha, order))
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

    @pytest.mark.parametrize("command, flags", [
        ("series-check --type E8", []),
        ("series-check --order 8 --type E8", []),
        ("series-check --type E8", ["--order", "8"]),
        ("series-check --order 7 --type A6", []),
    ], ids=["E8-default-order", "E8-order-inline", "E8-order-global", "A6-order-7"])
    def test_rank_times_order_above_the_bound_is_malformed(self, tmp_path, capsys,
                                                           monkeypatch, command, flags):
        # E8 at the default order ran for minutes; the bound rejects it before
        # any series work is done
        monkeypatch.setattr(cli, "_series_suite",
                            lambda rs, order: pytest.fail("series suite ran"))
        job = write_job(tmp_path, [command])
        assert main([str(job), "--quiet"] + flags) == 2
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

    def test_bounds_cover_the_documented_values(self, tmp_path):
        assert cli.MAX_STEPS >= 8 and cli.MAX_ORDER >= 10
        rep = run_json(tmp_path, ["link-chain A1 4 0 --max-steps %d" % cli.MAX_STEPS])
        assert rep["results"][0]["result"]["chain"] == [[0], [2], [4]]


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
              ["3/2", "-1/3"], ["2"], ["0", "-1"]],
    "exp": [-1, 0, 1, 2, 3, "1", 1.5, None, True, -10 ** 30],
}
TOKENS = ["p", "q", "pc", "nosuch", "", "1", "-1", "0", "4", "1,1", "1,1,1", "A1", "A2",
          "G2", "B2", "Z9", "E8", "--node", "--index", "--order", "--max-steps", "--type",
          "--bogus", "2", "12", "13", "16", "17", "3/2", "x", "tensor", "blocks"]


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
    action = data.draw(st.sampled_from(["replace", "insert", "drop", "whole"]))
    if action == "whole":
        commands[index] = data.draw(st.sampled_from([5, None, [], [1, "p"], ["lw-info", "p"]]))
        return
    position = data.draw(st.integers(0, len(tokens)))
    if action == "drop":
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
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "job.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(path, json_path=os.path.join(tmp, "report.json"))
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            assert (code == 0) == os.path.exists(os.path.join(tmp, "report.json"))
            assert (code == 0) == (err.getvalue() == "")

    def test_readme_job_runs(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(readme_job()))
        assert run(str(path), quiet=True) == 0
