"""Batch job runner.

A job file is UTF-8 JSON declaring a field context, a Lie type, named
l-weights, and an ordered list of commands.  Commands run sequentially and
results are reported in order, human-readable on stdout and optionally as a
machine-readable JSON report.  Identical job files produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .blocks import partition_blocks
from .classify import (
    classify,
    compositum_degree,
    dim_weyl_f,
    dim_weyl_k,
    tensor_decompose_k,
    tp_irreducible_criterion,
)
from .errors import LoopRepError
from .galois import context_from_json
from .kxmodules import build_kx_module, char_poly_split_check, tensor_embedding_rank
from .lweights import LWeight
from .roots import _parse_type, root_system
from .series import (
    MAX_ORDER,
    SymPoly,
    TruncSeries,
    binom_poly,
    ev_lambda_check,
    h_from_lambda,
    h_point_symbol,
    h_series,
    h_symbol,
    lambda_alpha_identity_holds,
    lambda_from_h,
    series_inverse,
)

SCHEMA_VERSION = 1

# Upper bounds on the work a job may ask for: a larger --max-steps, --order,
# Lie-type rank, series-check rank times order, field degree or l-weight
# exponent makes the job malformed.  The link-chain search grows like
# steps^rank (16 steps in E8 take seconds), building a root system steeply
# with the rank (A80 takes seconds; rank 8 covers E8), the series suite
# steeply with rank and order (2-CPU machine, Python 3.11: F4 at order 9,
# the slowest within 36, 0.5 s; just beyond, E8 at 5 1.0 s and B3 at 14
# 0.5 s), and the field work of a job steeply with the degree (the README's
# commands over zeta35, degree 24, 1.0 s; zeta51, degree 32, 1.9 s;
# zeta41, degree 40, 3.2 s; zeta69, degree 44, 5.0 s).  MAX_ORDER is the
# series layer's own bound: every exponent of a series up to that order
# fits its packed slot.  MAX_EXPONENT bounds the sum of the absolute
# exponents of one l-weight's records, so every node weight and the degree
# of every polynomial: on A1 over Q(i) the slowest commands, kx-matrix and
# embedding-rank, take 0.3 s beyond start-up at exponent 128, 1.2 s at 256
# and 15 s at 1000, and at 20000 the Weyl dimension 2^20000 is too long to
# print.
MAX_STEPS = 16
MAX_RANK = 8
MAX_RANK_ORDER = 36
MAX_DEGREE = 32
MAX_EXPONENT = 128


class JobError(Exception):
    """Malformed job file (exit code 2)."""


def _tokens(command):
    if isinstance(command, str):
        return command.split()
    if isinstance(command, list) and all(isinstance(t, str) for t in command):
        return list(command)
    raise JobError("command must be a string or a list of strings")


def _split_options(tokens):
    """Separate positional tokens from --key value options."""
    positional = []
    options = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("--"):
            if i + 1 >= len(tokens):
                raise JobError("option %s needs a value" % tok)
            options[tok[2:]] = tokens[i + 1]
            i += 2
        else:
            positional.append(tok)
            i += 1
    return positional, options


def _root_system(lie_type):
    """The root system of a type string whose rank is at most MAX_RANK."""
    rank = _parse_type(lie_type)[1]
    if rank > MAX_RANK:
        raise JobError("Lie type %r has rank %d, above %d" % (lie_type, rank, MAX_RANK))
    return root_system(lie_type)


def _parse_weight(text, rank):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise JobError("bad weight literal %r" % text)
    if len(coords) != rank:
        raise JobError("weight %r has wrong rank" % text)
    return coords


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rationals(coeffs, what, most):
    """A JSON array of at most ``most`` rational coefficients: ints or
    strings like "-3/2"."""
    if not isinstance(coeffs, list):
        raise JobError("%s must be an array" % what)
    if len(coeffs) > most:
        raise JobError("%s has %d coefficients, above %d" % (what, len(coeffs), most))
    for c in coeffs:
        if not (_is_int(c) or isinstance(c, str)):
            raise JobError("%s has a non-rational entry %r" % (what, c))
        try:
            Fraction(c)
        except (ValueError, ZeroDivisionError):
            raise JobError("%s has a non-rational entry %r" % (what, c))


def _check_field(field):
    if not isinstance(field, dict):
        raise JobError("field must be a JSON object")
    for key in ("modulus", "automorphisms"):
        if key not in field:
            raise JobError("field misses %r" % key)
    _check_rationals(field["modulus"], "modulus", MAX_DEGREE + 1)
    if not isinstance(field["automorphisms"], list):
        raise JobError("automorphisms must be an array")
    if len(field["automorphisms"]) > MAX_DEGREE:
        raise JobError("%d automorphisms, above the degree bound %d"
                       % (len(field["automorphisms"]), MAX_DEGREE))
    for k, image in enumerate(field["automorphisms"]):
        _check_rationals(image, "automorphism %d" % k, MAX_DEGREE)
    subgroup = field.get("subgroup")
    if subgroup is not None and not (
        isinstance(subgroup, list) and all(_is_int(i) for i in subgroup)
    ):
        raise JobError("subgroup must be an array of element indices")


def _check_lweights(lweights):
    """Shape of the l-weight records; LWeight checks the node range."""
    if not isinstance(lweights, dict):
        raise JobError("lweights must be a JSON object")
    for name, records in lweights.items():
        if not isinstance(records, list):
            raise JobError("l-weight %r must be an array of records" % name)
        total = 0
        for rec in records:
            if not isinstance(rec, dict):
                raise JobError("l-weight %r has a record that is not an object" % name)
            for key in ("node", "point", "exp"):
                if key not in rec:
                    raise JobError("l-weight %r has a record without %r" % (name, key))
            if not _is_int(rec["node"]):
                raise JobError("l-weight %r: node %r is not an integer"
                               % (name, rec["node"]))
            if not _is_int(rec["exp"]):
                raise JobError("l-weight %r: exponent %r is not an integer"
                               % (name, rec["exp"]))
            total += abs(rec["exp"])
            if total > MAX_EXPONENT:
                raise JobError("l-weight %r: exponents add up to more than %d"
                               % (name, MAX_EXPONENT))
            _check_rationals(rec["point"], "point of l-weight %r" % name, MAX_DEGREE)


class Job:
    def __init__(self, data):
        if not isinstance(data, dict):
            raise JobError("job file must be a JSON object")
        for key in ("field", "lieType", "commands"):
            if key not in data:
                raise JobError("job file misses %r" % key)
        _check_field(data["field"])
        self.field_json = data["field"]
        self.lie_type = data["lieType"]
        self.lweight_json = data.get("lweights", {})
        _check_lweights(self.lweight_json)
        if not isinstance(data["commands"], list):
            raise JobError("commands must be an array")
        self.commands = [_tokens(c) for c in data["commands"]]
        self.ctx = None
        self.rs = None
        self.lweights = {}

    def load(self):
        """Validate the context and the named l-weights.  Library errors
        propagate as validation failures; a node beyond the rank or a zero
        spectral point makes the job file malformed."""
        self.rs = _root_system(self.lie_type)
        self.ctx = context_from_json(self.field_json)
        for name, data in self.lweight_json.items():
            try:
                self.lweights[name] = LWeight.from_json(self.ctx, self.rs, data)
            except ValueError as exc:
                raise JobError("l-weight %r: %s" % (name, exc))

    def lweight(self, name):
        if name not in self.lweights:
            raise JobError("unknown l-weight name %r" % name)
        return self.lweights[name]


def _run_command(job, tokens, defaults):
    positional, options = _split_options(tokens)
    if not positional:
        raise JobError("empty command")
    cmd, args = positional[0], positional[1:]

    if cmd == "validate-field":
        return {
            "groupOrder": job.ctx.order,
            "subgroupOrder": len(job.ctx.subgroup),
            "baseFieldDegree": job.ctx.k_degree,
            "valid": True,
        }

    if cmd == "lw-info":
        (name,) = args
        lw = job.lweight(name)
        cls = classify(lw)
        info = {
            "name": name,
            "orbit": [m.to_json() for m in cls.orbit],
            "degree": cls.degree,
            "weight": list(cls.weight),
            "dimF": cls.dim_f,
            "dimK": cls.dim_k,
        }
        if job.rs.lie_type == "A1":
            info["dimWeylF"] = dim_weyl_f(lw)
            info["dimWeylK"] = dim_weyl_k(lw)
        return info

    if cmd == "conjugates":
        (name,) = args
        orbit, degree = job.lweight(name).conjugacy_class()
        return {"name": name, "degree": degree, "orbit": [m.to_json() for m in orbit]}

    if cmd == "tensor":
        a, b = args
        lwa, lwb = job.lweight(a), job.lweight(b)
        decomposition = tensor_decompose_k(lwa, lwb)
        criterion = tp_irreducible_criterion(lwa, lwb)
        return {
            "left": a,
            "right": b,
            "decomposition": decomposition.to_json(),
            "totalDim": decomposition.total_dim,
            "irreducibleCriterion": criterion,
            "weylCriterion": criterion,
            "compositumDegree": compositum_degree(lwa, lwb),
        }

    if cmd == "rational-split":
        (name,) = args
        w_k, w_tilde = job.lweight(name).rational_split()
        return {"name": name, "rationalPart": w_k.to_json(), "rest": w_tilde.to_json()}

    if cmd == "dual":
        (name,) = args
        return {"name": name, "dual": job.lweight(name).dual().to_json()}

    if cmd == "blocks":
        if not args:
            raise JobError("blocks needs at least one name")
        groups = partition_blocks([job.lweight(n) for n in args])
        return {
            "names": args,
            "blocks": [[m.to_json() for m in group] for group in groups],
        }

    if cmd == "kx-matrix":
        (name,) = args
        node = int(options.get("node", 1)) - 1
        index = int(options.get("index", 1))
        module = build_kx_module(job.lweight(name))
        record = {
            "name": name,
            "dim": module.dim,
            "primitive": module.primitive.to_json(),
            "fixedByH": True,
        }
        if module.generator_matrices:
            if (node, index) not in module.generator_matrices:
                raise JobError("no generator at node %d, index %d" % (node + 1, index))
            record["node"] = node + 1
            record["index"] = index
            record["matrix"] = module.matrix(node, index).to_json()
            record["charPolySplits"] = char_poly_split_check(module, node, index)
        return record

    if cmd == "embedding-rank":
        a, b = args
        rank, injective = tensor_embedding_rank(job.lweight(a), job.lweight(b))
        return {"left": a, "right": b, "rank": rank, "injective": injective}

    if cmd == "link-chain":
        lie_type, lam_text, mu_text = args
        rs = _root_system(lie_type)
        max_steps = int(options.get("max-steps", defaults["max_steps"]))
        if not 0 <= max_steps <= MAX_STEPS:
            raise JobError("--max-steps must be in 0..%d, got %d" % (MAX_STEPS, max_steps))
        chain = rs.link_chain(
            _parse_weight(lam_text, rs.rank),
            _parse_weight(mu_text, rs.rank),
            max_steps,
        )
        return {"type": rs.lie_type, "chain": [list(w) for w in chain]}

    if cmd == "series-check":
        order = int(options.get("order", defaults["order"]))
        if order > MAX_ORDER:
            raise JobError("--order must be at most %d, got %d" % (MAX_ORDER, order))
        rs = _root_system(options.get("type", job.rs.lie_type))
        if rs.rank * order > MAX_RANK_ORDER:
            raise JobError("rank %d times --order %d is above the rank*order bound %d"
                           % (rs.rank, order, MAX_RANK_ORDER))
        checks = _series_suite(rs, order)
        return {"type": rs.lie_type, "order": order,
                "checks": checks, "allPassed": all(checks.values())}

    raise JobError("unknown command %r" % cmd)


def _series_suite(rs, order):
    """The series invariant suite at one order for one root system."""
    lam = lambda_from_h("a", order)
    recovered = h_from_lambda(lam)
    binomials = h_series("a", order)
    inverse = series_inverse(lam)
    checks = {
        "roundTrip": all(
            recovered[s - 1] == SymPoly.var(h_symbol("a", s)) for s in range(1, order + 1)
        ),
        "antipode": lam * inverse == TruncSeries.one(order)
        and series_inverse(inverse) == lam,
        "evaluation": all(
            ev_lambda_check("a", r, Fraction(1)) for r in range(1, min(order, 6) + 1)
        ),
        "binomialSeries": all(
            binomials.coeffs[k] == binom_poly(h_point_symbol("a"), k)
            for k in range(order + 1)
        ),
        "rootFormula": all(
            lambda_alpha_identity_holds(rs, root, order) for root in rs.positive_roots
        ),
    }
    return checks


def _fmt_lweight(data):
    """Compact text for an l-weight in JSON form."""
    if not data:
        return "1"
    return " ".join(
        "n%d:(1-(%s)u)^%d" % (rec["node"], ",".join(rec["point"]), rec["exp"])
        for rec in data
    )


def _human_lines(record):
    index, tokens, res = record["index"], record["command"], record["result"]
    head = "[%d] %s" % (index, " ".join(tokens))
    cmd = tokens[0]
    lines = [head]
    if cmd == "validate-field":
        lines.append("  field ok: |G|=%d |H|=%d [K:Q]=%d"
                     % (res["groupOrder"], res["subgroupOrder"], res["baseFieldDegree"]))
    elif cmd == "lw-info":
        line = "  degree %d, wt %s, dimF %d, dimK %d" % (
            res["degree"], res["weight"], res["dimF"], res["dimK"])
        if "dimWeylF" in res:
            line += ", Weyl dims %d/%d" % (res["dimWeylF"], res["dimWeylK"])
        lines.append(line)
    elif cmd == "conjugates":
        lines.append("  degree %d" % res["degree"])
        lines.extend("  %s" % _fmt_lweight(m) for m in res["orbit"])
    elif cmd == "tensor":
        for part in res["decomposition"]:
            lines.append("  %d x [%s]  (degree %d, dimK %d)" % (
                part["mult"], _fmt_lweight(part["class"]),
                part["degree"], part["dimK"]))
        lines.append("  total dim %d; irreducible: %s; compositum degree %d" % (
            res["totalDim"], res["irreducibleCriterion"], res["compositumDegree"]))
    elif cmd == "rational-split":
        lines.append("  rational part: %s" % _fmt_lweight(res["rationalPart"]))
        lines.append("  remainder:     %s" % _fmt_lweight(res["rest"]))
    elif cmd == "dual":
        lines.append("  dual: %s" % _fmt_lweight(res["dual"]))
    elif cmd == "blocks":
        for k, group in enumerate(res["blocks"]):
            lines.append("  block %d: %s" % (k, "; ".join(map(_fmt_lweight, group))))
    elif cmd == "kx-matrix":
        lines.append("  dim %d, primitive (%s)" % (res["dim"], ",".join(res["primitive"])))
        for row in res.get("matrix", []):
            lines.append("  [%s]" % "  ".join("(%s)" % ",".join(e) for e in row))
        if "charPolySplits" in res:
            lines.append("  char poly splits over conjugates: %s" % res["charPolySplits"])
    elif cmd == "embedding-rank":
        lines.append("  rank %d, injective: %s" % (res["rank"], res["injective"]))
    elif cmd == "link-chain":
        lines.append("  " + " -> ".join(str(w) for w in res["chain"]))
    elif cmd == "series-check":
        status = ", ".join("%s=%s" % (k, v) for k, v in sorted(res["checks"].items()))
        lines.append("  all passed: %s (%s)" % (res["allPassed"], status))
    else:
        lines.append("  " + json.dumps(res, sort_keys=True))
    return "\n".join(lines)


def _report_path_error(json_path):
    """Why no JSON report can be written to json_path, or None."""
    if os.path.isdir(json_path):
        return "%r is a directory" % json_path
    parent = os.path.dirname(os.path.abspath(json_path))
    if not os.path.isdir(parent):
        return "directory %r does not exist" % parent
    return None


def run(job_path, json_path=None, quiet=False, max_steps=8, order=8):
    """Execute a job file; returns the process exit code."""
    problem = json_path and _report_path_error(json_path)
    if problem:
        print("error: bad --json report path: %s" % problem, file=sys.stderr)
        return 2
    try:
        with open(job_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        job = Job(data)
    except (OSError, ValueError, JobError) as exc:
        print("error: malformed job file: %s" % exc, file=sys.stderr)
        return 2

    try:
        job.load()
    except JobError as exc:
        print("error: malformed job file: %s" % exc, file=sys.stderr)
        return 2
    except LoopRepError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1

    defaults = {"max_steps": max_steps, "order": order}
    results = []
    for index, tokens in enumerate(job.commands):
        try:
            record = _run_command(job, tokens, defaults)
        except (JobError, ValueError) as exc:
            # ValueError covers arity and literal mistakes in the command
            print("error: command %d: %s" % (index, exc), file=sys.stderr)
            return 2
        except LoopRepError as exc:
            print(
                "error: command %d: %s: %s" % (index, type(exc).__name__, exc),
                file=sys.stderr,
            )
            return 1
        record = {"index": index, "command": tokens, "result": record}
        results.append(record)
        if not quiet:
            print(_human_lines(record))

    if json_path:
        report = {"schemaVersion": SCHEMA_VERSION, "results": results}
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print("error: bad --json report path: %s" % exc, file=sys.stderr)
            return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="looprep",
        description="Run a batch job of loop-algebra representation computations.",
    )
    parser.add_argument("job", help="path to a JSON job file")
    parser.add_argument("--json", dest="json_path", help="write a JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout report")
    parser.add_argument("--max-steps", type=int, default=8, help="link chain bound")
    parser.add_argument("--order", type=int, default=8, help="series truncation order")
    ns = parser.parse_args(argv)
    return run(ns.job, ns.json_path, ns.quiet, ns.max_steps, ns.order)


if __name__ == "__main__":
    sys.exit(main())
