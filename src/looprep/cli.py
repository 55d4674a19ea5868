"""Batch job runner.

A job file is UTF-8 JSON declaring a field context, a Lie type, named
l-weights, and an ordered list of commands.  Commands run sequentially and
results are reported in order, human-readable on stdout and optionally as a
machine-readable JSON report.  Identical job files produce byte-identical
reports.  A command that fails stops the job; the JSON report then holds the
results before it and one "error" record naming the command, its index, the
error class and the message.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import prod
from operator import add

from .classify import (
    classify,
    compositum_degree,
    dim_weyl_f,
    dim_weyl_k,
    tensor_decompose_k,
    tp_irreducible_criterion,
)
from .errors import LoopRepError
from .exact import rational
from .galois import context_from_json
from .lweights import LWeight
from .roots import _parse_type, root_system

SCHEMA_VERSION = 1

# link-chain's --max-steps and series-check's --order when a command gives none
DEFAULT_STEPS = 8
DEFAULT_ORDER = 8

# Upper bounds on the work a job may ask for: a larger --max-steps, --order,
# Lie-type rank, series-check rank times order, field degree or l-weight
# exponent makes the job malformed.  The link-chain search grows like
# steps^rank (16 steps in E8 take seconds), building a root system steeply
# with the rank (A80 takes seconds; rank 8 covers E8), the series suite
# steeply with rank and order (2-CPU machine, Python 3.11: F4 at order 9,
# the slowest within 36, 0.5 s; just beyond, E8 at 5 1.0 s and B3 at 14
# 0.5 s), and the field work of a job steeply with the degree (the README's
# commands over zeta35, degree 24, 1.0 s; zeta51, degree 32, 1.9 s;
# zeta41, degree 40, 3.2 s; zeta69, degree 44, 5.0 s).  The --order bound
# is the series layer's own MAX_ORDER: every exponent of a series up to
# that order fits its packed slot.  MAX_EXPONENT bounds the sum of the absolute
# exponents of one l-weight's records, so every node weight and the degree
# of every polynomial: on A1 over Q(i) the slowest commands, kx-matrix and
# embedding-rank, take 0.3 s beyond start-up at exponent 128, 1.2 s at 256
# and 15 s at 1000, and at 20000 the Weyl dimension 2^20000 is too long to
# print.  MAX_TENSOR_WORK bounds _tensor_work, checked before `tensor`
# builds any multiplicity map.  At each shared point it takes the least of
# two bounds on the constituents there (the Weyl dimensions, the dominant
# weights below the summed weight), which also bound that point's weight
# map; the product over points and the factor of points count the
# constituents of many points, which MAX_EXPONENT leaves unbounded (B3 with
# exponent 42 at each node measures 2.7e7 and ran past 20 s).  Over 26
# measured families a unit took 0.7-43 us; the slowest within the bound
# were 0.9 s (A1, 8 shared and 100 other points) and 0.7 s (A2, one point
# of weight (63, 63)).
MAX_STEPS = 16
MAX_RANK = 8
MAX_RANK_ORDER = 36
MAX_DEGREE = 32
MAX_EXPONENT = 128
MAX_TENSOR_WORK = 2 ** 15


class JobError(Exception):
    """Malformed job file (exit code 2)."""


def int_literal(text):
    """The int of an ASCII decimal literal with an optional minus sign; int()
    alone also takes underscores, spaces, a plus sign and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError("invalid literal %r" % text)
    return int(text)


def _tokens(command):
    if isinstance(command, str):
        return command.split()
    if isinstance(command, list) and all(isinstance(t, str) for t in command):
        return list(command)
    raise JobError("command must be a string or a list of strings")


def _root_system(lie_type):
    """The root system of a type string whose rank is at most MAX_RANK."""
    rank = _parse_type(lie_type)[1]
    if rank > MAX_RANK:
        raise JobError("Lie type %r has rank %d, above %d" % (lie_type, rank, MAX_RANK))
    return root_system(lie_type)


def _parse_weight(text, rank):
    try:
        coords = tuple(int_literal(x) for x in text.split(","))
    except ValueError:
        raise JobError("bad weight literal %r" % text)
    if len(coords) != rank:
        raise JobError("weight %r has wrong rank" % text)
    return coords


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rationals(coeffs, what, most):
    """A JSON array of at most ``most`` rational coefficients, each an int or
    an ASCII string like "-3/2" (the library's rule, ``exact.rational``)."""
    if not isinstance(coeffs, list):
        raise JobError("%s must be an array" % what)
    if len(coeffs) > most:
        raise JobError("%s has %d coefficients, above %d" % (what, len(coeffs), most))
    for c in coeffs:
        try:
            rational(c)
        except ValueError:
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
    """Shape of the l-weight records and their exponent sums; LWeight checks
    the nodes."""
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
            if not _is_int(rec["exp"]):
                raise JobError("l-weight %r: exponent %r is not an integer"
                               % (name, rec["exp"]))
            total += abs(rec["exp"])
            if total > MAX_EXPONENT:
                raise JobError("l-weight %r: exponents add up to more than %d"
                               % (name, MAX_EXPONENT))
            _check_rationals(rec["point"], "point of l-weight %r" % name, MAX_DEGREE)


class Job:
    """A job file checked for shape and bounds (JobError otherwise), then
    loaded: the library's errors on the type and the field propagate as
    validation failures, and an l-weight record it rejects (a node that is
    not an integer in 1..rank, a zero point) makes the job file malformed."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise JobError("job file must be a JSON object")
        for key in ("field", "lieType", "commands"):
            if key not in data:
                raise JobError("job file misses %r" % key)
        if not isinstance(data["lieType"], str):
            raise JobError("lieType must be a string")
        _check_field(data["field"])
        lweights = data.get("lweights", {})
        _check_lweights(lweights)
        if not isinstance(data["commands"], list):
            raise JobError("commands must be an array")
        self.commands = [_tokens(c) for c in data["commands"]]
        self.rs = _root_system(data["lieType"])
        self.ctx = context_from_json(data["field"])
        self.lweights = {}
        for name, records in lweights.items():
            try:
                self.lweights[name] = LWeight.from_json(self.ctx, self.rs, records)
            except ValueError as exc:
                raise JobError("l-weight %r: %s" % (name, exc))

    def lweight(self, name):
        if name not in self.lweights:
            raise JobError("unknown l-weight name %r" % name)
        return self.lweights[name]


def _validate_field(job, opts):
    ctx = job.ctx
    line = "field ok: |G|=%d |H|=%d [K:Q]=%d" % (ctx.order, len(ctx.subgroup), ctx.k_degree)
    return {"groupOrder": ctx.order, "subgroupOrder": len(ctx.subgroup),
            "baseFieldDegree": ctx.k_degree, "valid": True}, [line]


def _lw_info(job, opts, name):
    lw = job.lweight(name)
    cls = classify(lw)
    result = {"name": name, "orbit": [m.to_json() for m in cls.orbit], "degree": cls.degree,
              "weight": list(cls.weight), "dimF": cls.dim_f, "dimK": cls.dim_k}
    line = "degree %d, wt %s, dimF %d, dimK %d" % (
        cls.degree, result["weight"], cls.dim_f, cls.dim_k)
    if job.rs.lie_type == "A1":
        result["dimWeylF"] = dim_weyl_f(lw)
        result["dimWeylK"] = dim_weyl_k(lw)
        line += ", Weyl dims %d/%d" % (result["dimWeylF"], result["dimWeylK"])
    return result, [line]


def _conjugates(job, opts, name):
    orbit, degree = job.lweight(name).conjugacy_class()
    orbit = [m.to_json() for m in orbit]
    return ({"name": name, "degree": degree, "orbit": orbit},
            ["degree %d" % degree] + [_fmt_lweight(m) for m in orbit])


def _tensor_work(a, b):
    """The measure MAX_TENSOR_WORK bounds, for dominant a and b: the sum over
    the conjugates b' of b of the number of points of a and b' times the
    product, over the points p they share, of the least of dim V(a(p)),
    dim V(b'(p)) and prod_i (floor(c_i) + 1), c the simple-root coordinates
    of a(p) + b'(p)."""
    rs = a.rs
    shared = set(a.points())
    total = 0
    for conjugate in b.conjugacy_class()[0]:
        points = conjugate.points()
        work = len(shared.union(points))
        for p in shared.intersection(points):
            x, y = a.point_weight(p), conjugate.point_weight(p)
            box = prod(c // 1 + 1 for c in rs.fund_to_root(tuple(map(add, x, y))))
            work *= min(box, rs.weyl_dim(x), rs.weyl_dim(y))
        total += work
    return total


def _tensor(job, opts, a, b):
    lwa, lwb = job.lweight(a), job.lweight(b)
    # tensor_decompose_k rejects an l-weight that is not dominant (exit 1)
    work = lwa.is_dominant and lwb.is_dominant and _tensor_work(lwa, lwb)
    if work > MAX_TENSOR_WORK:
        raise JobError("tensor %s %s has work %d, above the tensor work bound %d"
                       % (a, b, work, MAX_TENSOR_WORK))
    decomposition = tensor_decompose_k(lwa, lwb)
    criterion = tp_irreducible_criterion(lwa, lwb)
    result = {"left": a, "right": b, "decomposition": decomposition.to_json(),
              "totalDim": decomposition.total_dim, "irreducibleCriterion": criterion,
              "weylCriterion": criterion, "compositumDegree": compositum_degree(lwa, lwb)}
    lines = ["%d x [%s]  (degree %d, dimK %d)" % (
        part["mult"], _fmt_lweight(part["class"]), part["degree"], part["dimK"])
        for part in result["decomposition"]]
    lines.append("total dim %d; irreducible: %s; compositum degree %d" % (
        result["totalDim"], criterion, result["compositumDegree"]))
    return result, lines


def _rational_split(job, opts, name):
    w_k, w_tilde = (w.to_json() for w in job.lweight(name).rational_split())
    return ({"name": name, "rationalPart": w_k, "rest": w_tilde},
            ["rational part: %s" % _fmt_lweight(w_k),
             "remainder:     %s" % _fmt_lweight(w_tilde)])


def _dual(job, opts, name):
    dual = job.lweight(name).dual().to_json()
    return {"name": name, "dual": dual}, ["dual: %s" % _fmt_lweight(dual)]


def _blocks(job, opts, *names):
    from .blocks import partition_blocks

    groups = partition_blocks([job.lweight(n) for n in names])
    blocks = [[m.to_json() for m in group] for group in groups]
    return ({"names": list(names), "blocks": blocks},
            ["block %d: %s" % (k, "; ".join(map(_fmt_lweight, group)))
             for k, group in enumerate(blocks)])


def _kx_matrix(job, opts, name):
    from .kxmodules import build_kx_module, char_poly_split_check

    node = opts.get("node", 1) - 1
    index = opts.get("index", 1)
    module = build_kx_module(job.lweight(name))
    result = {"name": name, "dim": module.dim, "primitive": module.primitive.to_json(),
              "fixedByH": True}
    lines = ["dim %d, primitive (%s)" % (module.dim, ",".join(result["primitive"]))]
    if module.generator_matrices:
        if (node, index) not in module.generator_matrices:
            raise JobError("no generator at node %d, index %d" % (node + 1, index))
        result["node"] = node + 1
        result["index"] = index
        result["matrix"] = module.matrix(node, index).to_json()
        result["charPolySplits"] = char_poly_split_check(module, node, index)
        lines += ["[%s]" % "  ".join("(%s)" % ",".join(e) for e in row)
                  for row in result["matrix"]]
        lines.append("char poly splits over conjugates: %s" % result["charPolySplits"])
    return result, lines


def _embedding_rank(job, opts, a, b):
    from .kxmodules import tensor_embedding_rank

    rank, injective = tensor_embedding_rank(job.lweight(a), job.lweight(b))
    return ({"left": a, "right": b, "rank": rank, "injective": injective},
            ["rank %d, injective: %s" % (rank, injective)])


def _link_chain(job, opts, lie_type, lam_text, mu_text):
    rs = _root_system(lie_type)
    max_steps = opts.get("max-steps", DEFAULT_STEPS)
    if not 0 <= max_steps <= MAX_STEPS:
        raise JobError("link-chain: --max-steps must be in 0..%d, got %d" % (MAX_STEPS, max_steps))
    chain = rs.link_chain(_parse_weight(lam_text, rs.rank), _parse_weight(mu_text, rs.rank),
                          max_steps)
    chain = [list(w) for w in chain]
    return {"type": rs.lie_type, "chain": chain}, [" -> ".join(str(w) for w in chain)]


def _series_check(job, opts):
    from .series import MAX_ORDER

    order = opts.get("order", DEFAULT_ORDER)
    if not 1 <= order <= MAX_ORDER:
        raise JobError("series-check: --order must be in 1..%d, got %d" % (MAX_ORDER, order))
    rs = _root_system(opts.get("type", job.rs.lie_type))
    if rs.rank * order > MAX_RANK_ORDER:
        raise JobError("rank %d times --order %d is above the rank*order bound %d"
                       % (rs.rank, order, MAX_RANK_ORDER))
    checks = _series_suite(rs, order)
    passed = all(checks.values())
    status = ", ".join("%s=%s" % (k, v) for k, v in sorted(checks.items()))
    return ({"type": rs.lie_type, "order": order, "checks": checks, "allPassed": passed},
            ["all passed: %s (%s)" % (passed, status)])


def _series_suite(rs, order):
    """The series invariant suite at one order for one root system."""
    from .series import (
        SymPoly, TruncSeries, binom_poly, ev_lambda_check, h_from_lambda, h_point_symbol,
        h_series, h_symbol, lambda_alpha_identity_holds, lambda_from_h, series_inverse,
    )

    lam = lambda_from_h("a", order)
    recovered = h_from_lambda(lam)
    binomials = h_series("a", order)
    inverse = series_inverse(lam)
    return {
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


def _fmt_lweight(data):
    """Compact text for an l-weight in JSON form."""
    return " ".join("n%d:(1-(%s)u)^%d" % (rec["node"], ",".join(rec["point"]), rec["exp"])
                    for rec in data) or "1"


# command name -> (function, number of positional arguments or ONE_OR_MORE,
# the --options it takes, mapped to the types of their values).  A function
# takes the job, the parsed options and the positional arguments, and returns
# the JSON result and its report lines.
ONE_OR_MORE = "one or more"
COMMANDS = {
    "validate-field": (_validate_field, 0, {}),
    "lw-info": (_lw_info, 1, {}),
    "conjugates": (_conjugates, 1, {}),
    "tensor": (_tensor, 2, {}),
    "rational-split": (_rational_split, 1, {}),
    "dual": (_dual, 1, {}),
    "blocks": (_blocks, ONE_OR_MORE, {}),
    "kx-matrix": (_kx_matrix, 1, {"node": int_literal, "index": int_literal}),
    "embedding-rank": (_embedding_rank, 2, {}),
    "link-chain": (_link_chain, 3, {"max-steps": int_literal}),
    "series-check": (_series_check, 0, {"order": int_literal, "type": str}),
}


def _run_command(job, tokens):
    """Check one command's tokens against COMMANDS and run it: (JSON result,
    report lines)."""
    positional, pairs = [], []
    rest = iter(tokens)
    for tok in rest:
        if tok.startswith("--"):
            pairs.append((tok[2:], next(rest, None)))
        else:
            positional.append(tok)
    if not positional:
        raise JobError("empty command")
    cmd, args = positional[0], positional[1:]
    if cmd not in COMMANDS:
        raise JobError("unknown command %r" % cmd)
    function, arity, known = COMMANDS[cmd]
    options = {}
    for key, value in pairs:
        if key not in known:
            raise JobError("%s has no option --%s" % (cmd, key))
        if key in options:
            raise JobError("%s: option --%s given twice" % (cmd, key))
        if value is None:
            raise JobError("%s: option --%s needs a value" % (cmd, key))
        try:
            options[key] = known[key](value)
        except ValueError:
            raise JobError("%s: option --%s takes an integer, got %r" % (cmd, key, value))
    if not args if arity == ONE_OR_MORE else len(args) != arity:
        raise JobError("%s takes %s argument(s), got %d" % (cmd, arity, len(args)))
    return function(job, options, *args)


def _report_path_error(json_path):
    """Why no JSON report can be written to json_path, or None."""
    if os.path.isdir(json_path):
        return "%r is a directory" % json_path
    parent = os.path.dirname(os.path.abspath(json_path))
    if not os.path.isdir(parent):
        return "directory %r does not exist" % parent
    return None


def run(job_path, json_path=None, quiet=False):
    """Execute a job file; returns the process exit code."""
    problem = json_path and _report_path_error(json_path)
    if problem:
        print("error: bad --json report path: %s" % problem, file=sys.stderr)
        return 2
    try:
        with open(job_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        job = Job(data)
    except LoopRepError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except (OSError, ValueError, RecursionError, JobError) as exc:
        # RecursionError: a nesting too deep for json to decode
        print("error: malformed job file: %s" % exc, file=sys.stderr)
        return 2

    results, failed, code = [], None, 0
    for index, tokens in enumerate(job.commands):
        try:
            result, lines = _run_command(job, tokens)
        except (JobError, ValueError) as exc:
            # ValueError covers literal mistakes in the command
            print("error: command %d: %s" % (index, exc), file=sys.stderr)
            failed, code = exc, 2
            break
        except LoopRepError as exc:
            print(
                "error: command %d: %s: %s" % (index, type(exc).__name__, exc),
                file=sys.stderr,
            )
            failed, code = exc, 1
            break
        results.append({"index": index, "command": tokens, "result": result})
        if not quiet:
            print("\n".join(["[%d] %s" % (index, " ".join(tokens))]
                            + ["  " + line for line in lines]))

    if json_path:
        report = {"schemaVersion": SCHEMA_VERSION, "results": results}
        if failed is not None:
            report["error"] = {"index": index, "command": tokens,
                               "errorClass": type(failed).__name__, "message": str(failed)}
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print("error: bad --json report path: %s" % exc, file=sys.stderr)
            return 2
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="looprep",
        description="Run a batch job of loop-algebra representation computations.",
    )
    parser.add_argument("job", help="path to a JSON job file")
    parser.add_argument("--json", dest="json_path", help="write a JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout report")
    ns = parser.parse_args(argv)
    return run(ns.job, ns.json_path, ns.quiet)


if __name__ == "__main__":
    sys.exit(main())
