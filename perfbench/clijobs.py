"""The cli_jobs workload: seeded job files, each run by ``looprep.cli`` in a
fresh interpreter with ``--json``, one at a time.

It is the only workload that pays interpreter start, import and cold caches
on every task, as command-line users do, and the only one that reaches the
``series`` and ``cli`` layers.  Jobs cycle through fixed kinds; a quarter of
them are contract-edge jobs drawn, in a seeded rotation, from the exit-code
classes of the README contract (0 success, 1 validation, 2 malformed job
file).  Edge classes the current code mishandles, listed in
``KNOWN_DEFECTS``, are not in the timed rotation, whose operations must all
succeed: every run sends one probe job of each such class after timing and
reports how many break the contract.
"""

import copy
import itertools
import json
import os
import random
import subprocess
import sys

# normal job kinds and edge slots, in the order a run cycles through them
CYCLE = ("lweights", "tensor", "edge", "kx", "link", "series",
         "edge", "readme", "tensor", "series", "lweights", "edge")

# edge class -> exit code the README contract requires
EDGE_CLASSES = {
    "unparseable": 2,
    "missing-key": 2,
    "unknown-command": 2,
    "unknown-name": 2,
    "wrong-arity": 2,
    "bad-index": 2,
    "bad-weight-literal": 2,
    "node-zero": 2,
    "node-missing": 2,
    "modulus-non-numeric": 2,
    "invalid-field": 1,
    "different-classes": 1,
    "unknown-type": 1,
    "not-dominant": 1,
}

# Edge classes on which the current CLI breaks its contract: each exits 1
# with a traceback instead of exiting 2 (see ROADMAP item 4).  They run as
# untimed probes (defect_probes), not in the timed rotation.
KNOWN_DEFECTS = ("modulus-non-numeric", "node-missing", "node-zero")
# edge classes of the timed rotation
ROTATION_EDGES = sorted(set(EDGE_CLASSES) - set(KNOWN_DEFECTS))

FIELDS = {"z4": (4, None), "z5": (5, None), "z5h": (5, (0, 3)), "z8": (8, None)}
LIE_TYPES = ("A1", "A2", "B2")
SERIES_TYPES = ("A2", "B2", "G2", "B3")
# (order, type) of the series-check commands, which take most of the time of
# the jobs that hold them; every run takes these in the same rotation from
# the first stratum, so that runs of the same length do the same series work
# whatever the seed (a series-check command takes no seeded input).  A
# seeded start left the last, partial pass of a run to the seed, and that
# moved task_p90_ms, which falls among the series jobs.
# Orders cycle fastest and types shift each pass, so any ten strata in a row
# hold every order twice and every type two or three times.
SERIES_STRATA = [(6 + i % 5, SERIES_TYPES[(i % 5 + i // 5) % 4]) for i in range(20)]
LINK_TYPES = ("A1", "A2", "B2", "G2")


def job_data(call):
    """Field JSON and point pools (coordinate strings) for every job field,
    and the highest root of every link-chain type in fundamental coordinates."""
    from looprep import cyclotomic_context, root_system
    from workloads import point_pool

    fields = {}
    for key, (n, sub) in FIELDS.items():
        ctx = call("galois.build_context", cyclotomic_context, n, sub)
        fields[key] = (ctx.to_json(), [list(p.to_json()) for p in point_pool(ctx)])
    theta = {}
    for t in LINK_TYPES:
        rs = call("roots.root_system", root_system, t)
        theta[t] = rs.root_to_fund(rs.highest_root)
    return {"fields": fields, "theta": theta}


def _lweight(rng, rank, pool, most):
    factors = {}
    for _ in range(rng.randint(1, most)):
        key = (rng.randrange(rank), rng.randrange(len(pool)))
        factors[key] = factors.get(key, 0) + rng.randint(1, 2)
    return [{"node": node + 1, "point": pool[p], "exp": e}
            for (node, p), e in sorted(factors.items())]


def _weight(rng, rank, total):
    w = [0] * rank
    for _ in range(total):
        w[rng.randrange(rank)] += 1
    return w


def _text(w):
    return ",".join(str(x) for x in w)


def _link_command(rng, data, steps):
    lie_type = rng.choice(LINK_TYPES)
    rank = int(lie_type[1])
    mu = _weight(rng, rank, rng.randint(0, 2))
    lam = [a + b for a, b in zip(mu, data["theta"][lie_type])]
    return "link-chain %s %s %s --max-steps %d" % (lie_type, _text(lam), _text(mu), steps)


def make_job(rng, kind, data, series):
    """A normal job of the given kind: (job data, expected exit code).
    ``series`` is the (order, type) of the job's series-check command, if
    the kind has one."""
    key = rng.choice(sorted(FIELDS))
    field, pool = data["fields"][key]
    lie_type = rng.choice(LIE_TYPES)
    rank = int(lie_type[1])
    names = {n: _lweight(rng, rank, pool, 2) for n in ("p", "q", "r")}
    kx_node = names["p"][0]["node"]
    commands = {
        "lweights": ["validate-field", "lw-info p", "conjugates p", "rational-split p", "dual p"],
        "tensor": ["validate-field", "tensor p q", "blocks p q r"],
        "kx": ["kx-matrix p --node %d --index 1" % kx_node, "embedding-rank p q"],
        "link": ["lw-info q", _link_command(rng, data, 2)],
        "series": ["series-check --order %d --type %s" % series],
        "readme": [
            "validate-field", "lw-info p", "conjugates p", "tensor p q",
            "rational-split p", "dual p", "blocks p q r",
            "kx-matrix p --node %d --index 1" % kx_node, "embedding-rank p q",
            _link_command(rng, data, 2),
            "series-check --order %d --type %s" % series,
        ],
    }[kind]
    return {"field": field, "lieType": lie_type, "lweights": names, "commands": commands}, 0


def make_edge(rng, edge, data):
    """A contract-edge job of the given class: (job data or raw text, exit code)."""
    job, _ = make_job(rng, "lweights", data, SERIES_STRATA[0])
    job = copy.deepcopy(job)
    first = job["lweights"]["p"][0]
    if edge == "unparseable":
        return json.dumps(job)[:-1], EDGE_CLASSES[edge]
    if edge == "missing-key":
        del job[rng.choice(("field", "lieType", "commands"))]
    elif edge == "unknown-command":
        job["commands"].append("frobnicate p")
    elif edge == "unknown-name":
        job["commands"].append("lw-info zz")
    elif edge == "wrong-arity":
        job["commands"].append(rng.choice(("lw-info", "tensor p", "dual p q")))
    elif edge == "bad-index":
        job["commands"].append("kx-matrix p --node %d --index 9" % first["node"])
    elif edge == "bad-weight-literal":
        job["commands"].append("link-chain A2 1,a 0,0")
    elif edge == "node-zero":
        first["node"] = 0
    elif edge == "node-missing":
        del first["node"]
    elif edge == "modulus-non-numeric":
        job["field"]["modulus"][0] = "x"
    elif edge == "invalid-field":
        images = job["field"]["automorphisms"]
        images[-1] = ["1"] + images[-1][1:]
    elif edge == "different-classes":
        job["commands"].append("link-chain A1 1 0")
    elif edge == "unknown-type":
        job["lieType"] = "Z2"
    elif edge == "not-dominant":
        job["lweights"]["n"] = [dict(first, exp=-1)]
        job["commands"].append("tensor n p")
    return job, EDGE_CLASSES[edge]


class CliJobs:
    """Runs each job file through ``python -m looprep.cli`` in ``workdir``."""

    name = "cli_jobs"
    job_timeout = 120

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.jobs_run = itertools.count()

    def build(self, call):
        return job_data(call)

    def tasks(self, env, seed):
        """Yield (kind, edge class or None, job data or raw text, exit code)."""
        rng = random.Random(seed)
        edges = ROTATION_EDGES
        offset = rng.randrange(len(edges))
        n_edge = n_series = 0
        for i in itertools.count():
            kind = CYCLE[i % len(CYCLE)]
            if kind == "edge":
                edge = edges[(offset + n_edge) % len(edges)]
                n_edge += 1
                job, code = make_edge(rng, edge, env)
                yield kind, edge, job, code
            else:
                series = SERIES_STRATA[n_series % len(SERIES_STRATA)]
                n_series += kind in ("series", "readme")
                job, code = make_job(rng, kind, env, series)
                yield kind, None, job, code

    def run(self, env, task, call):
        return call("cli.job", run_job, self.root, self.workdir, next(self.jobs_run),
                    task[2], self.job_timeout)

    def record(self, env, task, out):
        proc, report = out
        return {"code": proc.returncode, "stderr": proc.stderr, "report": report}

    def check(self, env, task, rec):
        return check_job(task, rec)

    def defect_probes(self, env, seed):
        """One job of each KNOWN_DEFECTS class, as tasks."""
        rng = random.Random(seed)
        for edge in KNOWN_DEFECTS:
            job, code = make_edge(rng, edge, env)
            yield "edge", edge, job, code

    def work(self, task, rec):
        job = task[2]
        commands = job.get("commands", []) if isinstance(job, dict) else []
        return {"tasks": 1, "commands": len(commands)}

    def digest_view(self, task, rec):
        """Reports of the jobs the contract says succeed; edge jobs are left
        out so that fixing a contract defect leaves the digest unchanged."""
        return rec["report"] if task[3] == 0 else None


def run_job(root, workdir, index, job, timeout):
    """Run one job file in a fresh interpreter; returns the completed process
    and the parsed --json report (None when the job wrote none)."""
    job_path = os.path.join(workdir, "job-%s.json" % index)
    report_path = os.path.join(workdir, "report-%s.json" % index)
    with open(job_path, "w", encoding="utf-8") as fh:
        fh.write(job if isinstance(job, str) else json.dumps(job))
    proc = subprocess.run(
        [sys.executable, "-m", "looprep.cli", job_path, "--json", report_path, "--quiet"],
        capture_output=True, text=True, timeout=timeout, env=child_env(root),
    )
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(report_path)
    os.remove(job_path)
    return proc, report


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_job(task, rec):
    """Failed checks of one job: the README exit-code contract, no traceback,
    and a passing series suite wherever a report was written."""
    code = task[3]
    report = rec["report"]
    failures = []
    if rec["code"] != code:
        failures.append("exit code %d, contract requires %d" % (rec["code"], code))
    if "Traceback" in rec["stderr"]:
        failures.append("traceback on stderr")
    if code == 0:
        if report is None:
            failures.append("no JSON report")
        else:
            for result in report["results"]:
                if result["command"][0] == "series-check" and not result["result"]["allPassed"]:
                    failures.append("series-check failed at command %d" % result["index"])
    return failures


def series_commands(job):
    """(order, type) of every series-check command in a job's data."""
    out = []
    if isinstance(job, dict):
        for command in job.get("commands", []):
            tokens = command.split()
            if tokens and tokens[0] == "series-check":
                opts = dict(zip(tokens[1::2], tokens[2::2]))
                out.append((int(opts["--order"]), opts["--type"]))
    return out


def replay_series(order, lie_type, call):
    """The calls behind one series-check command, made in-process."""
    from fractions import Fraction

    from looprep import (
        ev_lambda_check, h_from_lambda, h_series, lambda_alpha_identity_holds,
        lambda_from_h, root_system, series_inverse,
    )

    rs = call("roots.root_system", root_system, lie_type)
    lam = call("series.lambda_from_h", lambda_from_h, "a", order)
    call("series.h_from_lambda", h_from_lambda, lam)
    inverse = call("series.series_inverse", series_inverse, lam)
    call("series.series_inverse", series_inverse, inverse)
    for r in range(1, min(order, 6) + 1):
        call("series.ev_lambda_check", ev_lambda_check, "a", r, Fraction(1))
    call("series.h_series", h_series, "a", order)
    return all([call("series.lambda_alpha_identity_holds", lambda_alpha_identity_holds, rs, root, order)
                for root in rs.positive_roots])
