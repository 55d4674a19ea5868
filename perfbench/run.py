"""Seeded benchmark for looprep.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload library --seed 1 --seconds 55 --trace 0

One client runs one task at a time (a closed loop) for ``--seconds``; every
result is checked after timing.  ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer metrics, taken from spans
recorded around every call the benchmark makes into looprep.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  perfbench/README.md describes the workloads.
"""

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array

from spans import Tracer, durations, self_times, untraced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("library", "cli_jobs")
DEFAULT_SEED = 1
# Reserved for confirming a claimed gain on a seed not used while writing it.
CONFIRM_SEED = 20071
# set-up probes per run, one at the start of each equal slice of the run
SETUP_REPEATS = 15
IMPORT_REPEATS = 5
# Tasks of the default seed whose exact outputs are pinned in digests.json.
DIGEST_TASKS = {"library": 9, "cli_jobs": 5}
PROBE_TIMEOUT = 120
# series-check commands of a traced cli_jobs run replayed in-process
SERIES_REPLAYS = 8
TAIL_SAMPLES = 10

clock = time.perf_counter


def load_workload(name, workdir):
    """Import the workload modules (which import looprep) and pick one."""
    import clijobs
    import workloads

    if name == "cli_jobs":
        return clijobs.CliJobs(ROOT, workdir)
    return workloads.LIBRARY


def tail_quantile(n):
    """0.9, or the highest quantile with TAIL_SAMPLES samples beyond it."""
    return min(0.9, 1 - TAIL_SAMPLES / n) if n > TAIL_SAMPLES else 0.5


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TaskLog:
    """The tasks run so far: latencies in memory, records in a file.

    A record line is {"ok": record} or, for a task that raised,
    {"raised": traceback}.  Keeping records on disk stops their number, and
    so the throughput, from showing in peak_rss_mb.  Tasks are not kept: the
    seed regenerates them.
    """

    def __init__(self, path):
        self.path = path
        self.latencies = array("d")
        # with tracing on, the same tasks run untraced on a twin environment
        self.untraced = array("d")
        self.out = open(path, "w", encoding="utf-8")

    def add(self, latency, line):
        self.latencies.append(latency)
        self.out.write(json.dumps(line) + "\n")

    def records(self):
        """The record lines, once the log is closed."""
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                yield json.loads(line)

    def close(self):
        self.out.close()


def run_task(workload, env, task, call):
    """Run one task; returns (latency, record line).  Only ``workload.run`` is
    inside the latency.  A task that raises fails its checks."""
    t0 = clock()
    try:
        out = call("bench.task", workload.run, env, task, call)
    except Exception:  # a task boundary: record the failure, keep running
        return clock() - t0, {"raised": traceback.format_exc()}
    latency = clock() - t0
    return latency, {"ok": workload.record(env, task, out)}


def run_loop(workload, env, stream, log, until=None, limit=None, tracer=None, twin=None):
    """Run tasks one at a time until the clock reads ``until`` or the log
    holds ``limit`` tasks.

    With a tracer, each task also runs untraced on ``twin``, an environment
    built the same way, right before or right after its traced run in turn,
    so that machine drift cancels out of trace.overhead_frac.
    """
    call = tracer.call if tracer is not None else untraced
    while (len(log.latencies) < limit) if limit is not None else (clock() < until):
        task = next(stream)
        index = len(log.latencies)
        if twin is not None and index % 2:
            log.untraced.append(run_task(workload, twin, task, untraced)[0])
        if tracer is not None:
            tracer.task = index
        latency, line = run_task(workload, env, task, call)
        if twin is not None and not index % 2:
            log.untraced.append(run_task(workload, twin, task, untraced)[0])
        log.add(latency, line)


def logged(workload, env, seed, log):
    """(task, record line) of every task in the log, regenerating the tasks."""
    return zip(workload.tasks(env, seed), log.records())


def run_probe(args, env=None):
    """Run a child interpreter and return the number on its last stdout line."""
    proc = subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise RuntimeError("probe %s failed:\n%s" % (" ".join(args), proc.stderr))
    return float(proc.stdout.split()[-1])


def setup_once(name, workload, env, index):
    """The time of one fresh set-up, in seconds.

    library: a fresh interpreter imports looprep and builds the workload's
    contexts and root systems.  cli_jobs: the wall time of a fresh
    interpreter running a job whose only command is validate-field.
    """
    if name == "cli_jobs":
        import clijobs

        field = env["fields"]["z8"][0]
        job = {"field": field, "lieType": "A1", "lweights": {}, "commands": ["validate-field"]}
        t0 = clock()
        proc, _ = clijobs.run_job(ROOT, workload.workdir, "setup-%d" % index, job, PROBE_TIMEOUT)
        elapsed = clock() - t0
        if proc.returncode != 0:
            raise RuntimeError("validate-field job failed:\n%s" % proc.stderr)
        return elapsed
    return run_probe([os.path.join(HERE, "run.py"), "--workload", name, "--setup-probe"])


def setup_probe(name):
    """Child side of setup_once: time import plus build, print seconds."""
    t0 = clock()
    load_workload(name, None).build(untraced)
    print(clock() - t0)


def measure(name, workload, env, stream, log, seconds):
    """Run tasks for ``seconds`` of wall time, with a set-up probe at the start
    of each of SETUP_REPEATS equal slices, so that the set-up times see the
    same machine drift as the tasks.  Returns the median set-up time."""
    start = clock()
    times = []
    for i in range(SETUP_REPEATS):
        times.append(setup_once(name, workload, env, i))
        run_loop(workload, env, stream, log, until=start + (i + 1) * seconds / SETUP_REPEATS)
    return statistics.median(times)


def import_ms():
    """Median time for a fresh interpreter to import looprep.cli, in ms."""
    import clijobs

    code = ("import time; t = time.perf_counter(); import looprep.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(run_probe(["-c", code], clijobs.child_env(ROOT))
                             for _ in range(IMPORT_REPEATS)) * 1e3


def check_all(workload, env, seed, log):
    """Run every check after timing.  Returns a message for each task with a
    failed check."""
    failures = []
    for index, (task, line) in enumerate(logged(workload, env, seed, log)):
        if "raised" in line:
            problems = [line["raised"]]
        else:
            problems = workload.check(env, task, line["ok"])
        if problems:
            failures.append("task %d: %s" % (index, "; ".join(problems)))
    return failures


def broken_defect_probes(workload, env, seed):
    """Known-defect classes of cli_jobs whose probe job still breaks the
    README contract; run after timing, outside the task stream."""
    broken = []
    for task in workload.defect_probes(env, seed):
        rec = workload.record(env, task, workload.run(env, task, untraced))
        if workload.check(env, task, rec):
            broken.append(task[1])
    return broken


def prefix_digest(name, workload, env, seed, log, workdir):
    """Digest of the exact outputs of the default seed's first tasks, from the
    run's log when it has them, else from a new run of those tasks."""
    from workloads import sha

    n = DIGEST_TASKS[name]
    if log is None or seed != DEFAULT_SEED or len(log.latencies) < n:
        log = TaskLog(os.path.join(workdir, "digest-records.jsonl"))
        run_loop(workload, env, workload.tasks(env, DEFAULT_SEED), log, limit=n)
        log.close()
    pairs = itertools.islice(logged(workload, env, DEFAULT_SEED, log), n)
    return sha([line["raised"] if "raised" in line else workload.digest_view(task, line["ok"])
                for task, line in pairs])


def recorded_digest(name):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[name]


def work_descriptors(workload, env, seed, log):
    """Exact work done by the run, from its inputs and outputs."""
    totals = {}
    for task, line in logged(workload, env, seed, log):
        if "ok" in line:
            for key, value in workload.work(task, line["ok"]).items():
                totals[key] = totals.get(key, 0) + value
    if "weights_drawn" in totals:
        totals["repeated_weight_share"] = totals.pop("weights_repeated") / totals.pop("weights_drawn")
    if "commands" in totals:
        totals["commands_per_job"] = totals.pop("commands") / totals["tasks"]
    return totals


def metric_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def end_to_end(setup_s, latencies, rss_mb):
    n = len(latencies)
    return {
        "setup_s": setup_s,
        "tasks_per_s": n / sum(latencies),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": quantile(latencies, tail_quantile(n)) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def per_layer(spans, work, extra):
    """Per-layer metrics from the spans of the traced run.

    Busy time, call counts and medians cover the spans of tasks (set-up
    spans have task -1); a call the workload never makes reads 0.
    """
    in_tasks = [(span, own) for span, own in zip(spans, self_times(spans)) if span[4] >= 0]
    task_spans = [span for span, _ in in_tasks]

    def busy(layer):
        return sum(own for span, own in in_tasks if span[0].startswith(layer + ".")) * 1e3

    def calls(layer):
        return sum(1 for span in task_spans if span[0].startswith(layer + "."))

    def p50(name):
        values = durations(task_spans, name)
        return statistics.median(values) * 1e6 if values else 0.0

    def per(name, base):
        """Microseconds in the named call per unit of the work descriptor."""
        units = work.get(base, 0)
        return sum(durations(task_spans, name)) * 1e6 / units if units else 0.0

    return {
        "exact.busy_ms": busy("exact"),
        "exact.calls": calls("exact"),
        "exact.char_poly.p50_us": p50("exact.char_poly"),
        "exact.matrix_mul.p50_us": p50("exact.matrix_mul"),
        "galois.busy_ms": busy("galois"),
        "galois.calls": calls("galois"),
        "galois.apply.p50_us": p50("galois.apply"),
        "galois.orbit.p50_us": p50("galois.orbit"),
        "galois.build_context_ms": sum(durations(spans, "galois.build_context")) * 1e3,
        "lweights.busy_ms": busy("lweights"),
        "lweights.conjugacy_class.p50_us": p50("lweights.conjugacy_class"),
        "lweights.rational_split.p50_us": p50("lweights.rational_split"),
        "classify.busy_ms": busy("classify"),
        "classify.tensor_decompose_k.p50_us": p50("classify.tensor_decompose_k"),
        "classify.tensor_decompose_k.us_per_pair": per("classify.tensor_decompose_k", "orbit_pairs"),
        "blocks.busy_ms": busy("blocks"),
        "blocks.partition_blocks.us_per_member": per("blocks.partition_blocks", "block_members"),
        "roots.busy_ms": busy("roots"),
        "roots.tensor_decompose.p50_us": p50("roots.tensor_decompose"),
        "roots.tensor_decompose.us_per_dim": per("roots.tensor_decompose", "dim_products"),
        "roots.weight_mults.p50_us": p50("roots.weight_mults"),
        "roots.link_chain.p50_us": p50("roots.link_chain"),
        "kxmodules.busy_ms": busy("kxmodules"),
        "kxmodules.build_kx_module.p50_us": p50("kxmodules.build_kx_module"),
        "kxmodules.tensor_embedding_rank.p50_us": p50("kxmodules.tensor_embedding_rank"),
        "series.busy_ms": busy("series"),
        "series.lambda_alpha_identity_holds.p50_us": p50("series.lambda_alpha_identity_holds"),
        "series.series_inverse.p50_us": p50("series.series_inverse"),
        "cli.import_ms": extra.get("import_ms", 0.0),
        "cli.job_ms": p50("cli.job") / 1e3,
        "cli.contract_mismatches": extra.get("contract_mismatches", 0),
        "trace.overhead_frac": extra["overhead_frac"],
        "work.tasks": work.get("tasks", 0),
        "work.orbit_pairs": work.get("orbit_pairs", 0),
        "work.block_members": work.get("block_members", 0),
        "work.dim_products": work.get("dim_products", 0),
        "work.repeated_weight_share": work.get("repeated_weight_share", 0.0),
        "work.module_dim_sq": work.get("module_dim_sq", 0),
        "work.commands_per_job": work.get("commands_per_job", 0.0),
    }


def contract_mismatches(workload, env, seed, log):
    return sum(1 for task, line in logged(workload, env, seed, log)
               if "raised" in line or line["ok"]["code"] != task[3]
               or "Traceback" in line["ok"]["stderr"])


def benchmark(args, workdir):
    name = args.workload
    units = metric_units("per_layer" if args.trace else "end_to_end")
    workload = load_workload(name, workdir)
    log = TaskLog(os.path.join(workdir, "records.jsonl"))
    extra = {}
    if args.trace:
        tracer = Tracer(clock)
        env = workload.build(tracer.call)
        twin = workload.build(untraced)
        run_loop(workload, env, workload.tasks(env, args.seed), log,
                 until=clock() + args.seconds, tracer=tracer, twin=twin)
    else:
        env = workload.build(untraced)
        setup_s = measure(name, workload, env, workload.tasks(env, args.seed), log, args.seconds)
    rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli_jobs" else resource.RUSAGE_SELF
    ).ru_maxrss / 1024
    log.close()
    latencies = log.latencies
    n = len(latencies)

    if args.trace:
        untraced_s = sum(log.untraced)
        extra["overhead_frac"] = (sum(latencies) - untraced_s) / untraced_s
        if name == "cli_jobs":
            import clijobs

            tasks = itertools.islice(workload.tasks(env, args.seed), n)
            commands = [(index, command) for index, task in enumerate(tasks)
                        for command in clijobs.series_commands(task[2])]
            for index, (order, lie_type) in commands[:SERIES_REPLAYS]:
                tracer.task = index
                clijobs.replay_series(order, lie_type, tracer.call)
            extra["import_ms"] = import_ms()

    if name == "cli_jobs":
        broken = broken_defect_probes(workload, env, args.seed)
        extra["contract_mismatches"] = (contract_mismatches(workload, env, args.seed, log)
                                        + len(broken))
    failures = check_all(workload, env, args.seed, log)
    failed = len(failures)
    digest = prefix_digest(name, workload, env, args.seed, log, workdir)
    digest_ok = digest == recorded_digest(name)
    work = work_descriptors(workload, env, args.seed, log)

    if args.trace:
        values = per_layer(tracer.spans, work, extra)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (name, args.seed)))
    else:
        values = end_to_end(setup_s, latencies, rss_mb)
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(values) ^ set(units)))

    print("%s seed %d, trace %d: %d tasks in %.2f s of task time"
          % (name, args.seed, args.trace, n, sum(latencies)))
    print("failed_frac %.4f (%d of %d tasks failed a check)" % (failed / n, failed, n))
    if name == "cli_jobs":
        import clijobs

        print("known contract defects: %d of %d untimed probe jobs break the README contract (%s)"
              % (len(broken), len(clijobs.KNOWN_DEFECTS), ", ".join(broken) or "none"))
    if args.trace:
        print("trace.overhead_frac from %d tasks run traced and untraced in turn" % n)
    else:
        print("task_p90_ms is the p%d latency of %d samples; setup_s is the median of %d set-ups"
              % (round(100 * tail_quantile(n)), n, SETUP_REPEATS))
    print("work: " + ", ".join("%s=%s" % kv for kv in sorted(work.items())))
    print("default-seed digest %s (%s)" % (digest[:16], "matches" if digest_ok else "MISMATCH"))
    for line in failures[:10]:
        print("check failed: " + line, file=sys.stderr)
    for key in sorted(values):
        print("  %-44s %.6g %s" % (key, values[key], units[key]))
    print(json.dumps({
        "correct": digest_ok and not failures,
        "attempted": n,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded looprep benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--print-digest", action="store_true",
                        help="print the default-seed digest of the workload and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "looprep", "__init__.py")):
        print("error: %s holds no looprep sources; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.print_digest:
            workload = load_workload(args.workload, workdir)
            env = workload.build(untraced)
            print(prefix_digest(args.workload, workload, env, None, None, workdir))
        else:
            benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
