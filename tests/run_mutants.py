"""Run the mutants of tests/mutants.py.

For each mutant, copy this checkout's src/, tests/, pyproject.toml and
README.md to a temporary directory, apply the mutant there, and run its
tests with pytest in a child interpreter (under ``python -O`` too where the
mutant says so).  A mutant is killed when its tests fail (pytest exit 1);
the no-op mutant must pass (exit 0).  Prints one line per run and exits 1
when a mutant survives, a stale mutant no longer applies, or a run ends any
other way.

    python tests/run_mutants.py              # every mutant
    python tests/run_mutants.py NAME ...     # the named ones
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from mutants import MUTANTS, NO_OP  # noqa: E402


def _checkout_copy(tmp):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for sub in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, sub), os.path.join(tmp, sub), ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(ROOT, name), tmp)


def run_mutant(name, mutant):
    """[(flags, outcome, seconds)] for one mutant; outcome is 'killed',
    'passed', 'stale' or 'exit N'."""
    with tempfile.TemporaryDirectory(prefix="looprep-mutant-") as tmp:
        _checkout_copy(tmp)
        path = os.path.join(tmp, "src", "looprep", mutant.file)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return [("", "stale", 0.0)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        # pytest puts the copy's src/ on sys.path (pyproject.toml); an outer
        # PYTHONPATH must not put the checkout's own sources first
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        runs = []
        for flags in ([], ["-O"]) if mutant.optimized else ([],):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable] + flags
                + ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"] + list(mutant.tests),
                cwd=tmp, env=env, capture_output=True, text=True, timeout=900,
            )
            outcome = {0: "passed", 1: "killed"}.get(proc.returncode,
                                                      "exit %d" % proc.returncode)
            runs.append((" ".join(flags), outcome, time.perf_counter() - start))
        return runs


def main(names):
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print("unknown mutant(s): %s" % ", ".join(unknown))
        return 2
    bad = 0
    total = time.perf_counter()
    for name in names or list(MUTANTS):
        expected = "passed" if name == NO_OP else "killed"
        for flags, outcome, seconds in run_mutant(name, MUTANTS[name]):
            ok = outcome == expected
            bad += not ok
            print("%-4s %-40s %-3s %-7s %5.1f s" % ("ok" if ok else "FAIL", name, flags,
                                                     outcome, seconds), flush=True)
    print("%d bad of %d mutants, %.1f s" % (bad, len(names or MUTANTS),
                                             time.perf_counter() - total))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
