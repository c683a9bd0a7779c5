#!/usr/bin/env python3
"""Run the mutation catalogue ``tests/mutants.json``: every mutant must fail its tests.

    python3 scripts/mutants.py [ID ...]

Each entry names a file under ``src/``, an old text that occurs exactly once
in it, the new text that replaces it, and the test node ids expected to
kill the mutant.  The mutants run one after another, each in its own copy of
``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` under a
temporary directory, with that mutant's tests in one pytest subprocess.  A
mutant is killed when pytest reports failing tests, survived when they all
pass, timed out when pytest runs past ``TIMEOUT_S`` (it is then stopped,
and never counts as killed), and an error otherwise (a stale old text, or
no test collected).

One line per mutant with its verdict and time, then the ids of any mutant
that timed out; the exit status is 0 only when every mutant run was killed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "tests", "mutants.json")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 300.0  # the slowest mutant takes well under a minute


def run_mutant(mutant: dict, work: str, timeout: float = TIMEOUT_S) -> tuple[str, float]:
    """Copy the tree to ``work``, apply ``mutant`` and run its tests there,
    stopping them after ``timeout`` seconds."""
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(work, name), ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, work)
    path = os.path.join(work, mutant["file"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant["old"]) != 1:
        return f"error: the old text occurs {text.count(mutant['old'])} times", 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant["old"], mutant["new"]))
    env = {**os.environ, "PYTHONPATH": os.path.join(work, "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["tests"]]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start
    seconds = time.perf_counter() - start
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, f"error: pytest exit {proc.returncode}")
    return verdict, seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", help="run only these mutants")
    args = ap.parse_args(argv)
    with open(CATALOGUE, encoding="utf-8") as fh:
        catalogue = json.load(fh)
    unknown = set(args.ids) - {m["id"] for m in catalogue}
    if unknown:
        print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in catalogue if not args.ids or m["id"] in args.ids]
    killed, total_s, timed_out = 0, 0.0, []
    for mutant in chosen:
        with tempfile.TemporaryDirectory(prefix="pjet-mutant-") as work:
            verdict, seconds = run_mutant(mutant, work)
        killed += verdict == "killed"
        total_s += seconds
        if verdict == "timed out":
            timed_out.append(mutant["id"])
        print(f"{mutant['id']:40s} {verdict:10s} {seconds:6.1f} s", flush=True)
    print(f"{killed} of {len(chosen)} killed in {total_s:.1f} s of test time")
    if timed_out:
        print(f"timed out after {TIMEOUT_S:g} s: {', '.join(timed_out)}", file=sys.stderr)
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
