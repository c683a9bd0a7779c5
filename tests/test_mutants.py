"""The mutation catalogue stays applicable: ``scripts/mutants.py`` runs it.

Each mutant's old text must occur exactly once in ``src/``, so that a refactor
that moves or rewrites the code also updates the catalogue, and each test it
names must exist.  A mutant whose tests run past the script's timeout is
stopped and fails the run by name.
"""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "mutants.json"), encoding="utf-8") as fh:
    CATALOGUE = json.load(fh)

_spec = importlib.util.spec_from_file_location("mutants_script", os.path.join(ROOT, "scripts", "mutants.py"))
mutants_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants_script)


def src_text() -> str:
    parts = []
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        parts += [open(os.path.join(folder, f), encoding="utf-8").read() for f in sorted(files) if f.endswith(".py")]
    return "\n".join(parts)


def test_ids_are_unique_and_entries_complete():
    assert len({m["id"] for m in CATALOGUE}) == len(CATALOGUE)
    for m in CATALOGUE:
        assert set(m) == {"id", "file", "old", "new", "tests", "source"}
        assert m["file"].startswith("src/") and m["old"] != m["new"] and m["tests"] and m["source"]


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m["id"] for m in CATALOGUE])
def test_old_text_occurs_once(mutant):
    with open(os.path.join(ROOT, mutant["file"]), encoding="utf-8") as fh:
        assert fh.read().count(mutant["old"]) == 1
    assert src_text().count(mutant["old"]) == 1


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m["id"] for m in CATALOGUE])
def test_named_tests_exist(mutant):
    for node in mutant["tests"]:
        path, *names = node.split("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            text = fh.read()
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", text, re.M), node


def test_a_mutant_past_its_timeout_is_stopped_and_not_killed(tmp_path):
    # pytest cannot even start within a millisecond
    verdict, seconds = mutants_script.run_mutant(CATALOGUE[0], str(tmp_path), timeout=0.001)
    assert verdict == "timed out" and seconds < 60


def test_a_timed_out_mutant_fails_the_run_by_name(monkeypatch, capsys):
    verdicts = {CATALOGUE[0]["id"]: "killed", CATALOGUE[1]["id"]: "timed out"}
    monkeypatch.setattr(mutants_script, "run_mutant", lambda m, work: (verdicts[m["id"]], 1.0))
    assert mutants_script.main(list(verdicts)) == 1
    out, err = capsys.readouterr()
    assert "1 of 2 killed" in out
    assert err == f"timed out after {mutants_script.TIMEOUT_S:g} s: {CATALOGUE[1]['id']}\n"
