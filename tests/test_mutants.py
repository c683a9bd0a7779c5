"""The mutation catalogue stays applicable: ``scripts/mutants.py`` runs it.

Each mutant's old text must occur exactly once in ``src/``, so that a refactor
that moves or rewrites the code also updates the catalogue, and each test it
names must exist.
"""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "mutants.json"), encoding="utf-8") as fh:
    CATALOGUE = json.load(fh)


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
