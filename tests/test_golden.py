"""The CLI reproduces every case of the golden corpus byte for byte.

``tests/golden/make_corpus.py`` generates the corpus; see its docstring
for what a case stores and how to check or rewrite it.  The corpus is
made by ``main`` in process; one case of each kind is also replayed
through ``python -m boolring.cli`` processes, with the fast exit and
under ``-X dev``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("make_corpus", GOLDEN / "make_corpus.py")
make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpus)

CASES = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))


def test_corpus_covers_every_subcommand_and_exit_code():
    assert {case["argv"][0] for case in CASES if case["argv"]} == {
        "canon", "count", "expand", "flip", "verify", "taut"}
    assert {case["exit"] for case in CASES} == {0, 1, 2, 3}
    assert len({case["id"] for case in CASES}) == len(CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_output_is_unchanged(case):
    got = make_corpus.run(case["argv"])
    assert got["exit"] == case["exit"]
    assert got["stdout"] == case["stdout"]
    if case["stderr"] is not None:
        assert got["stderr"] == case["stderr"]


def _one_case_per_kind():
    """The first case of each subcommand, text or --json form, and exit code."""
    kinds = {}
    for case in CASES:
        kinds.setdefault((*case["argv"][:1], "--json" in case["argv"], case["exit"]), case)
    return list(kinds.values())


# without PYTHONDEVMODE, so that the plain run takes the process entry's fast
# exit, and without PYTHONUNBUFFERED, so that output it does not flush is lost
PROCESS_ENV = {**{k: v for k, v in os.environ.items()
                  if k not in ("PYTHONDEVMODE", "PYTHONUNBUFFERED")},
               "PYTHONPATH": str(make_corpus.ROOT / "src")}


@pytest.mark.parametrize("flags", [(), ("-X", "dev")], ids=["plain", "dev"])
@pytest.mark.parametrize("case", _one_case_per_kind(), ids=lambda case: case["id"])
def test_process_output_is_unchanged(case, flags):
    proc = subprocess.run([sys.executable, *flags, "-m", "boolring.cli", *case["argv"]],
                          capture_output=True, cwd=make_corpus.ROOT, env=PROCESS_ENV)
    assert proc.returncode == case["exit"]
    assert make_corpus.digest(proc.stdout.decode("utf-8")) == case["stdout"]
    if case["stderr"] is not None:
        assert make_corpus.digest(proc.stderr.decode("utf-8")) == case["stderr"]
