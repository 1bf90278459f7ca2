"""The CLI reproduces every case of the golden corpus byte for byte.

``tests/golden/make_corpus.py`` generates the corpus; see its docstring
for what a case stores and how to check or rewrite it.
"""

import importlib.util
import json
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
