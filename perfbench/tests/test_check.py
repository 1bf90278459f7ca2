"""Each checker passes the library's real outputs and flags a planted wrong one."""

import contextlib
import io
import random
import subprocess

import pytest

import check
import gen
import worker
from boolring.cli import main as cli_main
from spans import NULL


def _canon_ops():
    rng = random.Random(11)
    ops = [{"n": 6, "kind": "formula", "mask": 0b101101, "text": gen.formula_text(rng, 6, 60)},
           {"n": 7, "kind": "dense", "mask": 0b1000011, "hex": gen.dense_hex(rng, 7)}]
    return ops


@pytest.mark.parametrize("op", _canon_ops(), ids=["formula", "dense"])
def test_canon_checker(op):
    out = worker.canon_outputs(op, worker.canon_timed(op, NULL), NULL)
    assert check.check_canon(op, out) == []

    def planted(key, change):
        bad = dict(out)
        bad[key] = change(out[key])
        return check.check_canon(op, bad)

    assert planted("tt", lambda tt: tt ^ (1 << 37))
    assert planted("roundtrip_tt", lambda tt: tt ^ 1)
    assert planted("monomials", lambda ms: ms[1:])
    assert planted("anf_text", lambda text: text.replace("a1", "a2", 1))
    assert planted("prime_indices", lambda ps: ps[:-1])
    assert planted("count", lambda c: c + 1)
    assert planted("assignments", lambda xs: [xs[0][:-1] + "01"[xs[0][-1] == "0"]] + xs[1:])
    assert planted("flipped_tt", lambda tt: tt ^ (1 << 5))


def test_canon_checker_flags_a_consistently_wrong_vector():
    # the pipeline evaluated the formula wrong at one assignment, and every
    # later stage faithfully worked on that wrong vector
    op = _canon_ops()[0]
    out = worker.canon_outputs(op, worker.canon_timed(op, NULL), NULL)
    for key in ("tt", "roundtrip_tt"):
        out[key] ^= 1 << 41
    assert "truth vector differs from the input" in check.check_canon(op, out)


def test_canon_checker_flags_a_wrong_source_flip():
    op = _canon_ops()[0]
    out = worker.canon_outputs(op, worker.canon_timed(op, NULL), NULL)
    out["flip_cross_tt"] ^= 1 << 63
    assert check.check_canon(op, out) == ["vector flip differs from the source-level flip"]


def test_expand_checker():
    op = gen.cnf_block(gen.rng_for(4, "x"))[0]
    out = worker.expand_outputs(op, worker.expand_timed(op, NULL), NULL)
    assert check.check_expand(op, out) == []
    fewer = dict(out, primes=out["primes"][1:])
    assert check.check_expand(op, fewer)
    assert check.check_expand(op, dict(out, cnf_text=out["cnf_text"] + " ∧ (a1)"))
    assert check.check_expand(op, dict(out, eval_count=out["eval_count"] + 1))
    # a sampled assignment that the expansion misclassifies
    j = op["samples"][0]
    flipped = sorted(set(out["primes"]) ^ {j})
    text = " ∧ ".join(["(x)"] * len(flipped))
    count = (1 << op["n"]) - len(flipped)
    problems = check.check_expand(op, {"primes": flipped, "cnf_text": text, "eval_count": count})
    assert any("clause falsification" in p for p in problems)


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_expected_output_matches_the_cli(tmp_path):
    block = gen.cli_block(gen.rng_for(9, "x"))
    for i, op in enumerate(block):
        for placeholder, text in op.pop("files").items():
            path = tmp_path / f"{i}.cnf"
            path.write_text(text, encoding="utf-8")
            op["argv"] = [str(path) if a == placeholder else a for a in op["argv"]]
        expected, problems = worker.cli_expected(op["argv"]) if op["code"] in (0, 1) else (None, [])
        code, out, err = _in_process(op["argv"])
        assert problems + check.check_cli(op, code, out, err, expected) == [], op["argv"]


def test_cli_checker_flags_changed_bytes_and_codes():
    op = {"argv": ["taut", "--formula", "a1 | !a1"], "code": 0}
    expected, _ = worker.cli_expected(op["argv"])
    code, out, err = _in_process(op["argv"])
    assert check.check_cli(op, code, out, err, expected) == []
    one_byte = out[:-2] + ("x" if out[-2] != "x" else "y") + out[-1]
    assert check.check_cli(op, code, one_byte, err, expected) == ["stdout differs from the in-process result"]
    assert check.check_cli(op, 1, out, err, expected) == ["exit code 1, expected 0"]
    refused = {"argv": ["count", "--formula", "a30"], "code": 3}
    code, out, err = _in_process(refused["argv"])
    assert check.check_cli(refused, code, out, err, None) == []
    assert check.check_cli(refused, code, "n: 30\n", err, None)
    assert check.check_cli(refused, code, out, "error: " + err, None)


def test_cli_crash_is_an_error_not_a_wrong_result():
    op = gen.cli_deep(gen.rng_for(1, "deep"))[0]
    assert '"model_count"' in worker.cli_deep_expected(op)
    crashed = subprocess.CompletedProcess([], 1, "", "Traceback (most recent call last):\n  ...\nRecursionError: x\n")
    with pytest.raises(worker.CliCrash):
        worker.cli_check(op, crashed, NULL)
