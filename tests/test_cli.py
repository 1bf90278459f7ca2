"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

from boolring import DEFAULT_MAX_VARS, get_max_vars, parse_formula, set_max_vars
from boolring.cli import main

PREMISE = "c premise\np cnf 3 2\n1 2 0\n-1 3 0\n"

CANON_TEXT = """\
input: (a1|a2)&(!a1|a3)
format: formula
n: 3
truth_bits: 11100100
truth_hex: e4
anf: a2 ⊕ a1·a2 ⊕ a1·a3
prime_indices: {0, 1, 3, 4}
minterm_indices: {2, 5, 6, 7}
"""

VERIFY_TEXT = """\
TI n=2 PASS checks=1017
TII+TIII n=2 PASS checks=34
TIV n=2 PASS checks=82
TV n=2 PASS checks=7
flip-group n=2 PASS checks=352
resolution n=3 PASS checks=10
all_passed: true
"""


@pytest.fixture(autouse=True)
def restore_max_vars():
    yield
    set_max_vars(DEFAULT_MAX_VARS)


@pytest.fixture
def premise_path(tmp_path):
    path = tmp_path / "premise.cnf"
    path.write_text(PREMISE, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanon:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "canon", "--formula", "(a1|a2)&(!a1|a3)")
        assert code == 0
        assert out == CANON_TEXT

    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "canon", "--formula", "(a1|a2)&(!a1|a3)", "--json")
        assert code == 0
        assert json.loads(out) == {
            "input": "(a1|a2)&(!a1|a3)",
            "format": "formula",
            "n": 3,
            "truth_bits": "11100100",
            "truth_hex": "e4",
            "anf": "a2 ⊕ a1·a2 ⊕ a1·a3",
            "prime_indices": [0, 1, 3, 4],
            "minterm_indices": [2, 5, 6, 7],
        }

    def test_json_mirrors_text_fields(self, capsys):
        _, text_out, _ = run(capsys, "canon", "--formula", "a1 ^ a2")
        _, json_out, _ = run(capsys, "canon", "--formula", "a1 ^ a2", "--json")
        text_keys = [line.split(":", 1)[0] for line in text_out.splitlines()]
        assert list(json.loads(json_out)) == text_keys

    def test_dimacs_input(self, capsys, premise_path):
        code, out, _ = run(capsys, "canon", "--dimacs", premise_path)
        assert code == 0
        assert "truth_bits: 11100100" in out
        assert "format: dimacs" in out

    def test_declared_n_pads(self, capsys):
        code, out, _ = run(capsys, "canon", "--formula", "a1", "--n", "2")
        assert code == 0
        assert "truth_bits: 1010" in out


class TestCount:
    def test_formula(self, capsys):
        code, out, _ = run(capsys, "count", "--formula", "(a1|a2)&(!a1|a3)")
        assert code == 0
        assert "model_count: 4" in out

    def test_dimacs_with_assignments(self, capsys, premise_path):
        code, out, _ = run(capsys, "count", "--dimacs", premise_path, "--assignments")
        assert code == 0
        assert "model_count: 4" in out
        assert (
            "assignments: {j=2: a1=0 a2=1 a3=0, j=5: a1=1 a2=0 a3=1, "
            "j=6: a1=0 a2=1 a3=1, j=7: a1=1 a2=1 a3=1}" in out
        )


class TestExpand:
    def test_golden(self, capsys, premise_path):
        code, out, _ = run(capsys, "expand", "--dimacs", premise_path)
        assert code == 0
        assert "clauses_in: 2" in out
        assert "prime_count: 4" in out
        assert "model_count: 4" in out
        assert (
            "expanded_cnf: (a1 ∨ a2 ∨ a3) ∧ (¬a1 ∨ a2 ∨ a3) "
            "∧ (¬a1 ∨ ¬a2 ∨ a3) ∧ (a1 ∨ a2 ∨ ¬a3)" in out
        )

    def test_formula_not_accepted(self, capsys):
        with pytest.raises(SystemExit):
            main(["expand", "--formula", "a1"])


class TestFlip:
    def test_formula_golden(self, capsys):
        code, out, _ = run(capsys, "flip", "--formula", "a1 -> a2", "--flip", "a1")
        assert code == 0
        assert "mask: 1" in out
        assert "original_bits: 1101" in out
        assert "flipped_bits: 1110" in out
        assert "flipped_formula: !a1 -> a2" in out
        assert "counts_equal: true" in out

    def test_decimal_mask(self, capsys):
        code, out, _ = run(capsys, "flip", "--formula", "a1 -> a2", "--flip", "1")
        assert code == 0
        assert "flipped_formula: !a1 -> a2" in out

    def test_dimacs(self, capsys, premise_path):
        code, out, _ = run(capsys, "flip", "--dimacs", premise_path, "--flip", "a1")
        assert code == 0
        assert "flipped_dimacs: p cnf 3 2 / -1 2 0 / 1 3 0" in out
        assert "counts_equal: true" in out

    def test_bad_mask(self, capsys):
        code, _, err = run(capsys, "flip", "--formula", "a1", "--flip", "a9")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_all_text_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--n", "2")
        assert code == 0
        assert out == VERIFY_TEXT

    def test_all_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--n", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["n"] == 2
        names = [r["name"] for r in payload["reports"]]
        assert names == ["TI", "TII+TIII", "TIV", "TV", "flip-group", "resolution"]
        assert all(r["passed"] for r in payload["reports"])

    def test_single_checks(self, capsys):
        for flag in ("--ti", "--tii", "--tiii", "--tiv", "--tv", "--flip-group", "--resolution"):
            code, out, _ = run(capsys, "verify", flag, "--n", "2")
            assert code == 0, flag
            assert "PASS" in out

    def test_tiv_under_a_variable_cap_of_two(self, capsys):
        code, out, _ = run(capsys, "verify", "--tiv", "--n", "2", "--max-vars", "2")
        assert code == 0
        assert "TIV n=2 PASS checks=82" in out

    def test_over_cap_refused(self, capsys):
        code, _, err = run(capsys, "verify", "--tiv", "--n", "3")
        assert code == 3
        assert "refused" in err
        code, _, err = run(capsys, "verify", "--flip-group", "--n", "7")
        assert code == 3

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_count_checked_when_no_check_reads_it(self, capsys, n):
        code, out, err = run(capsys, "verify", "--resolution", "--n", n, "--json")
        assert code == 3
        assert out == ""
        assert err == f"refused: variable count {n} outside 1..24\n"

    def test_count_under_a_raised_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--resolution", "--n", "30", "--max-vars", "30")
        assert code == 0
        assert "resolution" in out and "PASS" in out

    def test_no_selection(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2")
        assert code == 2
        assert "select at least one" in err


class TestTaut:
    def test_tautology(self, capsys):
        code, out, _ = run(capsys, "taut", "--formula", "a1 | !a1")
        assert code == 0
        assert "tautology: true" in out

    def test_cut_rule(self, capsys):
        code, _, _ = run(capsys, "taut", "--formula", "((a1|a2)&(!a1|a3))->(a2|a3)")
        assert code == 0

    def test_not_tautology(self, capsys):
        code, out, _ = run(capsys, "taut", "--formula", "a1")
        assert code == 1
        assert "tautology: false" in out


class TestErrors:
    def test_formula_syntax(self, capsys):
        code, _, err = run(capsys, "canon", "--formula", "a1 &")
        assert code == 2
        assert "position 4" in err

    @pytest.mark.parametrize("argv", [
        ["canon", "--formula", "a01 & a1"],
        ["flip", "--formula", "a1 & a2", "--flip", "a01"],
    ])
    def test_leading_zero_index(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "leading zero" in err

    def test_dimacs_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 2\n", encoding="utf-8")
        code, _, err = run(capsys, "count", "--dimacs", str(bad))
        assert code == 2
        assert "unterminated" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "--dimacs", "/nonexistent.cnf")
        assert code == 2

    def test_n_with_dimacs(self, capsys, premise_path):
        code, _, err = run(capsys, "count", "--dimacs", premise_path, "--n", "3")
        assert code == 2
        assert "--n applies only" in err

    def test_max_vars_refusal(self, capsys):
        code, _, err = run(capsys, "canon", "--formula", "a3", "--max-vars", "2")
        assert code == 3
        assert "refused" in err

    def test_max_vars_invalid(self, capsys):
        code, _, err = run(capsys, "canon", "--formula", "a1", "--max-vars", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["count", "--formula", "a1", "--n", "\u0663"],  # Arabic-Indic digit three
        ["count", "--formula", "a1", "--n", "1_0"],
        ["count", "--formula", "a1", "--n", "+3"],
        ["count", "--formula", "a1", "--max-vars", "1_0"],
        ["verify", "--all", "--n", "\u0662"],  # Arabic-Indic digit two
        ["verify", "--all", "--n", "0_2"],
        ["verify", "--tiv", "--n", "2", "--max-vars", "\uff12"],  # fullwidth digit two
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]).encode("unicode_escape").decode())
    def test_integer_options_are_ascii_decimal(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "invalid" in err and "Traceback" not in err

    def test_negative_n_is_still_a_refusal(self, capsys):
        code, _, err = run(capsys, "count", "--formula", "a1", "--n", "-1")
        assert code == 3
        assert err.startswith("refused: ")
        code, _, err = run(capsys, "verify", "--ti", "--n", "-1")
        assert code == 3
        assert err.startswith("refused: ")

    def test_max_vars_override_does_not_leak(self, capsys):
        code, _, _ = run(capsys, "taut", "--formula", "a1|!a1", "--max-vars", "3")
        assert code == 0
        assert get_max_vars() == DEFAULT_MAX_VARS
        assert parse_formula("a4").n == 4

    def test_max_vars_restored_after_refusal(self, capsys):
        code, _, _ = run(capsys, "canon", "--formula", "a3", "--max-vars", "2")
        assert code == 3
        assert get_max_vars() == DEFAULT_MAX_VARS

    @pytest.mark.parametrize("n", [64, 70])
    def test_vector_too_large_to_build_is_refused(self, capsys, n):
        # n=64 raises MemoryError and n=70 OverflowError, both before anything is allocated
        code, out, err = run(capsys, "count", "--formula", "a1", "--n", str(n), "--max-vars", "100")
        assert code == 3
        assert out == ""
        assert err.startswith("refused: ") and err.count("\n") == 1

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unexpected_exception_exits_4_in_one_line(self, capsys, monkeypatch):
        import boolring.cli as cli

        def broken(func, source, args):
            raise RuntimeError("handler broke")

        monkeypatch.setattr(cli, "_canon", broken)
        code, out, err = run(capsys, "canon", "--formula", "a1", "--max-vars", "3")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: handler broke\n"
        assert get_max_vars() == DEFAULT_MAX_VARS

    def test_fault_in_a_verify_check_exits_4_in_one_line(self, capsys, monkeypatch):
        import boolring.theorems as theorems

        def broken(n):
            raise RuntimeError("check broke")

        monkeypatch.setattr(theorems, "verify_ti", broken)
        code, out, err = run(capsys, "verify", "--ti", "--max-vars", "3")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: check broke\n"
        assert get_max_vars() == DEFAULT_MAX_VARS

    def test_fault_while_emitting_exits_4_in_one_line(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("emit broke")

        monkeypatch.setattr(json, "dumps", broken)
        code, out, err = run(capsys, "count", "--formula", "a1", "--json", "--max-vars", "3")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: emit broke\n"
        assert get_max_vars() == DEFAULT_MAX_VARS


class TestDeterminism:
    def test_canon_byte_identical(self, capsys):
        _, first, _ = run(capsys, "canon", "--formula", "(a1|a2)&(!a1|a3)", "--json")
        _, second, _ = run(capsys, "canon", "--formula", "(a1|a2)&(!a1|a3)", "--json")
        assert first == second

    def test_verify_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", "--all", "--n", "2")
        _, second, _ = run(capsys, "verify", "--all", "--n", "2")
        assert first == second


# the environment without PYTHONDEVMODE, which would make the process entry keep
# the interpreter's teardown, and without PYTHONUNBUFFERED, so that output the
# entry does not flush is lost
PLAIN_ENV = {k: v for k, v in os.environ.items()
             if k not in ("PYTHONDEVMODE", "PYTHONUNBUFFERED")}


class TestEntryPoint:
    """``python -m boolring.cli``, which ends the process with ``os._exit``."""

    FLAGS: tuple[str, ...] = ()

    def command(self, *argv):
        return [sys.executable, *self.FLAGS, "-m", "boolring.cli", *argv]

    def test_module_invocation(self):
        proc = subprocess.run(
            self.command("taut", "--formula", "a1 | !a1"),
            capture_output=True,
            text=True,
            env=PLAIN_ENV,
        )
        assert proc.returncode == 0
        assert "tautology: true" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["count", "--assignments"],
        ["canon", "--json"],
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_exits_141_silently(self, argv):
        # several MB of output at n=16, far more than a pipe buffer holds
        proc = subprocess.Popen(
            self.command(*argv, "--formula", "a1|!a1", "--n", "16"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=PLAIN_ENV,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""


class TestEntryPointDevMode(TestEntryPoint):
    """The same under ``-X dev``, where the process entry keeps the teardown."""

    FLAGS = ("-X", "dev")


# registered before the CLI runs, the probe prints only if the interpreter's
# teardown runs; with --settrace it installs a tracer that does nothing
_ATEXIT_PROBE = """\
import atexit, runpy, sys
atexit.register(print, "teardown ran")
if sys.argv[1:] == ["--settrace"]:
    sys.settrace(lambda *args: None)
sys.argv = ["boolring", "taut", "--formula", "a1 | !a1"]
runpy.run_module("boolring.cli", run_name="__main__")
"""


@pytest.mark.parametrize("options, args, kept", [
    ((), (), False),
    (("-X", "dev"), (), True),
    ((), ("--settrace",), True),
    (("-m", "cProfile", "-o", os.devnull), (), True),
], ids=["plain", "dev", "settrace", "cProfile"])
def test_teardown_is_kept_only_when_watched(tmp_path, options, args, kept):
    probe = tmp_path / "probe.py"
    probe.write_text(_ATEXIT_PROBE, encoding="utf-8")
    proc = subprocess.run([sys.executable, *options, str(probe), *args],
                          capture_output=True, text=True, env=PLAIN_ENV)
    assert proc.returncode == 0
    assert proc.stdout.endswith("tautology: true\nteardown ran\n" if kept else "tautology: true\n")
    assert proc.stderr == ""


SUBCOMMANDS = ["canon", "count", "expand", "flip", "verify", "taut"]


def _defined_options():
    """Each subcommand's option strings, read from the parser main builds."""
    import argparse

    from boolring.cli import _build_parser

    (subs,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sub._actions for s in a.option_strings}
            for name, sub in subs.choices.items()}


def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.err == ""
    return captured.out


class TestHelp:
    # argparse lays help out differently across Python versions: compare names, not bytes
    def test_top_level_names_every_subcommand(self, capsys):
        assert sorted(_defined_options()) == sorted(SUBCOMMANDS)
        words = set(re.findall(r"[\w-]+", _help(capsys)))
        assert set(SUBCOMMANDS) <= words

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_names_every_option(self, capsys, name):
        options = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", _help(capsys, name)))
        assert _defined_options()[name] <= options


class TestDeepFormula:
    @pytest.mark.parametrize("argv, deep, collapsed", [
        (["canon"], " & ".join(["a1", "a2"] * 1500), "a1 & a2"),
        (["count", "--json"], "!" * 3000 + "a1", "a1"),
    ], ids=["canon_and_chain", "count_bang_run"])
    def test_same_output_as_collapsed_formula(self, argv, deep, collapsed):
        def cli(text):
            return subprocess.run(
                [sys.executable, "-m", "boolring.cli", *argv, "--formula", text, "--n", "2"],
                capture_output=True,
                text=True,
            )

        def without_input(out):
            return [ln for ln in out.splitlines()
                    if not ln.lstrip().startswith(("input:", '"input":'))]

        got, want = cli(deep), cli(collapsed)
        assert got.returncode == 0
        assert "Traceback" not in got.stderr
        assert want.returncode == 0
        assert without_input(got.stdout) == without_input(want.stdout)
        assert len(got.stdout.splitlines()) == len(want.stdout.splitlines())
