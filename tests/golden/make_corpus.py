"""Golden corpus of CLI runs: argv, exit code, stdout and stderr.

Each case runs ``boolring.cli.main`` in process from the repository
root, so DIMACS paths are the relative ``tests/golden/*.cnf``.  Outputs
up to 4 KB are stored whole, longer ones as their UTF-8 length and
sha256.  The stderr of argparse's own errors differs between Python
versions and is not stored (``null``).

    python tests/golden/make_corpus.py          # exit 1 and list changed cases
    python tests/golden/make_corpus.py --write  # rewrite corpus.json

The cases come from two fixed seeds, the second drawing the n = 16
cases, which come last; the DIMACS inputs are committed next to this
script and are rewritten by ``--write`` only.  CI runs the check, so a
change to the generator or to a committed input that the corpus does
not follow fails there.  A change that
rewrites the corpus lists the changed cases in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CORPUS = HERE / "corpus.json"
WHOLE_LIMIT = 4096  # bytes of output stored verbatim
SEED = 20090612
WIDE_N = 16
# the n = 16 cases draw from their own stream, so the cases before them keep theirs
WIDE_SEED = SEED + WIDE_N

# (text, binding level, groups right) of each binary operator, as the formula
# language defines them; the generator uses them to parenthesize validly
_OPS = [("->", 1, True), ("|", 2, False), ("^", 2, False), ("&", 3, False)]
_NAMES = ["x", "y", "z", "p", "q", "r", "s", "t", "u_1", "v2", "Foo", "bar"]


def digest(text: str) -> str | dict:
    """``text`` itself, or its length and sha256 when longer than WHOLE_LIMIT bytes."""
    data = text.encode("utf-8")
    if len(data) <= WHOLE_LIMIT:
        return text
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def run(argv: list[str]) -> dict:
    """Run the CLI in process from the repository root; the record of one case."""
    from boolring import DEFAULT_MAX_VARS, set_max_vars
    from boolring.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, from_argparse = main(argv), False
            except SystemExit as exc:  # argparse rejected the command line
                code, from_argparse = exc.code, True
    finally:
        os.chdir(cwd)
        set_max_vars(DEFAULT_MAX_VARS)
    return {
        "exit": code,
        "stdout": digest(out.getvalue()),
        "stderr": None if from_argparse else digest(err.getvalue()),
    }


# ---------------------------------------------------------------------------
# inputs


def random_formula(rng: random.Random, n: int, ops: int, names: list[str] | None = None) -> str:
    """Random formula text with ``ops`` operators over n variables, using every
    operator, the constants and optional parentheses where they are not needed."""
    def var() -> str:
        r = rng.randint(1, n)
        return names[r - 1] if names else f"a{r}"

    def build(k: int) -> tuple[str, int | None, str | None]:
        # (text, level of its top binary operator or None, that operator)
        if k == 0:
            return (str(rng.randint(0, 1)) if rng.random() < 0.08 else var()), None, None
        if rng.random() < 0.25:
            text, level, _ = build(k - 1)
            return "!" + (f"({text})" if level is not None else text), None, None
        op, level, right = rng.choice(_OPS)
        left = rng.randint(0, k - 1)
        parts = []
        for side, size in (("l", left), ("r", k - 1 - left)):
            text, lv, sub = build(size)
            needed = lv is not None and (
                lv < level or lv == level and (sub != op or right == (side == "l")))
            if needed or lv is not None and rng.random() < 0.3:
                text = f"({text})"
            parts.append(text)
        return f"{parts[0]} {op} {parts[1]}", level, op

    return build(ops)[0]


def random_dimacs(rng: random.Random, n: int, m: int, kmax: int) -> str:
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(kmax, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)])
    return dimacs_text(n, clauses)


def product_sum(n: int, masks: list[int]) -> str:
    """The XOR of one product per mask, of the variables whose bits are set."""
    return " ^ ".join(
        " & ".join(f"a{r}" for r in range(1, n + 1) if m >> (r - 1) & 1) or "1" for m in masks)


def dimacs_text(n: int, clauses: list[list[int]]) -> str:
    lines = ["c golden corpus input", f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, lits + [0])) for lits in clauses]
    return "\n".join(lines) + "\n"


def dimacs_files(rng: random.Random) -> dict[str, str]:
    """File name -> DIMACS text: valid documents at every n, and malformed ones."""
    files = {f"k{n}.cnf": random_dimacs(rng, n, 2 * n, 3) for n in (1, 2, 3, 5, 8, 12)}
    files["wide8.cnf"] = random_dimacs(rng, 8, 6, 8)
    files["empty3.cnf"] = "p cnf 3 0\n"
    files["unsat2.cnf"] = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
    files["premise.cnf"] = "c premise\np cnf 3 2\n1 2 0\n-1 3 0\n"
    files["bad_unterminated.cnf"] = "p cnf 2 1\n1 2\n"
    files["bad_noheader.cnf"] = "1 2 0\n"
    files["bad_count.cnf"] = "p cnf 2 2\n1 2 0\n"
    files["bad_literal.cnf"] = "p cnf 2 1\n1 x 0\n"
    files["bad_range.cnf"] = "p cnf 2 1\n1 3 0\n"
    files["bad_taut.cnf"] = "p cnf 2 1\n1 -1 0\n"
    files["bad_header.cnf"] = "p dnf 2 1\n1 0\n"
    files["big30.cnf"] = "p cnf 30 1\n1 0\n"
    return files


def wide_dimacs_files(rng: random.Random) -> dict[str, str]:
    """File name -> DIMACS text at n = WIDE_N, named by where the falsified
    assignments lie: a few anywhere, many, or within the lowest or the top
    256 indices only."""
    n = WIDE_N

    def signed(variables: list[int]) -> list[int]:
        return [v if rng.random() < 0.5 else -v for v in variables]

    def some(lo: int, hi: int, k: int) -> list[int]:
        return rng.sample(range(lo, hi + 1), k)

    high = list(range(9, n + 1))
    return {
        "w16_one.cnf": dimacs_text(n, [signed(list(range(1, n + 1)))]),
        "w16_k10.cnf": dimacs_text(n, [signed(some(1, n, 10))]),
        "w16_few.cnf": dimacs_text(n, [signed(some(1, n, rng.randint(12, 15))) for _ in range(4)]),
        "w16_dense.cnf": dimacs_text(n, [signed(some(1, n, 3)) for _ in range(8)]),
        "w16_low.cnf": dimacs_text(
            n, [signed(some(1, 8, rng.randint(2, 4))) + high for _ in range(6)]),
        "w16_top.cnf": dimacs_text(
            n, [signed(some(1, 8, rng.randint(2, 4))) + [-v for v in high] for _ in range(6)]),
    }


# ---------------------------------------------------------------------------
# cases


def cases(rng: random.Random, files: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(id, argv) of every case, in a fixed order."""
    out: list[tuple[str, list[str]]] = []

    def add(case_id: str, *argv: str) -> None:
        out.append((case_id, list(argv)))

    def dimacs(name: str) -> str:
        return f"tests/golden/{name}"

    # every formula subcommand, text and --json, indexed and named variables
    for n in (1, 2, 3, 5, 8, 12):
        for style in ("idx", "named"):
            if style == "named" and n > len(_NAMES):
                continue
            names = _NAMES[:n] if style == "named" else None
            text = random_formula(rng, n, 2 * n + 1, names)
            cmds = ("canon", "count", "count-assign", "flip", "taut")
            for i, cmd in enumerate(cmds):
                # every command in text; two of them, in turn, also in --json
                for fmt in ("text", "json") if (i - n) % len(cmds) < 2 else ("text",):
                    argv = [cmd.split("-")[0], "--formula", text, "--n", str(n)]
                    if cmd == "count-assign":
                        argv.append("--assignments")
                    if cmd == "flip":
                        argv += ["--flip", str(rng.randint(0, (1 << n) - 1))]
                    if fmt == "json":
                        argv.append("--json")
                    add(f"{cmd}-{fmt}-{style}-n{n}", *argv)

    # DIMACS input to every subcommand that takes it
    for name in ("k1.cnf", "k2.cnf", "k3.cnf", "k5.cnf", "k8.cnf", "k12.cnf",
                 "wide8.cnf", "empty3.cnf", "unsat2.cnf", "premise.cnf"):
        stem = name[:-4]
        n = int(files[name].split("p cnf ", 1)[1].split()[0])
        for cmd in ("canon", "count", "count-assign", "expand", "flip", "taut"):
            for fmt in ("text", "json"):
                if fmt == "json" and stem not in ("k3", "premise"):
                    continue
                argv = [cmd.split("-")[0], "--dimacs", dimacs(name)]
                if cmd == "count-assign":
                    argv.append("--assignments")
                if cmd == "flip":
                    argv += ["--flip", ",".join(f"a{r}" for r in range(1, n + 1, 2))]
                if fmt == "json":
                    argv.append("--json")
                add(f"{cmd}-{fmt}-dimacs-{stem}", *argv)

    # every shape flip --formula renders back
    shapes = {
        "var": "a1", "const0": "0", "const1": "1 & a1", "not": "!a1", "notnot": "!!a1",
        "not3": "!!!a2", "and": "a1 & a2", "or": "a1 | a2", "xor": "a1 ^ a2",
        "imp": "a1 -> a2", "imp_chain": "a1 -> a2 -> a3", "imp_left": "(a1 -> a2) -> a3",
        "and_chain": "a1 & a2 & a3", "and_right": "a1 & (a2 & a3)",
        "or_chain": "a1 | a2 | a3", "or_right": "a1 | (a2 | a3)",
        "xor_chain": "a1 ^ a2 ^ a3", "xor_right": "a1 ^ (a2 ^ a3)",
        "or_xor": "(a1 | a2) ^ a3", "xor_or": "a1 | (a2 ^ a3)",
        "prec": "a1 | a2 & a3", "prec_paren": "(a1 | a2) & a3",
        "not_bin": "!(a1 & a2)", "notnot_bin": "!!(a1 | a2)", "not_imp": "!(a1 -> a2)",
        "imp_in_and": "(a1 -> a2) & (a2 -> a3)", "and_in_imp": "a1 & a2 -> a2 | a3",
        "xor_in_imp": "a1 ^ a2 -> !a3", "redundant": "((a1)) & (((!a2)))",
        "mixed": "!(a1 & !a2) -> (a3 ^ !(a1 | 0))",
        "cut_rule": "((a1|a2)&(!a1|a3))->(a2|a3)",
        "named": "!x & (y -> x) | z", "named_flip": "foo ^ !bar",
        "spaces": "  a1\t&\n!a2  ",
    }
    masks = ["a1", "a2", "a1,a3", "0", "7", "a1,a2,a3"]
    for i, (shape, text) in enumerate(shapes.items()):
        mask = masks[i % len(masks)]
        argv = ["flip", "--formula", text, "--flip", mask]
        if mask not in ("0", "a1"):
            argv += ["--n", "3"]
        add(f"flip-shape-{shape}", *argv)
    for i in range(12):
        n = rng.choice((3, 5, 8))
        text = random_formula(rng, n, rng.randint(3, 12))
        add(f"flip-random-{i}", "flip", "--formula", text, "--n", str(n),
            "--flip", str(rng.randint(0, (1 << n) - 1)))

    # deep input: 3000 levels of '!', of parentheses, and of each connective
    deep = {
        "bangs": "!" * 3000 + "a1",
        "bangs_odd": "!" * 3001 + "(a1 -> a2)",
        "parens": "(" * 3000 + "a1 & !a2" + ")" * 3000,
        "and_chain": " & ".join(f"a{1 + i % 3}" for i in range(3000)),
        "imp_chain": " -> ".join(f"a{1 + i % 3}" for i in range(3000)),
        "imp_left": "(" * 2999 + "a1" + "".join(f" -> a{1 + i % 3})" for i in range(2999)),
        "xor_right": "".join(f"a{1 + i % 3} ^ (" for i in range(2999)) + "a2" + ")" * 2999,
    }
    for shape, text in deep.items():
        add(f"flip-deep-{shape}", "flip", "--formula", text, "--n", "3", "--flip", "a1,a3")
        add(f"flip-deep-{shape}-json", "flip", "--formula", text, "--n", "3", "--flip", "a2",
            "--json")
        if shape in ("bangs", "parens", "imp_left"):
            add(f"canon-deep-{shape}", "canon", "--formula", text, "--n", "3")

    # verify: each check, text and --json
    checks = ["--ti", "--tii", "--tiii", "--tiv", "--tv", "--flip-group", "--resolution"]
    for n in (1, 2):
        for flag in checks:
            add(f"verify{flag}-n{n}", "verify", flag, "--n", str(n))
        add(f"verify-all-json-n{n}", "verify", "--all", "--n", str(n), "--json")
    add("verify-all-n2", "verify", "--all", "--n", "2")
    add("verify-ti-tv-n3", "verify", "--ti", "--tv", "--n", "3")
    add("verify-default-n", "verify", "--resolution")

    # taut: tautologies and non-tautologies
    for i, text in enumerate(["a1 | !a1", "a1 -> a1", "((a1|a2)&(!a1|a3))->(a2|a3)", "1",
                              "a1 ^ !a1", "(x -> y) | (y -> x)", "a1", "0", "a1 & !a1",
                              "a1 -> a2", "a1 ^ a2 ^ a1"]):
        add(f"taut-{i}", "taut", "--formula", text)
        if i % 4 == 0:
            add(f"taut-{i}-json", "taut", "--formula", text, "--json")

    # formula syntax errors (exit 2)
    syntax = {
        "char": "a1 $ a2", "const": "a1 & 2", "end": "a1 &", "empty": "", "blank": "   ",
        "operand": "a1 a2", "close": "a1)", "open": "(a1 & a2", "a0": "a0 | a1",
        "mix_named": "a1 & x", "mix_indexed": "x & a1", "mix_or_xor": "a1 | a2 ^ a3",
        "mix_xor_or": "a1 ^ a2 | a3", "lead_op": "& a1", "lead_close": ")a1", "bang_end": "a1 & !",
        "empty_parens": "()", "digit_ident": "1a", "arrow_half": "a1 - a2", "beyond": "a3",
        "distinct": "x & y & z", "deep_open": "(" * 3000 + "a1",
        "deep_bang_end": "!" * 3000,
    }
    for case, text in syntax.items():
        argv = ["canon", "--formula", text]
        if case in ("beyond", "distinct"):
            argv += ["--n", "2"]
        add(f"syntax-{case}", *argv)
    add("syntax-flip", "flip", "--formula", "a1 ->", "--flip", "a1")
    add("syntax-json", "count", "--formula", "a1 | ^", "--json")

    # other errors of ours (exit 2)
    for name in ("bad_unterminated", "bad_noheader", "bad_count", "bad_literal", "bad_range",
                 "bad_taut", "bad_header"):
        add(f"dimacs-{name}", "count", "--dimacs", dimacs(f"{name}.cnf"))
    add("dimacs-missing", "count", "--dimacs", dimacs("missing.cnf"))
    add("dimacs-with-n", "count", "--dimacs", dimacs("premise.cnf"), "--n", "3")
    add("flip-bad-mask", "flip", "--formula", "a1", "--flip", "a9")
    add("flip-bad-mask-number", "flip", "--formula", "a1 & a2", "--flip", "4")
    add("flip-bad-mask-text", "flip", "--formula", "a1", "--flip", "b1")
    add("verify-none", "verify", "--n", "2")
    add("max-vars-zero", "canon", "--formula", "a1", "--max-vars", "0")

    # refusals (exit 3)
    add("refuse-max-vars", "canon", "--formula", "a3", "--max-vars", "2")
    add("refuse-max-vars-named", "count", "--formula", "x & y & z", "--max-vars", "2")
    add("refuse-n-negative", "count", "--formula", "a1", "--n", "-1")
    add("refuse-n-zero", "count", "--formula", "a1", "--n", "0")
    add("refuse-n-cap", "count", "--formula", "a1", "--n", "25")
    add("refuse-index-cap", "taut", "--formula", "a25 | !a25")
    add("refuse-dimacs-cap", "canon", "--dimacs", dimacs("big30.cnf"))
    add("refuse-dimacs-max-vars", "expand", "--dimacs", dimacs("k5.cnf"), "--max-vars", "4")
    add("refuse-verify-tiv", "verify", "--tiv", "--n", "3")
    add("refuse-verify-flip-group", "verify", "--flip-group", "--n", "7")
    add("refuse-verify-negative", "verify", "--ti", "--n", "-1")
    add("refuse-memory", "count", "--formula", "a1", "--n", "64", "--max-vars", "100")
    add("refuse-overflow", "count", "--formula", "a1", "--n", "70", "--max-vars", "100")

    # argparse rejections (exit 2, stderr not stored)
    add("argparse-no-command")
    add("argparse-expand-formula", "expand", "--formula", "a1")
    add("argparse-no-input", "canon")
    add("argparse-both-inputs", "canon", "--formula", "a1", "--dimacs", dimacs("k1.cnf"))
    add("argparse-n-unicode", "count", "--formula", "a1", "--n", "٣")
    add("argparse-n-plus", "count", "--formula", "a1", "--n", "+3")
    add("argparse-flip-no-mask", "flip", "--formula", "a1")
    add("argparse-verify-n-underscore", "verify", "--all", "--n", "0_2")
    return out


def wide_cases(rng: random.Random, files: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(id, argv) of the cases at n = WIDE_N: polynomials, prime sets and model
    sets with at most 64 set positions, one set bit per 1024 or fewer, and
    dense ones."""
    n = WIDE_N
    size = 1 << n
    out: list[tuple[str, list[str]]] = []
    formulas = {
        "zero": "a1 & !a1",
        "one": "1",
        "a16": "a16",
        "all": " & ".join(f"a{r}" for r in range(1, n + 1)),
        "low": "a1 & a2 ^ a3 ^ a1 & a3 & a5",
        "models64": " & ".join(f"a{r}" for r in sorted(rng.sample(range(1, n + 1), 10))),
        # str(Anf) places monomial m by the reversed low byte of m: one per block
        "blocks": product_sum(n, [(rng.randrange(size >> 8) << 8) | b for b in range(256)]),
    }
    for terms in (1, 8, 64, 65, 300):
        formulas[f"monos{terms}"] = product_sum(n, rng.sample(range(size), terms))
    for i in range(2):
        formulas[f"dense{i}"] = random_formula(rng, n, 40)
    for name, text in formulas.items():
        out.append((f"canon-w16-{name}", ["canon", "--formula", text, "--n", str(n)]))
        out.append((f"count-w16-{name}", ["count", "--formula", text, "--n", str(n)]))
        if name in ("all", "models64", "monos8"):
            out.append((f"count-assign-w16-{name}",
                        ["count", "--formula", text, "--n", str(n), "--assignments"]))
    for name in files:
        stem = name[:-4]
        for cmd in ("expand", "canon"):
            out.append((f"{cmd}-{stem}", [cmd, "--dimacs", f"tests/golden/{name}"]))
    out.append(("expand-json-w16_k10", ["expand", "--dimacs", "tests/golden/w16_k10.cnf", "--json"]))
    return out


def inputs() -> tuple[random.Random, random.Random, dict[str, str], dict[str, str]]:
    """The two seeded streams, each past the DIMACS inputs it drew, and
    those inputs: the files of ``cases``, then those of ``wide_cases``."""
    rng, wide = random.Random(SEED), random.Random(WIDE_SEED)
    return rng, wide, dimacs_files(rng), wide_dimacs_files(wide)


def build() -> tuple[dict[str, str], list[dict]]:
    """The DIMACS files and the records of every case."""
    rng, wide, files, wide_files = inputs()
    records = []
    for case_id, argv in cases(rng, files) + wide_cases(wide, wide_files):
        records.append({"id": case_id, "argv": argv, **run(argv)})
    return files | wide_files, records


def dump(records: list[dict]) -> str:
    """One case per line, so a diff names the cases that changed."""
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    if write:
        # the inputs are written first: the cases read them
        _, _, files, wide_files = inputs()
        for name, text in (files | wide_files).items():
            (HERE / name).write_text(text, encoding="utf-8")
    files, records = build()
    ids = [r["id"] for r in records]
    if len(set(ids)) != len(ids):
        raise SystemExit("duplicate case ids")
    if write:
        CORPUS.write_text(dump(records), encoding="utf-8")
        print(f"wrote {len(records)} cases to {CORPUS.relative_to(ROOT)}")
        return 0
    stored = {r["id"]: r for r in json.loads(CORPUS.read_text(encoding="utf-8"))}
    fresh = {r["id"]: r for r in records}
    changed = [i for i in fresh if stored.get(i) != fresh[i]]
    changed += [i for i in stored if i not in fresh]
    changed += [name for name, text in files.items()
                if not (HERE / name).is_file() or (HERE / name).read_text(encoding="utf-8") != text]
    for case_id in changed:
        print(case_id)
    print(f"{len(changed)} of {len(fresh)} cases changed", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
