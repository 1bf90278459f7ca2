"""Independent checks of every benchmark op's outputs.

The checks never call boolring: they take the op's input (as generated)
and its outputs (as plain ints, lists and strings) and compare them by
exact equality against routes computed here -- a formula evaluator of
its own, subset parity over the polynomial's monomials, clause
falsification at sampled assignments, and the CLI's documented output
format.  Each checker returns a list of problems; an empty list means
the op's outputs are right.
"""

from __future__ import annotations

import bisect
import functools
import random
import re

_TOKEN_RE = re.compile(r"\s*(->|[()!&|^]|[01]|a\d+)")
_BINARY_PREC = {"&": 3, "|": 2, "^": 2, "->": 1}
SAMPLES = 32


def tokenize(text: str) -> list[str]:
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize formula at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


@functools.lru_cache(maxsize=None)
def var_mask(n: int, r: int) -> int:
    """Truth vector of variable a<r> over n variables: one period of 2**r bits
    (2**(r-1) zeros below as many ones) times the repunit that tiles it."""
    period, half = 1 << r, 1 << (r - 1)
    tile = ((1 << half) - 1) << half
    return tile * (((1 << (1 << n)) - 1) // ((1 << period) - 1))


def truth_vector(tokens: list[str], n: int) -> int:
    """Packed truth vector of a tokenized formula over n variables.

    Operator precedence by an explicit stack, so nesting depth costs no
    recursion: ``!`` binds tightest, then ``&``, then ``|``/``^`` (left
    associative), then right-associative ``->``.
    """
    ones = (1 << (1 << n)) - 1
    values: list[int] = []
    ops: list[str] = []

    def reduce_one() -> None:
        op = ops.pop()
        rhs = values.pop()
        lhs = values.pop()
        if op == "&":
            values.append(lhs & rhs)
        elif op == "|":
            values.append(lhs | rhs)
        elif op == "^":
            values.append(lhs ^ rhs)
        else:
            values.append((ones ^ lhs) | rhs)

    def push_value(v: int) -> None:
        while ops and ops[-1] == "!":
            ops.pop()
            v ^= ones
        values.append(v)

    for tok in tokens:
        if tok == "(" or tok == "!":
            ops.append(tok)
        elif tok == ")":
            while ops[-1] != "(":
                reduce_one()
            ops.pop()
            push_value(values.pop())
        elif tok in _BINARY_PREC:
            prec = _BINARY_PREC[tok]
            while ops and ops[-1] in _BINARY_PREC and (
                    _BINARY_PREC[ops[-1]] > prec or (_BINARY_PREC[ops[-1]] == prec and tok != "->")):
                reduce_one()
            ops.append(tok)
        elif tok in ("0", "1"):
            push_value(ones if tok == "1" else 0)
        else:
            push_value(var_mask(n, int(tok[1:])))
    while ops:
        reduce_one()
    return values[0]


def sample_points(n: int, salt: int, count: int = SAMPLES) -> list[int]:
    rng = random.Random(salt)
    return [rng.randrange(1 << n) for _ in range(count)]


def _member(sorted_list: list[int], j: int) -> bool:
    i = bisect.bisect_left(sorted_list, j)
    return i < len(sorted_list) and sorted_list[i] == j


def anf_text_masks(text: str) -> set[int]:
    """Monomials of a rendered polynomial (``a1·a3 ⊕ a2``), as variable masks."""
    if text == "0":
        return set()
    masks = set()
    for term in text.split(" ⊕ "):
        mask = 0
        if term != "1":
            for lit in term.split("·"):
                mask |= 1 << (int(lit[1:]) - 1)
        masks.add(mask)
    return masks


def assignment_text(n: int, j: int) -> str:
    return f"j={j}: " + " ".join(f"a{r}={(j >> (r - 1)) & 1}" for r in range(1, n + 1))


def check_canon(op: dict, out: dict) -> list[str]:
    """Outputs of the canon + count pipeline on one input.

    ``out`` holds ``tt``, ``monomials`` (variable masks), ``anf_text``,
    ``roundtrip_tt`` (polynomial evaluated back), ``prime_indices``,
    ``minterm_indices``, ``count``, ``assignments`` (rendered),
    ``flipped_tt`` and, for formula input, ``flip_cross_tt`` (the
    formula flipped at the source and evaluated again).
    """
    n, tt = op["n"], out["tt"]
    size = 1 << n
    problems = []
    points = sample_points(n, op["mask"])
    want = int(op["hex"], 16) if "hex" in op else truth_vector(tokenize(op["text"]), n)
    if tt != want:
        problems.append("truth vector differs from the input")
    if out["roundtrip_tt"] != tt:
        problems.append("polynomial form does not evaluate back to the truth vector")
    masks = out["monomials"]
    bad = [j for j in points
           if sum(1 for m in masks if m & j == m) & 1 != (tt >> j) & 1]
    if bad:
        problems.append(f"polynomial parity differs from the truth vector at assignment {bad[0]}")
    if anf_text_masks(out["anf_text"]) != set(masks) or len(set(masks)) != len(masks):
        problems.append("rendered polynomial does not list the monomials")
    primes, minterms, count = out["prime_indices"], out["minterm_indices"], out["count"]
    if count != tt.bit_count() or len(minterms) != count:
        problems.append("model count differs from the popcount of the truth vector")
    if len(primes) + count != size:
        problems.append("prime count plus model count is not 2**n")
    if primes != sorted(primes) or minterms != sorted(minterms):
        problems.append("index lists are not sorted")
    bad = [j for j in points
           if _member(primes, j) == bool((tt >> j) & 1) or _member(minterms, j) != bool((tt >> j) & 1)]
    if bad:
        problems.append(f"prime/minterm index lists are wrong at assignment {bad[0]}")
    assignments = out["assignments"]
    if len(assignments) != count:
        problems.append("satisfying assignment list has the wrong length")
    elif count:
        rng = random.Random(op["mask"] + 1)
        picks = {0, count - 1} | {rng.randrange(count) for _ in range(SAMPLES)}
        bad = [k for k in sorted(picks) if assignments[k] != assignment_text(n, minterms[k])]
        if bad:
            problems.append(f"satisfying assignment {bad[0]} is rendered wrong")
    flipped, s = out["flipped_tt"], op["mask"]
    bad = [j for j in points if (flipped >> j) & 1 != (tt >> (j ^ s)) & 1]
    if bad or flipped.bit_count() != count:
        problems.append("flipped vector is not the input permuted by j -> j xor mask")
    if "flip_cross_tt" in out and out["flip_cross_tt"] != flipped:
        problems.append("vector flip differs from the source-level flip")
    return problems


def parse_clauses(text: str) -> list[list[int]]:
    clauses, pending = [], []
    for line in text.splitlines():
        if line.startswith(("c", "p")) or not line.strip():
            continue
        for tok in line.split():
            lit = int(tok)
            if lit:
                pending.append(lit)
            else:
                clauses.append(pending)
                pending = []
    return clauses


def falsified(clause: list[int], j: int) -> bool:
    return all(((j >> (abs(lit) - 1)) & 1) == (lit < 0) for lit in clause)


def check_expand(op: dict, out: dict) -> list[str]:
    """Outputs of the expand pipeline on one DIMACS document.

    ``out`` holds ``primes`` (sorted maxterm indices of the expansion),
    ``cnf_text`` (the emitted full-width CNF) and ``eval_count`` (the
    popcount of the directly evaluated truth vector).
    """
    n, primes = op["n"], out["primes"]
    clauses = parse_clauses(op["text"])
    problems = []
    bad = [j for j in op["samples"] if _member(primes, j) != any(falsified(c, j) for c in clauses)]
    if bad:
        problems.append(f"expansion disagrees with clause falsification at assignment {bad[0]}")
    if primes != sorted(set(primes)):
        problems.append("prime indices are not sorted and distinct")
    text = out["cnf_text"]
    emitted = 0 if text == "1" else text.count(" ∧ ") + 1
    if emitted != len(primes):
        problems.append(f"emitted {emitted} clauses for {len(primes)} primes")
    if (1 << n) - len(primes) != out["eval_count"]:
        problems.append("expansion and direct evaluation give different model counts")
    return problems


def render_fields(fields: dict) -> str:
    """The CLI's text form: one ``key: value`` line per field, lists in braces."""
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            value = "{" + ", ".join(str(v) for v in value) + "}"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}: {value}")
    return "".join(line + "\n" for line in lines)


def check_cli(op: dict, code: int, stdout: str, stderr: str, expected_stdout: str | None) -> list[str]:
    """Exit code, stderr and stdout of one CLI invocation that did not crash.

    ``expected_stdout`` is rendered from in-process library results;
    ``None`` for invocations that must fail, whose stdout must be empty
    and whose stderr must carry the documented one-line message.
    """
    problems = []
    if code != op["code"]:
        problems.append(f"exit code {code}, expected {op['code']}")
    if expected_stdout is None:
        if stdout:
            problems.append("output on stdout for a refused input")
        prefix = "refused: " if op["code"] == 3 else "error: "
        if not stderr.startswith(prefix):
            problems.append(f"stderr does not start with {prefix!r}")
    elif stdout != expected_stdout:
        problems.append("stdout differs from the in-process result")
    return problems
