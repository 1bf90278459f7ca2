"""Seeded input generators for the boolring benchmark.

Nothing here imports boolring: the program under test receives only the
text and integers these functions return.  The timed inputs and the
depth probes are drawn from ``random.Random`` streams built from the
workload seed, so the same seed gives the same bytes.  The warm-up ops
come from one fixed stream, so set-up does the same work in every run.

Each workload's timed inputs are laid out in blocks with a fixed mix
(the counts per block never depend on the seed; only the contents and
the order inside a block do).  Every op carries the name of the pipeline
that runs it (``pipe``).  The runner times all blocks of a run in passes
over the same ops, so every run measures exactly the designed mix and
the spread between seeds comes from the inputs, not from where the clock
stopped.
"""

from __future__ import annotations

import random

WORKLOADS = ("api", "cli")

# canon: n in {12, 14, 16} weighted 12:7:1, about a quarter dense vectors.
# Percentiles are kept off the steps between cost classes: the two n=16 ops
# are the slowest 5 %, so p90 falls among the n=14 dense vectors, whose cost
# hardly varies, and not on the edge of the n=16 ops (as at 5:4:1 or 6:3:1).
CANON_BLOCK = {(12, "formula"): 20, (12, "dense"): 4,
               (14, "formula"): 8, (14, "dense"): 6,
               (16, "formula"): 1, (16, "dense"): 1}
CNF_N = (10, 12, 13)
CNF_K = (2, 3, 4)
CNF_M_FACTOR = (1, 2, 4)
DEEP_DEPTH = 3000
DEEP_KINDS = ("chain", "parens", "bangs")
# blocks per run: all of them run in every pass, and a pass takes a few
# seconds, so that each op is timed several times, seconds apart
BLOCKS = {"api": 1, "cli": 3}

_BINARY = ("&", "|", "^", "->")


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream), stable across Python runs."""
    return random.Random(f"boolring-bench/{seed}/{stream}")


def formula_text(rng: random.Random, n: int, ops: int) -> str:
    """Random formula over a1..an with exactly ``ops`` operators.

    Binary operators are parenthesized, so ``|`` and ``^`` never mix in
    one chain; about one operator in five is ``!``.  Depth grows like
    the height of a random binary tree, far below the recursion limit.
    """
    def build(k: int) -> str:
        if k == 0:
            return f"a{rng.randint(1, n)}"
        if rng.random() < 0.2:
            return "!" + build(k - 1)
        left = rng.randint(0, k - 1)
        op = rng.choice(_BINARY)
        return f"({build(left)} {op} {build(k - 1 - left)})"
    return build(ops)


def deep_formula(rng: random.Random, kind: str, n: int, depth: int = DEEP_DEPTH) -> str:
    """A formula whose nesting depth is ``depth``: an ``&`` chain, nested
    parentheses, or a run of ``!`` in front of a small random formula."""
    if kind == "chain":
        return " & ".join(f"a{rng.randint(1, n)}" for _ in range(depth))
    base = formula_text(rng, n, 2 * n)
    if kind == "parens":
        return "(" * depth + base + ")" * depth
    if kind == "bangs":
        return "!" * depth + "(" + base + ")"
    raise ValueError(f"unknown deep formula kind {kind!r}")


def dense_hex(rng: random.Random, n: int) -> str:
    """A uniformly random truth vector of 2**n bits, as the hex the library reads;
    about 2**(n-1) of its polynomial coefficients are set."""
    return format(rng.getrandbits(1 << n), f"0{max(1, (1 << n) // 4)}x")


def kcnf_clauses(rng: random.Random, n: int, k: int, m: int) -> list[list[int]]:
    """``m`` random clauses of ``k`` distinct variables out of ``n``."""
    return [[v if rng.random() < 0.5 else -v for v in sorted(rng.sample(range(1, n + 1), k))]
            for _ in range(m)]


def dimacs_text(n: int, clauses: list[list[int]]) -> str:
    lines = ["c seeded random CNF", f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workload schedules: lists of JSON-able op dicts


def _canon_op(rng: random.Random, n: int, kind: str, ops: int | None = None) -> dict:
    op = {"pipe": "canon", "n": n, "kind": kind, "mask": rng.randrange(1, 1 << n)}
    if kind == "formula":
        op["text"] = formula_text(rng, n, ops or rng.randint(8 * n, 32 * n))
    else:
        op["hex"] = dense_hex(rng, n)
    return op


def canon_block(rng: random.Random) -> list[dict]:
    ops = [_canon_op(rng, n, kind) for (n, kind), count in CANON_BLOCK.items() for _ in range(count)]
    rng.shuffle(ops)
    return ops


def canon_warmup(rng: random.Random) -> list[dict]:
    """One op per n, apart from the timed set.  The n=16 one, all variables
    false, has all 65536 monomials in its polynomial form, so it fills the
    polynomial form's monomial cache before timing starts."""
    return [_canon_op(rng, 12, "dense"), _canon_op(rng, 14, "formula", 8 * 14),
            {"pipe": "canon", "n": 16, "kind": "formula", "mask": rng.randrange(1, 1 << 16),
             "text": " & ".join(f"!a{r}" for r in range(1, 17))}]


def canon_deep(rng: random.Random) -> list[dict]:
    n = 12
    return [{"pipe": "canon", "n": n, "kind": "formula", "deep": kind,
             "mask": rng.randrange(1, 1 << n),
             "text": deep_formula(rng, kind, n)} for kind in DEEP_KINDS]


def _cnf_op(rng: random.Random, n: int, k: int, m: int) -> dict:
    return {"pipe": "expand", "n": n, "k": k, "m": m,
            "text": dimacs_text(n, kcnf_clauses(rng, n, k, m)),
            "samples": [rng.randrange(1 << n) for _ in range(64)]}


def cnf_block(rng: random.Random) -> list[dict]:
    ops = [_cnf_op(rng, n, k, f * n) for n in CNF_N for k in CNF_K for f in CNF_M_FACTOR]
    rng.shuffle(ops)
    return ops


def cnf_warmup(rng: random.Random) -> list[dict]:
    return [_cnf_op(rng, n, 4, n) for n in CNF_N]


def _small_formula(rng: random.Random) -> tuple[str, int]:
    n = rng.randint(4, 8)
    return formula_text(rng, n, rng.randint(2 * n, 4 * n)), n


def cli_block(rng: random.Random) -> list[dict]:
    """One invocation of each kind in the CLI mix.

    Every op is an argv (after ``python -m boolring.cli``) plus the exit
    code it must end with; ``files`` maps placeholder names in the argv
    to DIMACS text the runner writes before timing.
    """
    ops = []

    def add(argv: list[str], code: int = 0, files: dict | None = None, n: int | None = None) -> None:
        ops.append({"pipe": "cli", "argv": argv, "code": code, "files": files or {}, "n": n})

    def cnf(n: int) -> dict:
        return {"@cnf": dimacs_text(n, kcnf_clauses(rng, n, 3, 2 * n))}

    f, n = _small_formula(rng)
    add(["canon", "--formula", f, "--n", str(n)], n=n)
    f, n = _small_formula(rng)
    add(["canon", "--json", "--formula", f, "--n", str(n)], n=n)
    n = rng.randint(4, 8)
    add(["canon", "--dimacs", "@cnf"], files=cnf(n), n=n)
    f, n = _small_formula(rng)
    add(["count", "--assignments", "--formula", f, "--n", str(n)], n=n)
    n = rng.randint(4, 8)
    add(["count", "--json", "--assignments", "--dimacs", "@cnf"], files=cnf(n), n=n)
    n = rng.randint(4, 8)
    add(["expand", "--dimacs", "@cnf"], files=cnf(n), n=n)
    n = rng.randint(4, 8)
    add(["expand", "--json", "--dimacs", "@cnf"], files=cnf(n), n=n)
    f, n = _small_formula(rng)
    add(["flip", "--formula", f, "--n", str(n), "--flip", str(rng.randrange(1, 1 << n))], n=n)
    n = rng.randint(4, 8)
    add(["flip", "--json", "--dimacs", "@cnf", "--flip", "a1,a3"], files=cnf(n), n=n)
    add(["verify", "--all", "--n", "2"])
    add(["verify", "--json", "--ti", "--tv", "--resolution", "--n", "2"])
    n = rng.randint(4, 8)
    add(["taut", "--formula", f"a{n} | !a{n}", "--n", str(n)], n=n)
    f, n = _small_formula(rng)
    add(["taut", "--formula", f"{f} & a1 & !a1", "--n", str(n)], code=1, n=n)
    f, n = _small_formula(rng)
    add(["canon", "--formula", f + " & & a1", "--n", str(n)], code=2, n=n)
    add(["count", "--formula", f"a1 & a{rng.randint(25, 40)}"], code=3)
    add(["verify", "--tiv", "--n", "3"], code=3)
    rng.shuffle(ops)
    return ops


def cli_warmup(rng: random.Random) -> list[dict]:
    return [{"pipe": "cli", "argv": ["taut", "--formula", "a1 | !a1"], "code": 0, "files": {},
             "n": 1},
            {"pipe": "cli", "argv": ["verify", "--resolution"], "code": 0, "files": {}, "n": None}]


def cli_deep(rng: random.Random) -> list[dict]:
    n = 4
    return [{"pipe": "cli",
             "argv": ["count", "--json", "--formula", deep_formula(rng, kind, n), "--n", str(n)],
             "code": 0, "files": {}, "n": n, "deep": kind} for kind in DEEP_KINDS]


def api_block(rng: random.Random) -> list[dict]:
    """One canon block and one CNF block, shuffled together."""
    ops = canon_block(rng) + cnf_block(rng)
    rng.shuffle(ops)
    return ops


def api_warmup(rng: random.Random) -> list[dict]:
    return canon_warmup(rng) + cnf_warmup(rng)


_BUILDERS = {
    "api": (api_block, api_warmup, canon_deep),
    "cli": (cli_block, cli_warmup, cli_deep),
}


def workload_inputs(workload: str, seed: int, blocks: int | None = None) -> dict:
    """All inputs of one run: ``warmup`` ops, timed ``blocks``, and ``deep`` probes."""
    block, warmup, deep = _BUILDERS[workload]
    blocks = blocks or BLOCKS[workload]
    return {
        "workload": workload,
        "seed": seed,
        # the same warm-up in every run, so that setup_s times the same work
        "warmup": warmup(random.Random("boolring-bench/warmup")),
        "blocks": [block(rng_for(seed, f"block{i}")) for i in range(blocks)],
        "deep": deep(rng_for(seed, "deep")),
    }
