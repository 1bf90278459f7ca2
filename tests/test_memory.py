"""Peak memory of the packed transforms and evaluators, measured with tracemalloc.

Each transform holds a few 2**n-bit vectors at a time: its input, its
result and the temporaries of one butterfly or XOR step.  The bound is
eight vectors at n = 20; a route that builds one Python object per
monomial or per index exceeds it by orders of magnitude.  So does a
polynomial, CNF or DNF text of 300 set positions that reads one
selector byte per position of the whole vector.  The evaluators are
held to the same bound: a 3-CNF of 4n clauses, a formula of bounded
depth, two 1000-deep chains that nest to the right and a 300-deep chain
of conjunctions nesting to the right each keep a few vectors live, not
one per literal, node or level.

What the calls leave behind is bounded too: the variable vectors of the
last n, which a call at another n replaces.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from boolring import (
    Anf, BoolFunc, CnfDoc, PrimeSet, compose, decompose, eval_ast, eval_cnf, from_anf,
    minterm_dnf_text, parse_formula, prime_cnf_text, to_anf,
)

N = 20
VECTOR_BYTES = (1 << N) // 8
LIMIT_BYTES = 8 * VECTOR_BYTES


def peak_bytes(fn):
    """Bytes allocated at the peak of one call, above what was live before it."""
    fn()  # warm-up: builds the variable table of this n, which later calls share
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()  # held until the peak is read, so it counts as one of the vectors
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture(scope="module")
def func():
    return BoolFunc(N, random.Random(20).getrandbits(1 << N))


@pytest.mark.parametrize("name", ["to_anf", "from_anf", "decompose", "compose",
                                  "anf_text_sparse", "prime_cnf_text_sparse",
                                  "dnf_text_sparse"])
def test_peak_is_a_few_vectors(func, name):
    anf = to_anf(func)
    # 300 set positions; selectors for the whole vector would take 2**N bytes
    positions = random.Random(23).sample(range(1 << N), 300)
    sparse_anf = Anf(N, [[r for r in range(1, N + 1) if p >> (r - 1) & 1] for p in positions])
    sparse_primes = PrimeSet(N, positions)
    sparse_models = decompose(~compose(N, sparse_primes))  # satisfied at the 300 positions
    calls = {
        "to_anf": lambda: to_anf(func),
        "from_anf": lambda: from_anf(anf),
        "decompose": lambda: decompose(func),
        "compose": lambda: compose(N, decompose(func)),
        "anf_text_sparse": lambda: str(sparse_anf),
        "prime_cnf_text_sparse": lambda: prime_cnf_text(sparse_primes),
        "dnf_text_sparse": lambda: minterm_dnf_text(sparse_models),
    }
    peak = peak_bytes(calls[name])
    assert peak <= LIMIT_BYTES, f"{name} peaked at {peak / VECTOR_BYTES:.1f} vectors"


def random_3cnf(rng, n, m):
    return CnfDoc(n, tuple(
        tuple(v if rng.random() < 0.5 else -v for v in sorted(rng.sample(range(1, n + 1), 3)))
        for _ in range(m)
    ))


def bounded_formula(rng, n, depth):
    """Formula text whose tree is at most ``depth`` operators deep."""
    if depth == 0:
        return f"a{rng.randint(1, n)}" if rng.random() < 0.9 else str(rng.randint(0, 1))
    op = rng.choice(["&", "|", "^", "->", "!"])
    if op == "!":
        return f"!({bounded_formula(rng, n, depth - 1)})"
    lhs, rhs = (bounded_formula(rng, n, depth - 1) for _ in range(2))
    return f"({lhs}) {op} ({rhs})"


@pytest.mark.parametrize("name", ["eval_cnf", "eval_ast", "eval_ast_implies_chain",
                                  "eval_ast_right_nested", "eval_ast_pair_chain"])
def test_evaluator_peak_is_a_few_vectors(name):
    rng = random.Random(21)
    doc = random_3cnf(rng, N, 4 * N)
    formula = parse_formula(bounded_formula(rng, N, 4), N)
    # 1000 operands each: every level has a negation or a variable beside a deeper operand
    implies_chain = parse_formula(" -> ".join(f"!a{k % N + 1}" for k in range(1000)), N)
    right_nested = parse_formula(
        "".join(f"a{k % N + 1} & (" for k in range(999)) + "a1" + ")" * 999, N)
    # 300 levels, each a conjunction beside the deeper rest: (a1 & a2) -> ((a2 & a3) -> ...)
    pair_chain = parse_formula("".join(
        f"(a{k % N + 1} & a{(k + 1) % N + 1}) -> (" for k in range(299)) + "a1 & a2" + ")" * 299, N)
    calls = {"eval_cnf": lambda: eval_cnf(doc), "eval_ast": lambda: eval_ast(formula),
             "eval_ast_implies_chain": lambda: eval_ast(implies_chain),
             "eval_ast_right_nested": lambda: eval_ast(right_nested),
             "eval_ast_pair_chain": lambda: eval_ast(pair_chain)}
    peak = peak_bytes(calls[name])
    assert peak <= LIMIT_BYTES, f"{name} peaked at {peak / VECTOR_BYTES:.1f} vectors"


RETENTION_SCRIPT = """
import gc, random, tracemalloc
from boolring import BoolFunc, CnfDoc, apply_flip, eval_ast, eval_cnf, parse_formula, to_anf

n, clauses, text = {n}, {clauses!r}, {text!r}
tracemalloc.start()
func = BoolFunc(n, random.Random(20).getrandbits(1 << n))
to_anf(func), apply_flip(func, (1 << n) - 1)
eval_ast(parse_formula(text, n)), eval_cnf(CnfDoc(n, clauses))
del func
gc.collect()
held_after_n = tracemalloc.get_traced_memory()[0]
to_anf(BoolFunc(3, 0x96))
gc.collect()
print(held_after_n, tracemalloc.get_traced_memory()[0])
"""


def test_calls_leave_only_the_last_variable_table():
    """After the transforms and evaluators return, the process keeps at
    most n + 1 vectors: the n of the variable table, with room for small
    objects.  After one call at n = 3 it keeps less than one vector of
    the larger n.  A fresh interpreter keeps test order and earlier
    variable counts out of the count."""
    rng = random.Random(22)
    code = RETENTION_SCRIPT.format(
        n=N, clauses=random_3cnf(rng, N, 4 * N).clauses, text=bounded_formula(rng, N, 4))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    # a vector counts as the int that holds it, 30 bits to a 4-byte digit
    vector = sys.getsizeof((1 << (1 << N)) - 1)
    held_after_n, held_after_3 = map(int, proc.stdout.split())
    assert held_after_n <= (N + 1) * vector, \
        f"kept {held_after_n / vector:.1f} vectors after the n={N} calls"
    assert held_after_3 < vector, \
        f"kept {held_after_3 / vector:.1f} vectors of n={N} after a call at n=3"
