"""Peak memory of the packed transforms and evaluators, measured with tracemalloc.

Each transform holds a few 2**n-bit vectors at a time: its input, its
result and the temporaries of one butterfly or XOR step.  The bound is
eight vectors at n = 20; a route that builds one Python object per
monomial or per index exceeds it by orders of magnitude.  The
evaluators are held to the same bound: a 3-CNF of 4n clauses, a
formula of bounded depth, and two 1000-deep chains that nest to the
right, each keep a few vectors live, not one per literal, node or level.
"""

import random
import tracemalloc

import pytest

from boolring import (
    BoolFunc, CnfDoc, compose, decompose, eval_ast, eval_cnf, from_anf, parse_formula, to_anf,
)

N = 20
VECTOR_BYTES = (1 << N) // 8
LIMIT_BYTES = 8 * VECTOR_BYTES


def peak_bytes(fn):
    """Bytes allocated at the peak of one call, above what was live before it."""
    fn()  # warm-up: fills the per-n mask caches, which later calls share
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


@pytest.mark.parametrize("name", ["to_anf", "from_anf", "decompose", "compose"])
def test_peak_is_a_few_vectors(func, name):
    anf = to_anf(func)
    calls = {
        "to_anf": lambda: to_anf(func),
        "from_anf": lambda: from_anf(anf),
        "decompose": lambda: decompose(func),
        "compose": lambda: compose(N, decompose(func)),
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
                                  "eval_ast_right_nested"])
def test_evaluator_peak_is_a_few_vectors(name):
    rng = random.Random(21)
    doc = random_3cnf(rng, N, 4 * N)
    formula = parse_formula(bounded_formula(rng, N, 4), N)
    # 1000 operands each: every level has a negation or a variable beside a deeper operand
    implies_chain = parse_formula(" -> ".join(f"!a{k % N + 1}" for k in range(1000)), N)
    right_nested = parse_formula(
        "".join(f"a{k % N + 1} & (" for k in range(999)) + "a1" + ")" * 999, N)
    calls = {"eval_cnf": lambda: eval_cnf(doc), "eval_ast": lambda: eval_ast(formula),
             "eval_ast_implies_chain": lambda: eval_ast(implies_chain),
             "eval_ast_right_nested": lambda: eval_ast(right_nested)}
    peak = peak_bytes(calls[name])
    assert peak <= LIMIT_BYTES, f"{name} peaked at {peak / VECTOR_BYTES:.1f} vectors"
