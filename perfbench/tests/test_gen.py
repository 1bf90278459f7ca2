"""The generators give the same bytes for the same seed and the designed mix."""

import collections
import json
import random
import re

import gen
from check import parse_clauses, tokenize, truth_vector


def _dump(workload, seed):
    return json.dumps(gen.workload_inputs(workload, seed, blocks=2), sort_keys=True)


def test_same_seed_same_bytes():
    for workload in gen.WORKLOADS:
        assert _dump(workload, 7) == _dump(workload, 7)


def test_other_seed_other_bytes():
    for workload in gen.WORKLOADS:
        assert _dump(workload, 7) != _dump(workload, 8)


def test_streams_are_independent():
    # adding blocks does not change the blocks already there
    short = gen.workload_inputs("api", 3, blocks=1)
    long = gen.workload_inputs("api", 3, blocks=2)
    assert short["blocks"][0] == long["blocks"][0]
    assert short["warmup"] == long["warmup"]


def test_formula_has_requested_operator_count():
    rng = random.Random(1)
    for ops in (0, 1, 17, 200):
        text = gen.formula_text(rng, 6, ops)
        operators = [t for t in tokenize(text) if t in ("!", "&", "|", "^", "->")]
        assert len(operators) == ops
        assert max(int(v) for v in re.findall(r"a(\d+)", text)) <= 6


def test_deep_formulas_have_the_depth():
    rng = random.Random(2)
    chain = gen.deep_formula(rng, "chain", 5, depth=50)
    assert chain.count("&") == 49
    assert gen.deep_formula(rng, "parens", 5, depth=50).startswith("(" * 50)
    assert gen.deep_formula(rng, "bangs", 5, depth=50).startswith("!" * 50)


def test_dense_hex_width():
    rng = random.Random(3)
    for n in (2, 5, 12):
        assert len(gen.dense_hex(rng, n)) == max(1, (1 << n) // 4)


def test_kcnf_clauses_have_k_distinct_variables():
    rng = random.Random(4)
    clauses = gen.kcnf_clauses(rng, 10, 3, 40)
    assert len(clauses) == 40
    for cl in clauses:
        assert len({abs(lit) for lit in cl}) == 3
        assert all(1 <= abs(lit) <= 10 for lit in cl)
    assert parse_clauses(gen.dimacs_text(10, clauses)) == clauses


def test_canon_block_mix_is_fixed():
    for seed in (1, 2):
        block = gen.canon_block(gen.rng_for(seed, "x"))
        counts = collections.Counter((op["n"], op["kind"]) for op in block)
        assert counts == collections.Counter(gen.CANON_BLOCK)
        for op in block:
            if op["kind"] == "formula":
                ops = sum(1 for t in tokenize(op["text"]) if t in ("!", "&", "|", "^", "->"))
                assert 8 * op["n"] <= ops <= 32 * op["n"]


def test_cnf_block_covers_every_shape_once():
    block = gen.cnf_block(gen.rng_for(1, "x"))
    shapes = sorted((op["n"], op["k"], op["m"]) for op in block)
    assert shapes == sorted((n, k, f * n) for n in gen.CNF_N for k in gen.CNF_K
                            for f in gen.CNF_M_FACTOR)


def test_api_block_is_one_canon_and_one_cnf_block():
    block = gen.api_block(gen.rng_for(2, "x"))
    pipes = collections.Counter(op["pipe"] for op in block)
    assert pipes == {"canon": sum(gen.CANON_BLOCK.values()),
                     "expand": len(gen.CNF_N) * len(gen.CNF_K) * len(gen.CNF_M_FACTOR)}
    assert [op["pipe"] for op in block] != sorted(op["pipe"] for op in block)


def test_every_op_names_its_pipeline():
    for workload in gen.WORKLOADS:
        inputs = gen.workload_inputs(workload, 5, blocks=1)
        ops = inputs["warmup"] + inputs["blocks"][0] + inputs["deep"]
        assert {op["pipe"] for op in ops} <= {"canon", "expand", "cli"}


def test_cli_block_covers_every_subcommand_and_exit_code():
    block = gen.cli_block(gen.rng_for(1, "x"))
    assert {op["argv"][0] for op in block} == {"canon", "count", "expand", "flip", "verify", "taut"}
    assert {op["code"] for op in block} == {0, 1, 2, 3}
    assert any("--json" in op["argv"] for op in block)
    assert all(op["n"] is None or op["n"] <= 8 for op in block)


def test_evaluator_precedence():
    cases = {"!a1 & a2": 0b01000100, "a1 | a2 & a3": 0b11101010, "a1 -> a2 -> a3": 0b11110111,
             "(a1 -> a2) -> a3": 0b11110010, "a1 ^ a2 ^ a3": 0b10010110, "!!a1": 0b10101010,
             "1 & !0": 0xFF, "a3": 0xF0}
    for text, table in cases.items():
        assert truth_vector(tokenize(text), 3) == table, text


def test_evaluator_agrees_with_the_library():
    from boolring import eval_ast, parse_formula
    rng = random.Random(6)
    for n in (1, 4, 9):
        for _ in range(20):
            text = gen.formula_text(rng, n, rng.randint(0, 6 * n))
            assert truth_vector(tokenize(text), n) == eval_ast(parse_formula(text, n)).tt


def test_evaluator_needs_no_recursion():
    rng = random.Random(5)
    chain = gen.deep_formula(rng, "chain", 4, depth=20000)
    assert truth_vector(tokenize(chain), 4) in (0, 0x8000)
    for kind in ("parens", "bangs"):
        tokens = tokenize(gen.deep_formula(rng, kind, 4, depth=20000))
        assert 0 <= truth_vector(tokens, 4) < 1 << 16


def test_warmup_is_the_same_for_every_seed():
    for workload in gen.WORKLOADS:
        assert gen.workload_inputs(workload, 1, blocks=1)["warmup"] == \
            gen.workload_inputs(workload, 2, blocks=1)["warmup"]
