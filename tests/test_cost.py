"""Bit-op cost of the operations on packed vectors, counted and bounded.

The cost model: every ``^``, ``&`` and ``|`` costs the bit length of its
wider operand, and every ``<<`` and ``>>`` the bit length of the shifted
operand; nothing else counts.  ``Bits``, an int subclass whose results stay
``Bits``, keeps the tally.  The vectors of ``_var_tts`` and ``_ones`` are
counted in every module that imports them by name, and each operation gets
counted inputs, so every pass over a 2**n-bit vector shows up as about 2**n.

Each test asserts the closed form that README's "Cost model" states as an
upper bound, and 0.9 of it as a lower bound, so that a counter that stops
counting fails too.  Measured at n = 10, 14 and 18, the counts over n * 2**n
are flat: 3.06-3.10 for ``to_anf`` and ``from_anf``, 5.06-5.10 for
``apply_flip`` of all n variables and 9.2-9.4 for ``Anf.__and__``;
``eval_cnf`` costs 1.77-1.87 * 2**n per literal and ``eval_ast`` on the
benchmark's random formulas 1.15-1.20 * 2**n per operator.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from boolring import (
    Anf, BoolFunc, CnfDoc, FlipMask, PrimeSet, apply_flip, compose, decompose, eval_ast,
    eval_cnf, from_anf, parse_formula, to_anf,
)
from boolring import blocks, flipgroup, frontend, primes, ring, theorems

ROOT = Path(__file__).resolve().parents[1]
NS = (10, 14, 18)


class Bits(int):
    """An int that adds the cost of each bit op it takes part in to ``Bits.cost``."""

    cost = 0


def _counted(name, cost):
    op = getattr(int, name)

    def method(self, other):
        Bits.cost += cost(self, other)
        return Bits(op(self, other))

    return method


def _wider(a, b):
    return max(a.bit_length(), b.bit_length())


for _name in ("xor", "and", "or"):
    setattr(Bits, f"__{_name}__", _counted(f"__{_name}__", _wider))
    setattr(Bits, f"__r{_name}__", _counted(f"__r{_name}__", _wider))
for _name in ("lshift", "rshift"):  # the shifted operand: self, or other when reflected
    setattr(Bits, f"__{_name}__", _counted(f"__{_name}__", lambda a, b: a.bit_length()))
    setattr(Bits, f"__r{_name}__", _counted(f"__r{_name}__", lambda a, b: b.bit_length()))


@pytest.fixture
def count(monkeypatch):
    """Count the bit ops from here on; returns a function reading the tally."""
    # built before the patches: ring._var_tts starts from ring._ones
    tables = {n: tuple(map(Bits, ring._var_tts(n))) for n in NS}
    ones = ring._ones
    for module in (ring, frontend, flipgroup, theorems, blocks, primes):
        if hasattr(module, "_var_tts"):
            monkeypatch.setattr(module, "_var_tts", tables.__getitem__)
        if hasattr(module, "_ones"):
            monkeypatch.setattr(module, "_ones", lambda n: Bits(ones(n)))
    Bits.cost = 0
    return lambda: Bits.cost


def _random_func(n, seed):
    return BoolFunc(n, Bits(random.Random(seed).getrandbits(1 << n)))


def assert_cost(cost, bound):
    assert 0.9 * bound <= cost <= bound, (cost, bound, cost / bound)


def _load_gen():
    """The benchmark's input generator, imported read-only from its file."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_counter_tallies_each_op_and_stays_counted():
    Bits.cost = 0
    x = Bits(0b1011)
    y = ((x << 2) & 0b110000) | (0b1 ^ (x >> 1))
    assert type(y) is Bits and y == 0b100100
    # << 4 bits, & 6, >> 4, ^ 3, | 6
    assert Bits.cost == 4 + 6 + 4 + 3 + 6


@pytest.mark.parametrize("n", NS)
def test_to_anf(n, count):
    to_anf(_random_func(n, n))
    assert_cost(count(), (3 * n + 1) << n)


@pytest.mark.parametrize("n", NS)
def test_from_anf(n, count):
    p = Anf._of(n, Bits(random.Random(n).getrandbits(1 << n)))
    from_anf(p)
    assert_cost(count(), (3 * n + 1) << n)


@pytest.mark.parametrize("n", NS)
def test_apply_flip(n, count):
    f = _random_func(n, n)
    for s in ((1 << n) - 1, int("10" * n, 2) >> n):  # every variable; every other one
        before = count()
        apply_flip(f, FlipMask(n, s))
        assert_cost(count() - before, (5 * s.bit_count() + 1) << n)


@pytest.mark.parametrize("n", NS)
def test_eval_cnf(n, count):
    rng = random.Random(n)
    clauses = [
        tuple(r if rng.random() < 0.5 else -r for r in rng.sample(range(1, n + 1), 3))
        for _ in range(4 * n)
    ]
    doc = CnfDoc(n, clauses)
    eval_cnf(doc)
    bound = sum(len(cl) + sum(lit < 0 for lit in cl) + 1 for cl in doc.clauses) << n
    assert_cost(count(), bound)


@pytest.mark.parametrize("n", NS)
def test_eval_ast(n, count):
    ops = 4 * n
    text = _load_gen().formula_text(random.Random(n), n, ops)
    f = parse_formula(text, n)
    eval_ast(f)
    # every operator is a ! or a binary connective; -> costs one pass more
    assert_cost(count(), (ops + text.count("->")) << n)


@pytest.mark.parametrize("n", NS)
def test_anf_product(n, count):
    p = Anf._of(n, Bits(random.Random(n).getrandbits(1 << n)))
    q = Anf._of(n, Bits(random.Random(n + 1).getrandbits(1 << n)))
    p & q
    assert_cost(count(), 3 * ((3 * n + 1) << n) + (1 << n))


@pytest.mark.parametrize("n", NS)
def test_decompose(n, count):
    decompose(_random_func(n, n))
    assert_cost(count(), 1 << n)


@pytest.mark.parametrize("n", NS)
def test_compose(n, count):
    ps = PrimeSet._of(n, Bits(random.Random(n).getrandbits(1 << n)))
    compose(n, ps)
    assert_cost(count(), 1 << n)
