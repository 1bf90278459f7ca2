"""Production routes against independent reference routes.

The library takes one route to each result.  The second routes below
are the slower, more literal derivations: per-monomial AND-products,
pairwise monomial multiplication, clause widening one variable at a
time, maxterm products and minterm sums, the arithmetic form of the
flip map, and per-bit scans.  Each is compared with the production
route by exact equality, exhaustively at n <= 3 and with Hypothesis up
to n = 10.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from boolring import (
    Anf,
    BoolFunc,
    CnfDoc,
    clause_blowup,
    cnf_to_primes,
    compose,
    decompose,
    from_anf,
    one,
    pi,
    prime,
    satisfying_assignments,
    to_anf,
    to_dimacs,
    var,
    zero,
)
from boolring.cli import main
from boolring.ring import _set_bits

MAX_N = 10


# ---------------------------------------------------------------------------
# reference routes


def monomial_of(mask):
    return frozenset(r for r in range(1, mask.bit_length() + 1) if (mask >> (r - 1)) & 1)


def ref_from_anf(p):
    """XOR of each monomial's AND-product of variable vectors."""
    acc = zero(p.n)
    for mono in p.monomials:
        term = one(p.n)
        for r in mono:
            term = term & var(p.n, r)
        acc = acc ^ term
    return acc


def ref_anf_product(p, q):
    """Pairwise monomial products; equal products cancel in pairs."""
    acc = set()
    for a in p.monomials:
        for b in q.monomials:
            acc ^= {a | b}
    return Anf(p.n, frozenset(acc))


def ref_to_anf(f):
    """Coefficient of monomial m: parity of f over the assignments inside m."""
    monos = set()
    for m in range(1 << f.n):
        parity = 0
        for i in range(m + 1):
            if i & m == i:
                parity ^= (f.tt >> i) & 1
        if parity:
            monos.add(monomial_of(m))
    return Anf(f.n, frozenset(monos))


def ref_widen(clause, n):
    """Add each missing variable plain and negated until the clause is full width."""
    found = set()

    def widen(cl, present):
        for r in range(1, n + 1):
            if not present & (1 << (r - 1)):
                widen(cl + (r,), present | (1 << (r - 1)))
                widen(cl + (-r,), present | (1 << (r - 1)))
                return
        # a full-width clause is false exactly where its negated variables hold
        found.add(sum(1 << (abs(lit) - 1) for lit in cl if lit < 0))

    widen(tuple(clause), sum(1 << (abs(lit) - 1) for lit in clause))
    return frozenset(found)


def falsifies(j, clause):
    """Assignment j makes every literal of the clause false."""
    return all(((j >> (abs(lit) - 1)) & 1) == (lit < 0) for lit in clause)


def ref_falsified(doc):
    return frozenset(
        j for j in range(1 << doc.n) if any(falsifies(j, cl) for cl in doc.clauses)
    )


def ref_maxterm_product(n, indices):
    acc = one(n)
    for j in indices:
        acc = acc & prime(n, j)
    return acc


def ref_minterm_sum(n, indices):
    acc = zero(n)
    for j in range(1 << n):
        if j not in indices:
            acc = acc ^ ~prime(n, j)
    return acc


def ref_pi(s, j, n):
    """The paper's arithmetic form s + j - 2 * sum(2**(r-1) * s_r * j_r)."""
    overlap = sum((1 << (r - 1)) * ((s >> (r - 1)) & 1) * ((j >> (r - 1)) & 1)
                  for r in range(1, n + 1))
    return s + j - 2 * overlap


def ref_set_bits(x):
    return [i for i in range(x.bit_length()) if (x >> i) & 1]


# ---------------------------------------------------------------------------
# strategies


def sizes(max_n=MAX_N):
    return st.integers(min_value=1, max_value=max_n)


@st.composite
def funcs(draw, max_n=MAX_N):
    n = draw(sizes(max_n))
    return BoolFunc(n, draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)))


def anf_of(n, masks):
    return Anf(n, frozenset(monomial_of(m) for m in masks))


def polys(n, max_terms):
    masks = st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=max_terms)
    return masks.map(lambda ms: anf_of(n, ms))


@st.composite
def clauses(draw, n):
    chosen = draw(st.sets(st.integers(min_value=1, max_value=n), max_size=n))
    return tuple(v if draw(st.booleans()) else -v for v in sorted(chosen))


@st.composite
def cnf_docs(draw, max_n=MAX_N):
    n = draw(sizes(max_n))
    return CnfDoc(n, tuple(draw(st.lists(clauses(n), max_size=12))))


@st.composite
def index_sets(draw, max_n=MAX_N):
    n = draw(sizes(max_n))
    return n, draw(st.frozensets(st.integers(min_value=0, max_value=(1 << n) - 1)))


def all_clauses(n):
    """Every clause over n variables: each one absent, plain or negated."""
    for signs in itertools.product((0, 1, -1), repeat=n):
        yield tuple(s * r for r, s in enumerate(signs, 1) if s)


# ---------------------------------------------------------------------------
# polynomial form


class TestFromAnf:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for chosen in range(1 << (1 << n)):
                p = anf_of(n, _set_bits(chosen))
                assert from_anf(p) == ref_from_anf(p)

    @given(sizes().flatmap(lambda n: polys(n, 200)))
    def test_random(self, p):
        assert from_anf(p) == ref_from_anf(p)


class TestToAnf:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                assert to_anf(f) == ref_to_anf(f)

    @given(funcs(max_n=6))
    def test_random(self, f):
        assert to_anf(f) == ref_to_anf(f)


class TestAnfProduct:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            anfs = [anf_of(n, _set_bits(c)) for c in range(1 << (1 << n))]
            for p, q in itertools.product(anfs, repeat=2):
                assert p & q == ref_anf_product(p, q)

    @given(sizes().flatmap(lambda n: st.tuples(polys(n, 48), polys(n, 48))))
    def test_random(self, pair):
        p, q = pair
        assert p & q == ref_anf_product(p, q)


# ---------------------------------------------------------------------------
# clause expansion


class TestClauseExpansion:
    def test_clause_blowup_exhaustive_small(self):
        for n in (1, 2, 3):
            for cl in all_clauses(n):
                got = clause_blowup(cl, n).indices
                assert got == ref_widen(cl, n)
                assert got == ref_falsified(CnfDoc(n, (cl,)))

    def test_cnf_to_primes_exhaustive_small(self):
        for n in (1, 2, 3):
            cls = list(all_clauses(n))
            for k in (0, 1, 2):
                for chosen in itertools.combinations(cls, k):
                    doc = CnfDoc(n, chosen)
                    assert cnf_to_primes(doc).indices == ref_falsified(doc)

    @given(sizes().flatmap(lambda n: st.tuples(st.just(n), clauses(n))))
    def test_clause_blowup_random(self, case):
        n, cl = case
        got = clause_blowup(cl, n).indices
        assert got == ref_widen(cl, n)
        assert got == ref_falsified(CnfDoc(n, (cl,)))

    @settings(max_examples=60)
    @given(cnf_docs())
    def test_cnf_to_primes_random(self, doc):
        got = cnf_to_primes(doc).indices
        union = frozenset().union(*(ref_widen(cl, doc.n) for cl in doc.clauses))
        assert got == union
        assert got == ref_falsified(doc)

    def test_cli_expand_matches_falsification(self, tmp_path, capsys):
        rng = random.Random(0xE4D)
        for n in (3, 5, 7):
            chosen = [tuple(v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, n + 1), 2))
                      for _ in range(n)]
            doc = CnfDoc(n, tuple(chosen))
            path = tmp_path / f"doc{n}.cnf"
            path.write_text(to_dimacs(doc))
            assert main(["expand", "--dimacs", str(path)]) == 0
            lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            falsified = ref_falsified(doc)
            assert int(lines["prime_count"]) == len(falsified)
            assert int(lines["model_count"]) == (1 << n) - len(falsified)


# ---------------------------------------------------------------------------
# maxterm indices


class TestCompose:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for chosen in range(1 << (1 << n)):
                idx = frozenset(_set_bits(chosen))
                got = compose(n, idx)
                assert got == ref_maxterm_product(n, idx)
                assert got == ref_minterm_sum(n, idx)

    @given(index_sets())
    def test_random(self, case):
        n, idx = case
        got = compose(n, idx)
        assert got == ref_maxterm_product(n, idx)
        assert got == ref_minterm_sum(n, idx)


class TestBitScans:
    def test_decompose_and_models_exhaustive_small(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                scan = [j for j in range(1 << n) if (t >> j) & 1]
                assert decompose(f).indices == frozenset(range(1 << n)) - set(scan)
                assert [a.index for a in satisfying_assignments(f)] == scan

    @given(funcs())
    def test_decompose_and_models_random(self, f):
        scan = [j for j in range(1 << f.n) if (f.tt >> j) & 1]
        assert decompose(f).indices == frozenset(range(1 << f.n)) - set(scan)
        assert [a.index for a in satisfying_assignments(f)] == scan


# ---------------------------------------------------------------------------
# flips and the bit walk


class TestPi:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_arithmetic_form(self, n):
        for s in range(1 << n):
            for j in range(1 << n):
                assert pi(s, j, n).index == ref_pi(s, j, n)


class TestSetBits:
    def test_edges(self):
        assert _set_bits(0) == []
        assert _set_bits(1) == [0]
        for n in (1, 2, 3, 8, 10):
            top = (1 << n) - 1
            assert _set_bits(1 << top) == [top]
            assert _set_bits((1 << top) | 1) == [0, top]
            assert _set_bits((1 << (1 << n)) - 1) == list(range(1 << n))

    def test_exhaustive_small(self):
        for x in range(1 << 8):
            assert _set_bits(x) == ref_set_bits(x)

    @given(st.integers(min_value=0, max_value=(1 << (1 << MAX_N)) - 1))
    def test_random(self, x):
        assert _set_bits(x) == ref_set_bits(x)
