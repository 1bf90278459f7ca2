"""Production routes against independent reference routes.

The library takes one route to each result.  The second routes below
are the slower, more literal derivations: per-monomial AND-products,
pairwise monomial multiplication, clause widening one variable at a
time, maxterm products and minterm sums, the arithmetic form of the
flip map, per-bit scans, text rendered one variable at a time, the
former byte-wise sort key of the polynomial text, formula code and
clauses evaluated once per assignment, source-level evaluation and
flips of CNF documents, and the allowed-map search run one candidate
map at a time.  Each is compared with the production route
by exact equality, exhaustively at small n and with Hypothesis and
seeded vectors above.
"""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import boolring.blocks as blocks
import boolring.theorems as theorems
from boolring import (
    AllowedMapTable,
    Anf,
    Assignment,
    BoolFunc,
    CnfDoc,
    Formula,
    PrimeSet,
    apply_flip,
    ast_flip,
    clause_blowup,
    clause_text,
    cnf_flip,
    cnf_to_primes,
    compose,
    decompose,
    enumerate_allowed_maps,
    eval_ast,
    eval_cnf,
    from_anf,
    minterm_dnf_text,
    minterm_text,
    one,
    parse_dimacs,
    parse_formula,
    pi,
    prime,
    prime_cnf_text,
    satisfying_assignments,
    to_anf,
    to_dimacs,
    var,
    zero,
)
from boolring.cli import main
from boolring.ring import _set_bits

MAX_N = 10

# the opcodes Formula documents; a connective's opcode minus SWAP has its rhs code first
ZERO, ONE, NOT, IMPLIES, OR, XOR, AND = -1, -2, -3, -4, -5, -6, -7
SWAP = 4


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


def pack(positions):
    """The vector with the given bits set, one OR per position."""
    x = 0
    for j in positions:
        x |= 1 << j
    return x


def ref_eval_code(code, j):
    """Value of formula code under assignment j, one 0/1 int per operand."""
    stack = []
    for op in code:
        if op > 0:
            stack.append((j >> (op - 1)) & 1)
        elif op in (ZERO, ONE):
            stack.append(int(op == ONE))
        elif op == NOT:
            stack.append(1 - stack.pop())
        else:
            b, a = stack.pop(), stack.pop()
            if op < AND:
                a, b, op = b, a, op + SWAP
            stack.append({AND: a & b, OR: a | b, XOR: a ^ b, IMPLIES: (1 - a) | b}[op])
    (value,) = stack
    return value


def ref_eval_ast(f):
    return BoolFunc(f.n, pack((j for j in range(1 << f.n) if ref_eval_code(f.code, j))))


_REVERSED_BYTES = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


def ref_anf_order_key(n):
    """The former sort key of ``str(Anf)``: popcount, then the complement of
    the bit-reversed mask, built per monomial through bytes."""
    size = (n + 7) // 8
    return lambda m: (m.bit_count() << (8 * size)) - int.from_bytes(
        m.to_bytes(size, "little").translate(_REVERSED_BYTES), "big")


def mono_text(m):
    return "·".join(f"a{r}" for r in range(1, m.bit_length() + 1) if (m >> (r - 1)) & 1) or "1"


def ref_anf_text(monos):
    """Monomials ordered by (degree, sorted variable list), one f-string per variable."""
    if not monos:
        return "0"
    ordered = sorted(monos, key=lambda m: (len(m), sorted(m)))
    terms = ["·".join(f"a{r}" for r in sorted(m)) or "1" for m in ordered]
    return " ⊕ ".join(terms)


def ref_assignment_text(a):
    vals = " ".join(f"a{r}={a.value(r)}" for r in range(1, a.n + 1))
    return f"j={a.index}: {vals}"


def ref_clause_text(n, j, names=None):
    names = names or [f"a{r}" for r in range(1, n + 1)]
    lits = [f"¬{names[r - 1]}" if (j >> (r - 1)) & 1 else names[r - 1] for r in range(1, n + 1)]
    return "(" + " ∨ ".join(lits) + ")"


def ref_minterm_text(n, j, names=None):
    names = names or [f"a{r}" for r in range(1, n + 1)]
    lits = [names[r - 1] if (j >> (r - 1)) & 1 else f"¬{names[r - 1]}" for r in range(1, n + 1)]
    return "(" + " ∧ ".join(lits) + ")"


def ref_prime_cnf_text(n, indices, names=None):
    if not indices:
        return "1"
    return " ∧ ".join(ref_clause_text(n, j, names) for j in sorted(indices))


def ref_minterm_dnf_text(n, satisfying, names=None):
    if not satisfying:
        return "0"
    return " ∨ ".join(ref_minterm_text(n, j, names) for j in sorted(satisfying))


def cnf_formula_text(doc):
    """The document as formula text: ``(a1 | !a3) & (a2)``, ``1`` without clauses."""
    def clause(cl):
        if not cl:
            return "0"
        return "(" + " | ".join(f"a{lit}" if lit > 0 else f"!a{-lit}" for lit in cl) + ")"
    return " & ".join(clause(cl) for cl in doc.clauses) or "1"


def ref_compositional(cand, size):
    """Whether candidate map ``cand`` (function t goes to bit t) routes every
    sum and product through the module's tables, one pair at a time."""
    for a in range(size):
        ta = (cand >> a) & 1
        for b in range(a, size):
            tb = (cand >> b) & 1
            if (cand >> (a ^ b)) & 1 != theorems.ADD_TABLE[ta][tb]:
                return False
            if (cand >> (a & b)) & 1 != theorems.MUL_TABLE[ta][tb]:
                return False
    return True


def ref_allowed_maps(n):
    """The allowed-map search, one candidate map at a time."""
    size = 1 << (1 << n)
    kept = [
        cand
        for cand in range(1 << size)
        if not cand & 1 and (cand >> (size - 1)) & 1 and ref_compositional(cand, size)
    ]
    by_index = {}
    for cand in kept:
        hot = [k for k in range(1 << n) if (cand >> (1 << k)) & 1]
        if len(hot) != 1 or hot[0] in by_index:
            raise AssertionError("surviving map does not select exactly one minterm")
        by_index[hot[0]] = cand
    if sorted(by_index) != list(range(1 << n)):
        raise AssertionError("surviving maps do not cover every assignment")
    maps = tuple(tuple((by_index[k] >> t) & 1 for t in range(size)) for k in range(1 << n))
    return AllowedMapTable(n, maps)


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


@st.composite
def name_lists(draw, n):
    """n distinct names, or None for the defaults; braces check literal use."""
    if draw(st.booleans()):
        return None
    stems = st.sampled_from(["x", "y_", "{}", "{0}", "¬", "long_name"])
    return [f"{draw(stems)}{r}" for r in range(1, n + 1)]


@st.composite
def formulas(draw, max_n=8):
    """Formula code over every opcode, the constants, ``->`` and the swapped
    connectives included."""
    n = draw(sizes(max_n))
    leaves = st.one_of(
        st.sampled_from([[ZERO], [ONE]]),
        st.integers(min_value=1, max_value=n).map(lambda r: [r]),
    )

    def branches(sub):
        return st.one_of(
            sub.map(lambda arg: arg + [NOT]),
            st.tuples(sub, sub, st.sampled_from([AND, OR, XOR, IMPLIES]), st.booleans()).map(
                lambda t: t[1] + t[0] + [t[2] - SWAP] if t[3] else t[0] + t[1] + [t[2]]),
        )

    code = draw(st.recursive(leaves, branches, max_leaves=24))
    return Formula(code, n, tuple(f"a{r}" for r in range(1, n + 1)))


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


# ---------------------------------------------------------------------------
# packed storage and the table-driven text emitters

TEXT_MAX_N = 12
# chunk boundaries of the per-byte tables: one, two and three chunks
BOUNDARY_N = (8, 9, 16, 17, 24)
# boundaries small enough for one dense function: one block, two blocks, 256 blocks
DENSE_BOUNDARY_N = (8, 9, 16)


def ref_selectors(x):
    """The blocks of 256 positions that hold a set bit and their 0/1
    selectors, one bit at a time."""
    found = sorted({i >> 8 for i in ref_set_bits(x)})
    return found, bytes((x >> ((b << 8) + i)) & 1 for b in found for i in range(256))


# name -> a function of a seeded rng giving (n, vector)
SELECTOR_CASES = {
    "zero": lambda rng: (10, 0),
    "n3": lambda rng: (3, rng.getrandbits(8)),
    "n5": lambda rng: (5, rng.getrandbits(32) | 1 << 31),
    "n7_top_bit": lambda rng: (7, 1 << 127),
    "one_bit_per_block": lambda rng: (
        12, pack((b << 8) + rng.randrange(256) for b in range(16))),
    "top_block_only": lambda rng: (
        12, pack(rng.sample(range((1 << 12) - 256, 1 << 12), 40))),
    "top_position_only": lambda rng: (16, 1 << ((1 << 16) - 1)),
    "every_block_dense": lambda rng: (12, rng.getrandbits(1 << 12)),
    "every_block_n16": lambda rng: (16, rng.getrandbits(1 << 16) | 1 << ((1 << 16) - 1)),
    "every_block_but_one": lambda rng: (
        12, rng.getrandbits(1 << 12) & ~(((1 << 256) - 1) << (5 << 8)) | 1 << ((1 << 12) - 1)),
    "far_below_top": lambda rng: (16, pack(rng.sample(range(1024), 50))),
    "sparse_64": lambda rng: (16, pack(rng.sample(range(1 << 16), 64))),
    "sparse_65": lambda rng: (16, pack(rng.sample(range(1 << 16), 65))),
    "runs_across_blocks": lambda rng: (
        14, pack(p for s in rng.sample(range(1 << 14), 12) for p in range(s, s + 300)
                    if p < 1 << 14)),
}


def check_function_texts(f, names=None):
    anf = to_anf(f)
    assert str(anf) == ref_anf_text(anf.monomials)
    falsified = [j for j in range(1 << f.n) if not (f.tt >> j) & 1]
    satisfied = [j for j in range(1 << f.n) if (f.tt >> j) & 1]
    ps = decompose(f)
    assert prime_cnf_text(ps, names) == ref_prime_cnf_text(f.n, falsified, names)
    assert minterm_dnf_text(ps, names) == ref_minterm_dnf_text(f.n, satisfied, names)
    got = [str(a) for a in satisfying_assignments(f)]
    assert got == [ref_assignment_text(Assignment(f.n, j)) for j in satisfied]


def check_index_texts(n, j, names=None):
    assert str(Assignment(n, j)) == ref_assignment_text(Assignment(n, j))
    assert clause_text(n, j, names) == ref_clause_text(n, j, names)
    assert minterm_text(n, j, names) == ref_minterm_text(n, j, names)


def boundary_positions(n, rng, count=300):
    """Positions below 2**n: both ends, each side of every chunk boundary,
    and a seeded sample."""
    size = 1 << n
    edges = {0, 1, size - 1, size - 2, 255, 256, 257, (1 << 16) - 1, 1 << 16, (1 << 16) + 1}
    sample = rng.sample(range(size), min(count, size // 2))
    return sorted({p for p in edges if p < size} | set(sample))


class TestTextEmitters:
    def test_anf_text_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for t in range(1 << (1 << n)):
                anf = to_anf(BoolFunc(n, t))
                assert str(anf) == ref_anf_text(anf.monomials)

    def test_index_texts_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            names = [f"v{r}" for r in range(1, n + 1)]
            for j in range(1 << n):
                check_index_texts(n, j)
                check_index_texts(n, j, names)

    def test_function_texts_exhaustive_small(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                check_function_texts(BoolFunc(n, t))
        rng = random.Random(0x7E47)
        for t in rng.sample(range(1 << 16), 2000):
            check_function_texts(BoolFunc(4, t))

    @settings(max_examples=60)
    @given(funcs(max_n=TEXT_MAX_N).flatmap(lambda f: st.tuples(st.just(f), name_lists(f.n))))
    def test_function_texts_random(self, case):
        f, names = case
        check_function_texts(f, names)

    @given(sizes(TEXT_MAX_N).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1), name_lists(n))))
    def test_index_texts_random(self, case):
        check_index_texts(*case)

    @pytest.mark.parametrize("n", BOUNDARY_N)
    def test_texts_at_chunk_boundaries(self, n):
        rng = random.Random(n)
        names = [f"x{r}" for r in range(1, n + 1)]
        positions = boundary_positions(n, rng)
        for j in positions:
            check_index_texts(n, j)
        check_index_texts(n, positions[-1], names)
        # sparse polynomial, prime set and model set; the references work
        # from the positions, so no full-width bit walk runs twice
        monos = frozenset(monomial_of(m) for m in positions)
        assert str(Anf(n, monos)) == ref_anf_text(monos)
        got = prime_cnf_text(PrimeSet(n, positions), names)
        assert got == ref_prime_cnf_text(n, positions, names)
        sparse = ~compose(n, positions)
        assert minterm_dnf_text(decompose(sparse)) == ref_minterm_dnf_text(n, positions)
        got = [str(a) for a in satisfying_assignments(sparse)]
        assert got == [ref_assignment_text(Assignment(n, j)) for j in positions]
        if n in DENSE_BOUNDARY_N:
            # a dense function, whose texts read the selectors of every block
            f = BoolFunc(n, rng.getrandbits(1 << n))
            anf = to_anf(f)
            assert str(anf) == ref_anf_text(anf.monomials)
            satisfied = [j for j in range(1 << n) if (f.tt >> j) & 1]
            falsified = sorted(set(range(1 << n)) - set(satisfied))
            ps = decompose(f)
            for given in (None, names):
                assert prime_cnf_text(ps, given) == ref_prime_cnf_text(n, falsified, given)
                assert minterm_dnf_text(ps, given) == ref_minterm_dnf_text(n, satisfied, given)

    @pytest.mark.parametrize("case", sorted(SELECTOR_CASES))
    def test_selectors_read_the_nonzero_blocks(self, case):
        """``blocks._selectors`` lists exactly the nonzero 256-position blocks
        and their selectors bit for bit; the texts over the same vector
        match the references."""
        n, x = SELECTOR_CASES[case](random.Random(case))
        assert blocks._selectors(x) == ref_selectors(x)
        positions = ref_set_bits(x)
        monos = frozenset(monomial_of(m) for m in positions)
        assert str(Anf(n, monos)) == ref_anf_text(monos)
        assert prime_cnf_text(PrimeSet(n, positions)) == ref_prime_cnf_text(n, positions)
        assert minterm_dnf_text(decompose(BoolFunc(n, x))) == ref_minterm_dnf_text(n, positions)


class TestPackedStorage:
    @given(sizes(8).flatmap(lambda n: st.tuples(
        st.just(n), st.frozensets(st.frozensets(st.integers(min_value=1, max_value=n))))))
    def test_monomials_round_trip(self, case):
        n, monos = case
        assert Anf(n, monos).monomials == monos

    @given(index_sets())
    def test_indices_round_trip(self, case):
        n, idx = case
        ps = PrimeSet(n, idx)
        assert ps.indices == idx
        assert ps.complement() == frozenset(range(1 << n)) - idx

    @given(funcs())
    def test_constructor_matches_transforms(self, f):
        anf = to_anf(f)
        built = Anf(f.n, anf.monomials)
        assert built == anf and hash(built) == hash(anf)
        ps = decompose(f)
        built = PrimeSet(f.n, ps.indices)
        assert built == ps and hash(built) == hash(ps)

    @given(sizes().flatmap(lambda n: st.tuples(polys(n, 48), polys(n, 48))))
    def test_sum_is_symmetric_difference(self, pair):
        p, q = pair
        assert (p ^ q).monomials == p.monomials ^ q.monomials


# ---------------------------------------------------------------------------
# CNF documents through the formula frontend


class TestGeneratedCnf:
    @settings(max_examples=60)
    @given(cnf_docs().flatmap(lambda doc: st.tuples(
        st.just(doc), st.integers(min_value=0, max_value=(1 << doc.n) - 1))))
    def test_formula_route_matches_cnf_route(self, case):
        doc, s = case
        parsed = parse_formula(cnf_formula_text(doc), doc.n)
        f = eval_cnf(doc)
        assert eval_ast(parsed) == f
        flipped = apply_flip(f, s)
        assert eval_cnf(cnf_flip(doc, s)) == flipped
        assert eval_ast(ast_flip(parsed, s)) == flipped

    def test_cli_flip_texts_match_vector_flip(self, tmp_path, capsys):
        # the CLI prints the source-level flip; it must denote the flipped vector
        rng = random.Random(0xF11)
        for n in (2, 3, 5):
            doc = CnfDoc(n, tuple(tuple(v if rng.random() < 0.5 else -v
                                        for v in rng.sample(range(1, n + 1), 2))
                                  for _ in range(n)))
            path = tmp_path / f"doc{n}.cnf"
            path.write_text(to_dimacs(doc))
            for s in range(1 << n):
                for source in (["--formula", cnf_formula_text(doc)], ["--dimacs", str(path)]):
                    assert main(["flip", "--json", *source, "--flip", str(s)]) == 0
                    out = json.loads(capsys.readouterr().out)
                    flipped = BoolFunc.from_bits(out["flipped_bits"])
                    if "flipped_formula" in out:
                        got = eval_ast(parse_formula(out["flipped_formula"], n))
                    else:
                        got = eval_cnf(parse_dimacs(out["flipped_dimacs"].replace(" / ", "\n")))
                    assert got == flipped == apply_flip(eval_cnf(doc), s)


# ---------------------------------------------------------------------------
# routes without per-item Python objects


class TestBulkRoutes:
    @given(funcs())
    def test_bulk_assignments_are_plain_assignments(self, f):
        got = satisfying_assignments(f)
        assert type(got) is list
        for a in got:
            built = Assignment(f.n, a.index)
            assert type(a) is Assignment
            assert a == built and hash(a) == hash(built)
            assert (a.n, a.index) == (built.n, built.index)
        if got:
            with pytest.raises(dataclasses.FrozenInstanceError):
                got[0].index = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                got[-1].n = 1

    @settings(max_examples=200)
    @given(formulas())
    def test_eval_ast_matches_tree_walk(self, f):
        assert eval_ast(f) == ref_eval_ast(f)

    def test_eval_ast_every_node_type(self):
        n = 3
        # (!a1 -> a2 & 1) ^ (a3 | 0), then the same with every connective's operands swapped
        code = (1, NOT, 2, ONE, AND, IMPLIES, 3, ZERO, OR, XOR)
        swapped = (ZERO, 3, OR - SWAP, ONE, 2, AND - SWAP, 1, NOT, IMPLIES - SWAP, XOR - SWAP)
        f = Formula(code, n, ("a1", "a2", "a3"))
        g = Formula(swapped, n, f.names)
        assert eval_ast(f) == ref_eval_ast(f) == eval_ast(g) == ref_eval_ast(g)
        assert f.to_text() == g.to_text() == "(!a1 -> a2 & 1) ^ (a3 | 0)"
        assert eval_ast(Formula((ONE,), n, f.names)) == one(n)
        assert eval_ast(Formula((ZERO,), n, f.names)) == zero(n)

    def test_eval_cnf_exhaustive_small(self):
        for n in (1, 2, 3):
            cls = list(all_clauses(n))
            for k in (0, 1, 2):
                for chosen in itertools.combinations(cls, k):
                    doc = CnfDoc(n, chosen)
                    assert eval_cnf(doc) == ~BoolFunc(n, pack(ref_falsified(doc)))

    @settings(max_examples=100)
    @given(cnf_docs())
    def test_eval_cnf_matches_falsification(self, doc):
        assert eval_cnf(doc) == ~BoolFunc(doc.n, pack(ref_falsified(doc)))

    @pytest.mark.parametrize("n", BOUNDARY_N)
    def test_anf_order_matches_former_key(self, n):
        rng = random.Random(0xA4F + n)
        masks = boundary_positions(n, rng) + [0]
        anf = Anf(n, frozenset(monomial_of(m) for m in masks))
        ordered = sorted(set(masks), key=ref_anf_order_key(n))
        assert str(anf) == " ⊕ ".join(map(mono_text, ordered))

    def test_anf_order_matches_former_key_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for t in range(1 << (1 << n)):
                anf = to_anf(BoolFunc(n, t))
                ordered = sorted(_set_bits(anf.mask), key=ref_anf_order_key(n))
                assert str(anf) == (" ⊕ ".join(map(mono_text, ordered)) or "0")


@st.composite
def sparse_vectors(draw, max_n=20):
    """A vector of width 2**n with a few set bits, single or in short runs,
    and the sorted positions it was built from."""
    n = draw(sizes(max_n))
    starts = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=40))
    runs = [range(s, min(s + draw(st.integers(1, 70)), 1 << n)) for s in starts]
    positions = sorted(set(itertools.chain.from_iterable(runs)))
    return n, pack(positions), positions


class TestSetBitsRoutes:
    """``_set_bits`` walks only the nonzero 64-bit words when they are at most
    half of all words, and every bit otherwise; both routes against the scan."""

    @given(sparse_vectors())
    def test_sparse(self, case):
        n, x, positions = case
        assert _set_bits(x) == positions
        if n <= 12:  # the scan shifts the whole vector once per bit
            assert _set_bits(x) == ref_set_bits(x)

    @given(funcs(max_n=14))
    def test_dense(self, f):
        assert _set_bits(f.tt) == ref_set_bits(f.tt)

    @pytest.mark.parametrize("words", [1, 2, 3, 8, 9, 64, 65])
    def test_at_the_route_switch(self, words):
        rng = random.Random(words)
        for nonzero in {0, words // 2, (words + 1) // 2, words // 2 + 1, words}:
            if not 0 < nonzero <= words:
                continue
            # the top word is always nonzero, so the vector has exactly `words` words
            chosen = set(rng.sample(range(words - 1), nonzero - 1)) | {words - 1}
            x = 0
            for w in chosen:
                x |= rng.getrandbits(64) << (64 * w) | 1 << (64 * w + rng.randrange(64))
            assert _set_bits(x) == ref_set_bits(x)

    def test_sparse_wide(self):
        rng = random.Random(24)
        positions = sorted(rng.sample(range(1 << 24), 300) + [0, (1 << 24) - 1])
        assert _set_bits(pack(positions)) == positions


class TestAllowedMapRoutes:
    """The bit-sliced scan, which tests every candidate map at once, against
    the scan that tests one candidate map at a time."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_scans_agree(self, n):
        assert enumerate_allowed_maps(n) == ref_allowed_maps(n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_changed_table_fails_both_scans_alike(self, n, monkeypatch):
        monkeypatch.setattr(theorems, "MUL_TABLE", ((0, 1), (1, 1)))  # the OR table
        with pytest.raises(AssertionError) as fast:
            enumerate_allowed_maps(n)
        with pytest.raises(AssertionError) as slow:
            ref_allowed_maps(n)
        assert str(fast.value) == str(slow.value)
