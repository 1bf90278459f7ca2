"""Maxterm/minterm decomposition and the literal forms."""

import pytest

from boolring import (
    BoolFunc,
    PrimeSet,
    basis,
    clause_text,
    compose,
    decompose,
    literal_form,
    minterm_text,
    mul,
    neg,
    one,
    or_,
    orthogonal,
    prime,
    var,
    zero,
)


def test_prime_has_single_zero():
    # frozen from the per-assignment oracle
    assert prime(2, 1).to_bits() == "1101"
    assert prime(2, 0).to_bits() == "1110"
    for n in (1, 2, 3, 4):
        for j in range(1 << n):
            p = prime(n, j)
            assert p.tt == ((1 << (1 << n)) - 1) ^ (1 << j)


def test_negated_prime_is_indicator():
    for n in (1, 2, 3):
        for j in range(1 << n):
            assert neg(prime(n, j)).tt == 1 << j


def test_prime_index_range_checked():
    with pytest.raises(ValueError):
        prime(2, 4)
    with pytest.raises(ValueError):
        prime(2, -1)


def test_all_primes_multiply_to_zero():
    for n in range(1, 7):
        acc = one(n)
        for j in range(1 << n):
            acc = mul(acc, prime(n, j))
        assert acc == zero(n)


def test_all_minterms_sum_to_one():
    for n in range(1, 7):
        acc = zero(n)
        for j in range(1 << n):
            acc = acc ^ neg(prime(n, j))
        assert acc == one(n)


class TestLiteralForm:
    def test_polarities_follow_index_bits(self):
        lp = literal_form(3, 2)
        assert lp.polarities == (False, True, False)
        assert str(lp) == "~a1·a2·~a3"
        assert literal_form(2, 3).polarities == (True, True)
        assert literal_form(2, 0).polarities == (False, False)

    def test_product_is_negated_prime(self):
        for n in range(1, 7):
            for j in range(1 << n):
                lp = literal_form(n, j)
                assert lp.index() == j
                assert lp.to_func() == neg(prime(n, j))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            literal_form(2, 4)


class TestDecomposeCompose:
    def test_decompose_lists_zeros(self):
        assert decompose(var(2, 1)).indices == {0, 2}
        assert decompose(one(2)).indices == frozenset()
        assert decompose(zero(2)).indices == {0, 1, 2, 3}

    def test_compose_examples(self):
        assert compose(2, {0, 2}) == var(2, 1)
        assert compose(2, frozenset()) == one(2)
        assert compose(2, range(4)) == zero(2)

    def test_compose_accepts_prime_set(self):
        ps = PrimeSet(2, frozenset({0, 2}))
        assert compose(2, ps) == var(2, 1)
        with pytest.raises(ValueError):
            compose(3, ps)

    def test_round_trips_exhaustive(self):
        for n in (1, 2, 3):
            space = 1 << (1 << n)
            seen = set()
            for t in range(space):
                f = BoolFunc(n, t)
                ps = decompose(f)
                assert compose(n, ps) == f
                seen.add(ps.indices)
            # every index subset appears exactly once: the map is a bijection
            assert len(seen) == space
            for bits in range(space):
                idx = frozenset(j for j in range(1 << n) if (bits >> j) & 1)
                assert decompose(compose(n, idx)).indices == idx

    def test_prime_set_validates_indices(self):
        with pytest.raises(ValueError):
            PrimeSet(2, frozenset({4}))

    def test_complement(self):
        ps = decompose(var(2, 1))
        assert ps.complement() == {1, 3}

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
    def test_prime_set_rejects_non_int_index(self, index):
        with pytest.raises(TypeError):
            PrimeSet(2, {index})
        with pytest.raises(TypeError):
            compose(2, [index])

    def test_complement_of_full_and_empty(self):
        assert PrimeSet(3, range(8)).complement() == frozenset()
        assert PrimeSet(3, ()).complement() == frozenset(range(8))


class TestOrthogonality:
    def test_same_index_keeps_minterm(self):
        for n in (1, 2, 3):
            for j in range(1 << n):
                assert orthogonal(n, j, j) == neg(prime(n, j))

    def test_distinct_indices_vanish(self):
        for n in range(1, 7):
            for j in range(1 << n):
                for k in range(1 << n):
                    got = orthogonal(n, j, k)
                    if j == k:
                        assert got == neg(prime(n, j))
                    else:
                        assert got == zero(n)

    def test_prime_pair_product_identity(self):
        # p_j * p_k = p_j + ~p_k = ~p_j + p_k whenever j != k
        for n in range(1, 7):
            for j in range(1 << n):
                for k in range(1 << n):
                    if j == k:
                        continue
                    pj, pk = prime(n, j), prime(n, k)
                    assert mul(pj, pk) == pj ^ neg(pk)
                    assert mul(pj, pk) == neg(pj) ^ pk


def test_minterm_sum_equals_or_of_minterms():
    # orthogonal summands: XOR and OR agree on the decomposition
    for n in (1, 2, 3):
        for t in range(1 << (1 << n)):
            f = BoolFunc(n, t)
            sat = decompose(f).complement()
            via_xor = zero(n)
            via_or = zero(n)
            for j in sat:
                via_xor = via_xor ^ neg(prime(n, j))
                via_or = or_(via_or, neg(prime(n, j)))
            assert via_xor == f
            assert via_or == f


class TestBasis:
    def test_matches_variable_patterns(self):
        assert basis(2, 1).to_bits() == "1010"
        assert basis(2, 2).to_bits() == "1100"
        assert basis(3, 3).to_bits() == "11110000"
        for n in range(1, 7):
            for r in range(1, n + 1):
                assert basis(n, r) == var(n, r)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            basis(2, 3)


class TestTextForms:
    def test_clause_text(self):
        assert clause_text(2, 0) == "(a1 ∨ a2)"
        assert clause_text(2, 1) == "(¬a1 ∨ a2)"
        assert clause_text(3, 5) == "(¬a1 ∨ a2 ∨ ¬a3)"

    def test_minterm_text(self):
        assert minterm_text(2, 0) == "(¬a1 ∧ ¬a2)"
        assert minterm_text(3, 5) == "(a1 ∧ ¬a2 ∧ a3)"

    def test_custom_names(self):
        assert clause_text(2, 1, names=("x", "y")) == "(¬x ∨ y)"

    @pytest.mark.parametrize("names", [(), ("x",), ("x", "y", "z", "w")])
    @pytest.mark.parametrize("emit", [clause_text, minterm_text])
    def test_names_must_match_variable_count(self, emit, names):
        with pytest.raises(ValueError, match=f"{len(names)} names given for 3 variables"):
            emit(3, 1, names)
