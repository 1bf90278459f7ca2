"""Core truth-vector arithmetic and the polynomial normal form."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from boolring import (
    Anf,
    BoolFunc,
    SizeLimitError,
    add,
    from_anf,
    get_max_vars,
    mul,
    neg,
    one,
    or_,
    set_max_vars,
    to_anf,
    var,
    zero,
)


def oracle_tt(n, fn):
    """Per-assignment evaluation of ``fn`` on dicts of plain bools."""
    out = 0
    for j in range(1 << n):
        values = {r: bool((j >> (r - 1)) & 1) for r in range(1, n + 1)}
        if fn(values):
            out |= 1 << j
    return out


@st.composite
def funcs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    tt = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return BoolFunc(n, tt)


@st.composite
def func_pairs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    hi = (1 << (1 << n)) - 1
    return (
        BoolFunc(n, draw(st.integers(min_value=0, max_value=hi))),
        BoolFunc(n, draw(st.integers(min_value=0, max_value=hi))),
    )


class TestConstruction:
    def test_constants(self):
        assert zero(2).tt == 0
        assert one(2).tt == 0b1111
        assert zero(1) != one(1)

    def test_variable_patterns(self):
        # block patterns, most significant bit first
        assert var(2, 1).to_bits() == "1010"
        assert var(2, 2).to_bits() == "1100"
        assert var(3, 3).to_bits() == "11110000"
        assert var(1, 1).to_bits() == "10"

    def test_variable_patterns_match_oracle(self):
        for n in range(1, 7):
            for r in range(1, n + 1):
                assert var(n, r).tt == oracle_tt(n, lambda a, r=r: a[r])

    @pytest.mark.parametrize("n", [8, 16, 20, 24])
    def test_variable_vectors_match_byte_patterns(self, n):
        # the repeating byte of variables 1-3; from variable 4 on, a block
        # of 2**(r - 4) zero bytes below as many 0xff bytes
        size = 1 << (n - 3)
        for r in range(1, n + 1):
            if r <= 3:
                block = bytes([(0xAA, 0xCC, 0xF0)[r - 1]])
            else:
                block = bytes(1 << (r - 4)) + b"\xff" * (1 << (r - 4))
            assert var(n, r).tt == int.from_bytes(block * (size // len(block)), "little")

    def test_equality_needs_same_width(self):
        assert zero(1) != zero(2)
        assert BoolFunc(2, 6) == BoolFunc(2, 6)
        assert hash(BoolFunc(2, 6)) == hash(BoolFunc(2, 6))

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            BoolFunc(1, 4)
        with pytest.raises(ValueError):
            BoolFunc(1, -1)

    def test_rejects_bad_var_index(self):
        with pytest.raises(ValueError):
            var(2, 0)
        with pytest.raises(ValueError):
            var(2, 3)

    def test_var_count_caps(self):
        with pytest.raises(SizeLimitError):
            zero(0)
        with pytest.raises(SizeLimitError):
            zero(get_max_vars() + 1)

    def test_cap_is_adjustable(self):
        default = get_max_vars()
        try:
            set_max_vars(4)
            with pytest.raises(SizeLimitError):
                zero(5)
            set_max_vars(26)
            assert zero(25).n == 25
        finally:
            set_max_vars(default)

    def test_values_are_immutable(self):
        f = var(2, 1)
        with pytest.raises(AttributeError):
            f.tt = 0


class TestOperations:
    # expected vectors below were produced by the per-assignment oracle
    def test_add_example(self):
        got = add(var(2, 1), var(2, 2))
        assert got.tt == 0b0110
        assert got.tt == oracle_tt(2, lambda a: a[1] != a[2])

    def test_mul_example(self):
        got = mul(var(2, 1), var(2, 2))
        assert got.tt == 0b1000
        assert got.tt == oracle_tt(2, lambda a: a[1] and a[2])

    def test_or_example(self):
        got = or_(var(2, 1), var(2, 2))
        assert got.tt == 0b1110
        assert got.tt == oracle_tt(2, lambda a: a[1] or a[2])

    def test_neg_example(self):
        assert neg(var(2, 1)).tt == 0b0101
        assert neg(var(2, 1)).tt == oracle_tt(2, lambda a: not a[1])

    def test_add_self_cancels(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                assert add(f, f) == zero(n)
                assert mul(f, f) == f

    def test_neg_is_add_one(self):
        f = var(3, 2)
        assert neg(f) == add(f, one(3))
        assert neg(neg(f)) == f

    def test_complement_product_vanishes(self):
        f = var(3, 1)
        assert mul(f, neg(f)) == zero(3)
        assert or_(f, neg(f)) == one(3)

    def test_or_matches_bitwise(self):
        rng = random.Random(1905)
        for _ in range(500):
            n = rng.randint(1, 8)
            hi = (1 << (1 << n)) - 1
            a, b = BoolFunc(n, rng.randint(0, hi)), BoolFunc(n, rng.randint(0, hi))
            assert or_(a, b).tt == a.tt | b.tt
            assert or_(a, b) == add(add(a, b), mul(a, b))

    def test_de_morgan(self):
        a, b = var(3, 1), var(3, 2)
        assert neg(or_(a, b)) == mul(neg(a), neg(b))
        assert neg(mul(a, b)) == or_(neg(a), neg(b))

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            add(zero(1), zero(2))
        with pytest.raises(ValueError):
            mul(one(2), one(3))

    def test_operators_mirror_functions(self):
        a, b = var(2, 1), var(2, 2)
        assert a ^ b == add(a, b)
        assert a & b == mul(a, b)
        assert a | b == or_(a, b)
        assert ~a == neg(a)


class TestRingAxioms:
    def test_exhaustive_small(self):
        # every triple at n = 1 and n = 2
        for n in (1, 2):
            space = [BoolFunc(n, t) for t in range(1 << (1 << n))]
            for a, b, c in itertools.product(space, repeat=3):
                assert (a ^ b) ^ c == a ^ (b ^ c)
                assert (a & b) & c == a & (b & c)
                assert a ^ b == b ^ a
                assert a & b == b & a
                assert a & (b ^ c) == (a & b) ^ (a & c)
            for a in space:
                assert a ^ zero(n) == a
                assert a & one(n) == a
                assert a ^ a == zero(n)
                assert a & a == a

    def test_randomized_triples(self):
        rng = random.Random(0xBEEF)
        for _ in range(10_000):
            n = rng.randint(3, 10)
            hi = (1 << (1 << n)) - 1
            a = BoolFunc(n, rng.randint(0, hi))
            b = BoolFunc(n, rng.randint(0, hi))
            c = BoolFunc(n, rng.randint(0, hi))
            assert (a ^ b) ^ c == a ^ (b ^ c)
            assert a & (b ^ c) == (a & b) ^ (a & c)
            assert (a & b) & c == a & (b & c)

    @given(func_pairs())
    def test_commutativity(self, pair):
        a, b = pair
        assert a ^ b == b ^ a
        assert a & b == b & a

    @given(funcs())
    def test_special_elements(self, a):
        assert a ^ a == zero(a.n)
        assert a & a == a
        assert a ^ zero(a.n) == a
        assert a & one(a.n) == a
        assert a & zero(a.n) == zero(a.n)


class TestAnf:
    def test_constants(self):
        assert to_anf(zero(2)) == Anf(2, frozenset())
        assert to_anf(one(2)) == Anf(2, frozenset({frozenset()}))
        assert str(to_anf(zero(2))) == "0"
        assert str(to_anf(one(2))) == "1"

    def test_single_variable(self):
        assert to_anf(var(2, 1)) == Anf(2, frozenset({frozenset({1})}))

    def test_disjunction_expands(self):
        got = to_anf(or_(var(2, 1), var(2, 2)))
        want = Anf(2, frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})}))
        assert got == want
        assert str(got) == "a1 ⊕ a2 ⊕ a1·a2"

    def test_from_anf_example(self):
        p = Anf(2, frozenset({frozenset({1}), frozenset({2})}))
        assert from_anf(p).tt == 0b0110

    def test_round_trip_exhaustive(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                assert from_anf(to_anf(f)) == f

    def test_round_trip_random_wide(self):
        rng = random.Random(20_25)
        for _ in range(300):
            f = BoolFunc(10, rng.getrandbits(1024))
            assert from_anf(to_anf(f)) == f

    @given(funcs())
    def test_round_trip_property(self, f):
        assert from_anf(to_anf(f)) == f

    def test_add_is_symmetric_difference(self):
        p = to_anf(var(2, 1))
        q = to_anf(or_(var(2, 1), var(2, 2)))
        assert (p ^ q).monomials == p.monomials ^ q.monomials

    @given(func_pairs(max_n=4))
    def test_anf_ops_agree_with_vector_ops(self, pair):
        a, b = pair
        assert from_anf(to_anf(a) ^ to_anf(b)) == a ^ b
        assert from_anf(to_anf(a) & to_anf(b)) == a & b

    def test_monomial_print_order(self):
        f = from_anf(Anf(3, frozenset({frozenset({2, 3}), frozenset({1}), frozenset()})))
        assert str(to_anf(f)) == "1 ⊕ a1 ⊕ a2·a3"

    def test_rejects_out_of_range_monomials(self):
        with pytest.raises(ValueError):
            Anf(2, frozenset({frozenset({3})}))

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
    def test_rejects_non_int_variable_index(self, index):
        with pytest.raises(TypeError):
            Anf(2, [{index}])

    def test_duplicates_collapse_like_sets(self):
        assert Anf(2, [{1}, (1, 1), [1]]) == Anf(2, [{1}])


class TestSerialization:
    def test_bits_round_trip(self):
        f = BoolFunc(3, 0b11001010)
        assert f.to_bits() == "11001010"
        assert BoolFunc.from_bits("11001010") == f
        assert str(f) == "11001010"

    def test_hex_round_trip(self):
        f = BoolFunc(3, 0xCA)
        assert f.to_hex() == "ca"
        assert BoolFunc.from_hex(3, "ca") == f
        assert BoolFunc.from_hex(3, "CA") == f

    def test_narrow_hex_width(self):
        assert one(1).to_hex() == "3"
        assert BoolFunc(2, 0xE).to_hex() == "e"

    def test_from_bits_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            BoolFunc.from_bits("101")
        with pytest.raises(ValueError):
            BoolFunc.from_bits("1")
        with pytest.raises(ValueError):
            BoolFunc.from_bits("10x0")

    def test_from_hex_rejects_the_empty_string(self):
        with pytest.raises(ValueError, match="hex string is empty") as exc:
            BoolFunc.from_hex(3, "")
        assert "invalid literal" not in str(exc.value)

    @pytest.mark.parametrize("digits", ["0x_ff", " ff ", "f_f", "+ff", "-f", "0xff", "ff\n", "f٣"])
    def test_from_hex_rejects_non_hex_characters(self, digits):
        with pytest.raises(ValueError, match="only hex digits"):
            BoolFunc.from_hex(3, digits)
