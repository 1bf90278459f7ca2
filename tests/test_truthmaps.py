"""Evaluation, model counting, and the exhaustive allowed-map search."""

import random

import pytest

from boolring import (
    ADD_TABLE,
    DEFAULT_MAX_VARS,
    MUL_TABLE,
    Assignment,
    BoolFunc,
    SizeLimitError,
    count_models,
    decompose,
    enumerate_allowed_maps,
    eval_at,
    neg,
    one,
    or_,
    prime,
    satisfying_assignments,
    set_max_vars,
    var,
    verify_tiv,
    zero,
)


class TestAssignment:
    def test_values_follow_bits(self):
        a = Assignment(3, 5)
        assert a.value(1) == 1
        assert a.value(2) == 0
        assert a.value(3) == 1
        assert a.values() == (1, 0, 1)

    def test_str(self):
        assert str(Assignment(3, 5)) == "j=5: a1=1 a2=0 a3=1"

    def test_range_checked(self):
        with pytest.raises(ValueError):
            Assignment(2, 4)
        with pytest.raises(ValueError):
            Assignment(2, -1)
        with pytest.raises(ValueError):
            Assignment(2, 1).value(3)

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
    def test_rejects_non_int_index(self, index):
        with pytest.raises(TypeError):
            Assignment(2, index)


class TestEval:
    def test_examples(self):
        assert eval_at(var(3, 2), 6) == 1
        assert eval_at(var(3, 2), 1) == 0
        assert eval_at(one(3), 7) == 1
        assert eval_at(zero(3), 0) == 0

    def test_minterm_delta(self):
        for n in (1, 2, 3):
            for j in range(1 << n):
                for k in range(1 << n):
                    assert eval_at(neg(prime(n, k)), j) == (1 if j == k else 0)

    def test_accepts_assignment_objects(self):
        f = var(2, 2)
        assert eval_at(f, Assignment(2, 2)) == 1
        with pytest.raises(ValueError):
            eval_at(f, Assignment(3, 2))
        with pytest.raises(ValueError):
            eval_at(f, 4)

    def test_compositional_exhaustive(self):
        for n in (1, 2):
            space = [BoolFunc(n, t) for t in range(1 << (1 << n))]
            for j in range(1 << n):
                for a in space:
                    for b in space:
                        assert eval_at(a ^ b, j) == eval_at(a, j) ^ eval_at(b, j)
                        assert eval_at(a & b, j) == eval_at(a, j) & eval_at(b, j)

    def test_compositional_random(self):
        rng = random.Random(77)
        for _ in range(2_000):
            n = rng.randint(3, 10)
            hi = (1 << (1 << n)) - 1
            a, b = BoolFunc(n, rng.randint(0, hi)), BoolFunc(n, rng.randint(0, hi))
            j = rng.randrange(1 << n)
            assert eval_at(a ^ b, j) == eval_at(a, j) ^ eval_at(b, j)
            assert eval_at(a & b, j) == eval_at(a, j) & eval_at(b, j)


class TestCounting:
    def test_examples(self):
        assert count_models(or_(var(2, 1), var(2, 2))) == 3
        assert count_models(one(3)) == 8
        assert count_models(zero(3)) == 0
        assert count_models(neg(prime(3, 5))) == 1

    def test_count_complements_decomposition(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                assert count_models(f) == (1 << n) - len(decompose(f).indices)

    def test_satisfying_assignments(self):
        got = satisfying_assignments(var(2, 1))
        assert [a.index for a in got] == [1, 3]
        assert satisfying_assignments(zero(2)) == []
        assert [a.index for a in satisfying_assignments(neg(prime(2, 2)))] == [2]


class TestAllowedMaps:
    def test_tables_are_the_expected_ones(self):
        assert ADD_TABLE[0][0] == ADD_TABLE[1][1] == 0
        assert ADD_TABLE[0][1] == ADD_TABLE[1][0] == 1
        assert MUL_TABLE[0][0] == MUL_TABLE[0][1] == MUL_TABLE[1][0] == 0
        assert MUL_TABLE[1][1] == 1

    def test_counts(self):
        assert len(enumerate_allowed_maps(1).maps) == 2
        assert len(enumerate_allowed_maps(2).maps) == 4

    def test_maps_are_evaluations(self):
        for n in (1, 2):
            table = enumerate_allowed_maps(n)
            for k, m in enumerate(table.maps):
                for t in range(1 << (1 << n)):
                    assert m[t] == eval_at(BoolFunc(n, t), k)

    def test_maps_send_constants_correctly(self):
        table = enumerate_allowed_maps(2)
        for m in table.maps:
            assert m[0] == 0
            assert m[0b1111] == 1

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            enumerate_allowed_maps(3)

    def test_under_a_variable_cap_of_two(self):
        # the scan's 2**2**n candidates are one vector over 2**n "variables";
        # building it must not go through the capped public constructors
        set_max_vars(2)
        try:
            assert len(enumerate_allowed_maps(2).maps) == 4
            assert verify_tiv(2).passed
        finally:
            set_max_vars(DEFAULT_MAX_VARS)
