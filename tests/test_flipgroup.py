"""Variable-flip permutations: masks, the index map, and group structure."""

import random

import pytest

from boolring import (
    GROUP_CHECK_LIMIT,
    Assignment,
    BoolFunc,
    FlipMask,
    SizeLimitError,
    apply_flip,
    conservation_check,
    count_models,
    decompose,
    eval_at,
    flip_group_check,
    pi,
    var,
)


def oracle_flip(n, tt, s):
    """Per-assignment route: bit j of the result reads the source assignment
    obtained by toggling the selected variable bits of j."""
    out = 0
    for j in range(1 << n):
        src = 0
        for r in range(1, n + 1):
            bit = (j >> (r - 1)) & 1
            if (s >> (r - 1)) & 1:
                bit ^= 1
            src |= bit << (r - 1)
        if (tt >> src) & 1:
            out |= 1 << j
    return out


class TestFlipMask:
    def test_variables(self):
        assert FlipMask(3, 5).variables() == (1, 3)
        assert FlipMask(3, 0).variables() == ()
        assert str(FlipMask(3, 5)) == "5"

    def test_parse_decimal(self):
        assert FlipMask.parse("5", 3).s == 5
        assert FlipMask.parse(" 0 ", 2).s == 0

    def test_parse_variable_list(self):
        assert FlipMask.parse("a1,a3", 3).s == 5
        assert FlipMask.parse("a2 , a3", 3).s == 6
        assert FlipMask.parse("a1", 1).s == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FlipMask.parse("", 3)
        with pytest.raises(ValueError):
            FlipMask.parse("b2", 3)
        with pytest.raises(ValueError, match="variable index 0 outside 1..3"):
            FlipMask.parse("a0", 3)
        for text in ("a01", "a1,a02", "a00"):  # a01 would name a1
            with pytest.raises(ValueError, match="has a leading zero"):
                FlipMask.parse(text, 3)
        with pytest.raises(ValueError):
            FlipMask.parse("a4", 3)
        with pytest.raises(ValueError):
            FlipMask.parse("8", 3)
        for text in ("٣", "a٣", "²"):
            with pytest.raises(ValueError, match="flip mask entries must look like a3"):
                FlipMask.parse(text, 3)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            FlipMask(2, 4)
        with pytest.raises(ValueError):
            FlipMask(2, -1)


class TestApplyFlip:
    def test_frozen_examples(self):
        assert apply_flip(BoolFunc(2, 0b1000), 3) == BoolFunc(2, 0b0001)
        assert apply_flip(var(3, 1), 1) == BoolFunc(3, 0b01010101)
        assert apply_flip(BoolFunc(3, 0b11001010), 0b011) == BoolFunc(3, 0b00110101)
        assert apply_flip(BoolFunc(3, 0b11001010), 0b100) == BoolFunc(3, 0b10101100)

    def test_matches_oracle_exhaustive(self):
        for n in (1, 2, 3):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                for s in range(1 << n):
                    assert apply_flip(f, s).tt == oracle_flip(n, t, s)

    def test_matches_oracle_random(self):
        rng = random.Random(414)
        for _ in range(300):
            n = rng.randint(4, 10)
            t = rng.getrandbits(1 << n)
            s = rng.randrange(1 << n)
            assert apply_flip(BoolFunc(n, t), s).tt == oracle_flip(n, t, s)

    def test_accepts_mask_objects(self):
        f = BoolFunc(2, 0b1000)
        assert apply_flip(f, FlipMask(2, 3)) == apply_flip(f, 3)
        with pytest.raises(ValueError):
            apply_flip(f, FlipMask(3, 3))
        with pytest.raises(ValueError):
            apply_flip(f, 4)

    def test_permutes_zero_positions(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 8)
            f = BoolFunc(n, rng.getrandbits(1 << n))
            s = rng.randrange(1 << n)
            want = frozenset(j ^ s for j in decompose(f).indices)
            assert decompose(apply_flip(f, s)).indices == want


class TestPi:
    def test_equals_xor_exhaustive(self):
        for n in range(1, 7):
            for s in range(1 << n):
                for j in range(1 << n):
                    assert pi(s, j, n).index == j ^ s

    def test_involution(self):
        for n in (1, 2, 3, 4):
            for s in range(1 << n):
                for j in range(1 << n):
                    assert pi(s, pi(s, j, n)).index == j

    def test_returns_assignment(self):
        image = pi(3, 5, 3)
        assert isinstance(image, Assignment)
        assert image.index == 6
        assert str(image) == "j=6: a1=0 a2=1 a3=1"

    def test_argument_forms(self):
        assert pi(FlipMask(3, 3), 5).index == 6
        assert pi(3, Assignment(3, 5)).index == 6
        assert pi(FlipMask(3, 3), Assignment(3, 5)).index == 6
        with pytest.raises(ValueError):
            pi(3, 5)  # two plain ints, no variable count
        with pytest.raises(ValueError):
            pi(FlipMask(2, 1), Assignment(3, 5))

    def test_eval_relation_exhaustive(self):
        # the flipped function at j agrees with the original at pi(s, j)
        for n in (1, 2):
            for t in range(1 << (1 << n)):
                f = BoolFunc(n, t)
                for s in range(1 << n):
                    flipped = apply_flip(f, s)
                    for j in range(1 << n):
                        assert eval_at(flipped, j) == eval_at(f, pi(s, j, n))

    def test_eval_relation_random(self):
        rng = random.Random(2718)
        for _ in range(400):
            n = rng.randint(3, 10)
            f = BoolFunc(n, rng.getrandbits(1 << n))
            s = rng.randrange(1 << n)
            j = rng.randrange(1 << n)
            assert eval_at(apply_flip(f, s), j) == eval_at(f, pi(s, j, n))


class TestGroupStructure:
    def test_check_passes_up_to_limit(self):
        for n in range(1, GROUP_CHECK_LIMIT + 1):
            report = flip_group_check(n)
            assert report.passed, report.counterexample
            assert report.name == "flip-group"
            assert report.n == n
            assert report.counterexample is None
            assert report.checks > 0

    def test_check_capped(self):
        with pytest.raises(SizeLimitError):
            flip_group_check(GROUP_CHECK_LIMIT + 1)

    def test_composition_table_is_xor(self):
        # recover the composition table at n=2 and compare it to XOR
        n = 2
        space = [BoolFunc(n, t) for t in range(16)]
        table = []
        for s in range(4):
            row = []
            for t in range(4):
                matches = [
                    u
                    for u in range(4)
                    if all(
                        apply_flip(apply_flip(f, t), s) == apply_flip(f, u)
                        for f in space
                    )
                ]
                assert len(matches) == 1
                row.append(matches[0])
            table.append(tuple(row))
        assert tuple(table) == tuple(
            tuple(s ^ t for t in range(4)) for s in range(4)
        )


class TestConservation:
    def test_frozen_example(self):
        report = conservation_check(BoolFunc(3, 0b11001010))
        assert report.passed
        assert report.checks == 8

    def test_random_functions(self):
        rng = random.Random(31337)
        for _ in range(60):
            n = rng.randint(1, 8)
            f = BoolFunc(n, rng.getrandbits(1 << n))
            report = conservation_check(f)
            assert report.passed, report.counterexample

    def test_counts_directly(self):
        rng = random.Random(51)
        for _ in range(100):
            n = rng.randint(1, 9)
            f = BoolFunc(n, rng.getrandbits(1 << n))
            s = rng.randrange(1 << n)
            assert count_models(apply_flip(f, s)) == count_models(f)
