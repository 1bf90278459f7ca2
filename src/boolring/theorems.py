"""Built-in verification suite for the algebra's structure.

Five structural facts, labeled TI through TV across this package, are
checked by exhaustion at small variable counts:

  TI    the space of n-variable functions has 2**2**n elements and, for
        every nontrivial s, splits uniquely into the annihilators of s
        times the annihilators of its complement;
  TII   exactly 2**n nontrivial elements have the prime property, and
        they are the maxterms;
  TIII  maxterm index sets identify functions uniquely in both
        directions;
  TIV   exactly 2**n compositional 0/1 maps on the space exist, the
        per-assignment evaluations;
  TV    the minterm sums selected by each index bit reproduce the
        single-variable functions, whose full-width products rebuild
        every minterm.

The oracles of TIV and TV, ``enumerate_allowed_maps`` and ``basis``,
live here, so no operations module loops over all 2**n assignments.

``flip_group_check`` and ``conservation_check`` check that the variable
flips form a group acting on the maxterms and keep model counts, and
``verify_resolution`` replays a classical cut-rule derivation entirely
inside the ring.  Each check counts its assertions on a ``Checker``,
which also refuses an n above the check's cap and times the run, and
returns a deterministic ``Report``.  The checks use only public
operations of the package, so the suite doubles as an integration test.
"""

from __future__ import annotations

import random
import time
from functools import reduce
from operator import and_, xor
from typing import Any, Callable, Iterable

from . import _EXPORTS
from .flipgroup import apply_flip, pi
from .primes import compose, decompose, prime
from .ring import (
    BoolFunc, check_var_count, one, var, zero, _Frozen, _check_cap, _check_var, _ones, _pack_bits,
    _set_bits, _var_tts,
)
from .truthmaps import count_models, eval_at

__all__ = list(_EXPORTS["theorems"])

# largest n each check is willing to enumerate, by report name
THEOREM_CAPS = {"TI": 3, "TII+TIII": 3, "TIV": 2, "TV": 6, "flip-group": 6, "conservation": 14}
GROUP_CHECK_LIMIT = THEOREM_CAPS["flip-group"]

# image of a sum / product, indexed by the images of the two operands
ADD_TABLE = ((0, 1), (1, 0))
MUL_TABLE = ((0, 0), (0, 1))


class Report(_Frozen):
    """Outcome of one verification run.

    ``checks`` counts the elementary assertions exercised;
    ``counterexample`` describes the first failure, if any.  Everything
    except ``elapsed`` is deterministic for a given library version.
    """

    __slots__ = ("name", "n", "passed", "checks", "elapsed", "counterexample")

    def __init__(
        self,
        name: str,
        n: int,
        passed: bool,
        checks: int,
        elapsed: float,
        counterexample: str | None = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "counterexample", counterexample)

    def line(self, with_elapsed: bool = True) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{self.name} n={self.n} {status} checks={self.checks}"]
        if with_elapsed:
            parts.append(f"time={self.elapsed:.3f}s")
        if self.counterexample:
            parts.append(f"counterexample: {self.counterexample}")
        return "  ".join(parts)

    def as_dict(self, with_elapsed: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "checks": self.checks,
        }
        if with_elapsed:
            out["elapsed"] = round(self.elapsed, 6)
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


class Checker:
    """One run of a check: refuses an n above the cap ``THEOREM_CAPS`` gives
    ``name``, counts its elementary checks, keeps the first failure
    description and times the run from construction to ``report``."""

    def __init__(self, name: str, n: int) -> None:
        _check_cap(n, THEOREM_CAPS.get(name, n), name)  # a name without a cap: n alone
        self.name = name
        self.n = n
        self.checks = 0
        self.failure: str | None = None
        self.started = time.perf_counter()

    def ok(self, condition: bool, detail: str | Callable[[], str]) -> bool:
        return self.bulk(1, condition, detail)

    def bulk(self, count: int, condition: bool, detail: str | Callable[[], str]) -> bool:
        """Record ``count`` homogeneous checks whose combined outcome is known."""
        self.checks += count
        if not condition and self.failure is None:
            self.failure = detail() if callable(detail) else str(detail)
        return bool(condition)

    def report(self) -> Report:
        elapsed = time.perf_counter() - self.started
        return Report(self.name, self.n, self.failure is None, self.checks, elapsed, self.failure)


def verify_ti(n: int) -> Report:
    """Cardinality and annihilator-splitting checks.

    For each chosen nontrivial s, the annihilators of s and of ~s must
    both be XOR-subgroups meeting only in 0, their sizes must multiply
    to the size of the whole space, and every element must split
    uniquely into a pair drawn from the two.  All nontrivial s are
    tried for n <= 2; sixteen seeded-random choices for n = 3.
    """
    chk = Checker("TI", n)
    size = 1 << (1 << n)
    ones_tt = size - 1
    distinct = {BoolFunc(n, t).tt for t in range(size)}
    chk.ok(len(distinct) == 2 ** (2 ** n), "function space has the wrong cardinality")

    nontrivial = [s for s in range(size) if s not in (0, ones_tt)]
    chosen = nontrivial if n <= 2 else sorted(random.Random(0xA11A).sample(nontrivial, 16))
    for s in chosen:
        ann_s = [a for a in range(size) if a & s == 0]
        ann_not_s = [a for a in range(size) if a & (ones_tt ^ s) == 0]
        set_s, set_not_s = set(ann_s), set(ann_not_s)
        chk.ok(0 in set_s and (ones_tt ^ s) in set_s,
               lambda s=s: f"s={s}: annihilators of s are missing 0 or ~s")
        chk.ok(0 in set_not_s and s in set_not_s,
               lambda s=s: f"s={s}: annihilators of ~s are missing 0 or s")
        bad_s = [(u, v) for u in ann_s for v in ann_s if (u ^ v) not in set_s]
        chk.bulk(len(ann_s) ** 2, not bad_s,
                 lambda s=s, bad=bad_s: f"s={s}: annihilators of s not XOR-closed at {bad[0]}")
        bad_ns = [(u, v) for u in ann_not_s for v in ann_not_s if (u ^ v) not in set_not_s]
        chk.bulk(len(ann_not_s) ** 2, not bad_ns,
                 lambda s=s, bad=bad_ns: f"s={s}: annihilators of ~s not XOR-closed at {bad[0]}")
        chk.ok(set_s & set_not_s == {0},
               lambda s=s: f"s={s}: the two annihilator sets overlap beyond 0")
        chk.ok(len(ann_s) * len(ann_not_s) == size,
               lambda s=s: f"s={s}: annihilator sizes do not multiply to {size}")
        bad_split = [a for a in range(size)
                     if sum(1 for u in ann_s if (a ^ u) in set_not_s) != 1]
        chk.bulk(size, not bad_split,
                 lambda s=s, bad=bad_split: f"s={s}: element {bad[0]} lacks a unique split")
    return chk.report()


def verify_tii_tiii(n: int) -> Report:
    """Prime scan and unique-factorization checks.

    Scanning every nontrivial element for the prime property must find
    exactly the 2**n maxterms; composing every index subset and
    decomposing every function must be mutually inverse bijections.
    """
    chk = Checker("TII+TIII", n)
    size = 1 << n
    space = 1 << size
    ones_tt = space - 1
    # the constants are excluded as candidates: 1 passes the implication
    # vacuously (its only annihilator is 0) but is the unit, not a prime
    found = [
        p for p in range(space)
        if p not in (0, ones_tt)
        and all(p & a != 0 or a == 0 or a == (ones_tt ^ p) for a in range(space))
    ]
    expected = sorted(prime(n, j).tt for j in range(size))
    chk.ok(len(found) == size,
           lambda: f"prime scan found {len(found)} elements, expected {size}")
    chk.ok(sorted(found) == expected, "prime scan disagrees with the maxterms")

    for bits in range(space):
        idx = frozenset(j for j in range(size) if (bits >> j) & 1)
        rebuilt = compose(n, idx)
        chk.ok(decompose(rebuilt).indices == idx,
               lambda idx=idx: f"decompose(compose({sorted(idx)})) changed the index set")
    for t in range(space):
        f = BoolFunc(n, t)
        chk.ok(compose(n, decompose(f)) == f,
               lambda f=f: f"compose(decompose({f})) changed the function")
    return chk.report()


class AllowedMapTable(_Frozen):
    """The compositional 0/1 maps found by exhaustion.

    ``maps[k][t]`` is the image of the function with packed vector ``t``
    under the k-th surviving map; the maps are ordered so that map k
    sends exactly the k-th minterm to 1.
    """

    __slots__ = ("n", "maps")

    def __init__(self, n: int, maps: Iterable[Iterable[int]]) -> None:
        check_var_count(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "maps", tuple(tuple(m) for m in maps))


def enumerate_allowed_maps(n: int) -> AllowedMapTable:
    """Scan all 2**2**2**n maps into {0, 1} and keep the compositional ones.

    A survivor must send 0 to 0 and 1 to 1 (the normalization that rules
    out the everywhere-zero map) and must route every sum through
    ``ADD_TABLE`` and every product through ``MUL_TABLE``.

    The scan is exhaustive and bit-sliced: a set of candidates is itself
    a packed vector with one bit per candidate.  Candidate c sends the
    function with vector t to bit t of c, so the candidates that send t
    to 1 form the vector of variable t + 1 over ``size`` variables.  Each
    pair of functions then costs a few big-int passes that test every
    candidate at once.  The scan is capped at ``THEOREM_CAPS["TIV"]``;
    its vectors come from the uncapped ``_var_tts`` and ``_ones``.
    """
    _check_cap(n, THEOREM_CAPS["TIV"], "TIV")
    size = 1 << (1 << n)  # number of functions over n variables
    every = _ones(size)  # one bit per candidate map
    # sends[t][v]: the candidates that send the function with vector t to v
    sends = [(every ^ x, x) for x in _var_tts(size)]
    # the adopted normalization pins the constants: 0 maps to 0, 1 maps to 1
    # (without it the everywhere-zero map would also survive the scan)
    kept = sends[0][0] & sends[size - 1][1]
    rules = [
        (op, [(i, j) for i in (0, 1) for j in (0, 1) if table[i][j]])
        for op, table in ((xor, ADD_TABLE), (and_, MUL_TABLE))
    ]
    for a in range(size):
        for b in range(a, size):
            for op, cells in rules:
                # the candidates whose table sends the images of a and b to 1
                image = 0
                for i, j in cells:
                    image |= sends[a][i] & sends[b][j]
                kept &= sends[op(a, b)][0] ^ image  # image of op(a, b) agrees
    # order the survivors by the single minterm each one sends to 1
    by_index: dict[int, int] = {}
    for cand in _set_bits(kept):
        hot = [k for k in range(1 << n) if (cand >> (1 << k)) & 1]
        if len(hot) != 1 or hot[0] in by_index:
            raise AssertionError("surviving map does not select exactly one minterm")
        by_index[hot[0]] = cand
    if sorted(by_index) != list(range(1 << n)):
        raise AssertionError("surviving maps do not cover every assignment")
    maps = tuple(
        tuple((by_index[k] >> t) & 1 for t in range(size)) for k in range(1 << n)
    )
    return AllowedMapTable(n, maps)


def verify_tiv(n: int) -> Report:
    """The exhaustive map search finds exactly the per-assignment evaluations."""
    chk = Checker("TIV", n)
    table = enumerate_allowed_maps(n)
    size = 1 << n
    chk.ok(len(table.maps) == size,
           lambda: f"found {len(table.maps)} allowed maps, expected {size}")
    chk.ok(len(set(table.maps)) == len(table.maps), "allowed maps are not distinct")
    for k, m in enumerate(table.maps):
        for j in range(size):
            minterm_tt = (~prime(n, j)).tt
            chk.ok(m[minterm_tt] == (1 if j == k else 0),
                   lambda k=k, j=j: f"map {k} mishandles minterm {j}")
        bad = [t for t in range(1 << size) if m[t] != eval_at(BoolFunc(n, t), k)]
        chk.bulk(1 << size, not bad,
                 lambda k=k, bad=bad: f"map {k} differs from evaluation at element {bad[0]}")
    return chk.report()


def basis(n: int, r: int) -> BoolFunc:
    """Variable r rebuilt as the XOR of the minterms satisfying it.

    The minterms are disjoint, so their sum sets exactly the bits of the
    assignments with bit (r - 1) set.  This route goes through assignment
    indices, not the block pattern of ``var``; the verification suite
    compares the two.
    """
    check_var_count(n)
    _check_var(n, r)
    return BoolFunc(n, _pack_bits(n, (i for i in range(1 << n) if (i >> (r - 1)) & 1)))


def _polarity_products(n: int, gens: list[BoolFunc]) -> list[BoolFunc]:
    """For each s, the product of the generators, generator r plain when
    bit (r - 1) of s is set and complemented otherwise."""
    return [reduce(and_, (g if (s >> k) & 1 else ~g for k, g in enumerate(gens)), one(n))
            for s in range(1 << len(gens))]


def verify_tv(n: int) -> Report:
    """Basis reconstruction checks.

    The minterm sums must give n distinct nontrivial generators whose
    full-width products reproduce every minterm; at n = 3 an alternative
    generating set is checked to produce the same minterms in a
    different order.
    """
    chk = Checker("TV", n)
    size = 1 << n
    gens = [basis(n, r) for r in range(1, n + 1)]
    chk.ok(len(set(gens)) == n, "basis functions are not distinct")
    chk.ok(all(g not in (zero(n), one(n)) for g in gens), "a basis function is constant")
    chk.ok(all(g == var(n, r) for r, g in enumerate(gens, 1)),
           "basis functions do not match the variable patterns")
    for s, prod in enumerate(_polarity_products(n, gens)):
        chk.ok(prod == ~prime(n, s),
               lambda s=s: f"polarity product {s} is not minterm {s}")
    if n == 3:
        # swapped/recombined generators cover the same minterms in another order
        alt = [gens[0], gens[2], (gens[0] & ~gens[1]) ^ (~gens[0] & gens[1])]
        expected = {~prime(n, j) for j in range(size)}
        chk.ok(set(_polarity_products(n, alt)) == expected,
               "alternative generators do not cover the minterms")
    return chk.report()


def verify_resolution() -> Report:
    """Replay the cut rule ((a|b) & (!a|c)) -> (b|c) inside the ring.

    The implication must come out as the constant 1, and each step of
    the hand expansion must hold as a ring identity along the way.
    """
    n = 3
    chk = Checker("resolution", n)
    a, b, c = var(n, 1), var(n, 2), var(n, 3)
    premise = (a | b) & (~a | c)
    conclusion = b | c
    claim = ~premise | conclusion
    chk.ok(claim == one(n), "the implication is not the constant 1")
    # the two disjunctions rewritten as sums
    chk.ok((a | b) == a ^ (~a & b), "a|b != a + ~a*b")
    chk.ok((~a | c) == ~a ^ (c & a), "!a|c != ~a + c*a")
    # the premise multiplied out
    chk.ok(premise == (a & c) ^ (~a & b), "premise != a*c + ~a*b")
    # X -> Y opened as ~X + Y + Y*~X, with the doubled Y cancelling
    chk.ok(claim == one(n) ^ premise ^ (conclusion & premise),
           "implication != 1 + premise + conclusion*premise")
    # the cross product expanded monomial by monomial
    chk.ok((conclusion & premise) == (a & b & c) ^ (~a & b) ^ (~b & a & c),
           "conclusion*premise != a*b*c + ~a*b + ~b*a*c")
    # the collapse: b + ~b = 1, so the a*c terms vanish in pairs
    chk.ok((b ^ ~b) == one(n), "b + ~b != 1")
    chk.ok(claim == one(n) ^ ((a & c) & (one(n) ^ b ^ ~b)),
           "implication != 1 + a*c*(1 + b + ~b)")
    # model counts on either side of the entailment
    chk.ok(count_models(premise) == 4,
           lambda: f"premise has {count_models(premise)} models, expected 4")
    chk.ok(count_models(conclusion) == 6,
           lambda: f"conclusion has {count_models(conclusion)} models, expected 6")
    return chk.report()


def flip_group_check(n: int) -> Report:
    """Exercise the group laws of the flips on sample functions.

    Checks the identity flip, self-inverses, composition by mask XOR,
    and that each flip permutes the maxterms the same way it permutes
    assignment indices.  Exhaustive over the whole function space for
    n <= 3, seeded random samples above that.
    """
    chk = Checker("flip-group", n)
    size = 1 << n
    if n <= 3:
        sample = [BoolFunc(n, t) for t in range(1 << size)]
    else:
        rng = random.Random(0x5EED)
        sample = [BoolFunc(n, rng.getrandbits(size)) for _ in range(48)]

    for a in sample:
        chk.ok(apply_flip(a, 0) == a, lambda a=a: f"identity flip changed {a}")
    for s in range(size):
        for a in sample:
            chk.ok(
                apply_flip(apply_flip(a, s), s) == a,
                lambda s=s, a=a: f"flip {s} applied twice changed {a}",
            )
    pair_sample = sample if n <= 2 else sample[:8]
    for s in range(size):
        for t in range(size):
            want_mask = s ^ t
            for a in pair_sample:
                chk.ok(
                    apply_flip(apply_flip(a, t), s) == apply_flip(a, want_mask),
                    lambda s=s, t=t, a=a: f"flip {s} after flip {t} is not flip {s ^ t} on {a}",
                )
    for s in range(size):
        for j in range(size):
            chk.ok(
                apply_flip(prime(n, j), s) == prime(n, pi(s, j, n).index),
                lambda s=s, j=j: f"flip {s} does not send maxterm {j} to maxterm {s ^ j}",
            )
    return chk.report()


def conservation_check(a: BoolFunc) -> Report:
    """Model count of ``a`` is unchanged by every one of the 2**n flips.

    Each flip moves a whole 2**n-bit vector, so the check costs O(4**n)
    and is capped at ``THEOREM_CAPS["conservation"]``, n <= 14 (about 0.6 s
    there).
    """
    chk = Checker("conservation", a.n)
    want = count_models(a)
    for s in range(1 << a.n):
        got = count_models(apply_flip(a, s))
        chk.ok(
            got == want,
            lambda s=s, got=got, want=want: f"mask {s}: count {got} != {want}",
        )
    return chk.report()
