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

``verify_resolution`` replays a classical cut-rule derivation entirely
inside the ring.  Each check returns a deterministic ``Report`` and uses
only public operations of the package, so the suite doubles as an
integration test.
"""

from __future__ import annotations

import random
import time

from .primes import basis, compose, decompose, prime
from .report import Checker, Report
from .ring import BoolFunc, one, var, zero, _check_cap
from .truthmaps import count_models, enumerate_allowed_maps, eval_at

__all__ = [
    "verify_ti",
    "verify_tii_tiii",
    "verify_tiv",
    "verify_tv",
    "verify_resolution",
    "THEOREM_CAPS",
]

# largest n each check is willing to enumerate
THEOREM_CAPS = {"TI": 3, "TII+TIII": 3, "TIV": 2, "TV": 6}


def verify_ti(n: int, rng: random.Random | None = None) -> Report:
    """Cardinality and annihilator-splitting checks.

    For each chosen nontrivial s, the annihilators of s and of ~s must
    both be XOR-subgroups meeting only in 0, their sizes must multiply
    to the size of the whole space, and every element must split
    uniquely into a pair drawn from the two.  All nontrivial s are
    tried for n <= 2; sixteen seeded-random choices for n = 3.
    """
    _check_cap(n, THEOREM_CAPS["TI"], "TI enumeration")
    started = time.perf_counter()
    chk = Checker()
    size = 1 << (1 << n)
    ones_tt = size - 1
    distinct = {BoolFunc(n, t).tt for t in range(size)}
    chk.ok(len(distinct) == 2 ** (2 ** n), "function space has the wrong cardinality")

    nontrivial = [s for s in range(size) if s not in (0, ones_tt)]
    if n <= 2:
        chosen = nontrivial
    else:
        rng = rng or random.Random(0xA11A)
        chosen = sorted(rng.sample(nontrivial, 16))
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
    return chk.report("TI", n, started)


def verify_tii_tiii(n: int) -> Report:
    """Prime scan and unique-factorization checks.

    Scanning every nontrivial element for the prime property must find
    exactly the 2**n maxterms; composing every index subset and
    decomposing every function must be mutually inverse bijections.
    """
    _check_cap(n, THEOREM_CAPS["TII+TIII"], "prime scan")
    started = time.perf_counter()
    chk = Checker()
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
    return chk.report("TII+TIII", n, started)


def verify_tiv(n: int) -> Report:
    """The exhaustive map search finds exactly the per-assignment evaluations."""
    _check_cap(n, THEOREM_CAPS["TIV"], "allowed-map search")
    started = time.perf_counter()
    chk = Checker()
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
    return chk.report("TIV", n, started)


def verify_tv(n: int) -> Report:
    """Basis reconstruction checks.

    The minterm sums must give n distinct nontrivial generators whose
    full-width products reproduce every minterm; at n = 3 an alternative
    generating set is checked to produce the same minterms in a
    different order.
    """
    _check_cap(n, THEOREM_CAPS["TV"], "basis check")
    started = time.perf_counter()
    chk = Checker()
    size = 1 << n
    gens = [basis(n, r) for r in range(1, n + 1)]
    chk.ok(len(set(gens)) == n, "basis functions are not distinct")
    chk.ok(all(g not in (zero(n), one(n)) for g in gens), "a basis function is constant")
    chk.ok(all(g == var(n, r) for r, g in enumerate(gens, 1)),
           "basis functions do not match the variable patterns")
    for s in range(size):
        prod = one(n)
        for r in range(1, n + 1):
            g = gens[r - 1]
            prod = prod & (g if (s >> (r - 1)) & 1 else ~g)
        chk.ok(prod == ~prime(n, s),
               lambda s=s: f"polarity product {s} is not minterm {s}")
    if n == 3:
        # swapped/recombined generators cover the same minterms in another order
        alt = [gens[0], gens[2], (gens[0] & ~gens[1]) ^ (~gens[0] & gens[1])]
        got = set()
        for s in range(size):
            prod = one(n)
            for r in range(1, 4):
                g = alt[r - 1]
                prod = prod & (g if (s >> (r - 1)) & 1 else ~g)
            got.add(prod)
        expected = {~prime(n, j) for j in range(size)}
        chk.ok(got == expected, "alternative generators do not cover the minterms")
    return chk.report("TV", n, started)


def verify_resolution() -> Report:
    """Replay the cut rule ((a|b) & (!a|c)) -> (b|c) inside the ring.

    The implication must come out as the constant 1, and each step of
    the hand expansion must hold as a ring identity along the way.
    """
    started = time.perf_counter()
    chk = Checker()
    n = 3
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
    return chk.report("resolution", n, started)
