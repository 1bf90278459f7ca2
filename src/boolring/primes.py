"""Full-width factors of a truth vector.

Every function is the AND of maxterms, full-width OR-clauses, one per
assignment where the function is false; dually it is the XOR of
minterms, the indicator functions of its satisfying assignments.  The
maxterm index set identifies a function uniquely, and the maxterms are
exactly the elements p with the prime property: p*a = 0 forces a = 0 or
a = ~p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ring import BoolFunc, check_var_count, one, var, _ones, _pack_bits, _set_bits

__all__ = [
    "PrimeSet",
    "LiteralProduct",
    "prime",
    "literal_form",
    "decompose",
    "compose",
    "orthogonal",
    "basis",
    "clause_text",
    "minterm_text",
]


@dataclass(frozen=True, slots=True)
class PrimeSet:
    """Maxterm indices of a function: the assignments where it is false."""

    n: int
    indices: frozenset[int]

    def __post_init__(self) -> None:
        check_var_count(self.n)
        canon = frozenset(self.indices)
        object.__setattr__(self, "indices", canon)
        for j in canon:
            if not 0 <= j < (1 << self.n):
                raise ValueError(f"assignment index {j} outside 0..{(1 << self.n) - 1}")

    def complement(self) -> frozenset[int]:
        """The satisfying assignment indices."""
        return frozenset(range(1 << self.n)) - self.indices


def prime(n: int, j: int) -> BoolFunc:
    """Maxterm j: the function that is false at assignment j, true elsewhere."""
    check_var_count(n)
    if not 0 <= j < (1 << n):
        raise ValueError(f"assignment index {j} outside 0..{(1 << n) - 1}")
    return BoolFunc(n, _ones(n) ^ (1 << j))


@dataclass(frozen=True, slots=True)
class LiteralProduct:
    """AND over all n variables, each one plain (True) or negated (False)."""

    n: int
    polarities: tuple[bool, ...]

    def __post_init__(self) -> None:
        check_var_count(self.n)
        if len(self.polarities) != self.n:
            raise ValueError("exactly one polarity per variable is required")

    def index(self) -> int:
        """The unique assignment satisfying the product."""
        j = 0
        for r, positive in enumerate(self.polarities, 1):
            if positive:
                j |= 1 << (r - 1)
        return j

    def to_func(self) -> BoolFunc:
        """Multiply the literals out to a truth vector."""
        acc = one(self.n)
        for r, positive in enumerate(self.polarities, 1):
            v = var(self.n, r)
            acc = acc & (v if positive else ~v)
        return acc

    def __str__(self) -> str:
        return "·".join(
            f"a{r}" if positive else f"~a{r}"
            for r, positive in enumerate(self.polarities, 1)
        )


def literal_form(n: int, j: int) -> LiteralProduct:
    """Minterm j as a product of all n literals.

    Variable r appears plain exactly when bit (r - 1) of j is set, so the
    product is the indicator function of assignment j, which is the
    negated maxterm ~prime(n, j).
    """
    check_var_count(n)
    if not 0 <= j < (1 << n):
        raise ValueError(f"assignment index {j} outside 0..{(1 << n) - 1}")
    return LiteralProduct(n, tuple(bool((j >> (r - 1)) & 1) for r in range(1, n + 1)))


def decompose(a: BoolFunc) -> PrimeSet:
    """Maxterm indices of ``a``: one factor per assignment where it is false."""
    return PrimeSet(a.n, frozenset(_set_bits(a.tt ^ _ones(a.n))))


def compose(n: int, indices: PrimeSet | Iterable[int]) -> BoolFunc:
    """Rebuild a function from its maxterm indices.

    The product of the listed maxterms is false exactly at those
    assignments, so its truth vector is the all-ones vector with the
    listed bits cleared.  The empty index set gives the constant 1; the
    full set gives 0.
    """
    if isinstance(indices, PrimeSet):
        if indices.n != n:
            raise ValueError(f"index set is for {indices.n} variables, not {n}")
        index_set = indices.indices
    else:
        index_set = PrimeSet(n, frozenset(indices)).indices
    return BoolFunc(n, _ones(n) ^ _pack_bits(n, index_set))


def orthogonal(n: int, j: int, k: int) -> BoolFunc:
    """Product of minterms j and k: the minterm itself when j == k, else zero."""
    return ~prime(n, j) & ~prime(n, k)


def basis(n: int, r: int) -> BoolFunc:
    """Variable r rebuilt as the XOR of the minterms satisfying it.

    The minterms are disjoint, so their sum sets exactly the bits of the
    assignments with bit (r - 1) set.  This route goes through assignment
    indices, not the block pattern of ``var``; the verification suite
    compares the two.
    """
    check_var_count(n)
    if not 1 <= r <= n:
        raise ValueError(f"variable index {r} outside 1..{n}")
    return BoolFunc(n, _pack_bits(n, (i for i in range(1 << n) if (i >> (r - 1)) & 1)))


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(f"a{r}" for r in range(1, n + 1))


def clause_text(n: int, j: int, names: Sequence[str] | None = None) -> str:
    """Maxterm j as a full OR-clause, e.g. ``(a1 ∨ ¬a2)``."""
    if not 0 <= j < (1 << n):
        raise ValueError(f"assignment index {j} outside 0..{(1 << n) - 1}")
    names = names or _default_names(n)
    lits = []
    for r in range(1, n + 1):
        name = names[r - 1]
        lits.append(f"¬{name}" if (j >> (r - 1)) & 1 else name)
    return "(" + " ∨ ".join(lits) + ")"


def minterm_text(n: int, j: int, names: Sequence[str] | None = None) -> str:
    """Minterm j as a full AND-term, e.g. ``(¬a1 ∧ a2)``."""
    if not 0 <= j < (1 << n):
        raise ValueError(f"assignment index {j} outside 0..{(1 << n) - 1}")
    names = names or _default_names(n)
    lits = []
    for r in range(1, n + 1):
        name = names[r - 1]
        lits.append(name if (j >> (r - 1)) & 1 else f"¬{name}")
    return "(" + " ∧ ".join(lits) + ")"
