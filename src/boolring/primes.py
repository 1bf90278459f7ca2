"""Full-width factors of a truth vector.

Every function is the AND of maxterms, full-width OR-clauses, one per
assignment where the function is false; dually it is the XOR of
minterms, the indicator functions of its satisfying assignments.  The
maxterm index set identifies a function uniquely, and the maxterms are
exactly the elements p with the prime property: p*a = 0 forces a = 0 or
a = ~p.  Rebuilding each variable from minterms (TV) is in ``theorems``.
One helper renders a maxterm or minterm, or the full forms, as text,
through the block renderer of ``blocks``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .ring import (
    BoolFunc, check_var_count, _Frozen, _check_index, _ones, _pack_bits, _set_bits,
)

__all__ = [
    "PrimeSet",
    "LiteralProduct",
    "prime",
    "literal_form",
    "decompose",
    "compose",
    "orthogonal",
    "clause_text",
    "minterm_text",
    "prime_cnf_text",
    "minterm_dnf_text",
]


class PrimeSet(_Frozen):
    """Maxterm indices of a function: the assignments where it is false.

    ``PrimeSet(n, indices)`` takes the indices as ints in 0..2**n - 1.
    The value is stored as one 2**n-bit integer, ``mask``, with bit j set
    for each maxterm index j: the complement of the function's truth
    vector.  ``indices`` and ``complement()`` are views rebuilt from it.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, indices: Iterable[int]) -> None:
        check_var_count(n)
        js = list(indices)
        for j in js:
            _check_index(n, j)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", _pack_bits(n, js))

    @property
    def indices(self) -> frozenset[int]:
        """The maxterm indices."""
        return frozenset(_set_bits(self.mask))

    def complement(self) -> frozenset[int]:
        """The satisfying assignment indices."""
        return frozenset(_set_bits(self.mask ^ _ones(self.n)))


def prime(n: int, j: int) -> BoolFunc:
    """Maxterm j: the function that is false at assignment j, true elsewhere."""
    check_var_count(n)
    _check_index(n, j)
    return BoolFunc(n, _ones(n) ^ (1 << j))


class LiteralProduct(_Frozen):
    """AND over all n variables, each one plain (True) or negated (False)."""

    __slots__ = ("n", "polarities")

    def __init__(self, n: int, polarities: Iterable[bool]) -> None:
        check_var_count(n)
        polarities = tuple(polarities)
        if len(polarities) != n:
            raise ValueError("exactly one polarity per variable is required")
        for positive in polarities:
            if not isinstance(positive, bool):
                raise TypeError(f"polarity must be a bool, got {type(positive).__name__}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "polarities", polarities)

    def index(self) -> int:
        """The unique assignment satisfying the product."""
        j = 0
        for r, positive in enumerate(self.polarities, 1):
            if positive:
                j |= 1 << (r - 1)
        return j

    def to_func(self) -> BoolFunc:
        """The product of the literals: true at ``index()`` only, one set bit."""
        return BoolFunc(self.n, 1 << self.index())

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
    _check_index(n, j)
    return LiteralProduct(n, tuple(bool((j >> (r - 1)) & 1) for r in range(1, n + 1)))


def decompose(a: BoolFunc) -> PrimeSet:
    """Maxterm indices of ``a``: one factor per assignment where it is false.

    Their mask is the complement of the truth vector, one XOR.
    """
    return PrimeSet._of(a.n, a.tt ^ _ones(a.n))


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
    else:
        indices = PrimeSet(n, indices)
    return BoolFunc(n, _ones(n) ^ indices.mask)


def orthogonal(n: int, j: int, k: int) -> BoolFunc:
    """Product of minterms j and k: the minterm itself when j == k, else zero."""
    return ~prime(n, j) & ~prime(n, k)


# a style: the words for a clear and a set bit, the separator inside a term,
# the joiner between terms and the text of the empty form
_CLAUSE = ("{}", "¬{}", " ∨ ", ") ∧ (", "1")
_MINTERM = ("¬{}", "{}", " ∧ ", ") ∨ (", "0")


def _terms_text(
    n: int, selected: int | tuple[int], style: tuple[str, ...], names: Sequence[str] | None
) -> str:
    """One term per selected assignment index in ``style``, each in parentheses.

    ``selected`` is the packed set of indices, or one index in a tuple.
    A term has one word per variable; ``names`` defaults to a1..an.
    """
    from .blocks import _render_blocks, _selectors, _terms_layout

    clear, set_, sep, joiner, empty = style
    if names is not None:
        names = tuple(names)
        if len(names) != n:
            raise ValueError(f"{len(names)} names given for {n} variables")
    if isinstance(selected, tuple):  # one index: its block, built directly
        (j,) = selected
        blocks, sel = [j >> 8], bytes(j & 255) + b"\1" + bytes(255 - (j & 255))
    else:
        blocks, sel = _selectors(selected)
    if not blocks:
        return empty
    layout = _terms_layout(n, clear, set_, sep, names)
    return _render_blocks(blocks, sel, layout, joiner, 1, "(", ")")


def clause_text(n: int, j: int, names: Sequence[str] | None = None) -> str:
    """Maxterm j as a full OR-clause, e.g. ``(a1 ∨ ¬a2)``."""
    check_var_count(n)
    _check_index(n, j)
    return _terms_text(n, (j,), _CLAUSE, names)


def minterm_text(n: int, j: int, names: Sequence[str] | None = None) -> str:
    """Minterm j as a full AND-term, e.g. ``(¬a1 ∧ a2)``."""
    check_var_count(n)
    _check_index(n, j)
    return _terms_text(n, (j,), _MINTERM, names)


def prime_cnf_text(ps: PrimeSet, names: Sequence[str] | None = None) -> str:
    """Full conjunctive form, one clause per maxterm index; ``1`` when empty."""
    return _terms_text(ps.n, ps.mask, _CLAUSE, names)


def minterm_dnf_text(ps: PrimeSet, names: Sequence[str] | None = None) -> str:
    """Full disjunctive form over the satisfying indices; ``0`` when none."""
    return _terms_text(ps.n, ps.mask ^ _ones(ps.n), _MINTERM, names)
