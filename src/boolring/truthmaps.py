"""Truth assignments, evaluation at an assignment and exact model counting."""

from __future__ import annotations

from collections import deque
from itertools import repeat

from . import _EXPORTS
from .ring import (
    BoolFunc, check_var_count, _ChunkTables, _Frozen, _check_index, _check_var, _index_arg,
    _set_bits, _var_name,
)

__all__ = list(_EXPORTS["truthmaps"])


class Assignment(_Frozen):
    """One of the 2**n truth assignments, identified by its index.

    Bit (r - 1) of the index is the value given to variable r.
    """

    __slots__ = ("n", "index")

    def __init__(self, n: int, index: int) -> None:
        check_var_count(n)
        _check_index(n, index)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", index)

    def value(self, r: int) -> int:
        """Truth value given to variable r."""
        _check_var(self.n, r)
        return (self.index >> (r - 1)) & 1

    def values(self) -> tuple[int, ...]:
        return tuple(self.value(r) for r in range(1, self.n + 1))

    def __str__(self) -> str:
        """E.g. ``j=2: a1=0 a2=1``; three table lookups, nothing per variable."""
        j = self.index
        t0, t1, t2 = _ASSIGNMENT_WORDS[self.n]
        return f"j={j}:{t0[j & 255]}{t1[j >> 8 & 255]}{t2[j >> 16]}"


# the words ``a<r>=<value>``, each after its space, as in ``blocks._terms_layout``
_ASSIGNMENT_WORDS = _ChunkTables(lambda r: f" {_var_name(r)}=0", lambda r: f" {_var_name(r)}=1")


def eval_at(a: BoolFunc, j: Assignment | int) -> int:
    """Value of ``a`` under assignment ``j``: bit j of the truth vector."""
    return (a.tt >> _index_arg(a.n, j, Assignment, "assignment index")) & 1


def count_models(a: BoolFunc) -> int:
    """Number of satisfying assignments (population count of the vector)."""
    return a.tt.bit_count()


def satisfying_assignments(a: BoolFunc) -> list[Assignment]:
    """All satisfying assignments in ascending index order.

    The list is built in bulk, with no Python frame per item: bare
    instances first, then each slot filled through its descriptor.
    """
    js = _set_bits(a.tt)
    out = list(map(object.__new__, repeat(Assignment, len(js))))
    deque(map(Assignment.n.__set__, out, repeat(a.n)), maxlen=0)
    deque(map(Assignment.index.__set__, out, js), maxlen=0)
    return out
