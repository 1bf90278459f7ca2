"""Evaluation at assignments and exact model counting.

A 0/1-valued map on the whole function space respects sums and products
only if it is evaluation at one fixed assignment.
``enumerate_allowed_maps`` recovers that fact by an exhaustive scan at
small sizes: it tests every candidate map and keeps those that route
sums through ``ADD_TABLE`` and products through ``MUL_TABLE``.  The scan
is bit-sliced: the candidate maps are the bits of one packed vector, so
each test is a few big-int passes over all of them at once.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from operator import and_, xor

from .ring import (
    BoolFunc, check_var_count, _Frozen, _check_cap, _check_index, _check_var, _chunk_tables,
    _ones, _set_bits, _var_tt,
)

__all__ = [
    "ADD_TABLE",
    "MUL_TABLE",
    "Assignment",
    "AllowedMapTable",
    "eval_at",
    "count_models",
    "satisfying_assignments",
    "enumerate_allowed_maps",
]

# image of a sum / product, indexed by the images of the two operands
ADD_TABLE = ((0, 1), (1, 0))
MUL_TABLE = ((0, 0), (0, 1))


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
        return f"j={j}: {t0[j & 255]}{t1[j >> 8 & 255]}{t2[j >> 16]}"


class _WordTables(dict):
    """Chunk tables of the words ``a<r>=<value>`` of each n, built on first use.

    Every word but the last is followed by a space, so a rendered text
    needs no cut.  A plain dict lookup keeps the per-item cost of
    ``str(Assignment)`` down to one subscript.
    """

    def __missing__(self, n: int) -> list[tuple[str, ...]]:
        def word(r: int, value: int) -> str:
            return f"a{r}={value}" if r == n else f"a{r}={value} "

        tables = self[n] = _chunk_tables(n, lambda r: word(r, 0), lambda r: word(r, 1))
        return tables


_ASSIGNMENT_WORDS = _WordTables()


def _index_of(n: int, j: Assignment | int) -> int:
    if isinstance(j, Assignment):
        if j.n != n:
            raise ValueError(f"assignment is over {j.n} variables, function over {n}")
        return j.index
    _check_index(n, j)
    return j


def eval_at(a: BoolFunc, j: Assignment | int) -> int:
    """Value of ``a`` under assignment ``j``: bit j of the truth vector."""
    return (a.tt >> _index_of(a.n, j)) & 1


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


class AllowedMapTable(_Frozen):
    """The compositional 0/1 maps found by exhaustion.

    ``maps[k][t]`` is the image of the function with packed vector ``t``
    under the k-th surviving map; the maps are ordered so that map k
    sends exactly the k-th minterm to 1.
    """

    __slots__ = ("n", "maps")

    def __init__(self, n: int, maps: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "maps", maps)


def enumerate_allowed_maps(n: int) -> AllowedMapTable:
    """Scan all 2**2**2**n maps into {0, 1} and keep the compositional ones.

    A survivor must send 0 to 0 and 1 to 1 (the normalization that rules
    out the everywhere-zero map) and must route every sum through
    ``ADD_TABLE`` and every product through ``MUL_TABLE``.

    The scan is exhaustive and bit-sliced: a set of candidates is itself
    a packed vector with one bit per candidate.  Candidate c sends the
    function with vector t to bit t of c, so the candidates that send t
    to 1 form the variable vector ``_var_tt(size, t + 1)``.  Each pair
    of functions then costs a few big-int passes that test every
    candidate at once.  The scan is a verification oracle, not a
    production path, which is why it is capped at n <= 2.
    """
    _check_cap(n, 2, "exhaustive map search")
    size = 1 << (1 << n)  # number of functions over n variables
    every = _ones(size)  # one bit per candidate map
    # sends[t][v]: the candidates that send the function with vector t to v
    sends = [(every ^ x, x) for x in (_var_tt(size, t + 1) for t in range(size))]
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
