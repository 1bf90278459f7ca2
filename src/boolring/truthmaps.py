"""Evaluation at assignments and exact model counting.

A 0/1-valued map on the whole function space respects sums and products
only if it is evaluation at one fixed assignment.
``enumerate_allowed_maps`` recovers that fact by brute force at small
sizes: it scans every candidate map and keeps those that route sums
through ``ADD_TABLE`` and products through ``MUL_TABLE``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import BoolFunc, SizeLimitError, check_var_count, _set_bits

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


@dataclass(frozen=True, slots=True)
class Assignment:
    """One of the 2**n truth assignments, identified by its index.

    Bit (r - 1) of the index is the value given to variable r.
    """

    n: int
    index: int

    def __post_init__(self) -> None:
        check_var_count(self.n)
        if not 0 <= self.index < (1 << self.n):
            raise ValueError(f"assignment index {self.index} outside 0..{(1 << self.n) - 1}")

    def value(self, r: int) -> int:
        """Truth value given to variable r."""
        if not 1 <= r <= self.n:
            raise ValueError(f"variable index {r} outside 1..{self.n}")
        return (self.index >> (r - 1)) & 1

    def values(self) -> tuple[int, ...]:
        return tuple(self.value(r) for r in range(1, self.n + 1))

    def __str__(self) -> str:
        vals = " ".join(f"a{r}={self.value(r)}" for r in range(1, self.n + 1))
        return f"j={self.index}: {vals}"


def _index_of(n: int, j: Assignment | int) -> int:
    if isinstance(j, Assignment):
        if j.n != n:
            raise ValueError(f"assignment is over {j.n} variables, function over {n}")
        return j.index
    if not 0 <= j < (1 << n):
        raise ValueError(f"assignment index {j} outside 0..{(1 << n) - 1}")
    return j


def eval_at(a: BoolFunc, j: Assignment | int) -> int:
    """Value of ``a`` under assignment ``j``: bit j of the truth vector."""
    return (a.tt >> _index_of(a.n, j)) & 1


def count_models(a: BoolFunc) -> int:
    """Number of satisfying assignments (population count of the vector)."""
    return a.tt.bit_count()


def satisfying_assignments(a: BoolFunc) -> list[Assignment]:
    """All satisfying assignments in ascending index order."""
    return [Assignment(a.n, j) for j in _set_bits(a.tt)]


@dataclass(frozen=True)
class AllowedMapTable:
    """The compositional 0/1 maps found by exhaustion.

    ``maps[k][t]`` is the image of the function with packed vector ``t``
    under the k-th surviving map; the maps are ordered so that map k
    sends exactly the k-th minterm to 1.
    """

    n: int
    maps: tuple[tuple[int, ...], ...]


def enumerate_allowed_maps(n: int) -> AllowedMapTable:
    """Scan all 2**2**2**n maps into {0, 1} and keep the compositional ones.

    A survivor must send 0 to 0 and 1 to 1 (the normalization that rules
    out the everywhere-zero map) and must route every sum through
    ``ADD_TABLE`` and every product through ``MUL_TABLE``.

    Deliberately brute force: the scan is a verification oracle, not a
    production path, which is why it is capped at n <= 2.
    """
    check_var_count(n)
    if n > 2:
        raise SizeLimitError("exhaustive map search is capped at n <= 2")
    size = 1 << (1 << n)  # number of functions over n variables
    # the adopted normalization pins the constants: 0 maps to 0, 1 maps to 1
    # (without it the everywhere-zero map would also survive the scan)
    kept = [
        cand
        for cand in range(1 << size)
        if not cand & 1
        and (cand >> (size - 1)) & 1
        and _compositional(cand, size)
    ]
    # order the survivors by the single minterm each one sends to 1
    by_index: dict[int, int] = {}
    for cand in kept:
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


def _compositional(cand: int, size: int) -> bool:
    for a in range(size):
        ta = (cand >> a) & 1
        for b in range(a, size):
            tb = (cand >> b) & 1
            if (cand >> (a ^ b)) & 1 != ADD_TABLE[ta][tb]:
                return False
            if (cand >> (a & b)) & 1 != MUL_TABLE[ta][tb]:
                return False
    return True
