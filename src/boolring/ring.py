"""Boolean ring arithmetic on packed truth vectors.

A function of n variables is stored as the integer whose bit j holds the
function's value under assignment j; assignment j gives variable r the
value of bit (r - 1) of j.  Variable r therefore shows the block pattern
...1010 (r = 1), ...1100 (r = 2), ...11110000 (r = 3) when the vector is
printed most significant bit first.

Addition is XOR and multiplication is AND.  Under these two operations
every function has a unique representation as an XOR-sum of
AND-monomials; ``to_anf`` and ``from_anf`` convert between the packed
vector and that polynomial.  Values are immutable and compare equal
exactly when both the variable count and the truth vector agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable

__all__ = [
    "DEFAULT_MAX_VARS",
    "SizeLimitError",
    "BoolFunc",
    "Anf",
    "get_max_vars",
    "set_max_vars",
    "zero",
    "one",
    "var",
    "add",
    "mul",
    "neg",
    "or_",
    "to_anf",
    "from_anf",
]

DEFAULT_MAX_VARS = 24

_max_vars = DEFAULT_MAX_VARS

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


class SizeLimitError(ValueError):
    """An operation would exceed a configured size cap."""


def get_max_vars() -> int:
    return _max_vars


def set_max_vars(limit: int) -> None:
    """Change the process-wide variable cap (truth vectors hold 2**n bits)."""
    global _max_vars
    if limit < 1:
        raise ValueError(f"variable cap must be at least 1, got {limit}")
    _max_vars = limit


def check_var_count(n: int) -> None:
    """Reject variable counts outside 1..max_vars."""
    if not isinstance(n, int):
        raise TypeError(f"variable count must be an int, got {type(n).__name__}")
    if not 1 <= n <= _max_vars:
        raise SizeLimitError(f"variable count {n} outside 1..{_max_vars}")


@lru_cache(maxsize=None)
def _ones(n: int) -> int:
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def _var_tt(n: int, r: int) -> int:
    # one period is 2**(r-1) zeros below 2**(r-1) ones; double up to full width
    block = 1 << (r - 1)
    x = ((1 << block) - 1) << block
    width = block << 1
    size = 1 << n
    while width < size:
        x |= x << width
        width <<= 1
    return x


@dataclass(frozen=True, slots=True)
class BoolFunc:
    """A Boolean function of ``n`` variables, packed as a 2**n-bit integer."""

    n: int
    tt: int

    def __post_init__(self) -> None:
        check_var_count(self.n)
        if not isinstance(self.tt, int) or not 0 <= self.tt <= _ones(self.n):
            raise ValueError(f"truth vector must fit in {1 << self.n} bits")

    def __xor__(self, other: BoolFunc) -> BoolFunc:
        """Ring sum: pointwise XOR."""
        if not isinstance(other, BoolFunc):
            return NotImplemented
        _require_same_n(self, other)
        return BoolFunc(self.n, self.tt ^ other.tt)

    def __and__(self, other: BoolFunc) -> BoolFunc:
        """Ring product: pointwise AND."""
        if not isinstance(other, BoolFunc):
            return NotImplemented
        _require_same_n(self, other)
        return BoolFunc(self.n, self.tt & other.tt)

    def __or__(self, other: BoolFunc) -> BoolFunc:
        """Disjunction through the ring: a + b + a*b."""
        if not isinstance(other, BoolFunc):
            return NotImplemented
        _require_same_n(self, other)
        return BoolFunc(self.n, self.tt ^ other.tt ^ (self.tt & other.tt))

    def __invert__(self) -> BoolFunc:
        """Complement: a + 1."""
        return BoolFunc(self.n, self.tt ^ _ones(self.n))

    def to_bits(self) -> str:
        """Big-endian bit string, assignment 2**n - 1 leftmost."""
        return format(self.tt, f"0{1 << self.n}b")

    def to_hex(self) -> str:
        return format(self.tt, f"0{((1 << self.n) + 3) // 4}x")

    @classmethod
    def from_bits(cls, bits: str) -> BoolFunc:
        """Inverse of ``to_bits``; the length fixes the variable count."""
        size = len(bits)
        n = size.bit_length() - 1
        if size < 2 or (1 << n) != size:
            raise ValueError("bit string length must be a power of two, at least 2")
        if set(bits) - {"0", "1"}:
            raise ValueError("bit string may contain only 0 and 1")
        return cls(n, int(bits, 2))

    @classmethod
    def from_hex(cls, n: int, digits: str) -> BoolFunc:
        """Inverse of ``to_hex``; ``digits`` may hold hex digits only."""
        check_var_count(n)
        if set(digits) - _HEX_DIGITS:
            raise ValueError("hex string may contain only hex digits")
        return cls(n, int(digits, 16))

    def __str__(self) -> str:
        return self.to_bits()

    def __repr__(self) -> str:
        return f"BoolFunc(n={self.n}, tt=0x{self.to_hex()})"


def _require_same_n(a: BoolFunc, b: BoolFunc) -> None:
    if a.n != b.n:
        raise ValueError(f"mixed variable counts: {a.n} and {b.n}")


def zero(n: int) -> BoolFunc:
    """The always-false function, neutral element of addition."""
    check_var_count(n)
    return BoolFunc(n, 0)


def one(n: int) -> BoolFunc:
    """The always-true function, neutral element of multiplication."""
    check_var_count(n)
    return BoolFunc(n, _ones(n))


def var(n: int, r: int) -> BoolFunc:
    """The function of variable r alone: bit j of the vector is bit r-1 of j."""
    check_var_count(n)
    if not 1 <= r <= n:
        raise ValueError(f"variable index {r} outside 1..{n}")
    return BoolFunc(n, _var_tt(n, r))


def add(a: BoolFunc, b: BoolFunc) -> BoolFunc:
    """Sum of two functions; every element is its own additive inverse."""
    return a ^ b


def mul(a: BoolFunc, b: BoolFunc) -> BoolFunc:
    """Product of two functions; multiplication is idempotent."""
    return a & b


def neg(a: BoolFunc) -> BoolFunc:
    """Complement a + 1."""
    return ~a


def or_(a: BoolFunc, b: BoolFunc) -> BoolFunc:
    """Disjunction a + b + a*b; coincides with bitwise OR of the vectors."""
    return a | b


@dataclass(frozen=True, slots=True)
class Anf:
    """XOR-of-monomials form: each monomial is a set of variable indices.

    The empty monomial stands for the constant 1, and an empty monomial
    set is the zero function.
    """

    n: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        check_var_count(self.n)
        canon = frozenset(frozenset(m) for m in self.monomials)
        object.__setattr__(self, "monomials", canon)
        for mono in canon:
            for r in mono:
                if not 1 <= r <= self.n:
                    raise ValueError(f"variable index {r} outside 1..{self.n}")

    def __xor__(self, other: Anf) -> Anf:
        """Sum of polynomials: duplicate monomials cancel in pairs."""
        if not isinstance(other, Anf):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} and {other.n}")
        return Anf(self.n, self.monomials ^ other.monomials)

    def __and__(self, other: Anf) -> Anf:
        """Product of polynomials: the polynomial of the pointwise product."""
        if not isinstance(other, Anf):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} and {other.n}")
        return to_anf(from_anf(self) & from_anf(other))

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        ordered = sorted(self.monomials, key=lambda m: (len(m), sorted(m)))
        terms = ["·".join(f"a{r}" for r in sorted(m)) or "1" for m in ordered]
        return " ⊕ ".join(terms)


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of ``x`` in ascending order.

    The binary text, reversed so that character i is bit i, becomes a
    byte string of 0/1 selectors for ``itertools.compress``: one linear
    pass, and nothing shifts or copies the integer once per bit.
    """
    selectors = format(x, "b")[::-1].encode().translate(_BIT_SELECTORS)
    return list(compress(range(len(selectors)), selectors))


def _pack_bits(n: int, positions: Iterable[int]) -> int:
    """The 2**n-bit integer with exactly the given bits set; inverse of ``_set_bits``."""
    buf = bytearray(((1 << n) + 7) // 8)
    for j in positions:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


def _mobius(n: int, x: int) -> int:
    """Binary Möbius (subset-parity) transform of a packed vector.

    Bit m of the result is the XOR of bit i of ``x`` over the subsets i of
    m.  The transform is its own inverse, so it maps truth vectors to
    monomial masks and back.
    """
    for k in range(n):
        low = _ones(n) ^ _var_tt(n, k + 1)  # positions with bit k clear
        x ^= (x & low) << (1 << k)
    return x


def to_anf(a: BoolFunc) -> Anf:
    """Monomials of ``a``: the set bits of its Möbius transform."""
    monos = [
        frozenset([r + 1 for r in range(a.n) if (m >> r) & 1])
        for m in _set_bits(_mobius(a.n, a.tt))
    ]
    return Anf(a.n, frozenset(monos))


def from_anf(p: Anf) -> BoolFunc:
    """Evaluate the polynomial: set bit m for each monomial mask m, then transform."""
    masks = (sum(1 << (r - 1) for r in mono) for mono in p.monomials)
    return BoolFunc(p.n, _mobius(p.n, _pack_bits(p.n, masks)))
