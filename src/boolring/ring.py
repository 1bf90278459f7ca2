"""Boolean ring arithmetic on packed truth vectors.

A function of n variables is stored as the integer whose bit j holds the
function's value under assignment j; assignment j gives variable r the
value of bit (r - 1) of j.  Variable r therefore shows the block pattern
...1010 (r = 1), ...1100 (r = 2), ...11110000 (r = 3) when the vector is
printed most significant bit first.

Addition is XOR and multiplication is AND.  Under these two operations
every function has a unique representation as an XOR-sum of
AND-monomials; ``to_anf`` and ``from_anf`` convert between the packed
vector and that polynomial, itself packed as the 2**n-bit mask of its
monomials.  Values are immutable and compare equal
exactly when both the variable count and the truth vector agree.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from operator import attrgetter
from typing import Callable, Iterable, TypeVar

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

_T = TypeVar("_T")
_F = TypeVar("_F", bound="_Frozen")


class SizeLimitError(ValueError):
    """An operation would exceed a configured size cap."""


def get_max_vars() -> int:
    return _max_vars


def set_max_vars(limit: int) -> None:
    """Change the process-wide variable cap (truth vectors hold 2**n bits)."""
    global _max_vars
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise TypeError(f"variable cap must be an int, got {type(limit).__name__}")
    if limit < 1:
        raise ValueError(f"variable cap must be at least 1, got {limit}")
    _max_vars = limit


# The argument rules of the whole package: a bool or a non-int raises
# TypeError, an int out of range ValueError, a count above a cap SizeLimitError.


def check_var_count(n: int) -> None:
    """Reject variable counts outside 1..max_vars."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"variable count must be an int, got {type(n).__name__}")
    if not 1 <= n <= _max_vars:
        raise SizeLimitError(f"variable count {n} outside 1..{_max_vars}")


def _check_index(n: int, j: int, what: str = "assignment index") -> None:
    """Reject anything but an int in 0..2**n - 1; ``what`` labels the messages."""
    if isinstance(j, bool) or not isinstance(j, int):
        raise TypeError(f"{what} must be an int, got {type(j).__name__}")
    if not 0 <= j < (1 << n):
        raise ValueError(f"{what} {j} outside 0..{(1 << n) - 1}")


def _check_var(n: int, r: int) -> None:
    """Reject anything but an int variable index in 1..n."""
    if isinstance(r, bool) or not isinstance(r, int):
        raise TypeError(f"variable index must be an int, got {type(r).__name__}")
    if not 1 <= r <= n:
        raise ValueError(f"variable index {r} outside 1..{n}")


def _check_cap(n: int, cap: int, what: str) -> None:
    """Reject variable counts above a check's own cap ``cap``."""
    check_var_count(n)
    if n > cap:
        raise SizeLimitError(f"{what} is capped at n <= {cap}")


def _decimal(text: str) -> int:
    """``text`` as an int if it is an optional '-' and ASCII digits 0-9 only;
    ``int`` alone also takes other scripts' digits, '_', '+' and spaces."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _ones(n: int) -> int:
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=1)
def _var_tts(n: int) -> tuple[int, ...]:
    """The vectors of variables 1..n over 2**n bits, variable r at index r - 1.

    Variable r is variable r + 1 XOR itself shifted down by 2**(r - 1),
    with all ones as variable n + 1.  Only the last n's table is kept.
    """
    x, tts = _ones(n), []
    for r in range(n, 0, -1):
        x ^= x >> (1 << (r - 1))
        tts.append(x)
    return tuple(reversed(tts))


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and stores them in its
    own ``__init__`` through ``object.__setattr__``.  The base takes
    ``__match_args__`` from the slots and supplies equality with
    instances of the same class, the hash of the field tuple, the repr
    ``Name(field=value, ...)``, copy and pickle support and ``_of``, which
    builds an instance from fields without checking them; any later
    write or delete raises ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__ + cls.__dict__.get("__slots__", ())
        cls.__match_args__ = fields
        get = attrgetter(*fields)
        # the field tuple; attrgetter returns a bare value for one field
        cls._astuple = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        # imported on the error path only: dataclasses pulls in inspect,
        # which would dominate the package's import time
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._astuple(self)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls: type[_F], *values: object) -> _F:
        """The instance with the given field values, taken as already valid."""
        obj = object.__new__(cls)
        obj.__setstate__(values)
        return obj


class BoolFunc(_Frozen):
    """A Boolean function of ``n`` variables, packed as a 2**n-bit integer."""

    __slots__ = ("n", "tt")

    def __init__(self, n: int, tt: int) -> None:
        check_var_count(n)
        if isinstance(tt, bool) or not isinstance(tt, int):
            raise TypeError(f"truth vector must be an int, got {type(tt).__name__}")
        if tt < 0 or tt.bit_length() > 1 << n:
            raise ValueError(f"truth vector must fit in {1 << n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tt", tt)

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
        """Disjunction: pointwise OR, which equals the ring form a + b + a*b."""
        if not isinstance(other, BoolFunc):
            return NotImplemented
        _require_same_n(self, other)
        return BoolFunc(self.n, self.tt | other.tt)

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


def _require_same_n(a: BoolFunc | Anf, b: BoolFunc | Anf) -> None:
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
    _check_var(n, r)
    return BoolFunc(n, _var_tts(n)[r - 1])


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


class Anf(_Frozen):
    """XOR-of-monomials form of a function of ``n`` variables.

    ``Anf(n, monomials)`` takes each monomial as a set of variable
    indices; the empty monomial stands for the constant 1, and an empty
    monomial set is the zero function.  The value is stored as one
    2**n-bit integer, ``mask``, whose bit m is set when the monomial with
    variable set m (bit r - 1 for variable r) is present; ``monomials``
    is a view rebuilt from it.  Values compare equal exactly when ``n``
    and ``mask`` agree.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, monomials: Iterable[Iterable[int]]) -> None:
        check_var_count(n)
        masks = []
        for mono in monomials:
            m = 0
            for r in mono:
                _check_var(n, r)
                m |= 1 << (r - 1)
            masks.append(m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", _pack_bits(n, masks))

    @property
    def monomials(self) -> frozenset[frozenset[int]]:
        """The monomials as sets of variable indices."""
        t0, t1, t2 = _var_tuples(self.n)
        return frozenset(
            [frozenset(t0[m & 255] + t1[m >> 8 & 255] + t2[m >> 16]) for m in _set_bits(self.mask)]
        )

    def __xor__(self, other: Anf) -> Anf:
        """Sum of polynomials: duplicate monomials cancel in pairs."""
        if not isinstance(other, Anf):
            return NotImplemented
        _require_same_n(self, other)
        return Anf._of(self.n, self.mask ^ other.mask)

    def __and__(self, other: Anf) -> Anf:
        """Product of polynomials: the polynomial of the pointwise product."""
        if not isinstance(other, Anf):
            return NotImplemented
        _require_same_n(self, other)
        return to_anf(from_anf(self) & from_anf(other))

    def __str__(self) -> str:
        """Monomials by degree, equal degrees in lexicographic order of
        their sorted variable lists, e.g. ``1 ⊕ a2 ⊕ a1·a3 ⊕ a2·a3``."""
        if not self.mask:
            return "0"
        from .blocks import _anf_layout, _mirror, _render_blocks, _selectors  # text only

        blocks, sel = _selectors(_mirror(self.n, self.mask))
        return _render_blocks(blocks, sel, _anf_layout(self.n), " ⊕ ", self.n + 1)


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of ``x`` in ascending order.

    When the nonzero 64-bit words are at most half of all words, only
    their bits are walked, so a sparse vector costs a pass over its words
    plus 64 steps per nonzero word; otherwise every bit is walked.  Either
    walk turns the binary text, reversed so that character i is bit i,
    into 0/1 selectors for ``itertools.compress``, and nothing shifts or
    copies the integer once per bit.
    """
    buf, nonzero = _nonzero_words(x)
    words = len(buf) >> 3
    if 2 * len(nonzero) > words:
        return list(compress(range(words << 6), _bit_selectors(x, words << 6)))
    packed = b"".join([buf[i << 3 : (i + 1) << 3] for i in nonzero])
    starts = [i << 6 for i in nonzero]
    slots = chain.from_iterable(map(range, starts, map((64).__add__, starts)))
    return list(compress(slots, _bit_selectors(int.from_bytes(packed, "little"), len(packed) << 3)))


def _nonzero_words(x: int, align: int = 1) -> tuple[bytes, list[int]]:
    """``x`` as little-endian 64-bit words, as many as it needs rounded up
    to a multiple of ``align``, and the indices of the nonzero ones, found
    at C speed."""
    words = -(-x.bit_length() // (align << 6)) * align
    buf = x.to_bytes(words << 3, "little")
    return buf, list(compress(range(words), memoryview(buf).cast("Q")))


def _bit_selectors(x: int, width: int) -> bytes:
    """Bits 0..width - 1 of ``x`` as 0/1 bytes, bit i at offset i."""
    return format(x, f"0{width}b")[::-1].encode().translate(_BIT_SELECTORS)


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
    for k, hi in enumerate(_var_tts(n)):
        x ^= (x << (1 << k)) & hi  # bit m with bit k set takes in bit m - 2**k
    return x


def _chunk_tables(
    n: int, clear: Callable[[int], _T], set_: Callable[[int], _T]
) -> list[tuple[_T, ...]]:
    """Per-byte tables for variables 1-8, 9-16 and 17-n.

    Entry b of a chunk's table sums, in variable order, ``set_(r)`` over
    the chunk's variables r whose bit is set in b and ``clear(r)`` over
    the others; the values are strings, tuples or ints.  A function of
    x < 2**n that is such a sum is then three lookups:
    ``t0[x & 255] + t1[x >> 8 & 255] + t2[x >> 16]``.  Bit r - 1 of x
    need not stand for variable r: ``blocks._anf_layout`` reads it as
    variable n + 1 - r.
    """
    tables = []
    for lo, hi in ((1, 9), (9, 17), (17, n + 1)):
        table = [type(set_(1))()]  # the empty sum: "", () or 0
        for r in range(lo, min(hi, n + 1)):
            off, on = clear(r), set_(r)
            table = [t + off for t in table] + [t + on for t in table]
        tables.append(tuple(table))
    return tables


@lru_cache(maxsize=None)
def _var_tuples(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Chunk tables of the variable indices set in each bit pattern."""
    return _chunk_tables(n, lambda r: (), lambda r: (r,))


def to_anf(a: BoolFunc) -> Anf:
    """The polynomial of ``a``: the Möbius transform of its truth vector."""
    return Anf._of(a.n, _mobius(a.n, a.tt))


def from_anf(p: Anf) -> BoolFunc:
    """The truth vector of ``p``: the Möbius transform of its monomial mask."""
    return BoolFunc(p.n, _mobius(p.n, p.mask))
