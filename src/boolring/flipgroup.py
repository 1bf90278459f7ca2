"""Variable-negation symmetries of packed truth vectors.

Negating a chosen subset of variables permutes the assignments: index j
moves to j XOR s, where bit (r - 1) of the mask s selects variable r.
The transformations form a group isomorphic to the masks under XOR;
they permute minterms and maxterms, so they preserve model counts.
"""

from __future__ import annotations

from . import _EXPORTS
from .ring import BoolFunc, check_var_count, _Frozen, _check_index, _check_var, _index_arg, _var_tts
from .truthmaps import Assignment

__all__ = list(_EXPORTS["flipgroup"])


class FlipMask(_Frozen):
    """Selects the variables to negate: bit (r - 1) set means flip variable r."""

    __slots__ = ("n", "s")

    def __init__(self, n: int, s: int) -> None:
        check_var_count(n)
        _check_index(n, s, "flip mask")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    def variables(self) -> tuple[int, ...]:
        """Indices of the flipped variables."""
        return tuple(r for r in range(1, self.n + 1) if (self.s >> (r - 1)) & 1)

    @classmethod
    def parse(cls, text: str, n: int) -> FlipMask:
        """Read a mask from a decimal string or a variable list like ``a1,a3``.

        Digits are ASCII only: ``str.isdigit`` alone would also take other
        scripts' digits and superscripts.
        """
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty flip mask")
        if stripped.isascii() and stripped.isdigit():
            return cls(n, int(stripped))
        s = 0
        for item in stripped.split(","):
            item = item.strip()
            if not (item.startswith("a") and item.isascii() and item[1:].isdigit()):
                raise ValueError(f"flip mask entries must look like a3, got {item!r}")
            if item[1] == "0" and item != "a0":  # a01 would name a1
                raise ValueError(f"flip mask entry {item!r} has a leading zero")
            r = int(item[1:])
            _check_var(n, r)
            s |= 1 << (r - 1)
        return cls(n, s)

    def __str__(self) -> str:
        return str(self.s)


def apply_flip(a: BoolFunc, s: FlipMask | int) -> BoolFunc:
    """Negate the selected variables of ``a``.

    Implemented as the truth-vector permutation: bit j of the result is
    bit (j XOR s) of the input, realized one flipped variable at a time
    by swapping the opposite half-blocks of the vector.
    """
    mask = _index_arg(a.n, s, FlipMask, "flip mask")
    x = a.tt
    for k, hi in enumerate(_var_tts(a.n)):
        if (mask >> k) & 1:
            width = 1 << k
            x = ((x << width) & hi) | ((x & hi) >> width)
    return BoolFunc(a.n, x)


def pi(s: FlipMask | int, j: Assignment | int, n: int | None = None) -> Assignment:
    """Image of assignment ``j`` under the flip with mask ``s``.

    The flip negates the variables selected by ``s``, so it toggles those
    bits of the index: the image is ``s XOR j``.  The paper's arithmetic
    form ``s + j - 2 * sum(2**(r-1) * s_r * j_r)`` gives the same value.
    The variable count is ``n`` when given, else that of the ``FlipMask``,
    else that of the ``Assignment``; a ``FlipMask`` or ``Assignment`` over
    another count is refused.
    """
    if n is not None:
        check_var_count(n)  # before the range checks shift by it
    elif isinstance(s, FlipMask):
        n = s.n
    elif isinstance(j, Assignment):
        n = j.n
    else:
        raise ValueError("variable count required when both arguments are plain ints")
    mask = _index_arg(n, s, FlipMask, "flip mask")
    return Assignment._of(n, mask ^ _index_arg(n, j, Assignment, "assignment index"))
