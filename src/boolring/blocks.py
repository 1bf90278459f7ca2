"""Texts of the set positions of a packed vector, one 256-position block at a time.

A position's text is its block's prefix, the words of the position's low
byte and its block's suffix.  The texts of the positions a block selects
at one rank therefore come from one ``itertools.compress`` over a table
of low-byte words and one ``str.join`` whose separator carries the
block's suffix and prefix, so Python work is per block, not per text.
Only this module cuts a vector into blocks: ``ring._selectors`` with
shift 8, the one scan behind every view of set positions, or for one
position its block directly.  ``str(Anf)`` and the clause, minterm, CNF
and DNF texts of ``primes`` render through this module and import it
inside the call, so a process that prints no such text does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter
from typing import Callable, Sequence

from .ring import _chunk_tables, _ones, _selectors, _var_tts

__all__: list[str] = []

# What a layout's blocks share: the step of each offset, the words of each
# offset, and per step, a function that picks the selectors of that step's
# offsets, ascending, out of a block's 256, with those offsets' words.
_Table = tuple[
    bytes, tuple[str, ...], tuple[tuple[Callable[[bytes], Sequence[int]], tuple[str, ...]], ...]
]
# block b -> (prefix, suffix, rank, table)
_Layout = Callable[[int], tuple[str, str, int, _Table]]


def _mirror(n: int, x: int) -> int:
    """The vector whose bit ~rev(m) is bit m of ``x``, for m < 2**n.

    rev(m) reverses m's n index bits and ~ complements them.  Swapping
    index bits k and n - 1 - k and complementing both exchanges the
    positions where both bits are clear with those where both are set,
    so the whole map is about n / 2 delta swaps.
    """
    tts, ones = _var_tts(n), _ones(n)
    for k in range((n + 1) // 2):
        delta = (1 << k) | (1 << (n - 1 - k))
        # the positions where both index bits are clear
        t = ((x >> delta) ^ x) & (ones ^ (tts[k] | tts[n - 1 - k]))
        x ^= t ^ (t << delta)
    return x


def _render_blocks(
    selected: int | tuple[int], layout: _Layout, joiner: str, ranks: int,
    head: str = "", tail: str = "",
) -> str:
    """The texts of the selected positions, joined by ``joiner`` between
    ``head`` and ``tail``.

    ``selected`` is a nonzero packed vector of positions, or one position
    in a tuple.  ``layout(b)`` gives block b's prefix, suffix, rank and
    table (see ``_Table``).  The texts are ordered by rank (the block's
    rank plus the offset's step, below ``ranks``), then by block, then by
    offset.  The texts of one step of a block are one string, which is
    copied once more, into the result.
    """
    if isinstance(selected, tuple):  # one position: its block, built directly
        (j,) = selected
        blocks, sel = [j >> 8], bytes(j & 255) + b"\1" + bytes(255 - (j & 255))
    else:
        blocks, sel = _selectors(selected, 8)
    by_rank: list[list[str]] = [[] for _ in range(ranks)]
    find = sel.find
    at = find(1)
    while at >= 0:
        start = at & -256
        end = start + 256
        pre, suf, rank, (steps, words, picks) = layout(blocks[at >> 8])
        lead = joiner + pre
        following = find(1, at + 1)
        if not start < following < end:  # the block selects one position
            by_rank[rank + steps[at - start]] += (lead, words[at - start], suf)
            at = following
            continue
        block = sel[start:end]
        for step, (pick, step_words) in enumerate(picks):
            chosen = pick(block)
            if 1 in chosen:
                by_rank[rank + step] += (lead, (suf + lead).join(compress(step_words, chosen)), suf)
        at = find(1, end)
    parts = list(chain.from_iterable(by_rank))
    parts[0] = head + parts[0][len(joiner) :]  # the first part is a lead
    parts.append(tail)
    return "".join(parts)


def _table(steps: bytes, words: Sequence[str]) -> _Table:
    """The ``_Table`` of offsets with the given steps and words."""
    picks = []
    for step in range(max(steps) + 1):
        offsets = [e for e, s in enumerate(steps) if s == step]
        first, last = offsets[0], offsets[-1]
        if last - first + 1 == len(offsets):  # a run of offsets: one slice
            pick = itemgetter(slice(first, last + 1))
        else:
            pick = itemgetter(*offsets)
        picks.append((pick, tuple([words[e] for e in offsets])))
    return steps, tuple(words), tuple(picks)


@lru_cache(maxsize=64)
def _anf_layout(n: int) -> _Layout:
    """The layout of ``str(Anf)``, whose blocks are those of ``_mirror(n, mask)``.

    Monomial m sits at c = ~rev(m) (see ``_mirror``), so bit q of c is
    clear exactly when variable n - q is in m.  Of two monomials of equal
    degree, the one whose sorted variable list comes first has the
    smaller c.  A block holds the monomials that share their variables
    1..n-8; these are the block's prefix, and their count is its rank.
    The low byte of c holds variables n-7..n, and an offset's step is how
    many of them it stands for.  Only the block whose prefix is empty
    (c's top bits all set) starts a monomial with a low variable, or
    holds the constant 1.
    """
    # entry e: the variables, descending, whose bits are clear in e, bit v - 1
    # of c standing for variable n + 1 - v
    low, mid, top = _chunk_tables(n, lambda v: (n + 1 - v,), lambda v: ())
    steps = bytes(map(len, low))
    words = ["·".join(f"a{r}" for r in reversed(rs)) for rs in low]
    lead = _table(steps, ["·" + w if w else "" for w in words])
    bare = _table(steps, [w or "1" for w in words])
    mid_text, top_text = (
        tuple(["".join(f"a{r}·" for r in reversed(rs)) for rs in t]) for t in (mid, top)
    )
    width = max(n - 8, 0)

    def layout(b: int) -> tuple[str, str, int, _Table]:
        pre = (top_text[b >> 8] + mid_text[b & 255])[:-1]
        return pre, "", width - b.bit_count(), lead if pre else bare

    return layout


@lru_cache(maxsize=64)
def _terms_layout(
    n: int, clear: str, set_: str, sep: str, names: tuple[str, ...] | None
) -> _Layout:
    """The layout of full terms: variables 1-8 from the low byte of the
    index, the rest as the block's suffix, every offset at step 0.

    Variable r reads ``clear.format(name)`` when its bit is clear and
    ``set_.format(name)`` when it is set; the words are joined by ``sep``.
    ``names`` defaults to a1..an.
    """
    if names is None:
        names = tuple(f"a{r}" for r in range(1, n + 1))
    # entry b: the chunk's words under the bits of b, each after sep
    low, mid, top = _chunk_tables(
        n, lambda r: sep + clear.format(names[r - 1]), lambda r: sep + set_.format(names[r - 1])
    )
    table = _table(bytes(len(low)), [t[len(sep) :] for t in low])

    def layout(b: int) -> tuple[str, str, int, _Table]:
        return "", mid[b & 255] + top[b >> 8], 0, table

    return layout
