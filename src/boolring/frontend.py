"""Text frontends: a small formula language and DIMACS CNF documents.

Formulas use ``!``, ``&``, ``|``, ``^``, ``->``, parentheses, the
constants ``0`` and ``1``, and either indexed variables ``a1..a<n>`` or
bare identifiers (assigned indices in order of first appearance; the
two styles cannot be mixed).  ``!`` binds tightest, then ``&``, then
``|`` and ``^`` at equal strength, then right-associative ``->``.
Chains mixing ``|`` and ``^`` without parentheses are rejected.  One
operator table drives the parser and the renderer.  The parser is one
function over one list of token strings; a token's offset in the text
is found again only when a syntax error is raised.  A parsed formula is
one flat tuple of postfix code, and evaluating, flipping and rendering
it are each one loop over that tuple, so nesting depth is not limited
by the recursion limit.

CNF documents land in ``CnfDoc`` and can be expanded into full-width
form: a clause missing one variable doubles into the two clauses
containing it plain and negated, so a k-literal clause over n variables
yields exactly 2**(n-k) maxterm indices.  The expansion is read off the
document's truth vector, whose zeros are exactly those maxterms.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable

from . import _EXPORTS
from .flipgroup import FlipMask
from .primes import PrimeSet, decompose
from .ring import (
    BoolFunc, check_var_count, _Frozen, _check_names, _check_var, _decimal, _index_arg, _ones,
    _var_index, _var_name, _var_tts,
)

__all__ = list(_EXPORTS["frontend"])


class FormulaSyntaxError(ValueError):
    """Formula text rejected; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


# ---------------------------------------------------------------------------
# operator table and formula code
#
# Each binary operator: its binding level (higher binds tighter) and
# whether it groups to the right.  Prefix ``!`` binds tighter than all of
# them.  ``|`` and ``^`` share a level, and a chain mixing them needs
# parentheses.  The constants, ``!`` and the connectives are numbered -1,
# -2, ... in the order of ``_OPCODE``; a connective's opcode minus
# ``_SWAP`` is the same connective with its rhs code first.

_BINARY = {"->": (1, True), "|": (2, False), "^": (2, False), "&": (3, False)}
_OPCODE = {text: -k for k, text in enumerate(("0", "1", "!", *_BINARY), 1)}
_ZERO, _ONE, _NOT, _IMPLIES, _OR, _XOR, _AND = _OPCODE.values()
_SWAP = len(_BINARY)
_LAST = _AND - _SWAP  # the lowest opcode

# Per connective opcode: its text and the top opcodes it parenthesises on the
# left and on the right: those that bind looser, and those at its level except
# itself on the side it groups toward.
_WRAP = {
    _OPCODE[op]: (f" {op} ", *(
        frozenset(_OPCODE[o] for o, (lv, _) in _BINARY.items()
                  if lv < level or lv == level and (o != op or right == on_left))
        for on_left in (True, False)))
    for op, (level, right) in _BINARY.items()
}


def _concat(first: deque, second: deque) -> deque:
    """``first`` followed by ``second``, moving the items of the shorter one."""
    if len(first) >= len(second):
        first.extend(second)
        return first
    second.extendleft(reversed(first))
    return second


class Formula(_Frozen):
    """A parsed formula: its code, variable count and display names.

    ``code`` is one tuple of ints in postfix order.  An entry r >= 1
    pushes variable a<r>; -1 and -2 push the constants 0 and 1; -3 (``!``)
    negates the top value; -4 (``->``), -5 (``|``), -6 (``^``) and -7
    (``&``) replace the top two values, lhs below rhs, by the connective
    over them, and -8 to -11 are the same four with the rhs below the lhs.
    The constructor checks n, one str name per variable, and the code in one
    pass: every entry is a known opcode or a variable in 1..n, and the
    code leaves exactly one value.
    """

    __slots__ = ("code", "n", "names")

    def __init__(self, code: Iterable[int], n: int, names: Iterable[str]) -> None:
        check_var_count(n)
        code, names = tuple(code), _check_names(n, names, "formula variable name")
        depth = 0
        for op in code:
            if isinstance(op, bool) or not isinstance(op, int):
                raise TypeError(f"formula code entry must be an int, got {type(op).__name__}")
            if op > 0:
                _check_var(n, op)
            elif not _LAST <= op < 0:
                raise ValueError(f"unknown formula opcode {op}")
            arity = 0 if op >= _ONE else 1 if op == _NOT else 2
            if depth < arity:
                raise ValueError(f"opcode {op} needs {arity} operands, the code has {depth}")
            depth += 1 - arity
        if depth != 1:
            raise ValueError(f"formula code leaves {depth} values, not 1")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "names", names)

    def to_text(self) -> str:
        """Render back to the input syntax with minimal parentheses."""
        names = self.names
        stack: list[tuple[deque[str], int]] = []  # per operand: text pieces, top connective or 0
        push, pop = stack.append, stack.pop
        for op in self.code:
            if op > 0:
                push((deque((names[op - 1],)), 0))
            elif op == _NOT:
                pieces, top = stack[-1]
                if top:
                    pieces.append(")")
                pieces.appendleft("!(" if top else "!")
                stack[-1] = (pieces, 0)
            elif op >= _ONE:
                push((deque(("0" if op == _ZERO else "1",)), 0))
            else:
                rhs = pop()
                lhs = stack[-1]
                if op < _AND:
                    lhs, rhs, op = rhs, lhs, op + _SWAP
                text, wrap_lhs, wrap_rhs = _WRAP[op]
                for (pieces, top), wrap in ((lhs, wrap_lhs), (rhs, wrap_rhs)):
                    if top in wrap:
                        pieces.appendleft("(")
                        pieces.append(")")
                lhs[0].append(text)
                stack[-1] = (_concat(lhs[0], rhs[0]), op)
        return "".join(stack[0][0])


# ---------------------------------------------------------------------------
# tokens and precedence parser

_TOKEN_RE = re.compile(r"(->|[()!&|^]|\d+|[A-Za-z_][A-Za-z0-9_]*)|\S")  # a stray character is ''


def _error(text: str, k: int, message: str) -> FormulaSyntaxError:
    """``message`` at token k of ``text``; the end marker sits at ``len(text)``."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return FormulaSyntaxError(message, starts[k] if k < len(starts) else len(text))


def _parse(text: str, declared_n: int | None) -> tuple[deque[int], int, dict[str, int]]:
    """Formula code, the highest variable index and the named variables of ``text``.

    Operator precedence with an operand and an operator stack (Pratt,
    POPL 1973; Norvell 1999), so nesting depth costs no recursion.

    Each operand is its code and its Sethi-Ullman need, the most values
    evaluating it holds at once.  A connective puts the code of the needier
    operand first, so evaluation holds a few values however deep the
    nesting, not one per level.
    """
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:  # a stray character is reported ahead of any other error
        bad = next(m for m in _TOKEN_RE.finditer(text) if not m.group(1))
        raise FormulaSyntaxError(f"unexpected character {bad[0]!r}", bad.start())
    tokens.append("")  # end marker
    max_index = 0  # highest index so far, in either style
    named: dict[str, int] = {}

    def leaf(tok: str, k: int) -> int:
        nonlocal max_index
        if tok.isdigit():
            if tok in ("0", "1"):
                return _OPCODE[tok]
            raise _error(text, k, f"constants are 0 and 1, got {tok}")
        if not tok:
            raise _error(text, k, "unexpected end of input")
        if not (tok[0].isalpha() or tok[0] == "_"):
            raise _error(text, k, f"unexpected {tok!r}")
        index = _var_index(tok)
        if index == 0:
            raise _error(text, k, "variable indices start at a1")
        if index is not None and tok != _var_name(index):  # a01 would name a1
            raise _error(text, k, f"variable indices have no leading zero, got {tok}")
        if max_index and bool(named) != (index is None):  # other style seen
            raise _error(text, k, "cannot mix indexed variables (a<k>) with named variables")
        if index is None:
            if tok not in named:
                if declared_n is not None and len(named) >= declared_n:
                    raise _error(text, k, f"more than {declared_n} distinct variables")
                named[tok] = len(named) + 1
            index = named[tok]
        elif declared_n is not None and index > declared_n:
            raise _error(text, k, f"variable {_var_name(index)} beyond declared count {declared_n}")
        max_index = max(max_index, index)
        return index

    out: list[tuple[deque[int], int]] = []  # operand code and need, innermost last
    ops: list[str] = []  # pending '(', '!' and binary operators, innermost last
    # each leaf token accepted so far and its code: every check of ``leaf``
    # depends only on the token and the tokens before it, and none that a
    # token passed once can fail later, so a repeated token is looked up
    leaves: dict[str, int] = {}
    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            if tok == "!" or tok == "(":
                ops.append(tok)
                continue
            entry = leaves.get(tok)
            if entry is None:
                entry = leaves[tok] = leaf(tok, k)
            operand = (deque((entry,)), 1)
        else:
            # build the pending operators that bind tighter, or as tight unless
            # ``tok`` groups right; ')', the end or a stray operand builds all
            level, right = _BINARY.get(tok, (0, True))
            while ops and (top := _BINARY.get(ops[-1])) and top[0] >= level + right:
                if top[0] == level and ops[-1] != tok:
                    raise _error(text, k, "mixing '|' and '^' needs parentheses")
                (rhs, r_need), (lhs, l_need) = out.pop(), out[-1]
                op = _OPCODE[ops.pop()]
                need = max(l_need, r_need) if l_need != r_need else l_need + 1
                if r_need > l_need:
                    lhs, rhs, op = rhs, lhs, op - _SWAP
                code = _concat(lhs, rhs)
                code.append(op)
                out[-1] = (code, need)
            if tok in _BINARY:
                ops.append(tok)
                want_operand = True
                continue
            if not ops and not tok:
                break
            if not ops or tok != ")":  # what is left on ops is an open '('
                raise _error(text, k, "expected ')'" if ops else f"unexpected {tok!r}")
            ops.pop()
            operand = out.pop()
        while ops and ops[-1] == "!":
            ops.pop()
            operand[0].append(_NOT)
        out.append(operand)
        want_operand = False
    return out[0][0], max_index, named


def parse_formula(text: str, n: int | None = None) -> Formula:
    """Parse formula text; the variable count is inferred when ``n`` is omitted.

    Bare identifiers are numbered in order of first appearance and the
    chosen names are kept on the result for later rendering.
    """
    if n is not None:
        check_var_count(n)
    code, max_index, named = _parse(text, n)
    count = n if n is not None else max(max_index, 1)
    check_var_count(count)
    names = tuple(named)  # empty for indexed variables
    names += tuple(map(_var_name, range(len(names) + 1, count + 1)))
    return Formula._of(tuple(code), count, names)


def eval_ast(f: Formula) -> BoolFunc:
    """Truth vector of a parsed formula.

    The ring operations run on the packed ints themselves; one checked
    ``BoolFunc`` is built from the result.
    """
    check_var_count(f.n)
    n, ones, tts = f.n, _ones(f.n), _var_tts(f.n)
    values: list[int] = []
    push, pop = values.append, values.pop
    for op in f.code:
        if op > 0:
            push(tts[op - 1])
        elif op == _NOT:
            values[-1] ^= ones
        elif op >= _ONE:
            push(0 if op == _ZERO else ones)
        else:
            q = pop()
            p = values[-1]
            if op < _AND:
                p, q, op = q, p, op + _SWAP
            if op == _AND:
                values[-1] = p & q
            elif op == _OR:
                values[-1] = p | q
            elif op == _XOR:
                values[-1] = p ^ q
            else:
                values[-1] = (ones ^ p) | q
    return BoolFunc(n, values[0])


def ast_flip(f: Formula, s: FlipMask | int) -> Formula:
    """Substitute each flipped variable by its negation, collapsing ``!!``."""
    mask = _index_arg(f.n, s, FlipMask, "flip mask")
    out: list[int] = []
    emit = out.append
    for op in f.code:
        if op == _NOT and out[-1] == _NOT:
            out.pop()
        else:
            emit(op)
            if op > 0 and (mask >> (op - 1)) & 1:
                emit(_NOT)
    return Formula._of(tuple(out), f.n, f.names)


# ---------------------------------------------------------------------------
# DIMACS CNF documents


class CnfDoc(_Frozen):
    """A CNF over n variables.

    Each clause is a tuple of nonzero literals sorted by variable index,
    positive for a plain variable and negative for a negated one.  A
    clause never names a variable twice; an empty clause list denotes
    the constant 1.
    """

    __slots__ = ("n", "clauses")

    def __init__(self, n: int, clauses: Iterable[Iterable[int]]) -> None:
        check_var_count(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", tuple(_normalize_clause(cl, n) for cl in clauses))


def _normalize_clause(lits: Iterable[int], n: int) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    for lit in lits:
        if isinstance(lit, bool) or not isinstance(lit, int) or lit == 0:
            raise DimacsError(f"literal {lit!r} is not a nonzero integer")
        v = abs(lit)
        if v > n:
            raise DimacsError(f"literal {lit} names a variable beyond {n}")
        if v in seen:
            if seen[v] != lit:
                raise DimacsError(
                    f"clause contains both {v} and -{v}: always true, not representable"
                )
        else:
            seen[v] = lit
    return tuple(sorted(seen.values(), key=abs))


def parse_dimacs(text: str) -> CnfDoc:
    """Parse a DIMACS CNF document (``p cnf <vars> <clauses>`` header)."""
    n = m = None
    pending: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise DimacsError(f"line {lineno}: header must be 'p cnf <vars> <clauses>'")
            try:
                n, m = _decimal(parts[2]), _decimal(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: header counts must be integers") from None
            if n < 1:
                raise DimacsError(f"line {lineno}: variable count must be positive")
            if m < 0:
                raise DimacsError(f"line {lineno}: clause count must not be negative")
            continue
        if n is None:
            raise DimacsError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = _decimal(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                try:
                    clauses.append(_normalize_clause(pending, n))
                except DimacsError as exc:
                    raise DimacsError(f"line {lineno}: {exc}") from None
                pending = []
            else:
                pending.append(lit)
    if n is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    check_var_count(n)
    return CnfDoc._of(n, tuple(clauses))  # each clause is normalized above


def to_dimacs(doc: CnfDoc) -> str:
    """Serialize back to DIMACS text; parsing the result restores ``doc``."""
    lines = [f"p cnf {doc.n} {len(doc.clauses)}"]
    for cl in doc.clauses:
        lines.append(" ".join([str(lit) for lit in cl] + ["0"]))
    return "\n".join(lines) + "\n"


def clause_blowup(clause: Iterable[int], n: int) -> PrimeSet:
    """Expand one clause into the maxterm indices of its full-width form.

    A clause with k literals is false on the 2**(n-k) assignments that
    falsify all of its literals; those are its full-width maxterms.
    """
    return cnf_to_primes(CnfDoc(n, (tuple(clause),)))


def cnf_to_primes(doc: CnfDoc) -> PrimeSet:
    """Full-width expansion of a whole document: the union over its clauses.

    The union is the set of assignments falsifying some clause, which is
    the maxterm set of the document's truth vector.
    """
    return decompose(eval_cnf(doc))


def eval_cnf(doc: CnfDoc) -> BoolFunc:
    """Truth vector of a document: the AND of its clauses, each the OR of
    its literal vectors, computed on the packed ints themselves."""
    n = doc.n
    ones, tts = _ones(n), _var_tts(n)
    acc = ones
    for cl in doc.clauses:
        cur = 0
        for lit in cl:
            cur |= tts[lit - 1] if lit > 0 else ones ^ tts[-lit - 1]
        acc &= cur
    return BoolFunc(n, acc)


def cnf_flip(doc: CnfDoc, s: FlipMask | int) -> CnfDoc:
    """Negate the masked variables literal by literal."""
    mask = _index_arg(doc.n, s, FlipMask, "flip mask")
    out = tuple(
        tuple(-lit if (mask >> (abs(lit) - 1)) & 1 else lit for lit in cl)
        for cl in doc.clauses
    )
    check_var_count(doc.n)
    return CnfDoc._of(doc.n, out)  # negation keeps a clause sorted and free of repeats

