"""Text frontends: a small formula language and DIMACS CNF documents.

Formulas use ``!``, ``&``, ``|``, ``^``, ``->``, parentheses, the
constants ``0`` and ``1``, and either indexed variables ``a1..a<n>`` or
bare identifiers (assigned indices in order of first appearance; the
two styles cannot be mixed).  ``!`` binds tightest, then ``&``, then
``|`` and ``^`` at equal strength, then right-associative ``->``.
Chains mixing ``|`` and ``^`` without parentheses are rejected.  One
operator table drives the parser and the renderer, and every pass over
a formula keeps an explicit stack, so nesting depth is not limited by
the recursion limit.

CNF documents land in ``CnfDoc`` and can be expanded into full-width
form: a clause missing one variable doubles into the two clauses
containing it plain and negated, so a k-literal clause over n variables
yields exactly 2**(n-k) maxterm indices.  The expansion is read off the
document's truth vector, whose zeros are exactly those maxterms.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from .flipgroup import FlipMask, _mask_of
from .primes import _CLAUSE, _MINTERM, PrimeSet, decompose, _checked_names
from .ring import (
    BoolFunc, check_var_count, _Frozen, _bit_renderer, _check_var, _ones, _set_bits, _var_tt,
)

__all__ = [
    "FormulaSyntaxError",
    "DimacsError",
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "Xor",
    "Implies",
    "Formula",
    "CnfDoc",
    "parse_formula",
    "eval_ast",
    "ast_flip",
    "parse_dimacs",
    "to_dimacs",
    "clause_blowup",
    "cnf_to_primes",
    "eval_cnf",
    "cnf_flip",
    "prime_cnf_text",
    "minterm_dnf_text",
]


class FormulaSyntaxError(ValueError):
    """Formula text rejected; ``position`` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


# ---------------------------------------------------------------------------
# formula AST


class Const(_Frozen):
    """The constant 0 or 1."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        object.__setattr__(self, "value", value)


class Var(_Frozen):
    """Variable ``a<index>``, counted from 1."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", index)


class Not(_Frozen):
    """Negation ``!arg``."""

    __slots__ = ("arg",)

    def __init__(self, arg: Node) -> None:
        object.__setattr__(self, "arg", arg)


class _Binary(_Frozen):
    """A binary connective over ``lhs`` and ``rhs``."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Node, rhs: Node) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class And(_Binary):
    """Conjunction ``lhs & rhs``."""

    __slots__ = ()


class Or(_Binary):
    """Disjunction ``lhs | rhs``."""

    __slots__ = ()


class Xor(_Binary):
    """Exclusive or ``lhs ^ rhs``."""

    __slots__ = ()


class Implies(_Binary):
    """Implication ``lhs -> rhs``."""

    __slots__ = ()


Node = Const | Var | Not | And | Or | Xor | Implies


class Formula(_Frozen):
    """A parsed formula with its variable count and display names."""

    __slots__ = ("root", "n", "names")

    def __init__(self, root: Node, n: int, names: tuple[str, ...]) -> None:
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "names", names)

    def to_text(self) -> str:
        """Render back to the input syntax with minimal parentheses."""
        names, pieces = self.names, []
        pending: list[Node | str] = [self.root]  # nodes to render and text to emit, next last
        emit, pop = pieces.append, pending.pop
        while pending:
            item = pop()
            cls = type(item)
            if cls is Var:
                emit(names[item.index - 1])
            elif cls is str:
                emit(item)
            elif cls is Const:
                emit(str(item.value))
            elif cls is Not:
                emit("!")
                arg = item.arg
                pending += (")", arg, "(") if type(arg) in _BINARY_NODES else (arg,)
            else:
                text, wrap_lhs, wrap_rhs = _BINARY_NODES[cls]
                lhs, rhs = item.lhs, item.rhs
                if type(rhs) in wrap_rhs:
                    pending += (")", rhs, "(")
                else:
                    pending.append(rhs)
                pending.append(text)
                if type(lhs) in wrap_lhs:
                    pending += (")", lhs, "(")
                else:
                    pending.append(lhs)
        return "".join(pieces)


# ---------------------------------------------------------------------------
# operator table, tokenizer and precedence parser
#
# Each binary operator: its binding level (higher binds tighter), whether
# it groups to the right, and the node it builds.  Prefix ``!`` binds
# tighter than all of them.  ``|`` and ``^`` share a level, and a chain
# mixing them needs parentheses.

_BINARY: dict[str, tuple[int, bool, type[_Binary]]] = {
    "->": (1, True, Implies),
    "|": (2, False, Or),
    "^": (2, False, Xor),
    "&": (3, False, And),
}

# Per node class: its operator text and the operand classes it parenthesises
# on the left and on the right: those that bind looser, and those at its level
# except itself on the side it groups toward.
_BINARY_NODES = {
    cls: (f" {op} ", *(frozenset(c for lv, _, c in _BINARY.values()
                                 if lv < level or lv == level and (c is not cls or right == on_left))
                       for on_left in (True, False)))
    for op, (level, right, cls) in _BINARY.items()
}

_TOKEN_RE = re.compile(r"(->|[()!&|^]|\d+|[A-Za-z_][A-Za-z0-9_]*)|(\S)")
_INDEXED_RE = re.compile(r"a(\d+)\Z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok, bad = m.groups()
        if bad:
            raise FormulaSyntaxError(f"unexpected character {bad!r}", m.start())
        tokens.append((tok, m.start()))
    tokens.append(("", len(text)))  # end marker
    return tokens


class _Parser:
    """Operator precedence with an operand and an operator stack (Pratt,
    POPL 1973; Norvell 1999), so nesting depth costs no recursion."""

    def __init__(self, text: str, declared_n: int | None) -> None:
        self._tokens = _tokenize(text)
        self._declared_n = declared_n
        self.max_index = 0  # highest index so far, in either style
        self.named: dict[str, int] = {}

    def parse(self) -> Node:
        out: list[Node] = []
        ops: list[str] = []  # pending '(', '!' and binary operators, innermost last
        want_operand = True
        for tok, pos in self._tokens:
            if want_operand:
                if tok == "!" or tok == "(":
                    ops.append(tok)
                    continue
                node = self._leaf(tok, pos)
            else:
                # build the pending operators that bind tighter, or as tight unless
                # ``tok`` groups right; ')', the end or a stray operand builds all
                level, right, _ = _BINARY.get(tok, (0, True, None))
                while ops and (top := _BINARY.get(ops[-1])) and top[0] >= level + right:
                    if top[0] == level and ops[-1] != tok:
                        raise FormulaSyntaxError("mixing '|' and '^' needs parentheses", pos)
                    rhs = out.pop()
                    out[-1] = top[2](out[-1], rhs)
                    ops.pop()
                if tok in _BINARY:
                    ops.append(tok)
                    want_operand = True
                    continue
                if not ops and not tok:
                    break
                if not ops or tok != ")":  # what is left on ops is an open '('
                    raise FormulaSyntaxError("expected ')'" if ops else f"unexpected {tok!r}", pos)
                ops.pop()
                node = out.pop()
            while ops and ops[-1] == "!":
                ops.pop()
                node = Not(node)
            out.append(node)
            want_operand = False
        return out[0]

    def _leaf(self, tok: str, pos: int) -> Const | Var:
        if tok.isdigit():
            if tok in ("0", "1"):
                return Const(int(tok))
            raise FormulaSyntaxError(f"constants are 0 and 1, got {tok}", pos)
        if not tok:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if not (tok[0].isalpha() or tok[0] == "_"):
            raise FormulaSyntaxError(f"unexpected {tok!r}", pos)
        m = _INDEXED_RE.fullmatch(tok)
        index = int(m.group(1)) if m else None
        if index == 0:
            raise FormulaSyntaxError("variable indices start at a1", pos)
        if self.max_index and bool(self.named) != (index is None):  # other style seen
            raise FormulaSyntaxError(
                "cannot mix indexed variables (a<k>) with named variables", pos
            )
        if index is None:
            if tok not in self.named:
                if self._declared_n is not None and len(self.named) >= self._declared_n:
                    raise FormulaSyntaxError(
                        f"more than {self._declared_n} distinct variables", pos
                    )
                self.named[tok] = len(self.named) + 1
            index = self.named[tok]
        elif self._declared_n is not None and index > self._declared_n:
            raise FormulaSyntaxError(
                f"variable a{index} beyond declared count {self._declared_n}", pos
            )
        self.max_index = max(self.max_index, index)
        return Var(index)


def parse_formula(text: str, n: int | None = None) -> Formula:
    """Parse formula text; the variable count is inferred when ``n`` is omitted.

    Bare identifiers are numbered in order of first appearance and the
    chosen names are kept on the result for later rendering.
    """
    if n is not None:
        check_var_count(n)
    parser = _Parser(text, n)
    root = parser.parse()
    count = n if n is not None else max(parser.max_index, 1)
    check_var_count(count)
    names = tuple(parser.named)  # empty for indexed variables
    names += tuple(f"a{r}" for r in range(len(names) + 1, count + 1))
    return Formula(root, count, names)


def _postorder(root: Node) -> Iterator[tuple[Node, bool | None]]:
    """Every node after its operands, with whether its rhs came first.

    A binary node visits a binary operand before a leaf or a negation, so
    a caller that keeps one result per finished operand holds a few of
    them on chains that nest either way, not one per level.
    """
    stack: list[tuple[Node, bool | None]] = [(root, None)]
    while stack:
        item = stack.pop()
        node, rhs_first = item
        cls = type(node)
        if rhs_first is not None or cls is Var or cls is Const:
            yield item
        elif cls is Not:
            stack += ((node, False), (node.arg, None))
        elif cls in _BINARY_NODES:
            lhs, rhs = node.lhs, node.rhs
            if type(rhs) in _BINARY_NODES and type(lhs) not in _BINARY_NODES:
                stack += ((node, True), (lhs, None), (rhs, None))
            else:
                stack += ((node, False), (rhs, None), (lhs, None))
        else:
            raise TypeError(f"not a formula node: {node!r}")


def eval_ast(f: Formula) -> BoolFunc:
    """Truth vector of a parsed formula.

    The ring operations run on the packed ints themselves; one checked
    ``BoolFunc`` is built from the result.
    """
    check_var_count(f.n)
    n, ones = f.n, _ones(f.n)
    values: list[int] = []
    for node, rhs_first in _postorder(f.root):
        cls = type(node)
        if cls is Var:
            _check_var(n, node.index)
            values.append(_var_tt(n, node.index))
        elif cls is Const:
            values.append(ones if node.value else 0)
        elif cls is Not:
            values[-1] ^= ones
        else:
            q = values.pop()
            p = values[-1]
            if rhs_first:
                p, q = q, p
            if cls is And:
                values[-1] = p & q
            elif cls is Or:
                values[-1] = p | q
            elif cls is Xor:
                values[-1] = p ^ q
            else:
                values[-1] = (ones ^ p) | q
    return BoolFunc(n, values[0])


def ast_flip(f: Formula, s: FlipMask | int) -> Formula:
    """Substitute each flipped variable by its negation, collapsing ``!!``."""
    mask = _mask_of(f.n, s)
    flipped = {r for r in range(1, f.n + 1) if (mask >> (r - 1)) & 1}
    out: list[Node] = []
    for node, rhs_first in _postorder(f.root):
        cls = type(node)
        if cls is Var:
            out.append(Not(node) if node.index in flipped else node)
        elif cls is Const:
            out.append(node)
        elif cls is Not:
            inner = out[-1]
            out[-1] = inner.arg if type(inner) is Not else Not(inner)
        else:
            rhs = out.pop()
            out[-1] = cls(rhs, out[-1]) if rhs_first else cls(out[-1], rhs)
    return Formula(out[0], f.n, f.names)


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
                n, m = int(parts[2]), int(parts[3])
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
                lit = int(tok)
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
    return CnfDoc(n, tuple(clauses))


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
    ones = _ones(n)
    acc = ones
    for cl in doc.clauses:
        cur = 0
        for lit in cl:
            cur |= _var_tt(n, lit) if lit > 0 else ones ^ _var_tt(n, -lit)
        acc &= cur
    return BoolFunc(n, acc)


def cnf_flip(doc: CnfDoc, s: FlipMask | int) -> CnfDoc:
    """Negate the masked variables literal by literal."""
    mask = _mask_of(doc.n, s)
    out = tuple(
        tuple(-lit if (mask >> (abs(lit) - 1)) & 1 else lit for lit in cl)
        for cl in doc.clauses
    )
    return CnfDoc(doc.n, out)


# ---------------------------------------------------------------------------
# text emitters


def prime_cnf_text(ps: PrimeSet, names: Sequence[str] | None = None) -> str:
    """Full conjunctive form, one clause per maxterm index; ``1`` when empty."""
    names = _checked_names(ps.n, names)
    if not ps.mask:
        return "1"
    clause = _bit_renderer(ps.n, *_CLAUSE, names)
    return "(" + ") ∧ (".join(map(clause, _set_bits(ps.mask))) + ")"


def minterm_dnf_text(ps: PrimeSet, names: Sequence[str] | None = None) -> str:
    """Full disjunctive form over the satisfying indices; ``0`` when none."""
    names = _checked_names(ps.n, names)
    sat = ps.mask ^ _ones(ps.n)
    if not sat:
        return "0"
    minterm = _bit_renderer(ps.n, *_MINTERM, names)
    return "(" + ") ∨ (".join(map(minterm, _set_bits(sat))) + ")"
