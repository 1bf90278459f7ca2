"""Text frontends: a small formula language and DIMACS CNF documents.

Formulas use ``!``, ``&``, ``|``, ``^``, ``->``, parentheses, the
constants ``0`` and ``1``, and either indexed variables ``a1..a<n>`` or
bare identifiers (assigned indices in order of first appearance; the
two styles cannot be mixed).  ``!`` binds tightest, then ``&``, then
``|`` and ``^`` at equal strength, then right-associative ``->``.
Chains mixing ``|`` and ``^`` without parentheses are rejected.

CNF documents land in ``CnfDoc`` and can be expanded into full-width
form: a clause missing one variable doubles into the two clauses
containing it plain and negated, so a k-literal clause over n variables
yields exactly 2**(n-k) maxterm indices.  The expansion is read off the
document's truth vector, whose zeros are exactly those maxterms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .flipgroup import FlipMask, _mask_of
from .primes import PrimeSet, clause_text, decompose, minterm_text
from .ring import BoolFunc, check_var_count, one, var, zero

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


@dataclass(frozen=True, slots=True)
class Const:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    index: int


@dataclass(frozen=True, slots=True)
class Not:
    arg: "Node"


@dataclass(frozen=True, slots=True)
class And:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Or:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Xor:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Implies:
    lhs: "Node"
    rhs: "Node"


Node = Const | Var | Not | And | Or | Xor | Implies


@dataclass(frozen=True)
class Formula:
    """A parsed formula with its variable count and display names."""

    root: Node
    n: int
    names: tuple[str, ...]

    def to_text(self) -> str:
        """Render back to the input syntax with minimal parentheses."""
        text, _, _ = _render(self.root, self.names)
        return text


_LEVELS: dict[type, int] = {Implies: 1, Or: 2, Xor: 2, And: 3, Not: 4, Var: 5, Const: 5}
_OP_TEXT: dict[type, str] = {And: "&", Or: "|", Xor: "^", Implies: "->"}


def _render(node: Node, names: tuple[str, ...]) -> tuple[str, int, type]:
    cls = type(node)
    level = _LEVELS[cls]
    if cls is Const:
        return str(node.value), level, cls
    if cls is Var:
        return names[node.index - 1], level, cls
    if cls is Not:
        text, sub_level, _ = _render(node.arg, names)
        if sub_level < level:
            text = f"({text})"
        return f"!{text}", level, cls
    lhs_text, lhs_level, lhs_cls = _render(node.lhs, names)
    rhs_text, rhs_level, rhs_cls = _render(node.rhs, names)
    if cls is Implies:
        # right-associative: parenthesize an implication on the left only
        if lhs_level <= level:
            lhs_text = f"({lhs_text})"
        if rhs_level < level:
            rhs_text = f"({rhs_text})"
    else:
        # these operators parse left-associatively, so a right subtree at
        # the same level needs parentheses even for the same operator
        if lhs_level < level or (lhs_level == level and lhs_cls is not cls):
            lhs_text = f"({lhs_text})"
        if rhs_level <= level:
            rhs_text = f"({rhs_text})"
    return f"{lhs_text} {_OP_TEXT[cls]} {rhs_text}", level, cls


# ---------------------------------------------------------------------------
# tokenizer and recursive-descent parser
#
# formula := orxor ('->' formula)?          right-associative
# orxor   := term ('|' term)* | term ('^' term)*
# term    := factor ('&' factor)*
# factor  := '!' factor | '(' formula ')' | '0' | '1' | variable

_TOKEN_RE = re.compile(r"->|[()!&|^]|\d+|[A-Za-z_][A-Za-z0-9_]*")
_INDEXED_RE = re.compile(r"a(\d+)\Z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        tokens.append((m.group(), i))
        i = m.end()
    tokens.append(("", len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str, declared_n: int | None) -> None:
        self._tokens = _tokenize(text)
        self._pos = 0
        self._declared_n = declared_n
        self.style: str | None = None
        self.max_index = 0
        self.named: dict[str, int] = {}

    def _peek(self) -> str:
        return self._tokens[self._pos][0]

    def _here(self) -> int:
        return self._tokens[self._pos][1]

    def _advance(self) -> tuple[str, int]:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _accept(self, text: str) -> bool:
        if self._peek() == text:
            self._pos += 1
            return True
        return False

    def parse(self) -> Node:
        node = self._implies()
        if self._peek():
            raise FormulaSyntaxError(f"unexpected {self._peek()!r}", self._here())
        return node

    def _implies(self) -> Node:
        lhs = self._orxor()
        if self._accept("->"):
            return Implies(lhs, self._implies())
        return lhs

    def _orxor(self) -> Node:
        node = self._term()
        chain_op: str | None = None
        while self._peek() in ("|", "^"):
            op, pos = self._advance()
            if chain_op is None:
                chain_op = op
            elif op != chain_op:
                raise FormulaSyntaxError(
                    "mixing '|' and '^' needs parentheses", pos
                )
            rhs = self._term()
            node = Or(node, rhs) if op == "|" else Xor(node, rhs)
        return node

    def _term(self) -> Node:
        node = self._factor()
        while self._accept("&"):
            node = And(node, self._factor())
        return node

    def _factor(self) -> Node:
        tok, pos = self._advance()
        if tok == "!":
            return Not(self._factor())
        if tok == "(":
            node = self._implies()
            if not self._accept(")"):
                raise FormulaSyntaxError("expected ')'", self._here())
            return node
        if tok.isdigit():
            if tok in ("0", "1"):
                return Const(int(tok))
            raise FormulaSyntaxError(f"constants are 0 and 1, got {tok}", pos)
        if not tok:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if tok[0].isalpha() or tok[0] == "_":
            return self._variable(tok, pos)
        raise FormulaSyntaxError(f"unexpected {tok!r}", pos)

    def _variable(self, tok: str, pos: int) -> Var:
        m = _INDEXED_RE.fullmatch(tok)
        if m:
            index = int(m.group(1))
            if index < 1:
                raise FormulaSyntaxError("variable indices start at a1", pos)
            self._set_style("indexed", pos)
            if self._declared_n is not None and index > self._declared_n:
                raise FormulaSyntaxError(
                    f"variable a{index} beyond declared count {self._declared_n}", pos
                )
            self.max_index = max(self.max_index, index)
            return Var(index)
        self._set_style("named", pos)
        if tok not in self.named:
            if self._declared_n is not None and len(self.named) >= self._declared_n:
                raise FormulaSyntaxError(
                    f"more than {self._declared_n} distinct variables", pos
                )
            self.named[tok] = len(self.named) + 1
        return Var(self.named[tok])

    def _set_style(self, style: str, pos: int) -> None:
        if self.style is None:
            self.style = style
        elif self.style != style:
            raise FormulaSyntaxError(
                "cannot mix indexed variables (a<k>) with named variables", pos
            )


def parse_formula(text: str, n: int | None = None) -> Formula:
    """Parse formula text; the variable count is inferred when ``n`` is omitted.

    Bare identifiers are numbered in order of first appearance and the
    chosen names are kept on the result for later rendering.
    """
    if n is not None:
        check_var_count(n)
    parser = _Parser(text, n)
    root = parser.parse()
    if parser.style == "named":
        used = len(parser.named)
        base_names = tuple(parser.named)
    else:
        used = parser.max_index
        base_names = ()
    count = n if n is not None else max(used, 1)
    check_var_count(count)
    names = base_names + tuple(f"a{r}" for r in range(len(base_names) + 1, count + 1))
    return Formula(root, count, names)


def eval_ast(f: Formula) -> BoolFunc:
    """Truth vector of a parsed formula, built through the ring operations."""
    return _eval_node(f.root, f.n)


def _eval_node(node: Node, n: int) -> BoolFunc:
    match node:
        case Const(value=v):
            return one(n) if v else zero(n)
        case Var(index=r):
            return var(n, r)
        case Not(arg=x):
            return ~_eval_node(x, n)
        case And(lhs=p, rhs=q):
            return _eval_node(p, n) & _eval_node(q, n)
        case Or(lhs=p, rhs=q):
            return _eval_node(p, n) | _eval_node(q, n)
        case Xor(lhs=p, rhs=q):
            return _eval_node(p, n) ^ _eval_node(q, n)
        case Implies(lhs=p, rhs=q):
            return ~_eval_node(p, n) | _eval_node(q, n)
    raise TypeError(f"not a formula node: {node!r}")


def ast_flip(f: Formula, s: FlipMask | int) -> Formula:
    """Substitute each flipped variable by its negation, collapsing ``!!``."""
    mask = _mask_of(f.n, s)
    flipped = {r for r in range(1, f.n + 1) if (mask >> (r - 1)) & 1}
    return Formula(_flip_node(f.root, flipped), f.n, f.names)


def _flip_node(node: Node, flipped: set[int]) -> Node:
    match node:
        case Const():
            return node
        case Var(index=r):
            return Not(node) if r in flipped else node
        case Not(arg=x):
            inner = _flip_node(x, flipped)
            return inner.arg if isinstance(inner, Not) else Not(inner)
        case And(lhs=p, rhs=q):
            return And(_flip_node(p, flipped), _flip_node(q, flipped))
        case Or(lhs=p, rhs=q):
            return Or(_flip_node(p, flipped), _flip_node(q, flipped))
        case Xor(lhs=p, rhs=q):
            return Xor(_flip_node(p, flipped), _flip_node(q, flipped))
        case Implies(lhs=p, rhs=q):
            return Implies(_flip_node(p, flipped), _flip_node(q, flipped))
    raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# DIMACS CNF documents


@dataclass(frozen=True)
class CnfDoc:
    """A CNF over n variables.

    Each clause is a tuple of nonzero literals sorted by variable index,
    positive for a plain variable and negative for a negated one.  A
    clause never names a variable twice; an empty clause list denotes
    the constant 1.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_var_count(self.n)
        canon = tuple(_normalize_clause(cl, self.n) for cl in self.clauses)
        object.__setattr__(self, "clauses", canon)


def _normalize_clause(lits: Iterable[int], n: int) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
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
    """Truth vector of a document, built through the ring operations."""
    acc = one(doc.n)
    for cl in doc.clauses:
        cur = zero(doc.n)
        for lit in cl:
            v = var(doc.n, abs(lit))
            cur = cur | (v if lit > 0 else ~v)
        acc = acc & cur
    return acc


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
    if not ps.indices:
        return "1"
    return " ∧ ".join(clause_text(ps.n, j, names) for j in sorted(ps.indices))


def minterm_dnf_text(ps: PrimeSet, names: Sequence[str] | None = None) -> str:
    """Full disjunctive form over the satisfying indices; ``0`` when none."""
    sat = sorted(ps.complement())
    if not sat:
        return "0"
    return " ∨ ".join(minterm_text(ps.n, j, names) for j in sat)
