"""Formula parsing and rendering, DIMACS documents, clause expansion."""

import copy
import pickle
import random
import re

import pytest

from boolring import (
    BoolFunc,
    CnfDoc,
    DimacsError,
    FlipMask,
    FormulaSyntaxError,
    PrimeSet,
    SizeLimitError,
    apply_flip,
    ast_flip,
    clause_blowup,
    cnf_flip,
    cnf_to_primes,
    compose,
    count_models,
    decompose,
    eval_ast,
    eval_cnf,
    minterm_dnf_text,
    one,
    parse_dimacs,
    parse_formula,
    prime_cnf_text,
    to_dimacs,
    var,
    zero,
)
from boolring import Formula

RESOLUTION_PREMISE = "c resolution premise\np cnf 3 2\n1 2 0\n-1 3 0\n"

# the opcodes Formula documents; a connective's opcode minus SWAP has its rhs code first
ZERO, ONE, NOT, IMPLIES, OR, XOR, AND = -1, -2, -3, -4, -5, -6, -7
SWAP = 4
CONNECTIVES = {IMPLIES: "->", OR: "|", XOR: "^", AND: "&"}


def tree(code):
    """Nested tuples ``(op, lhs, rhs)``, ``("!", arg)``, ints and ``"0"``/``"1"``,
    with every connective in source order, whatever its operand order in code."""
    stack = []
    for op in code:
        if op > 0:
            stack.append(op)
        elif op in (ZERO, ONE):
            stack.append("0" if op == ZERO else "1")
        elif op == NOT:
            stack[-1] = ("!", stack[-1])
        else:
            rhs = stack.pop()
            lhs = stack.pop()
            if op < AND:
                lhs, rhs, op = rhs, lhs, op + SWAP
            stack.append((CONNECTIVES[op], lhs, rhs))
    (root,) = stack
    return root


def oracle_eval(code, env):
    """Plain bool semantics, one Python bool per operand (the package
    evaluates through ring operations; this must stay a separate route)."""
    stack = []
    for op in code:
        if op > 0:
            stack.append(env[op])
        elif op in (ZERO, ONE):
            stack.append(op == ONE)
        elif op == NOT:
            stack.append(not stack.pop())
        else:
            q = stack.pop()
            p = stack.pop()
            if op < AND:
                p, q, op = q, p, op + SWAP
            if op == AND:
                stack.append(p and q)
            elif op == OR:
                stack.append(p or q)
            elif op == XOR:
                stack.append(p != q)
            else:
                stack.append((not p) or q)
    (value,) = stack
    return value


def oracle_vector(code, n):
    out = 0
    for j in range(1 << n):
        env = {r: bool((j >> (r - 1)) & 1) for r in range(1, n + 1)}
        if oracle_eval(code, env):
            out |= 1 << j
    return out


def oracle_cnf_vector(doc):
    out = 0
    for j in range(1 << doc.n):
        env = {r: bool((j >> (r - 1)) & 1) for r in range(1, doc.n + 1)}
        sat = all(
            any(env[lit] if lit > 0 else not env[-lit] for lit in cl)
            for cl in doc.clauses
        )
        if sat:
            out |= 1 << j
    return out


def random_code(rng, n, depth):
    """Code of a random formula, each connective's operands in either order."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return [rng.choice((ZERO, ONE))]
        return [rng.randint(1, n)]
    pick = rng.randrange(5)
    if pick == 0:
        return random_code(rng, n, depth - 1) + [NOT]
    lhs = random_code(rng, n, depth - 1)
    rhs = random_code(rng, n, depth - 1)
    op = (AND, OR, XOR, IMPLIES)[pick - 1]
    return rhs + lhs + [op - SWAP] if rng.random() < 0.5 else lhs + rhs + [op]


def random_cnf(rng, n, max_clauses):
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, n)
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfDoc(n, tuple(clauses))


class TestParser:
    def test_precedence(self):
        # the operand that needs more values comes first: here the rhs, a2 & a3
        assert parse_formula("a1 | a2 & a3").code == (2, 3, AND, 1, OR - SWAP)
        assert tree(parse_formula("a1 | a2 & a3").code) == ("|", 1, ("&", 2, 3))
        assert parse_formula("!a1 & a2").code == (1, NOT, 2, AND)
        assert parse_formula("!(a1 ^ a2) & !!a3").code == (1, 2, XOR, NOT, 3, NOT, NOT, AND)
        assert parse_formula("(a1 | a2) & a3").code == (1, 2, OR, 3, AND)

    def test_repeated_leaves(self):
        # a leaf seen before is looked up, so tokens that share a prefix must not mix
        assert parse_formula("a1 & a12 & a1 & a12 & 1 & 1").code == (
            1, 12, AND, 1, AND, 12, AND, ONE, AND, ONE, AND)
        f = parse_formula("x | xy | x | y | xy")
        assert f.code == (1, 2, OR, 1, OR, 3, OR, 2, OR)
        assert f.names == ("x", "xy", "y")

    def test_left_assoc_chains(self):
        assert parse_formula("a1 ^ a2 ^ a3").code == (1, 2, XOR, 3, XOR)
        assert parse_formula("a1 | a2 | a3").code == (1, 2, OR, 3, OR)

    def test_implies_right_assoc(self):
        assert parse_formula("a1 -> a2 -> a3").code == (2, 3, IMPLIES, 1, IMPLIES - SWAP)
        assert tree(parse_formula("a1 -> a2 -> a3").code) == ("->", 1, ("->", 2, 3))
        assert parse_formula("(a1 -> a2) -> a3").code == (1, 2, IMPLIES, 3, IMPLIES)
        # operands of equal need keep their source order
        assert parse_formula("(a1 & a2) -> (a3 | a1)").code == (1, 2, AND, 3, 1, OR, IMPLIES)

    def test_constants(self):
        assert parse_formula("0").code == (ZERO,)
        assert parse_formula("1 & a2").code == (ONE, 2, AND)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("2")

    def test_mixed_or_xor_needs_parens(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a1 | a2 ^ a3")
        assert exc.value.position == 8
        parse_formula("a1 | (a2 ^ a3)")
        parse_formula("(a1 | a2) ^ a3")

    def test_named_variables_numbered_by_appearance(self):
        f = parse_formula("y | x & y")
        assert f.names == ("y", "x")
        assert f.n == 2
        assert tree(f.code) == ("|", 1, ("&", 2, 1))

    def test_styles_cannot_mix(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a1 & x")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x & a1")

    def test_indexed_gaps_widen_the_count(self):
        f = parse_formula("a3")
        assert f.n == 3
        assert f.names == ("a1", "a2", "a3")
        assert eval_ast(f) == var(3, 3)

    def test_declared_count(self):
        assert parse_formula("a1", 3).n == 3
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a4", 3)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x & y", 1)

    def test_a0_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a0")

    def test_malformed_inputs(self):
        for bad in ["", "a1 &", "(a1", "a1 a2", "& a1", "a1 $ a2", "()"]:
            with pytest.raises(FormulaSyntaxError):
                parse_formula(bad)

    def test_error_positions(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a1 $ a2")
        assert exc.value.position == 3
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a1 a2")
        assert exc.value.position == 3

    @pytest.mark.parametrize("text, n, message, position", [
        ("a1 $ a2", None, "unexpected character '$'", 3),
        ("", None, "unexpected end of input", 0),
        ("a1 &", None, "unexpected end of input", 4),
        ("!", None, "unexpected end of input", 1),
        ("(a1", None, "expected ')'", 3),
        ("(a1 a2)", None, "expected ')'", 4),
        ("(a1 (", None, "expected ')'", 4),
        ("a1 a2", None, "unexpected 'a2'", 3),
        ("a1 !a2", None, "unexpected '!'", 3),
        ("a1)", None, "unexpected ')'", 2),
        ("()", None, "unexpected ')'", 1),
        ("& a1", None, "unexpected '&'", 0),
        ("2", None, "constants are 0 and 1, got 2", 0),
        ("a0", None, "variable indices start at a1", 0),
        ("x & a1", None, "cannot mix indexed variables (a<k>) with named variables", 4),
        ("a1 & x", None, "cannot mix indexed variables (a<k>) with named variables", 5),
        ("a4", 3, "variable a4 beyond declared count 3", 0),
        ("x | y | z", 2, "more than 2 distinct variables", 8),
        ("a1 ^ a2 | a3", None, "mixing '|' and '^' needs parentheses", 8),
        ("a1 -> a2 | a3 ^ a4", None, "mixing '|' and '^' needs parentheses", 14),
        # the error follows repeated leaves, which the parser looks up once accepted
        ("a1 & x & a1", None, "cannot mix indexed variables (a<k>) with named variables", 5),
        ("x & y & x & a1", None, "cannot mix indexed variables (a<k>) with named variables", 12),
        ("x | y | x | y | z", 2, "more than 2 distinct variables", 16),
        ("a1 & a1 & a4", 3, "variable a4 beyond declared count 3", 10),
        ("a1 & a1 & a0", None, "variable indices start at a1", 10),
        ("a00", None, "variable indices start at a1", 0),
        # a leading zero would make a01 a second name of a1
        ("a01 & a1", None, "variable indices have no leading zero, got a01", 0),
        ("a1 & a01", None, "variable indices have no leading zero, got a01", 5),
        ("a1 & a1 & a010", 10, "variable indices have no leading zero, got a010", 10),
        ("1 & 1 & 2", None, "constants are 0 and 1, got 2", 8),
        ("a2 & a2 a2", None, "unexpected 'a2'", 8),
        # a stray character is reported ahead of an earlier syntax error
        ("a1 & & $", None, "unexpected character '$'", 7),
        ("(a1 a2 é", None, "unexpected character 'é'", 7),
    ])
    def test_error_messages(self, text, n, message, position):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text, n)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    def test_error_positions_random(self):
        # every error points at the start of a token or at the end of the text,
        # and the first stray character, if any, is the one reported
        token_re = re.compile(r"(->|[()!&|^]|\d+|[A-Za-z_][A-Za-z0-9_]*)|(\S)")
        rng = random.Random(2023)
        for _ in range(2000):
            text = "".join(rng.choice("a1x0 2()!&|^->$") for _ in range(rng.randint(0, 12)))
            matches = list(token_re.finditer(text))
            stray = next((m.start() for m in matches if m.group(2)), None)
            try:
                parse_formula(text)
            except FormulaSyntaxError as exc:
                pos = exc.position
                assert pos == len(text) or pos in {m.start() for m in matches}, text
                if stray is not None:
                    assert pos == stray, text
                    assert str(exc) == f"unexpected character {text[pos]!r} (at position {pos})"
                else:
                    assert "unexpected character" not in str(exc), text
            else:
                assert stray is None, text


class TestToText:
    def test_goldens(self):
        cases = {
            "((a1|a2)&(!a1|a3))->(a2|a3)": "(a1 | a2) & (!a1 | a3) -> a2 | a3",
            "a1 | a2 & a3": "a1 | a2 & a3",
            "(a1 | a2) & a3": "(a1 | a2) & a3",
            "a1 -> a2 -> a3": "a1 -> a2 -> a3",
            "(a1 -> a2) -> a3": "(a1 -> a2) -> a3",
            "!(a1 ^ a2)": "!(a1 ^ a2)",
            "x | y -> !x": "x | y -> !x",
        }
        for text, want in cases.items():
            assert parse_formula(text).to_text() == want

    def test_round_trip_random(self):
        rng = random.Random(606)
        for _ in range(300):
            n = rng.randint(1, 5)
            code = random_code(rng, n, rng.randint(1, 5))
            names = tuple(f"a{r}" for r in range(1, n + 1))
            f = Formula(code, n, names)
            rendered = f.to_text()
            again = parse_formula(rendered, n)
            assert tree(again.code) == tree(code), rendered
            assert again.to_text() == rendered


class TestEvalAst:
    def test_frozen_vectors(self):
        assert eval_ast(parse_formula("x | y -> !x")) == BoolFunc(2, 0b0101)
        assert eval_ast(parse_formula("a1 ^ a2 ^ a3")) == BoolFunc(3, 0b10010110)
        assert eval_ast(parse_formula("a1 | a2 & a3")) == BoolFunc(3, 0b11101010)
        assert eval_ast(parse_formula("a1 -> a2 -> a3")) == BoolFunc(3, 0b11110111)
        assert eval_ast(parse_formula("(a1 -> a2) -> a3")) == BoolFunc(3, 0b11110010)

    def test_cut_rule_is_a_tautology(self):
        f = parse_formula("((a1|a2)&(!a1|a3))->(a2|a3)")
        assert eval_ast(f) == one(3)

    def test_constants(self):
        assert eval_ast(parse_formula("0")) == zero(1)
        assert eval_ast(parse_formula("1")) == one(1)

    def test_matches_oracle_random(self):
        rng = random.Random(1105)
        for _ in range(400):
            n = rng.randint(1, 6)
            code = random_code(rng, n, rng.randint(1, 6))
            names = tuple(f"a{r}" for r in range(1, n + 1))
            got = eval_ast(Formula(code, n, names))
            assert got.tt == oracle_vector(code, n)


class TestAstFlip:
    def test_identity_mask(self):
        f = parse_formula("a1 & !a2 | a3")
        assert ast_flip(f, 0) == f

    def test_negation_collapses(self):
        f = parse_formula("a1 & !a2 | a3")
        g = ast_flip(f, 0b011)
        assert g.to_text() == "!a1 & a2 | a3"
        assert ast_flip(g, 0b011).to_text() == "a1 & !a2 | a3"

    def test_agrees_with_vector_flip(self):
        rng = random.Random(8842)
        for _ in range(300):
            n = rng.randint(1, 8)
            code = random_code(rng, n, rng.randint(1, 6))
            names = tuple(f"a{r}" for r in range(1, n + 1))
            f = Formula(code, n, names)
            s = rng.randrange(1 << n)
            assert eval_ast(ast_flip(f, s)) == apply_flip(eval_ast(f), s)

    def test_mask_objects(self):
        f = parse_formula("a1 -> a2")
        assert ast_flip(f, FlipMask(2, 1)) == ast_flip(f, 1)
        with pytest.raises(ValueError):
            ast_flip(f, FlipMask(3, 1))


DEPTH = 20_000
CHAIN = [f"a{k % 3 + 1}" for k in range(DEPTH - 1)] + ["a4"]  # a1, a2, a3, a1, ..., a4


def deep_shapes():
    """Shape name -> (text nested DEPTH deep over a1..a4, its truth vector)."""
    a1, a2, a3, a4 = (var(4, r) for r in range(1, 5))
    return {
        "parens": ("(" * DEPTH + "a1" + ")" * DEPTH, a1),
        "bangs_even": ("!" * DEPTH + "a1", a1),
        "bangs_odd": ("!" * (DEPTH + 1) + "a1", ~a1),
        "and_chain": (" & ".join(CHAIN), a1 & a2 & a3 & a4),
        "or_chain": (" | ".join(CHAIN), a1 | a2 | a3 | a4),
        "xor_chain": (" ^ ".join(CHAIN), a1 ^ a4),  # a1 occurs 6667 times, a2 and a3 6666
        "implies_chain": (" -> ".join(CHAIN), ~(a1 & a2 & a3) | a4),
        "right_nested_and": (" & (".join(CHAIN) + ")" * (DEPTH - 1), a1 & a2 & a3 & a4),
    }


DEEP_SHAPES = deep_shapes()


class TestDeepInput:
    """Nesting depth far past the interpreter's recursion limit."""

    @pytest.mark.parametrize("shape", list(DEEP_SHAPES))
    def test_eval_flip_and_render(self, shape):
        text, want = DEEP_SHAPES[shape]
        f = parse_formula(text, 4)
        assert eval_ast(f) == want
        for s in (0b0001, 0b1010, 0b1111):
            assert eval_ast(ast_flip(f, s)) == apply_flip(want, s)
        rendered = f.to_text()
        assert parse_formula(rendered, 4).to_text() == rendered

    @pytest.mark.parametrize("shape", [*DEEP_SHAPES, "and_chain_100k"])
    def test_value_protocol(self, shape):
        if shape == "and_chain_100k":
            text = " & ".join(f"a{k % 4 + 1}" for k in range(100_000))
        else:
            text = DEEP_SHAPES[shape][0]
        f, again = parse_formula(text, 4), parse_formula(text, 4)
        assert f == again and f is not again
        assert hash(f) == hash(again)
        assert repr(f) == repr(again) and repr(f).startswith("Formula(code=(")
        copies = [copy.deepcopy(f)]
        copies += [pickle.loads(pickle.dumps(f, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert c == f and hash(c) == hash(f)


class TestCnfDoc:
    def test_normalization(self):
        doc = CnfDoc(3, ((2, 1, 2), (-3,)))
        assert doc.clauses == ((1, 2), (-3,))

    def test_rejects_bad_literals(self):
        with pytest.raises(DimacsError):
            CnfDoc(2, ((0,),))
        with pytest.raises(DimacsError):
            CnfDoc(2, ((3,),))
        with pytest.raises(DimacsError):
            CnfDoc(2, ((1, -1),))

    def test_empty_document_is_one(self):
        assert eval_cnf(CnfDoc(2, ())) == one(2)

    def test_empty_clause_is_zero(self):
        doc = CnfDoc(2, ((),))
        assert eval_cnf(doc) == zero(2)
        assert clause_blowup((), 2).indices == frozenset(range(4))


class TestParseDimacs:
    def test_premise_document(self):
        doc = parse_dimacs(RESOLUTION_PREMISE)
        assert doc.n == 3
        assert doc.clauses == ((1, 2), (-1, 3))
        f = eval_cnf(doc)
        assert f == BoolFunc(3, 0b11100100)
        assert count_models(f) == 4

    def test_clauses_span_lines(self):
        doc = parse_dimacs("p cnf 2 1\n1\n2 0\n")
        assert doc.clauses == ((1, 2),)

    def test_many_clauses_one_line(self):
        doc = parse_dimacs("p cnf 2 2\n1 0 2 0\n")
        assert doc.clauses == ((1,), (2,))

    def test_comments_and_blanks(self):
        text = "c one\n\np cnf 2 1\nc two\n-1 -2 0\n\n"
        assert parse_dimacs(text).clauses == ((-1, -2),)

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 0\n",  # clause before header
            "p cnf 3\n",  # short header
            "p dnf 3 2\n1 0 2 0\n",  # wrong format word
            "p cnf x 2\n",  # non-integer count
            "p cnf 0 0\n",  # no variables
            "p cnf 2 -1\n",  # negative clause count
            "p cnf 2 1\n1 2 0\np cnf 2 1\n1 0\n",  # duplicate header
            "p cnf 2 1\n1 q 0\n",  # bad literal token
            "p cnf 2 1\n3 0\n",  # literal beyond count
            "p cnf 2 1\n1 -1 0\n",  # tautological clause
            "p cnf 2 1\n1 2\n",  # unterminated clause
            "p cnf 2 2\n1 2 0\n",  # count mismatch
            "",  # missing header
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(DimacsError):
            parse_dimacs(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf 3 1\n\u0661 -2 0\n", "bad literal"),  # Arabic-Indic digit one
            ("p cnf 3 1\n1_0 0\n", "bad literal"),  # digit separator
            ("p cnf 3 1\n+1 0\n", "bad literal"),  # explicit plus sign
            ("p cnf 3 1\n1 --2 0\n", "bad literal"),  # doubled minus
            ("p cnf 3 1\n1 \uff12 0\n", "bad literal"),  # fullwidth digit two
            ("p cnf \u0663 1\n1 0\n", "header counts must be integers"),  # Arabic-Indic three
            ("p cnf 1_0 1\n1 0\n", "header counts must be integers"),
            ("p cnf 3 +1\n1 0\n", "header counts must be integers"),
        ],
    )
    def test_integers_are_ascii_decimal(self, text, message):
        with pytest.raises(DimacsError, match=message):
            parse_dimacs(text)

    def test_negative_literals_and_counts_still_read(self):
        assert parse_dimacs("p cnf 3 1\n-1 -3 0\n").clauses == ((-1, -3),)
        with pytest.raises(DimacsError, match="clause count must not be negative"):
            parse_dimacs("p cnf 3 -1\n")

    def test_clauses_are_normalized_like_cnfdoc(self):
        # literals out of order and repeated; the parser and the flip keep
        # CnfDoc's normal form without building the document a second time
        rng = random.Random(14014)
        for _ in range(200):
            n = rng.randint(1, 6)
            raw = []
            for _ in range(rng.randint(0, 6)):
                chosen = [v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
                lits = chosen + rng.choices(chosen, k=rng.randint(0, 3))
                rng.shuffle(lits)
                raw.append(lits)
            text = f"p cnf {n} {len(raw)}\n" + "".join(
                " ".join(map(str, lits)) + " 0\n" for lits in raw
            )
            doc = parse_dimacs(text)
            assert doc == CnfDoc(n, raw)
            for s in range(1 << n):
                negated = [[-lit if (s >> (abs(lit) - 1)) & 1 else lit for lit in lits]
                           for lits in raw]
                assert cnf_flip(doc, s) == CnfDoc(n, negated)

    @pytest.mark.parametrize("text, error, message", [
        ("p cnf 30 1\n1 0\n", SizeLimitError, "variable count 30"),
        ("p cnf 30 1\nx 0\n", DimacsError, "line 2: bad literal 'x'"),
        ("p cnf 30 2\n1 0\n", DimacsError, "header declares 2 clauses, found 1"),
    ], ids=["over_cap", "bad_literal_first", "count_mismatch_first"])
    def test_error_order(self, text, error, message):
        # the variable cap is checked last, after every DIMACS error
        with pytest.raises(error, match=message) as exc:
            parse_dimacs(text)
        assert exc.type is error

    def test_errors_carry_line_numbers(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p cnf 2 1\n3 0\n")
        with pytest.raises(DimacsError, match="line 3"):
            parse_dimacs("c hi\np cnf 2 1\n1 -1 0\n")


class TestToDimacs:
    def test_golden(self):
        doc = CnfDoc(3, ((1, 2), (-1, 3)))
        assert to_dimacs(doc) == "p cnf 3 2\n1 2 0\n-1 3 0\n"

    def test_round_trip(self):
        rng = random.Random(4321)
        for _ in range(100):
            doc = random_cnf(rng, rng.randint(1, 8), 10)
            assert parse_dimacs(to_dimacs(doc)) == doc

    def test_empty_document(self):
        doc = CnfDoc(2, ())
        assert to_dimacs(doc) == "p cnf 2 0\n"
        assert parse_dimacs(to_dimacs(doc)) == doc


class TestBlowup:
    def test_frozen_example(self):
        ps = clause_blowup((1, 2, -3), 4)
        assert ps.indices == frozenset({4, 12})
        assert compose(4, ps).to_hex() == "efef"

    def test_single_full_clause(self):
        assert clause_blowup((-1, 2), 2).indices == frozenset({1})

    def test_sizes(self):
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(1, 10)
            k = rng.randint(1, n)
            chosen = rng.sample(range(1, n + 1), k)
            cl = tuple(v if rng.random() < 0.5 else -v for v in chosen)
            assert len(clause_blowup(cl, n).indices) == 1 << (n - k)

    def test_matches_zero_positions(self):
        rng = random.Random(901)
        for _ in range(100):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            chosen = rng.sample(range(1, n + 1), k)
            cl = tuple(v if rng.random() < 0.5 else -v for v in chosen)
            doc = CnfDoc(n, (cl,))
            assert clause_blowup(cl, n) == decompose(eval_cnf(doc))

    def test_rejects_tautological_clause(self):
        with pytest.raises(DimacsError):
            clause_blowup((1, -1), 2)


class TestCnfToPrimes:
    def test_premise(self):
        doc = parse_dimacs(RESOLUTION_PREMISE)
        ps = cnf_to_primes(doc)
        assert ps == decompose(eval_cnf(doc))
        assert compose(3, ps) == BoolFunc(3, 0b11100100)

    def test_random_documents(self):
        rng = random.Random(30303)
        for _ in range(30):
            doc = random_cnf(rng, rng.randint(1, 8), 12)
            ps = cnf_to_primes(doc)
            f = compose(doc.n, ps)
            assert f.tt == oracle_cnf_vector(doc)
            assert count_models(f) == f.tt.bit_count()


class TestCnfFlip:
    def test_signs(self):
        doc = CnfDoc(3, ((1, 2), (-1, 3)))
        assert cnf_flip(doc, 0b001).clauses == ((-1, 2), (1, 3))
        assert cnf_flip(doc, 0b101).clauses == ((-1, 2), (1, -3))

    def test_agrees_with_vector_flip(self):
        rng = random.Random(21212)
        for _ in range(100):
            doc = random_cnf(rng, rng.randint(1, 8), 10)
            s = rng.randrange(1 << doc.n)
            assert eval_cnf(cnf_flip(doc, s)) == apply_flip(eval_cnf(doc), s)

    def test_involution(self):
        doc = parse_dimacs(RESOLUTION_PREMISE)
        assert cnf_flip(cnf_flip(doc, 5), 5) == doc


class TestEmitters:
    def test_goldens(self):
        ps = PrimeSet(2, frozenset({0, 3}))
        assert prime_cnf_text(ps) == "(a1 ∨ a2) ∧ (¬a1 ∨ ¬a2)"
        assert minterm_dnf_text(ps) == "(a1 ∧ ¬a2) ∨ (¬a1 ∧ a2)"

    def test_names(self):
        ps = PrimeSet(2, frozenset({0}))
        assert prime_cnf_text(ps, ("x", "y")) == "(x ∨ y)"

    def test_degenerate_forms(self):
        assert prime_cnf_text(PrimeSet(2, frozenset())) == "1"
        assert minterm_dnf_text(PrimeSet(2, frozenset(range(4)))) == "0"

    @pytest.mark.parametrize("names", [(), ("x",), ("x", "y", "z")])
    @pytest.mark.parametrize("emit", [prime_cnf_text, minterm_dnf_text])
    @pytest.mark.parametrize("indices", [(), (0, 1, 2, 3)])
    def test_names_must_match_variable_count(self, emit, names, indices):
        with pytest.raises(ValueError, match=f"{len(names)} names given for 2 variables"):
            emit(PrimeSet(2, indices), names)
