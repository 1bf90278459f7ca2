"""One table of argument checks over every public entry point taking n, j, r or s.

A bool or a non-int raises TypeError, a value out of range ValueError,
and a variable count above the cap, or above a check's own cap,
SizeLimitError.  The rules live in ``boolring.ring``; the last test keeps
inline copies of them from coming back to the other modules.
"""

from pathlib import Path

import pytest

from boolring import (
    Anf,
    Assignment,
    BoolFunc,
    CnfDoc,
    DimacsError,
    FlipMask,
    Formula,
    LiteralProduct,
    PrimeSet,
    SizeLimitError,
    apply_flip,
    ast_flip,
    basis,
    clause_blowup,
    clause_text,
    cnf_flip,
    compose,
    conservation_check,
    enumerate_allowed_maps,
    eval_at,
    flip_group_check,
    get_max_vars,
    literal_form,
    minterm_text,
    one,
    orthogonal,
    parse_formula,
    pi,
    prime,
    set_max_vars,
    var,
    verify_ti,
    verify_tii_tiii,
    verify_tiv,
    verify_tv,
    zero,
)

F2 = BoolFunc(2, 0b0110)
BIG = get_max_vars() + 1


def set_cap(limit):
    """``set_max_vars(limit)``, with the cap restored whatever happens."""
    saved = get_max_vars()
    try:
        set_max_vars(limit)
    finally:
        set_max_vars(saved)


CASES = [
    # variable counts
    ("zero(True)", lambda: zero(True), TypeError),
    ("one(True)", lambda: one(True), TypeError),
    ("one(2.0)", lambda: one(2.0), TypeError),
    ("zero(0)", lambda: zero(0), SizeLimitError),
    ("BoolFunc(True, 1)", lambda: BoolFunc(True, 1), TypeError),
    ("BoolFunc.from_hex(True, '1')", lambda: BoolFunc.from_hex(True, "1"), TypeError),
    ("var(True, 1)", lambda: var(True, 1), TypeError),
    ("Anf(True, [])", lambda: Anf(True, []), TypeError),
    ("PrimeSet(True, [])", lambda: PrimeSet(True, []), TypeError),
    ("LiteralProduct(True, (True,))", lambda: LiteralProduct(True, (True,)), TypeError),
    ("prime(True, 0)", lambda: prime(True, 0), TypeError),
    ("literal_form(True, 0)", lambda: literal_form(True, 0), TypeError),
    ("compose(True, [])", lambda: compose(True, []), TypeError),
    ("basis(True, 1)", lambda: basis(True, 1), TypeError),
    ("clause_text(True, 0)", lambda: clause_text(True, 0), TypeError),
    ("clause_text(0, 0)", lambda: clause_text(0, 0), SizeLimitError),
    ("clause_text(BIG, 5)", lambda: clause_text(BIG, 5), SizeLimitError),
    ("clause_text(2.0, 0)", lambda: clause_text(2.0, 0), TypeError),
    ("minterm_text(0, 0)", lambda: minterm_text(0, 0), SizeLimitError),
    ("minterm_text(BIG, 5)", lambda: minterm_text(BIG, 5), SizeLimitError),
    ("Assignment(True, 0)", lambda: Assignment(True, 0), TypeError),
    ("FlipMask(True, 0)", lambda: FlipMask(True, 0), TypeError),
    ("FlipMask.parse('1', True)", lambda: FlipMask.parse("1", True), TypeError),
    ("pi(0, 0, True)", lambda: pi(0, 0, True), TypeError),
    ("pi(0, 0, 2.0)", lambda: pi(0, 0, 2.0), TypeError),
    ("pi(0, 0, BIG)", lambda: pi(0, 0, BIG), SizeLimitError),
    ("CnfDoc(True, ())", lambda: CnfDoc(True, ()), TypeError),
    ("parse_formula('a1', True)", lambda: parse_formula("a1", True), TypeError),
    ("enumerate_allowed_maps(True)", lambda: enumerate_allowed_maps(True), TypeError),
    ("enumerate_allowed_maps(3)", lambda: enumerate_allowed_maps(3), SizeLimitError),
    ("flip_group_check(True)", lambda: flip_group_check(True), TypeError),
    ("flip_group_check(7)", lambda: flip_group_check(7), SizeLimitError),
    ("conservation_check(n=15)", lambda: conservation_check(BoolFunc(15, 0)), SizeLimitError),
    ("verify_ti(True)", lambda: verify_ti(True), TypeError),
    ("verify_ti(4)", lambda: verify_ti(4), SizeLimitError),
    ("verify_tii_tiii(True)", lambda: verify_tii_tiii(True), TypeError),
    ("verify_tiv(True)", lambda: verify_tiv(True), TypeError),
    ("verify_tv(True)", lambda: verify_tv(True), TypeError),
    ("verify_tv(7)", lambda: verify_tv(7), SizeLimitError),
    ("set_max_vars(True)", lambda: set_cap(True), TypeError),
    ("set_max_vars(2.5)", lambda: set_cap(2.5), TypeError),
    ("set_max_vars('3')", lambda: set_cap("3"), TypeError),
    ("set_max_vars(0)", lambda: set_cap(0), ValueError),
    # assignment indices j
    ("prime(2, True)", lambda: prime(2, True), TypeError),
    ("prime(2, 1.0)", lambda: prime(2, 1.0), TypeError),
    ("prime(2, 4)", lambda: prime(2, 4), ValueError),
    ("literal_form(2, True)", lambda: literal_form(2, True), TypeError),
    ("literal_form(2, -1)", lambda: literal_form(2, -1), ValueError),
    ("orthogonal(2, 0, True)", lambda: orthogonal(2, 0, True), TypeError),
    ("orthogonal(2, 4, 0)", lambda: orthogonal(2, 4, 0), ValueError),
    ("compose(2, [True])", lambda: compose(2, [True]), TypeError),
    ("clause_text(2, True)", lambda: clause_text(2, True), TypeError),
    ("clause_text(2, 4)", lambda: clause_text(2, 4), ValueError),
    ("minterm_text(2, True)", lambda: minterm_text(2, True), TypeError),
    ("minterm_text(2, 1.0)", lambda: minterm_text(2, 1.0), TypeError),
    ("eval_at(f, True)", lambda: eval_at(F2, True), TypeError),
    ("eval_at(f, 1.0)", lambda: eval_at(F2, 1.0), TypeError),
    ("eval_at(f, 4)", lambda: eval_at(F2, 4), ValueError),
    ("pi(0, True, 2)", lambda: pi(0, True, 2), TypeError),
    ("pi(0, 4, 2)", lambda: pi(0, 4, 2), ValueError),
    # variable indices r
    ("var(2, True)", lambda: var(2, True), TypeError),
    ("var(2, 1.0)", lambda: var(2, 1.0), TypeError),
    ("var(2, 3)", lambda: var(2, 3), ValueError),
    ("Anf(2, [[True]])", lambda: Anf(2, [[True]]), TypeError),
    ("Anf(2, [[3]])", lambda: Anf(2, [[3]]), ValueError),
    ("basis(2, True)", lambda: basis(2, True), TypeError),
    ("basis(2, 1.0)", lambda: basis(2, 1.0), TypeError),
    ("basis(2, 0)", lambda: basis(2, 0), ValueError),
    ("Assignment(2, 1).value(True)", lambda: Assignment(2, 1).value(True), TypeError),
    ("Assignment(2, 1).value(1.0)", lambda: Assignment(2, 1).value(1.0), TypeError),
    ("Assignment(2, 1).value(3)", lambda: Assignment(2, 1).value(3), ValueError),
    ("FlipMask.parse('a3', 2)", lambda: FlipMask.parse("a3", 2), ValueError),
    # flip masks s
    ("FlipMask(2, True)", lambda: FlipMask(2, True), TypeError),
    ("FlipMask(2, 1.0)", lambda: FlipMask(2, 1.0), TypeError),
    ("FlipMask(2, 4)", lambda: FlipMask(2, 4), ValueError),
    ("apply_flip(f, True)", lambda: apply_flip(F2, True), TypeError),
    ("apply_flip(f, 1.0)", lambda: apply_flip(F2, 1.0), TypeError),
    ("apply_flip(f, 4)", lambda: apply_flip(F2, 4), ValueError),
    ("pi(True, 0, 2)", lambda: pi(True, 0, 2), TypeError),
    ("pi(4, 0, 2)", lambda: pi(4, 0, 2), ValueError),
    ("ast_flip(f, True)", lambda: ast_flip(parse_formula("a1 & a2"), True), TypeError),
    ("cnf_flip(doc, 1.0)", lambda: cnf_flip(CnfDoc(2, ((1, 2),)), 1.0), TypeError),
    ("clause_blowup([1], True)", lambda: clause_blowup([1], True), TypeError),
    # payloads: truth vectors, polarities and clause literals
    ("BoolFunc(2, True)", lambda: BoolFunc(2, True), TypeError),
    ("BoolFunc(2, 1.0)", lambda: BoolFunc(2, 1.0), TypeError),
    ("BoolFunc(2, 16)", lambda: BoolFunc(2, 16), ValueError),
    ("LiteralProduct(2, (True, 1))", lambda: LiteralProduct(2, (True, 1)), TypeError),
    ("LiteralProduct(2, (1, 'x'))", lambda: LiteralProduct(2, (1, "x")), TypeError),
    ("CnfDoc(2, ((True,),))", lambda: CnfDoc(2, ((True,),)), DimacsError),
    ("CnfDoc(2, ((1, False),))", lambda: CnfDoc(2, ((1, False),)), DimacsError),
    # formulas: the variable count, one str name per variable, and the code's entries,
    # opcodes, variables and stack depth
    ("Formula((1,), True, ...)", lambda: Formula((1,), True, ("a1",)), TypeError),
    ("Formula((-2,), 0, ())", lambda: Formula((-2,), 0, ()), SizeLimitError),
    ("Formula((1, 2, -7), 2, ('x',))", lambda: Formula((1, 2, -7), 2, ("x",)), ValueError),
    ("Formula((1,), 1, (5,))", lambda: Formula((1,), 1, (5,)), TypeError),
    ("Formula((True,), 1, ...)", lambda: Formula((True,), 1, ("a1",)), TypeError),
    ("Formula((1.0,), 1, ...)", lambda: Formula((1.0,), 1, ("a1",)), TypeError),
    ("Formula(('1',), 1, ...)", lambda: Formula(("1",), 1, ("a1",)), TypeError),
    ("Formula((1, 1, -7, False), 1, ...)", lambda: Formula((1, 1, -7, False), 1, ("a1",)),
     TypeError),
    ("Formula((0,), 1, ...)", lambda: Formula((0,), 1, ("a1",)), ValueError),
    ("Formula((1, 1, -12), 1, ...)", lambda: Formula((1, 1, -12), 1, ("a1",)), ValueError),
    ("Formula((2,), 1, ...)", lambda: Formula((2,), 1, ("a1",)), ValueError),
    ("Formula((1, -3, 3, -7), 2, ...)", lambda: Formula((1, -3, 3, -7), 2, ("a1", "a2")),
     ValueError),
    ("Formula((-3,), 1, ...)", lambda: Formula((-3,), 1, ("a1",)), ValueError),
    ("Formula((1, -7), 1, ...)", lambda: Formula((1, -7), 1, ("a1",)), ValueError),
    ("Formula((1, -11), 1, ...)", lambda: Formula((1, -11), 1, ("a1",)), ValueError),
    ("Formula((), 1, ...)", lambda: Formula((), 1, ("a1",)), ValueError),
    ("Formula((1, 1), 1, ...)", lambda: Formula((1, 1), 1, ("a1",)), ValueError),
    ("Formula((1, -1, -7, -2), 1, ...)", lambda: Formula((1, -1, -7, -2), 1, ("a1",)),
     ValueError),
    # a mask or assignment over another count than the explicit n
    ("pi(FlipMask(2, 1), 1, 3)", lambda: pi(FlipMask(2, 1), 1, 3), ValueError),
    ("pi(1, Assignment(2, 1), 3)", lambda: pi(1, Assignment(2, 1), 3), ValueError),
]


@pytest.mark.parametrize("call, error", [(c, e) for _, c, e in CASES], ids=[i for i, _, _ in CASES])
def test_bad_argument_is_refused(call, error):
    with pytest.raises(error) as exc:
        call()
    # exactly the documented class: a SizeLimitError is also a ValueError
    assert (exc.type is SizeLimitError) == (error is SizeLimitError)
    # a message of the package's own, never a bare operator or int() failure
    assert "unsupported operand" not in str(exc.value)
    assert "invalid literal" not in str(exc.value)


def test_flip_mask_does_not_print_as_bool():
    with pytest.raises(TypeError, match="flip mask must be an int, got bool"):
        FlipMask(2, True)


SRC = Path(__file__).resolve().parents[1] / "src" / "boolring"


def _files_containing(text):
    return sorted(p.name for p in SRC.glob("*.py") if text in p.read_text(encoding="utf-8"))


def test_range_and_cap_rules_live_in_ring():
    assert _files_containing("outside 0..") == ["ring.py"]
    assert _files_containing("outside 1..") == ["ring.py"]
    assert _files_containing("raise SizeLimitError") == ["cli.py", "ring.py"]
