"""The contract shared by the package's immutable value classes.

Every value class compares equal only to an instance of the same class
with equal fields, hashes as the tuple of its fields, prints as
``Name(field=value, ...)``, refuses writes and deletes with
``dataclasses.FrozenInstanceError``, survives ``copy`` and ``pickle``,
keeps its docstring and takes positional ``match`` patterns.  A second
test checks that importing the CLI loads none of ``dataclasses``,
``inspect`` or ``json``.
"""

import ast
import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import boolring
from boolring import (
    AllowedMapTable,
    Anf,
    Assignment,
    BoolFunc,
    CnfDoc,
    FlipMask,
    Formula,
    LiteralProduct,
    PrimeSet,
    Report,
)
from boolring.frontend import And, Const, Implies, Not, Or, Var, Xor

# class, its fields, a builder of a fresh value, a value differing in one
# field, and the exact repr of the built value
CASES = [
    (BoolFunc, ("n", "tt"), lambda: BoolFunc(2, 6), BoolFunc(2, 9), "BoolFunc(n=2, tt=0x6)"),
    (Anf, ("n", "mask"), lambda: Anf(2, [[1], [1, 2]]), Anf(2, [[2]]), "Anf(n=2, mask=10)"),
    (PrimeSet, ("n", "mask"), lambda: PrimeSet(2, [0, 3]), PrimeSet(3, [0, 3]),
     "PrimeSet(n=2, mask=9)"),
    (LiteralProduct, ("n", "polarities"), lambda: LiteralProduct(2, (True, False)),
     LiteralProduct(2, (False, False)), "LiteralProduct(n=2, polarities=(True, False))"),
    (Assignment, ("n", "index"), lambda: Assignment(2, 3), Assignment(2, 1),
     "Assignment(n=2, index=3)"),
    (AllowedMapTable, ("n", "maps"), lambda: AllowedMapTable(1, ((0, 1),)),
     AllowedMapTable(1, ((1, 0),)), "AllowedMapTable(n=1, maps=((0, 1),))"),
    (FlipMask, ("n", "s"), lambda: FlipMask(2, 1), FlipMask(3, 1), "FlipMask(n=2, s=1)"),
    (Const, ("value",), lambda: Const(1), Const(0), "Const(value=1)"),
    (Var, ("index",), lambda: Var(2), Var(1), "Var(index=2)"),
    (Not, ("arg",), lambda: Not(Var(1)), Not(Var(2)), "Not(arg=Var(index=1))"),
    (And, ("lhs", "rhs"), lambda: And(Var(1), Const(0)), And(Var(1), Const(1)),
     "And(lhs=Var(index=1), rhs=Const(value=0))"),
    (Or, ("lhs", "rhs"), lambda: Or(Var(1), Const(0)), Or(Var(2), Const(0)),
     "Or(lhs=Var(index=1), rhs=Const(value=0))"),
    (Xor, ("lhs", "rhs"), lambda: Xor(Var(1), Const(0)), Xor(Const(0), Var(1)),
     "Xor(lhs=Var(index=1), rhs=Const(value=0))"),
    (Implies, ("lhs", "rhs"), lambda: Implies(Var(1), Const(0)), Implies(Var(1), Var(1)),
     "Implies(lhs=Var(index=1), rhs=Const(value=0))"),
    (Formula, ("root", "n", "names"), lambda: Formula(Not(Var(1)), 1, ("a1",)),
     Formula(Not(Var(1)), 1, ("x",)), "Formula(root=Not(arg=Var(index=1)), n=1, names=('a1',))"),
    (CnfDoc, ("n", "clauses"), lambda: CnfDoc(2, ((-2, 1),)), CnfDoc(2, ((1,),)),
     "CnfDoc(n=2, clauses=((1, -2),))"),
    (Report, ("name", "n", "passed", "checks", "elapsed", "counterexample"),
     lambda: Report("TV", 2, True, 7, 0.5), Report("TV", 2, False, 7, 0.5, "j=1"),
     "Report(name='TV', n=2, passed=True, checks=7, elapsed=0.5, counterexample=None)"),
]

IDS = [case[0].__name__ for case in CASES]


def field_tuple(value, fields):
    return tuple(getattr(value, name) for name in fields)


def positional(value, arity):
    """The fields of ``value`` bound by a positional class pattern."""
    cls = type(value)
    if arity == 1:
        match value:
            case cls(a):
                return (a,)
    elif arity == 2:
        match value:
            case cls(a, b):
                return (a, b)
    elif arity == 3:
        match value:
            case cls(a, b, c):
                return (a, b, c)
    else:
        match value:
            case cls(a, b, c, d, e, f):
                return (a, b, c, d, e, f)
    return None


def test_every_value_class_is_covered():
    assert len(CASES) == 17
    assert len(set(IDS)) == 17


@pytest.mark.parametrize("cls, fields, make, other, text", CASES, ids=IDS)
class TestValueContract:
    def test_equality(self, cls, fields, make, other, text):
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        assert a != other and not a == other
        assert a.__eq__(object()) is NotImplemented
        assert a != field_tuple(a, fields)

    def test_inequality_across_classes(self, cls, fields, make, other, text):
        a = make()
        for other_cls, _, other_make, _, _ in CASES:
            if other_cls is not cls:
                assert a != other_make() and other_make() != a

    def test_hash_is_field_tuple_hash(self, cls, fields, make, other, text):
        a = make()
        assert hash(a) == hash(field_tuple(a, fields)) == hash(make())

    def test_repr(self, cls, fields, make, other, text):
        assert repr(make()) == text

    def test_frozen(self, cls, fields, make, other, text):
        a = make()
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)
        assert a == make()

    def test_copy_and_pickle(self, cls, fields, make, other, text):
        a = make()
        copies = [copy.copy(a), copy.deepcopy(a)]
        copies += [pickle.loads(pickle.dumps(a, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is cls
            assert c == a and hash(c) == hash(a) and repr(c) == text
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(c, fields[0], 0)

    def test_docstring_kept(self, cls, fields, make, other, text):
        assert isinstance(cls.__doc__, str) and cls.__doc__.strip()
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        written = ast.get_docstring(tree.body[0], clean=False)
        if written is not None:
            assert cls.__doc__ == written

    def test_positional_match(self, cls, fields, make, other, text):
        a = make()
        assert cls.__match_args__ == fields
        assert positional(a, len(fields)) == field_tuple(a, fields)


# classes with a validation-free constructor: the fields it takes and the
# value the validating constructor builds from the same data
OF_CASES = [
    (Anf, (2, 10), Anf(2, [[1], [1, 2]])),
    (PrimeSet, (2, 9), PrimeSet(2, [0, 3])),
    (Assignment, (2, 3), Assignment(2, 3)),
]


@pytest.mark.parametrize("cls, fields, built", OF_CASES, ids=[c[0].__name__ for c in OF_CASES])
def test_of_matches_constructor(cls, fields, built):
    value = cls._of(*fields)
    assert type(value) is cls
    assert value == built and hash(value) == hash(built)


def test_match_tells_node_classes_apart():
    def kind(node):
        match node:
            case And(Var(1), Const(0)):
                return "and"
            case Or(p, q):
                return f"or {p.index} {q.index}"
            case Not(Var(r)):
                return f"not {r}"
        return None

    assert kind(And(Var(1), Const(0))) == "and"
    assert kind(Xor(Var(1), Const(0))) is None
    assert kind(Or(Var(2), Var(3))) == "or 2 3"
    assert kind(Not(Var(4))) == "not 4"
    assert kind(Implies(Var(1), Const(0))) is None


def test_cli_import_loads_no_heavy_modules():
    """Importing the CLI must not pull in ``dataclasses``, ``inspect`` or
    ``json``; module sets, not times, keep the check steady."""
    src = Path(boolring.__file__).resolve().parents[1]
    code = (
        "import sys; before = set(sys.modules); import boolring.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    added = set(proc.stdout.split())
    assert "boolring.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}
