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
from importlib import import_module
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
from boolring.ring import _Frozen

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
    (Formula, ("code", "n", "names"), lambda: Formula((1, -3), 1, ("a1",)),
     Formula((1, -3), 1, ("x",)), "Formula(code=(1, -3), n=1, names=('a1',))"),
    (CnfDoc, ("n", "clauses"), lambda: CnfDoc(2, ((-2, 1),)), CnfDoc(2, ((1,),)),
     "CnfDoc(n=2, clauses=((1, -2),))"),
    (Report, ("name", "n", "passed", "checks", "elapsed", "counterexample"),
     lambda: Report("TV", 2, True, 7, 0.5), Report("TV", 2, False, 7, 0.5, "j=1"),
     "Report(name='TV', n=2, passed=True, checks=7, elapsed=0.5, counterexample=None)"),
]
IDS = [case[0].__name__ for case in CASES]
CLASSES = set(IDS)


def formula(code, n=2):
    return Formula(code, n, [f"a{r}" for r in range(1, n + 1)])


# one more Formula row per top operation of its code, named after it: 1 and 2
# push a1 and a2, -1 and -2 the constants 0 and 1, -3 is '!', -4 to -7 are
# '->', '|', '^' and '&', and -8 to -11 the same with the rhs code first
SHAPES = {
    "Const": ((-2,), formula((-1,))),
    "Var": ((2,), formula((1,))),
    "Not": ((1, -3), formula((2, -3))),
    "And": ((1, -1, -7), formula((1, -2, -7))),
    "Or": ((1, -1, -5), formula((1, -1, -9))),
    "Xor": ((1, -1, -6), formula((1, -1, -7))),
    "Implies": ((1, -1, -4), formula((1, -1, -8))),
}
for code, other in SHAPES.values():
    CASES.append((Formula, ("code", "n", "names"), lambda code=code: formula(list(code)), other,
                  f"Formula(code={code!r}, n=2, names=('a1', 'a2'))"))
IDS += list(SHAPES)


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
    for module in boolring._EXPORTS:
        import_module(f"boolring.{module}")
    subclasses, pending = set(), [_Frozen]
    while pending:
        for sub in pending.pop().__subclasses__():
            subclasses.add(sub.__name__)
            pending.append(sub)
    assert subclasses == CLASSES


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
    (Formula, ((1, 2, -7), 2, ("a1", "a2")), Formula([1, 2, -7], 2, ["a1", "a2"])),
]


@pytest.mark.parametrize("cls, fields, built", OF_CASES, ids=[c[0].__name__ for c in OF_CASES])
def test_of_matches_constructor(cls, fields, built):
    value = cls._of(*fields)
    assert type(value) is cls
    assert value == built and hash(value) == hash(built)


# classes with sequence fields: a builder from the given sequence and list
# data for it; the constructor must keep its own tuple, never the list
SEQUENCE_CASES = {
    "LiteralProduct": (lambda seq: LiteralProduct(2, seq), [True, False]),
    "Formula": (lambda seq: Formula((1,), 1, seq), ["a1"]),
    "Formula-code": (lambda seq: Formula(seq, 2, ("a1", "a2")), [1, 2, -3, -7]),
    "CnfDoc": (lambda seq: CnfDoc(2, seq), [[-2, 1], [1]]),
    "AllowedMapTable": (lambda seq: AllowedMapTable(1, seq), [[0, 1], [1, 0]]),
}


@pytest.mark.parametrize("build, items", SEQUENCE_CASES.values(), ids=SEQUENCE_CASES)
def test_list_fields_become_tuples(build, items):
    source = list(items)
    value, from_tuple = build(source), build(tuple(items))
    assert value == from_tuple and hash(value) == hash(from_tuple)
    text, shown = repr(value), str(value)
    source.clear()
    assert value == from_tuple and hash(value) == hash(from_tuple)
    assert repr(value) == text and str(value) == shown


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
