"""Layering: the operations modules do not depend on the verification
suite, the package imports nothing until a name is used, each CLI
subcommand loads only the modules it runs, and one module owns each
decision of the text path: the 256-position blocks, the per-n chunk
tables and the variable names."""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import boolring

SRC = Path(boolring.__file__).resolve().parent
OPERATIONS = ["flipgroup.py", "frontend.py", "primes.py", "ring.py", "truthmaps.py"]

PUBLIC_NAMES = {
    "ADD_TABLE", "AllowedMapTable", "Anf", "Assignment", "BoolFunc", "CnfDoc",
    "DEFAULT_MAX_VARS", "DimacsError", "FlipMask", "Formula", "FormulaSyntaxError",
    "GROUP_CHECK_LIMIT", "LiteralProduct", "MUL_TABLE", "PrimeSet", "Report",
    "SizeLimitError", "THEOREM_CAPS", "add", "apply_flip", "ast_flip", "basis",
    "clause_blowup", "clause_text", "cnf_flip", "cnf_to_primes", "compose",
    "conservation_check", "count_models", "decompose", "enumerate_allowed_maps", "eval_ast",
    "eval_at", "eval_cnf", "flip_group_check", "from_anf", "get_max_vars", "literal_form",
    "minterm_dnf_text", "minterm_text", "mul", "neg", "one", "or_", "orthogonal",
    "parse_dimacs", "parse_formula", "pi", "prime", "prime_cnf_text",
    "satisfying_assignments", "set_max_vars", "to_anf", "to_dimacs", "var",
    "verify_resolution", "verify_ti", "verify_tii_tiii", "verify_tiv", "verify_tv", "zero",
}


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports boolring from this checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return proc.stdout.splitlines()[-1].split()


def test_operations_do_not_import_the_verification_layer():
    for name in OPERATIONS:
        text = (SRC / name).read_text(encoding="utf-8")
        assert "from .theorems" not in text, name


def test_operations_do_not_loop_over_all_assignments():
    for name in OPERATIONS:
        assert "range(1 <<" not in (SRC / name).read_text(encoding="utf-8"), name


def test_only_ring_reads_the_bytes_of_a_vector():
    # the set positions of a vector are found in one scan, ring._selectors
    for path in SRC.glob("*.py"):
        if path.name != "ring.py":
            text = path.read_text(encoding="utf-8")
            for call in ("to_bytes(", "from_bytes(", "memoryview("):
                assert call not in text, (path.name, call)


def _calls(tree, name):
    """The calls of the plain name ``name`` in ``tree``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


def test_only_blocks_cuts_a_vector_into_blocks():
    # the 256-position blocks of the text renderer are made in blocks.py alone
    for path in SRC.glob("*.py"):
        if path.name == "blocks.py":
            continue
        text = path.read_text(encoding="utf-8")
        if path.name != "ring.py":
            assert "_selectors" not in text, path.name
        shifts = [call.args[1] for call in _calls(ast.parse(text), "_selectors")]
        assert not any(isinstance(s, ast.Constant) and s.value == 8 for s in shifts), path.name
        assert "bytes(255 -" not in text, path.name


def test_ring_keeps_the_one_store_of_chunk_tables():
    # the per-n chunk tables live in ring._ChunkTables; only ring and blocks build tables
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dict_classes = [
            node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", None) == "dict" for base in node.bases)
        ]
        assert dict_classes == (["_ChunkTables"] if path.name == "ring.py" else []), path.name
        if path.name not in ("ring.py", "blocks.py"):
            assert _calls(tree, "_chunk_tables") == [], path.name


def _name_spellings(tree):
    """The lines of ``tree`` that write 'a' before a formatted value, test a
    token for the 'a' prefix or match 'a' and digits with a regex."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            lines += [node.lineno for part, after in zip(node.values, node.values[1:])
                      if isinstance(part, ast.Constant) and isinstance(after, ast.FormattedValue)
                      and re.search(r"(?<!\w)a\Z", part.value)]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                "startswith", "removeprefix"):
            lines += [node.lineno for a in node.args if isinstance(a, ast.Constant)
                      and a.value == "a"]
        elif isinstance(node, ast.Compare):
            lines += [node.lineno for c in (node.left, *node.comparators)
                      if isinstance(c, ast.Constant) and c.value == "a"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            lines += [node.lineno] if re.search(r"a\(?\\d", node.value) else []
    return lines


def test_only_ring_writes_and_reads_variable_names():
    # ring._var_name writes a<r> and ring._var_index reads it, for every text,
    # parser and CLI field
    import boolring.frontend
    import boolring.ring

    assert boolring.ring._var_name(12) == "a12"
    assert boolring.ring._var_index("a12") == 12
    assert not hasattr(boolring.frontend, "_INDEXED_RE")
    for path in SRC.glob("*.py"):
        if path.name != "ring.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert _name_spellings(tree) == [], path.name


def test_name_spellings_finds_each_form():
    for code in ('f"a{r}"', 'f"~a{r}"', 'f" a{r}=0"', 'f"variable a{i} beyond"',
                 'tok.startswith("a")', 'tok[0] == "a"', 're.compile(r"a(\\d+)\\Z")'):
        assert _name_spellings(ast.parse(code)) == [1], code
    for code in ('f"data{r}"', 'f"{a}"', '"a1"', 'tok.startswith("ab")'):
        assert _name_spellings(ast.parse(code)) == [], code


def test_cli_loads_and_emits_in_one_place():
    # main is the one pipeline: no subcommand reads its input or prints on its own
    text = (SRC / "cli.py").read_text(encoding="utf-8")
    for call in ("_load(", "_emit("):
        assert text.count(call) - text.count(f"def {call}") == 1, call


ORACLES = ["ADD_TABLE", "MUL_TABLE", "AllowedMapTable", "enumerate_allowed_maps", "basis"]


def test_oracles_live_in_the_verification_layer():
    import boolring.primes
    import boolring.theorems
    import boolring.truthmaps

    for name in ORACLES:
        assert hasattr(boolring.theorems, name), name
        assert not hasattr(boolring.truthmaps, name), name
        assert not hasattr(boolring.primes, name), name
        assert getattr(boolring, name) is getattr(boolring.theorems, name), name


EMITTERS = ["clause_text", "minterm_text", "prime_cnf_text", "minterm_dnf_text"]


def test_emitters_live_in_primes():
    import boolring.frontend
    import boolring.primes

    for name in EMITTERS:
        assert hasattr(boolring.primes, name), name
        assert getattr(boolring, name) is getattr(boolring.primes, name), name
        assert not hasattr(boolring.frontend, name), name
    # the styles and the one helper that renders them stay private to primes
    for path in SRC.glob("*.py"):
        if path.name != "primes.py":
            text = path.read_text(encoding="utf-8")
            for private in ("_CLAUSE", "_MINTERM", "_terms_text", "_checked_names"):
                assert private not in text, (path.name, private)


def test_bare_import_loads_no_submodule():
    loaded = _python(
        "import sys, boolring; "
        "print(' '.join(m for m in sys.modules if m.startswith('boolring.')))"
    )
    assert loaded == []


# main, not the process entry, which ends the process before anything can print
_RUN_SUBCOMMAND = """\
import sys
from boolring.cli import main
code = main(sys.argv[1:])
print(code, *(m for m in sys.modules if m.startswith("boolring.")))
"""


@pytest.mark.parametrize("argv", [
    ["canon", "--formula", "a1 & a2"],
    ["count", "--formula", "a1 | a2"],
    ["expand", "--dimacs", "PATH"],
    ["flip", "--formula", "a1 -> a2", "--flip", "a1"],
    ["taut", "--formula", "a1 | !a1"],
    ["verify", "--all"],
], ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_layer(tmp_path, argv):
    cnf = tmp_path / "premise.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n", encoding="utf-8")
    argv = [str(cnf) if a == "PATH" else a for a in argv]
    code, *loaded = _python(_RUN_SUBCOMMAND, *argv)
    assert code == "0"
    assert "boolring.ring" in loaded
    # the block renderer is loaded by the subcommands that print a polynomial or CNF
    assert ("boolring.blocks" in loaded) == (argv[0] in ("canon", "expand"))
    if argv[0] == "verify":
        assert "boolring.frontend" not in loaded
    else:
        assert "boolring.theorems" not in loaded


def test_namespace():
    assert set(boolring.__all__) == PUBLIC_NAMES
    assert len(boolring.__all__) == len(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        getattr(boolring, name)
    assert set(dir(boolring)) >= PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        boolring.no_such_name
    namespace = {}
    exec("from boolring import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)


def test_export_table_matches_each_modules_all():
    assert set(boolring._EXPORTS) == {p.stem for p in SRC.glob("*.py")} - {"__init__", "cli"}
    unexported = set()
    for module, names in boolring._EXPORTS.items():
        listed = set(import_module(f"boolring.{module}").__all__)
        assert set(names) <= listed, module
        unexported |= listed - set(names)
    assert unexported == set()


DECLARING = ["ring", "primes", "truthmaps", "flipgroup", "frontend", "theorems"]


def test_each_module_reads_its_all_from_the_export_table():
    for module in DECLARING:
        assert import_module(f"boolring.{module}").__all__ == list(boolring._EXPORTS[module])


def test_public_names_are_written_only_in_the_export_table():
    # a module's __all__ is read from boolring._EXPORTS, never spelled out again
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            listed = [e.value for e in getattr(node.value, "elts", ())
                      if isinstance(e, ast.Constant)]
            # cli's entry point is the one name the package does not re-export
            assert listed == (["main"] if path.name == "cli.py" else []), (path.name, listed)


def test_submodules_resolve_after_a_bare_import():
    found = _python(
        "import boolring; "
        "print(boolring.theorems.__name__, boolring.frontend.parse_formula.__module__)"
    )
    assert found == ["boolring.theorems", "boolring.frontend"]
