"""Boolean ring algebra on packed truth vectors.

Functions of n variables form a ring under XOR and AND; this package
represents them as 2**n-bit integers and builds prime (maxterm)
decomposition, exact model counting, variable-flip symmetries, text
frontends, and a verification suite on top of that representation.

``import boolring`` loads no submodule: each public name is imported
from its home module on first access (PEP 562), so a process compiles
only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by home module: the one declaration, which each module's
# __all__ reads its row from
_EXPORTS = {
    "ring": (
        "DEFAULT_MAX_VARS", "Anf", "BoolFunc", "SizeLimitError", "add", "from_anf",
        "get_max_vars", "mul", "neg", "one", "or_", "set_max_vars", "to_anf", "var", "zero",
    ),
    "primes": (
        "LiteralProduct", "PrimeSet", "clause_text", "compose", "decompose", "literal_form",
        "minterm_dnf_text", "minterm_text", "orthogonal", "prime", "prime_cnf_text",
    ),
    "truthmaps": ("Assignment", "count_models", "eval_at", "satisfying_assignments"),
    "flipgroup": ("FlipMask", "apply_flip", "pi"),
    "frontend": (
        "CnfDoc", "DimacsError", "Formula", "FormulaSyntaxError", "ast_flip", "clause_blowup",
        "cnf_flip", "cnf_to_primes", "eval_ast", "eval_cnf", "parse_dimacs", "parse_formula",
        "to_dimacs",
    ),
    "theorems": (
        "ADD_TABLE", "MUL_TABLE", "AllowedMapTable", "GROUP_CHECK_LIMIT", "Report", "THEOREM_CAPS",
        "basis", "conservation_check", "enumerate_allowed_maps", "flip_group_check",
        "verify_resolution", "verify_ti", "verify_tii_tiii", "verify_tiv", "verify_tv",
    ),
    "blocks": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
