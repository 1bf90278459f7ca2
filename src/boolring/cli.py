"""Command-line interface.

Subcommands: canon (canonical forms), count (model counting), expand
(full-width CNF expansion), flip (variable negation with a conservation
check), verify (the built-in check suite), taut (tautology test).

``main`` is the one pipeline: it loads the input's truth vector (verify
has no input), runs the subcommand's transform, which returns fields and
an exit code and neither loads nor prints, and emits the fields: one
``key: value`` line each (verify: its report lines, then
``all_passed``), or JSON with --json.

Exit codes: 0 success, 1 a negative answer (a failed check, a flip that
changed the model count, a non-tautology), 2 usage or parse error, 3
size-cap refusal, also when the truth vector is too large to build
(OverflowError or MemoryError, as with a raised --max-vars), 4 any other
exception, reported as one ``internal error: <Type>: <message>`` line on
stderr with no traceback, 141 (128 + SIGPIPE, silently) when the reader
closes stdout early.  Output is deterministic for a given input; --json
emits the same fields as the text form.

Each subcommand imports only the modules it runs: verify does not load
the text frontend, and the others do not load the verification suite.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .primes import decompose, prime_cnf_text
from .ring import (
    BoolFunc, SizeLimitError, check_var_count, get_max_vars, one, set_max_vars, to_anf,
    _decimal, _set_bits,
)
from .truthmaps import count_models, satisfying_assignments

if TYPE_CHECKING:
    from .frontend import CnfDoc, Formula

    Fields = dict[str, Any]
    Source = Formula | CnfDoc

__all__ = ["main"]

# each verify check: its report name, its flags, its help text and how it runs
# on --n; theorems is passed in, so that only verify imports it
_CHECKS = (
    ("TI", ("--ti",), "cardinality and splitting", lambda th, n: th.verify_ti(n)),
    ("TII+TIII", ("--tii", "--tiii"), "prime scan and unique factorization",
     lambda th, n: th.verify_tii_tiii(n)),
    ("TIV", ("--tiv",), "allowed-map enumeration", lambda th, n: th.verify_tiv(n)),
    ("TV", ("--tv",), "basis reconstruction", lambda th, n: th.verify_tv(n)),
    ("flip-group", ("--flip-group",), "flip group laws", lambda th, n: th.flip_group_check(n)),
    ("resolution", ("--resolution",), "cut-rule replay", lambda th, n: th.verify_resolution()),
)


class _UsageError(ValueError):
    pass


def _emit(fields: Fields, as_json: bool, text: Callable[[Fields], Iterable[str]]) -> None:
    if as_json:
        import json  # imported here so that text output does not pay for it

        print(json.dumps(fields, indent=2))
    else:
        print(*text(fields), sep="\n")


def _field_lines(fields: Fields) -> Iterable[str]:
    for key, value in fields.items():
        if isinstance(value, (list, tuple)):
            value = "{" + ", ".join(map(str, value)) + "}"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        yield f"{key}: {value}"


def _report_lines(fields: Fields) -> Iterable[str]:
    from .theorems import Report

    for report in fields["reports"]:
        yield Report(elapsed=0.0, **report).line(with_elapsed=False)
    yield f"all_passed: {'true' if fields['all_passed'] else 'false'}"


def _load(args: argparse.Namespace) -> tuple[BoolFunc, Source, Fields]:
    """Read the input: its truth vector, its parsed source, and the leading
    fields ``input``, ``format`` and ``n``."""
    from .frontend import eval_ast, eval_cnf, parse_dimacs, parse_formula

    if getattr(args, "formula", None) is not None:
        source: Source = parse_formula(args.formula, args.n)
        func, name, fmt = eval_ast(source), args.formula, "formula"
    else:
        if args.n is not None:
            raise _UsageError("--n applies only to --formula input")
        try:
            with open(args.dimacs, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read {args.dimacs}: {exc}") from None
        source = parse_dimacs(text)
        func, name, fmt = eval_cnf(source), args.dimacs, "dimacs"
    return func, source, {"input": name, "format": fmt, "n": func.n}


def _canon(func: BoolFunc, source: Source, args: argparse.Namespace) -> tuple[Fields, int]:
    ps = decompose(func)
    return {
        "truth_bits": func.to_bits(),
        "truth_hex": func.to_hex(),
        "anf": str(to_anf(func)),
        "prime_indices": _set_bits(ps.mask),
        "minterm_indices": _set_bits(func.tt),
    }, 0


def _count(func: BoolFunc, source: Source, args: argparse.Namespace) -> tuple[Fields, int]:
    fields: Fields = {"model_count": count_models(func)}
    if args.assignments:
        fields["assignments"] = [str(j) for j in satisfying_assignments(func)]
    return fields, 0


def _expand(func: BoolFunc, source: CnfDoc, args: argparse.Namespace) -> tuple[Fields, int]:
    ps = decompose(func)
    return {
        "clauses_in": len(source.clauses),
        "prime_count": ps.mask.bit_count(),
        "model_count": count_models(func),
        "expanded_cnf": prime_cnf_text(ps),
    }, 0


def _flip(func: BoolFunc, source: Source, args: argparse.Namespace) -> tuple[Fields, int]:
    from .flipgroup import FlipMask, apply_flip
    from .frontend import Formula, ast_flip, cnf_flip, to_dimacs

    mask = FlipMask.parse(args.flip, func.n)
    flipped = apply_flip(func, mask)
    fields: Fields = {
        "mask": mask.s,
        "flipped_variables": [f"a{r}" for r in mask.variables()],
        "original_bits": func.to_bits(),
        "flipped_bits": flipped.to_bits(),
    }
    if isinstance(source, Formula):
        fields["flipped_formula"] = ast_flip(source, mask).to_text()
    else:
        fields["flipped_dimacs"] = to_dimacs(cnf_flip(source, mask)).strip().replace("\n", " / ")
    fields["original_count"] = count_models(func)
    fields["flipped_count"] = count_models(flipped)
    fields["counts_equal"] = fields["original_count"] == fields["flipped_count"]
    return fields, 0 if fields["counts_equal"] else 1


def _verify(func: None, source: None, args: argparse.Namespace) -> tuple[Fields, int]:
    from . import theorems

    caps = {**theorems.THEOREM_CAPS, "flip-group": theorems.GROUP_CHECK_LIMIT}
    selected = [(name, run) for name, _, _, run in _CHECKS if args.all or getattr(args, name)]
    if not selected:
        raise _UsageError("select at least one check (or use --all)")
    for name, _ in selected:
        cap = caps.get(name)  # None: the check ignores --n
        if cap is not None and args.n > cap:
            raise SizeLimitError(f"{name} is capped at n <= {cap}; drop it or lower --n")
    check_var_count(args.n)  # also when no selected check reads n
    reports = [run(theorems, args.n) for _, run in selected]
    passed = all(r.passed for r in reports)
    dicts = [r.as_dict(with_elapsed=False) for r in reports]
    return {"n": args.n, "reports": dicts, "all_passed": passed}, 0 if passed else 1


def _taut(func: BoolFunc, source: Source, args: argparse.Namespace) -> tuple[Fields, int]:
    is_taut = func == one(func.n)
    return {"tautology": is_taut}, 0 if is_taut else 1


def _add_cap_and_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-vars", type=_decimal, default=None,
                     help="override the variable cap (default 24)")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _input_subcommand(subs: Any, name: str, transform: Callable, summary: str,
                      formula: bool = True) -> argparse.ArgumentParser:
    sub = subs.add_parser(name, help=summary)
    group = sub.add_mutually_exclusive_group(required=True)
    if formula:
        group.add_argument("--formula", help="formula text, e.g. '(a1 | a2) & !a3'")
    group.add_argument("--dimacs", metavar="PATH", help="path to a DIMACS CNF file")
    sub.add_argument("--n", type=_decimal, default=None,
                     help="variable count for formula input (default: inferred)")
    _add_cap_and_json(sub)
    sub.set_defaults(transform=transform, text=_field_lines)
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolring",
        description="Boolean ring algebra on packed truth vectors.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _input_subcommand(subs, "canon", _canon, "canonical forms of the input")
    sub = _input_subcommand(subs, "count", _count, "exact model count")
    sub.add_argument("--assignments", action="store_true",
                     help="also list the satisfying assignments")
    _input_subcommand(subs, "expand", _expand, "full-width CNF expansion of a DIMACS file",
                      formula=False)
    sub = _input_subcommand(subs, "flip", _flip, "negate selected variables, checking conservation")
    sub.add_argument("--flip", required=True, metavar="MASK",
                     help="decimal mask or variable list like a1,a3")

    sub = subs.add_parser("verify", help="run the built-in verification suite")
    sub.add_argument("--n", type=_decimal, default=2, help="variable count (default 2)")
    sub.add_argument("--all", action="store_true", help="run every check")
    for name, flags, summary, _ in _CHECKS:
        sub.add_argument(*flags, dest=name, action="store_true", help=summary)
    _add_cap_and_json(sub)
    sub.set_defaults(transform=_verify, text=_report_lines)

    _input_subcommand(subs, "taut", _taut, "exit 0 iff the input is a tautology")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    saved_cap = get_max_vars()
    try:
        if args.max_vars is not None:
            set_max_vars(args.max_vars)
        # every subcommand but verify reads an input, and only they have --dimacs
        func, source, fields = _load(args) if "dimacs" in args else (None, None, {})
        more, code = args.transform(func, source, args)
        _emit({**fields, **more}, args.json, args.text)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes nowhere, silently
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, MemoryError) as exc:
        # a cap raised past what memory holds: the 2**n-bit vector cannot be made
        print(f"refused: truth vector too large to build ({type(exc).__name__})", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault of the program, not of the input: one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        # the cap is process-wide; an override must not outlive this call
        set_max_vars(saved_cap)


if __name__ == "__main__":
    sys.exit(main())
