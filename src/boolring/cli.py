"""Command-line interface.

Subcommands: canon (canonical forms), count (model counting), expand
(full-width CNF expansion), flip (variable negation with a conservation
check), verify (the built-in check suite), taut (tautology test).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 size-cap refusal, also when the truth vector is too large to build
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
from typing import TYPE_CHECKING, Any, Sequence

from .primes import decompose, prime_cnf_text
from .ring import (
    BoolFunc, SizeLimitError, get_max_vars, one, set_max_vars, to_anf, _decimal, _set_bits,
)
from .truthmaps import count_models, satisfying_assignments

if TYPE_CHECKING:
    from .frontend import CnfDoc, Formula

__all__ = ["main"]


class _UsageError(ValueError):
    pass


def _emit(fields: dict[str, Any], as_json: bool) -> None:
    if as_json:
        import json  # imported here so that text output does not pay for it

        print(json.dumps(fields, indent=2))
        return
    for key, value in fields.items():
        if isinstance(value, (list, tuple)):
            rendered = "{" + ", ".join(str(v) for v in value) + "}"
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = str(value)
        print(f"{key}: {rendered}")


def _load(args: argparse.Namespace) -> tuple[BoolFunc, dict[str, Any], Formula | CnfDoc]:
    """Read the input, returning its truth vector and source description."""
    from .frontend import eval_ast, eval_cnf, parse_dimacs, parse_formula

    if getattr(args, "formula", None) is not None:
        f = parse_formula(args.formula, args.n)
        return eval_ast(f), {"input": args.formula, "format": "formula"}, f
    if args.n is not None:
        raise _UsageError("--n applies only to --formula input")
    try:
        with open(args.dimacs, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.dimacs}: {exc}") from None
    doc = parse_dimacs(text)
    return eval_cnf(doc), {"input": args.dimacs, "format": "dimacs"}, doc


def _cmd_canon(args: argparse.Namespace) -> int:
    func, meta, _ = _load(args)
    ps = decompose(func)
    fields = dict(meta)
    fields.update(
        n=func.n,
        truth_bits=func.to_bits(),
        truth_hex=func.to_hex(),
        anf=str(to_anf(func)),
        prime_indices=_set_bits(ps.mask),
        minterm_indices=_set_bits(func.tt),
    )
    _emit(fields, args.json)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    func, meta, _ = _load(args)
    fields = dict(meta)
    fields.update(n=func.n, model_count=count_models(func))
    if args.assignments:
        fields["assignments"] = [str(j) for j in satisfying_assignments(func)]
    _emit(fields, args.json)
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    func, meta, doc = _load(args)
    ps = decompose(func)
    fields = dict(meta)
    fields.update(
        n=func.n,
        clauses_in=len(doc.clauses),
        prime_count=ps.mask.bit_count(),
        model_count=count_models(func),
        expanded_cnf=prime_cnf_text(ps),
    )
    _emit(fields, args.json)
    return 0


def _cmd_flip(args: argparse.Namespace) -> int:
    from .flipgroup import FlipMask, apply_flip
    from .frontend import Formula, ast_flip, cnf_flip, to_dimacs

    func, meta, source = _load(args)
    mask = FlipMask.parse(args.flip, func.n)
    flipped = apply_flip(func, mask)
    fields = dict(meta)
    fields.update(
        n=func.n,
        mask=mask.s,
        flipped_variables=[f"a{r}" for r in mask.variables()],
        original_bits=func.to_bits(),
        flipped_bits=flipped.to_bits(),
    )
    if isinstance(source, Formula):
        fields["flipped_formula"] = ast_flip(source, mask).to_text()
    else:
        fields["flipped_dimacs"] = to_dimacs(cnf_flip(source, mask)).strip().replace("\n", " / ")
    fields["original_count"] = count_models(func)
    fields["flipped_count"] = count_models(flipped)
    fields["counts_equal"] = fields["original_count"] == fields["flipped_count"]
    _emit(fields, args.json)
    return 0 if fields["counts_equal"] else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from .theorems import (
        GROUP_CHECK_LIMIT, THEOREM_CAPS, flip_group_check, verify_resolution, verify_ti,
        verify_tii_tiii, verify_tiv, verify_tv,
    )

    # each check: its argparse dest, its cap on --n (None: the check ignores --n), its function
    checks = {
        "TI": ("ti", THEOREM_CAPS["TI"], verify_ti),
        "TII+TIII": ("tii", THEOREM_CAPS["TII+TIII"], verify_tii_tiii),
        "TIV": ("tiv", THEOREM_CAPS["TIV"], verify_tiv),
        "TV": ("tv", THEOREM_CAPS["TV"], verify_tv),
        "flip-group": ("flip_group", GROUP_CHECK_LIMIT, flip_group_check),
        "resolution": ("resolution", None, lambda n: verify_resolution()),
    }
    selected = [
        (name, cap, check)
        for name, (dest, cap, check) in checks.items()
        if args.all or getattr(args, dest)
    ]
    if not selected:
        raise _UsageError("select at least one check (or use --all)")
    n = args.n
    for name, cap, _ in selected:
        if cap is not None and n > cap:
            raise SizeLimitError(f"{name} is capped at n <= {cap}; drop it or lower --n")
    reports = [check(n) for _, _, check in selected]
    all_passed = all(r.passed for r in reports)
    if args.json:
        payload = {
            "n": n,
            "reports": [r.as_dict(with_elapsed=False) for r in reports],
            "all_passed": all_passed,
        }
        _emit(payload, as_json=True)
    else:
        for r in reports:
            print(r.line(with_elapsed=False))
        print(f"all_passed: {'true' if all_passed else 'false'}")
    return 0 if all_passed else 1


def _cmd_taut(args: argparse.Namespace) -> int:
    func, meta, _ = _load(args)
    fields = dict(meta)
    is_taut = func == one(func.n)
    fields.update(n=func.n, tautology=is_taut)
    _emit(fields, args.json)
    return 0 if is_taut else 1


def _add_common(sub: argparse.ArgumentParser, dimacs_only: bool = False) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    if not dimacs_only:
        group.add_argument("--formula", help="formula text, e.g. '(a1 | a2) & !a3'")
    group.add_argument("--dimacs", metavar="PATH", help="path to a DIMACS CNF file")
    sub.add_argument("--n", type=_decimal, default=None,
                     help="variable count for formula input (default: inferred)")
    sub.add_argument("--max-vars", type=_decimal, default=None,
                     help="override the variable cap (default 24)")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolring",
        description="Boolean ring algebra on packed truth vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical forms of the input")
    _add_common(p)
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("count", help="exact model count")
    _add_common(p)
    p.add_argument("--assignments", action="store_true",
                   help="also list the satisfying assignments")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("expand", help="full-width CNF expansion of a DIMACS file")
    _add_common(p, dimacs_only=True)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("flip", help="negate selected variables, checking conservation")
    _add_common(p)
    p.add_argument("--flip", required=True, metavar="MASK",
                   help="decimal mask or variable list like a1,a3")
    p.set_defaults(handler=_cmd_flip)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--n", type=_decimal, default=2, help="variable count (default 2)")
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--ti", action="store_true", help="cardinality and splitting")
    p.add_argument("--tii", "--tiii", dest="tii", action="store_true",
                   help="prime scan and unique factorization")
    p.add_argument("--tiv", action="store_true", help="allowed-map enumeration")
    p.add_argument("--tv", action="store_true", help="basis reconstruction")
    p.add_argument("--flip-group", action="store_true", help="flip group laws")
    p.add_argument("--resolution", action="store_true", help="cut-rule replay")
    p.add_argument("--max-vars", type=_decimal, default=None,
                   help="override the variable cap (default 24)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("taut", help="exit 0 iff the input is a tautology")
    _add_common(p)
    p.set_defaults(handler=_cmd_taut)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    saved_cap = get_max_vars()
    try:
        if args.max_vars is not None:
            set_max_vars(args.max_vars)
        code = args.handler(args)
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
