"""Benchmark worker: imports boolring from the checkout and runs one
workload's ops in a closed loop with a single caller.  Each op names the
pipeline that runs it: ``canon``, ``expand`` (both in this process) or
``cli`` (one ``boolring`` process).

    python3 perfbench/worker.py WORKLOAD WORKDIR SECONDS TRACE

The worker reads WORKDIR/warmup.json, runs those ops (checked like all
others) and prints ``ready``.  It then reads one line from stdin:
``quit`` ends it; ``go`` loads WORKDIR/timed.json and runs its ops in
passes: every pass runs all of them in the same order, and passes follow
each other until SECONDS have passed and at least three are done.  Then
it runs the depth probes and prints one JSON line with every run of
every op, its time and status.  With TRACE 1 the passes run traced,
then as many again untraced (the tracing overhead), then one op of each
size and kind with tracemalloc around the peak spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import boolring  # noqa: E402
from boolring import (  # noqa: E402
    BoolFunc, FlipMask, ast_flip, apply_flip, cnf_flip, cnf_to_primes, compose,
    conservation_check, count_models, decompose, eval_ast, eval_cnf, flip_group_check,
    from_anf, parse_dimacs, parse_formula, prime_cnf_text, satisfying_assignments,
    to_anf, to_dimacs, verify_resolution, verify_ti, verify_tii_tiii, verify_tiv, verify_tv,
)
from boolring.cli import main as cli_main  # noqa: E402

import check  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

MIN_PASSES = 3  # each op is timed at least this often, seconds apart
CLI_TIMEOUT = 60


def canon_timed(op: dict, tr) -> dict:
    """The canon + count pipeline on one input."""
    n = op["n"]
    with tr.span("op", n):
        if "text" in op:
            with tr.span("frontend.parse", n):
                formula = parse_formula(op["text"], n)
            with tr.span("frontend.eval", n):
                f = eval_ast(formula)
        else:
            formula = None
            with tr.span("ring.from_hex", n):
                f = BoolFunc.from_hex(n, op["hex"])
        with tr.span("ring.to_anf", n, peak=True):
            anf = to_anf(f)
        with tr.span("ring.render", n):
            anf_text = str(anf)
        with tr.span("ring.from_anf", n, peak=True):
            back = from_anf(anf)
        with tr.span("primes.decompose", n, peak=True):
            ps = decompose(f)
        with tr.span("primes.indices", n):
            primes, minterms = sorted(ps.indices), sorted(ps.complement())
        with tr.span("truthmaps.count", n):
            count = count_models(f)
        with tr.span("truthmaps.satisfying", n, peak=True):
            assignments = [str(a) for a in satisfying_assignments(f)]
        with tr.span("flipgroup.apply_flip", n):
            flipped = apply_flip(f, op["mask"])
    return {"formula": formula, "f": f, "anf": anf, "anf_text": anf_text, "back": back,
            "primes": primes, "minterms": minterms, "count": count, "assignments": assignments,
            "flipped": flipped}


def canon_outputs(op: dict, res: dict, tr) -> dict:
    """Plain values for ``check.check_canon``, with the source-level flip as
    a second route to the flipped vector (untraced: it is not part of the op)."""
    anf = res["anf"]
    out = {"tt": res["f"].tt, "monomials": [sum(1 << (r - 1) for r in m) for m in anf.monomials],
           "anf_text": res["anf_text"], "roundtrip_tt": res["back"].tt,
           "prime_indices": res["primes"], "minterm_indices": res["minterms"],
           "count": res["count"], "assignments": res["assignments"],
           "flipped_tt": res["flipped"].tt}
    if res["formula"] is not None:
        out["flip_cross_tt"] = eval_ast(ast_flip(res["formula"], op["mask"])).tt
    tr.add("ring.monomials", len(out["monomials"]))
    tr.add("ring.to_anf_calls", 1)
    return out


def canon_check(op: dict, res: dict, tr) -> list[str]:
    return check.check_canon(op, canon_outputs(op, res, tr))


def expand_timed(op: dict, tr) -> dict:
    """The expand pipeline on one DIMACS document."""
    n = op["n"]
    with tr.span("op", n):
        with tr.span("frontend.parse", n):
            doc = parse_dimacs(op["text"])
        with tr.span("frontend.eval", n):
            f = eval_cnf(doc)
        with tr.span("frontend.expand", n):
            ps = cnf_to_primes(doc)
        with tr.span("frontend.emit", n):
            text = prime_cnf_text(ps)
    return {"doc": doc, "f": f, "ps": ps, "text": text}


def expand_outputs(op: dict, res: dict, tr) -> dict:
    """Plain values for ``check.check_expand``."""
    n, doc, text = op["n"], res["doc"], res["text"]
    primes = sorted(res["ps"].indices)
    tr.add("frontend.emit_bytes", len(text.encode("utf-8")))
    tr.add("frontend.emit_calls", 1)
    tr.add("frontend.expand_attempts", sum(1 << (n - len(cl)) for cl in doc.clauses))
    tr.add("frontend.expand_primes", len(primes))
    return {"primes": primes, "cnf_text": text, "eval_count": res["f"].tt.bit_count()}


def expand_check(op: dict, res: dict, tr) -> list[str]:
    return check.check_expand(op, expand_outputs(op, res, tr))


# ---------------------------------------------------------------------------
# CLI: expected stdout rendered from in-process library results


def _option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


_CHECKS = [("--ti", "theorems.TI", verify_ti), ("--tii", "theorems.TII_TIII", verify_tii_tiii),
           ("--tiv", "theorems.TIV", verify_tiv), ("--tv", "theorems.TV", verify_tv),
           ("--flip-group", "flipgroup.group_check", flip_group_check),
           ("--resolution", "theorems.resolution", lambda n: verify_resolution())]


def cli_expected(argv: list[str], tr=NULL) -> tuple[str, list[str]]:
    """Stdout that ``boolring`` must print for argv, and problems found on the way.

    Built from library calls in this process, one field at a time in the
    order the CLI documents.  Two fields get a second route as well:
    ``compose`` must rebuild the function from its prime indices, and
    ``conservation_check`` must find the model count of every flip equal.
    """
    cmd, as_json, problems = argv[0], "--json" in argv, []
    if cmd == "verify":
        n = int(_option(argv, "--n") or 2)
        reports = []
        for flag, span, run in _CHECKS:
            if "--all" in argv or flag in argv:
                with tr.span(span):
                    reports.append(run(n))
                if span.startswith("theorems."):
                    tr.add("theorems.checks", reports[-1].checks)
        passed = all(r.passed for r in reports)
        with tr.span("report.render"):
            if as_json:
                payload = {"n": n, "reports": [r.as_dict(with_elapsed=False) for r in reports],
                           "all_passed": passed}
                return json.dumps(payload, indent=2) + "\n", problems
            lines = [r.line(with_elapsed=False) for r in reports]
        out = "".join(line + "\n" for line in lines)
        return out + f"all_passed: {'true' if passed else 'false'}\n", problems
    text, path, n_opt = _option(argv, "--formula"), _option(argv, "--dimacs"), _option(argv, "--n")
    if text is not None:
        source = parse_formula(text, int(n_opt) if n_opt else None)
        func, fields = eval_ast(source), {"input": text, "format": "formula"}
    else:
        source = parse_dimacs(Path(path).read_text(encoding="utf-8"))
        func, fields = eval_cnf(source), {"input": path, "format": "dimacs"}
    fields["n"] = func.n
    if cmd == "canon":
        ps = decompose(func)
        with tr.span("primes.compose"):
            if compose(func.n, ps) != func:
                problems.append("compose does not rebuild the function from its prime indices")
        fields.update(truth_bits=func.to_bits(), truth_hex=func.to_hex(), anf=str(to_anf(func)),
                      prime_indices=sorted(ps.indices), minterm_indices=sorted(ps.complement()))
    elif cmd == "count":
        fields["model_count"] = count_models(func)
        if "--assignments" in argv:
            fields["assignments"] = [str(a) for a in satisfying_assignments(func)]
    elif cmd == "expand":
        ps = cnf_to_primes(source)
        fields.update(clauses_in=len(source.clauses), prime_count=len(ps.indices),
                      model_count=(1 << source.n) - len(ps.indices), expanded_cnf=prime_cnf_text(ps))
    elif cmd == "flip":
        mask = FlipMask.parse(_option(argv, "--flip"), func.n)
        flipped = apply_flip(func, mask)
        fields.update(mask=mask.s, flipped_variables=[f"a{r}" for r in mask.variables()],
                      original_bits=func.to_bits(), flipped_bits=flipped.to_bits())
        if text is not None:
            fields["flipped_formula"] = ast_flip(source, mask).to_text()
        else:
            fields["flipped_dimacs"] = to_dimacs(cnf_flip(source, mask)).strip().replace("\n", " / ")
        fields.update(original_count=count_models(func), flipped_count=count_models(flipped))
        fields["counts_equal"] = fields["original_count"] == fields["flipped_count"]
        with tr.span("flipgroup.conservation"):
            if not conservation_check(func).passed:
                problems.append("some flip changes the model count")
    elif cmd == "taut":
        fields["tautology"] = func.tt == (1 << (1 << func.n)) - 1
    out = json.dumps(fields, indent=2) + "\n" if as_json else check.render_fields(fields)
    return out, problems


def cli_deep_expected(op: dict) -> str:
    """Expected stdout of a deep-formula ``count --json`` call, from the benchmark's own evaluator."""
    text, n = _option(op["argv"], "--formula"), op["n"]
    count = check.truth_vector(check.tokenize(text), n).bit_count()
    return json.dumps({"input": text, "format": "formula", "n": n, "model_count": count},
                      indent=2) + "\n"


class CliCrash(Exception):
    """The CLI printed a traceback: the program failed, whatever its output."""


CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli_timed(op: dict, tr) -> subprocess.CompletedProcess:
    """One ``python -m boolring.cli`` process."""
    with tr.span("op", op["n"]):
        return subprocess.run([sys.executable, "-m", "boolring.cli", *op["argv"]],
                              capture_output=True, text=True, env=CLI_ENV,
                              timeout=CLI_TIMEOUT, check=False)


def cli_check(op: dict, proc: subprocess.CompletedProcess, tr) -> list[str]:
    if "Traceback" in proc.stderr:
        raise CliCrash(f"exit {proc.returncode}, {proc.stderr.strip().splitlines()[-1]}")
    expected, problems = None, []
    if op.get("deep"):
        expected = cli_deep_expected(op)
    elif op["code"] in (0, 1):
        expected, problems = cli_expected(op["argv"], tr)
    if tr is not NULL and not op.get("deep"):
        sink = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            cli_main(op["argv"])
    return problems + check.check_cli(op, proc.returncode, proc.stdout, proc.stderr, expected)


def cli_startup(tr) -> None:
    """Bare interpreter start, and a fresh import of boolring.cli timed inside its process."""
    with tr.span("cli.interp"):
        subprocess.run([sys.executable, "-c", "pass"], env=CLI_ENV, check=True,
                       timeout=CLI_TIMEOUT)
    code = ("import time; t = time.perf_counter(); import boolring.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=CLI_ENV, check=True,
                         capture_output=True, text=True, timeout=CLI_TIMEOUT).stdout
    tr.add("cli.import_s", float(out))
    tr.add("cli.import_calls", 1)


# ---------------------------------------------------------------------------
# the closed loop


PIPELINES = {
    "canon": (canon_timed, canon_check),
    "expand": (expand_timed, expand_check),
    "cli": (cli_timed, cli_check),
}


def run_op(op: dict, tr, op_id: int) -> list:
    """Time one op and check its outputs: [seconds, status, detail], where
    status is ok, wrong (a check failed) or error (it raised)."""
    timed, verify = PIPELINES[op["pipe"]]
    tr.op = op_id
    t0 = perf_counter()
    try:
        res = timed(op, tr)
        elapsed = perf_counter() - t0
        problems = verify(op, res, tr)
    except Exception as exc:  # a failed op is recorded; the loop keeps running
        return [perf_counter() - t0, "error", f"{type(exc).__name__}: {str(exc)[:200]}"]
    return [elapsed, "wrong", problems[0]] if problems else [elapsed, "ok", None]


def run_passes(workload: str, ops: list[dict], tr, seconds: float | None,
               passes: int | None = None, min_passes: int = MIN_PASSES) -> tuple[list[list], int]:
    """The whole op list in order, pass after pass, until ``min_passes`` are
    done and the next one would end more than half a pass after ``seconds``
    (or exactly ``passes`` passes).  Each record: op index, pass, n,
    seconds, status, detail."""
    records: list[list] = []
    start, done = perf_counter(), 0
    while True:
        if passes is not None:
            if done == passes:
                break
        elif done >= min_passes:
            elapsed = perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                break
        if workload == "cli" and tr is not NULL:
            cli_startup(tr)
        for i, op in enumerate(ops):
            records.append([i, done, op.get("n")] + run_op(op, tr, len(records)))
        done += 1
    return records, done


def layer_metrics(tr: Tracer, mem: Tracer, blocks: int) -> dict[str, float]:
    """Mean self time per call for every (span, n), plus counters and peaks."""
    out: dict[str, float] = {}
    for (name, n), times in tr.self_times().items():
        key = f"{name}_s" + (f".n{n}" if n is not None and name.split(".")[0] in _SPLIT_BY_N else "")
        out[key] = sum(times) / len(times)
    c = tr.counters
    if c.get("ring.to_anf_calls"):
        out["ring.monomials"] = c["ring.monomials"] / c["ring.to_anf_calls"]
    if c.get("frontend.emit_calls"):
        out["frontend.emit_bytes"] = c["frontend.emit_bytes"] / c["frontend.emit_calls"]
        out["frontend.expand_overlap"] = c["frontend.expand_attempts"] / max(1, c["frontend.expand_primes"])
    if c.get("theorems.checks"):
        out["theorems.checks"] = c["theorems.checks"] / blocks
    if c.get("cli.import_calls"):
        out["cli.import_s"] = c["cli.import_s"] / c["cli.import_calls"]
    for name, peak in mem.peaks.items():
        out[f"{name}_peak_bytes"] = peak
    return out


_SPLIT_BY_N = {"frontend", "ring", "primes", "truthmaps", "flipgroup"}


def main() -> int:
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    seconds, traced = float(sys.argv[3]), sys.argv[4] == "1"
    if not Path(boolring.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"boolring imported from {boolring.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    warmup = json.loads((workdir / "warmup.json").read_text(encoding="utf-8"))
    warm, _ = run_passes(workload, warmup, NULL, None, passes=1)
    bad = [r for r in warm if r[4] != "ok"]
    if bad:
        print(f"warm-up op failed: {bad[0]}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    timed = json.loads((workdir / "timed.json").read_text(encoding="utf-8"))
    blocks, deep = timed["blocks"], timed["deep"]
    ops = [op for block in blocks for op in block]
    result: dict = {}
    if traced:
        tr, mem = Tracer(), Tracer(memory=True)
        records, done = run_passes(workload, ops, tr, seconds / 3, min_passes=1)
        traced_busy = sum(r[3] for r in records)
        untraced, _ = run_passes(workload, ops, NULL, None, passes=done)
        untraced_busy = sum(r[3] for r in untraced)
        # peaks are maxima, so one op of each size and kind is enough
        classes: dict = {}
        for op in ops:
            classes.setdefault((op["pipe"], op.get("n"), op.get("kind")), op)
        run_passes(workload, list(classes.values()), mem, None, passes=1)
        result["layers"] = layer_metrics(tr, mem, done * len(blocks))
        result["trace_overhead"] = {"ops": len(records), "traced_busy_s": traced_busy,
                                    "untraced_busy_s": untraced_busy}
        records += untraced
        done *= 2
        tr.write(workdir / "spans.json")
    else:
        records, done = run_passes(workload, ops, NULL, seconds)
    result["deep"] = [[op["deep"]] + run_op(op, NULL, -1)[1:] for op in deep]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(records=records, passes=done,
                  maxrss_kb=child_rss if workload == "cli" else self_rss)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
