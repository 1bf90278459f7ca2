"""Time whole ``python -m boolring.cli`` processes of two checkouts.

    python tools/bench_cli.py --base ../parent --change . [--runs 20] [--out BENCH_cli.json]

Each case runs as alternating pairs of processes, one from each checkout,
the side that starts a pair alternating from pair to pair, after one
untimed run of each.  Every case runs twice: plainly and with ``-S`` (no
``site`` import, so no ``.pth`` start-up hooks).  A process is timed from
start to exit by the parent, as ``perfbench``'s ``cli`` workload times it,
with bytecode writing off and development mode unset; stdout goes to a
file, which is hashed afterwards, so the reader costs both sides the same.
Both checkouts should be fresh (no ``__pycache__``), as the benchmark's
are.

The output file records, per case and mode, each side's median and
quartiles in ms, the run count, how many pairs the change won, the median
of the paired change/base ratios, and whether every run of both sides gave
the same exit code, stdout and stderr; also the bare interpreter start
(``python -c pass``), both git shas and the Python version.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# argv after ``python -m boolring.cli``, run from the checkout's root: one per
# subcommand of the benchmark's ``cli`` mix (n <= 8), then large outputs
CASES = {
    "canon": ["canon", "--formula", "(a1 | a2) & !a3 ^ (a4 -> a5 & a6)"],
    "count": ["count", "--assignments", "--formula", "(a1 | a2) & !a3 ^ (a4 -> a5 & a6)"],
    "expand": ["expand", "--dimacs", "tests/golden/k8.cnf"],
    "flip": ["flip", "--formula", "(a1 -> a2) & (a3 | !a4)", "--flip", "a1,a3"],
    "verify": ["verify", "--all", "--n", "2"],
    "taut": ["taut", "--formula", "a1 | !a1"],
    **{f"count_assignments_n{n}": ["count", "--assignments", "--formula", "a1 | !a1", "--n", str(n)]
       for n in (12, 16, 18)},
}
MODES = {"plain": [], "-S": ["-S"]}


def environment(checkout: Path | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDEVMODE"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    if checkout is not None:
        env["PYTHONPATH"] = str(checkout / "src")
    return env


def timed(cmd: list[str], cwd: Path | None, env: dict[str, str]) -> tuple[float, tuple]:
    """Seconds from start to exit, and (exit code, stdout sha256, stderr)."""
    with tempfile.TemporaryFile() as out:
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - t
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return elapsed, (proc.returncode, digest, proc.stderr.decode("utf-8", "replace"))


def summary(seconds: list[float]) -> dict:
    ms = [s * 1e3 for s in seconds]
    q1, median, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2),
            "runs": len(ms)}


def compare(base: Path, change: Path, argv: list[str], flags: list[str], runs: int) -> dict:
    sides = {"base": base, "change": change}
    times: dict[str, list[float]] = {side: [] for side in sides}
    results = set()
    for i in range(-1, runs):  # pair -1 is the untimed warm-up
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            checkout = sides[side]
            cmd = [sys.executable, *flags, "-m", "boolring.cli", *argv]
            elapsed, result = timed(cmd, checkout, environment(checkout))
            results.add(result)
            if i >= 0:
                times[side].append(elapsed)
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    return {
        "argv": argv,
        "exit": next(iter(results))[0],
        "identical": len(results) == 1,
        "base": summary(times["base"]),
        "change": summary(times["change"]),
        "change_faster_pairs": sum(r < 1 for r in ratios),
        "pairs": runs,
        "median_ratio": round(statistics.median(ratios), 4),
    }


def checkout_state(checkout: Path) -> dict:
    """The checkout's HEAD sha, whether its tree differs from HEAD, and whether
    it holds compiled bytecode of boolring."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
            "pycache": (checkout / "src" / "boolring" / "__pycache__").exists()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--runs", type=int, default=20, help="timed pairs per case and mode")
    parser.add_argument("--out", type=Path, default=Path("BENCH_cli.json"))
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()

    record: dict = {
        "tool": "tools/bench_cli.py",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "base": checkout_state(base),
        "change": checkout_state(change),
        "interpreter_start": {},
        "cases": {},
    }
    for mode, flags in MODES.items():
        bare = [timed([sys.executable, *flags, "-c", "pass"], None, environment(None))[0]
                for _ in range(args.runs + 1)][1:]
        record["interpreter_start"][mode] = summary(bare)
        for name, case_argv in CASES.items():
            row = compare(base, change, case_argv, flags, args.runs)
            record["cases"][f"{name} {mode}"] = row
            print(f"{name:24} {mode:5} base {row['base']['median_ms']:8.1f} ms  "
                  f"change {row['change']['median_ms']:8.1f} ms  "
                  f"won {row['change_faster_pairs']}/{row['pairs']}  "
                  f"ratio {row['median_ratio']:.3f}  identical {row['identical']}", flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all(row["identical"] for row in record["cases"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
