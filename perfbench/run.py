"""The boolring benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload api --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the worker imports boolring from
``src/`` there, so nothing needs to be installed.  Inputs come from
``--seed`` only (``gen.py``); every op's outputs are checked against an
independent route (``check.py``).  The worker is started several times
and each start-up is timed up to the point where the first timed op can
run; the last one then runs the closed loop, in passes over the same
ops, and the metrics use each op's mean time over the passes.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Lines before it give the same figures for people,
together with the failure share, the depth probes and, when traced, the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_RUNS = 3
DEADLINE_S = 170  # the whole run, set-ups included, must end within 180 s

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

CANON_N, CNF_N = (12, 14, 16), (10, 12, 13)


def _per_layer() -> dict[str, str]:
    m: dict[str, str] = {}

    def timing(name: str, ns=()) -> None:
        for n in ns or (None,):
            m[f"{name}_s" + (f".n{n}" if n else "")] = "s"

    for stage in ("parse", "eval"):
        timing(f"frontend.{stage}", sorted(set(CANON_N + CNF_N)))
    timing("frontend.expand", CNF_N)
    timing("frontend.emit", CNF_N)
    m["frontend.emit_bytes"] = "bytes"
    m["frontend.expand_overlap"] = "ratio"
    for name in ("ring.from_hex", "ring.to_anf", "ring.from_anf", "ring.render"):
        timing(name, CANON_N)
    m["ring.monomials"] = "count"
    m["ring.to_anf_peak_bytes"] = "bytes"
    m["ring.from_anf_peak_bytes"] = "bytes"
    timing("primes.decompose", CANON_N)
    timing("primes.indices", CANON_N)
    m["primes.decompose_peak_bytes"] = "bytes"
    timing("primes.compose")
    timing("truthmaps.satisfying", CANON_N)
    timing("truthmaps.count", CANON_N)
    m["truthmaps.satisfying_peak_bytes"] = "bytes"
    timing("flipgroup.apply_flip", CANON_N)
    timing("flipgroup.group_check")
    timing("flipgroup.conservation")
    for name in ("TI", "TII_TIII", "TIV", "TV", "resolution"):
        timing(f"theorems.{name}")
    m["theorems.checks"] = "count"
    timing("report.render")
    for name in ("interp", "import", "main"):
        timing(f"cli.{name}")
    return m


PER_LAYER = _per_layer()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_times(records: list[list]) -> tuple[dict[int, float], set[int]]:
    """Each op's mean time over the passes, and the ops that failed in any pass.

    Other tenants of a shared machine slow it by up to half, in spells of
    seconds to minutes.  An op's mean over passes seconds apart moves far
    less from run to run than one timing of it, and means, unlike medians,
    do not jump between the machine's fast and slow states."""
    runs: dict[int, list[float]] = defaultdict(list)
    failed: set[int] = set()
    for op, _, _, seconds, status, _ in records:
        runs[op].append(seconds)
        if status != "ok":
            failed.add(op)
    return {op: sum(times) / len(times) for op, times in runs.items()}, failed


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    mean, failed = op_times(result["records"])
    # a failed op misses any latency limit: it ranks above every op that completed
    latencies = [math.inf if op in failed else t for op, t in mean.items()]
    cap = result["wall_s"]
    return {
        "ops_per_s": (len(mean) - len(failed)) / sum(mean.values()),
        "op_p50_ms": min(percentile(latencies, 0.5), cap) * 1e3,
        "op_p90_ms": min(percentile(latencies, 0.9), cap) * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }


def materialize_files(ops: list[dict], workdir: Path, tag: str) -> None:
    """Write each CLI op's DIMACS inputs and put their paths into its argv."""
    for i, op in enumerate(ops):
        for placeholder, text in op.pop("files", {}).items():
            path = workdir / f"{tag}-{i}.cnf"
            path.write_text(text, encoding="utf-8")
            op["argv"] = [str(path) if a == placeholder else a for a in op["argv"]]


class BenchError(Exception):
    pass


def start_worker(args, workdir: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(workdir),
           str(args.seconds), str(args.trace)]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(args, workdir: Path, started: float) -> tuple[dict, list[float]]:
    setups = []
    for i in range(SETUP_RUNS):
        t0 = perf_counter()
        proc = start_worker(args, workdir)
        try:
            left = DEADLINE_S - (perf_counter() - started)
            if not select.select([proc.stdout], [], [], left)[0]:
                raise subprocess.TimeoutExpired(proc.args, left)
            line = proc.stdout.readline()
            setups.append(perf_counter() - t0)
            if line.strip() != "ready":
                raise BenchError(f"worker did not get ready (exit {proc.wait()})")
            command = "go" if i == SETUP_RUNS - 1 else "quit"
            out, _ = proc.communicate(command + "\n", timeout=DEADLINE_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    root = HERE.parent
    if not (root / "src" / "boolring" / "__init__.py").is_file():
        print(f"error: no boolring sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workdir = root / ".perfbench-out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    inputs = gen.workload_inputs(args.workload, args.seed)
    if args.workload == "cli":
        materialize_files(inputs["warmup"], workdir, "warmup")
        for b, block in enumerate(inputs["blocks"]):
            materialize_files(block, workdir, f"block{b}")
    (workdir / "warmup.json").write_text(json.dumps(inputs["warmup"]), encoding="utf-8")
    (workdir / "timed.json").write_text(
        json.dumps({"blocks": inputs["blocks"], "deep": inputs["deep"]}), encoding="utf-8")

    try:
        t0 = perf_counter()
        result, setups = run_worker(args, workdir, started)
        result["wall_s"] = perf_counter() - t0 - sum(setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in workdir.iterdir():
            if path.name != "spans.json":
                path.unlink()
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")

    records = result["records"]
    wrong = [r for r in records if r[4] == "wrong"]
    failed = [r for r in records if r[4] != "ok"]
    deep_failed = [d for d in result["deep"] if d[1] != "ok"]
    distinct = len({r[0] for r in records})
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {distinct} ops run "
          f"{len(records)} times in {result['passes']} passes, closed loop, 1 caller, "
          f"set-ups {[round(s, 3) for s in setups]}")
    for r in (wrong + failed)[:5]:
        print(f"  failed op ({r[0]} in pass {r[1]}, n={r[2]}): {r[4]}: {r[5]}")
    print(f"  fail_ratio {len(failed) / len(records):.4f} ratio ({len(failed)} of {len(records)}, "
          f"{len(wrong)} wrong results)")
    if result["deep"]:
        print(f"  deep_fail_ratio {len(deep_failed) / len(result['deep']):.4f} ratio "
              f"({len(deep_failed)} of {len(result['deep'])} depth-{gen.DEEP_DEPTH} probes: "
              + ", ".join(f"{d[0]} {d[1]}" + (f" ({d[2].split(':')[0]})" if d[2] else "")
                          for d in result["deep"]) + ")")
    if args.trace:
        ov = result["trace_overhead"]
        print(f"  tracing overhead: ops_per_s untraced {ov['ops'] / ov['untraced_busy_s']:.3f}, "
              f"traced {ov['ops'] / ov['traced_busy_s']:.3f} 1/s "
              f"({ov['traced_busy_s'] / ov['untraced_busy_s'] - 1:+.1%}); spans in {workdir}")
        values = {name: result["layers"].get(name, 0.0) for name in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(result, setups)
        print(f"  latency samples {distinct} (each op's mean over the passes), "
              f"{distinct - math.ceil(0.9 * distinct)} beyond p90")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    idle = [name for name, m in metrics.items() if m["value"] == 0]
    for name, m in metrics.items():
        if m["value"] != 0:
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    if idle:
        print(f"  {len(idle)} per-layer metrics are 0: this workload does not call those layers")
    print(json.dumps({"correct": not wrong and not any(d[1] == "wrong" for d in result["deep"]),
                      "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
