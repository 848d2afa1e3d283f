"""Steadiness check of the benchmark itself.

    python3 perfbench/steady.py

For every workload in BENCHMARK.json, runs perfbench/run.py once per seed
(seeds 1..10) with tracing off and reports, per end-to-end metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A spread above a third
of the metric's bound in BENCHMARK.json is flagged.  Then it runs the traced
benchmark twice on seed 1 and asserts that the exact counts (solver.trials,
tiling.reduce.edges, model.serialize.bytes, entropy.check.calls,
indexcoding.vertices and every call count) repeat exactly.  Exits non-zero if
any run fails, any spread is flagged or any exact count differs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_RUNS = 2
EXACT_PREFIX = "exact counts per round: "


def bench(workload: str, seed: int, seconds: int, trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in SEEDS:
            doc = json.loads(bench(workload, seed, config["run_seconds"], 0)[-1])
            runs.append({name: m["value"] for name, m in doc["metrics"].items()})
            print(f"{workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        for name, bound in bounds.items():
            med, rel = spread([r[name] for r in runs])
            flag = rel > bound / 3
            ok = ok and not flag
            print(f"{workload} {name}: median {med:.6g}, spread {rel:.4f} "
                  f"(bound {bound}){'  TOO WIDE' if flag else ''}", flush=True)
        exacts = []
        for _ in range(TRACED_RUNS):
            lines = bench(workload, SEEDS[0], config["run_seconds"], 1)
            exacts.append(next(json.loads(line[len(EXACT_PREFIX):])
                               for line in lines if line.startswith(EXACT_PREFIX)))
        if any(e != exacts[0] for e in exacts):
            ok = False
            print(f"{workload}: exact counts differ between traced runs: {exacts}", flush=True)
        else:
            print(f"{workload}: exact counts repeat over {len(exacts)} traced runs", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
