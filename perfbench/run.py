"""pfsnet benchmark: one workload, fresh single-process runs, every answer checked.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh worker
process (perfbench/worker.py), one at a time, with no parallel search.

--trace 0 prints the end-to-end metrics:
  wall_s        seconds of one round of the workload's operations, each
                operation at its median time over the rounds
  setup_s       median seconds from process start to the first timed
                operation, over several fresh processes
  decided_frac  share of attempted operations that ended with a decided,
                checked answer (1 - failed_frac)
  peak_rss_mb   peak resident memory of the measuring process

--trace 1 runs the same workload once untraced and once traced and prints the
per-layer metrics of the traced process, the tracing overhead (difference in
wall_s) and the line count of src/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A wrong answer, a worker error or a missing program exits non-zero
without that line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # set-up-only processes, besides the measuring one
DEADLINE_S = 170  # the whole command ends within this


def load_config() -> dict:
    """BENCHMARK.json: the workload names and the declared metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class WorkerError(Exception):
    pass


def spawn(mode: str, args, workdir: str, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(t0), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish within the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not lines:
        detail = doc.get("error") or proc.stderr.strip()[-2000:]
        raise WorkerError(f"{mode} worker exited with {proc.returncode}: {detail}")
    return doc


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def measure(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.trace:
            plain = spawn("measure", args, workdir, deadline)
            traced = spawn("trace", args, workdir, deadline)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            metrics["src.lines"] = src_lines()
            runs = (plain, traced)
            print(f"exact counts per round: {json.dumps(traced['exact'], sort_keys=True)}")
        else:
            # half the set-up probes run before the measuring process and half
            # after it, so that their median spans the whole run
            setups = [spawn("setup", args, workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            plain = spawn("measure", args, workdir, deadline)
            setups += [spawn("setup", args, workdir, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
            metrics = {
                "wall_s": plain["wall_s"],
                "setup_s": statistics.median(setups + [plain["setup_s"]]),
                "decided_frac": 1 - plain["failed"] / plain["attempted"],
                "peak_rss_mb": plain["peak_rss_mb"],
            }
            runs = (plain,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        print(f"rounds: {len(r['rounds'])}, seconds each: {[round(t, 4) for t in r['rounds']]}")
        print(f"failed operations per round: {sorted(r['failures'].items())}")
    print(f"failed_frac: {failed / attempted:.6f} ({failed}/{attempted})")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    config = load_config()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pfsnet" / "__init__.py").is_file():
        print(f"error: no pfsnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    try:
        attempted, failed, metrics = measure(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, declared {sorted(units)}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
