"""One fresh benchmark process: build a workload's inputs, run its operations
in rounds, check every answer, and print one JSON line.

Modes:
  setup    build the inputs and report the set-up time only;
  measure  time rounds with tracing off;
  trace    the same with the tracer installed before set-up.

Set-up time runs from ``--t0`` (the parent's CLOCK_MONOTONIC reading just
before it started this process) to the first timed operation.  A round runs
every operation once, in order; rounds repeat until ``--seconds`` have passed
(a round that has started is finished).  ``wall_s`` is the sum over operations
of each operation's median time over the rounds.  Answers are checked between
rounds, with tracing paused.  A wrong answer exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pfsnet  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, WrongAnswer  # noqa: E402


def run_rounds(ops: list, seconds: float, tracer) -> dict:
    rounds: list = []
    op_times: list = [[] for _ in ops]
    attempted = failed = 0
    failures: dict = {}
    per_round_exact = None
    start = time.perf_counter()
    while True:
        results = []
        gc.collect()  # every round starts from the same heap, untimed
        t0 = time.perf_counter()
        for op, times in zip(ops, op_times):
            t_op = time.perf_counter()
            try:
                results.append((True, op.run()))
            except Exception as exc:  # a raising operation is a failed one
                # keep the name only: the traceback would hold the round's data
                results.append((False, type(exc).__name__))
            times.append(time.perf_counter() - t_op)
        rounds.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
            exact = tracer.exact()
            if per_round_exact is None:
                per_round_exact = exact
            elif {k: v * len(rounds) for k, v in per_round_exact.items()} != exact:
                raise SystemExit("exact counts differ between rounds of one run")
        for op, (ran, result) in zip(ops, results):
            attempted += 1
            if not ran or not op.check(result):
                failed += 1
                failures[op.name] = result if not ran else "failed"
        if tracer is not None:
            tracer.enabled = True
        if time.perf_counter() - start >= seconds:
            break
    # one round's time, with each operation at its median over the rounds:
    # a slow stretch of the machine then costs an operation only when it hits
    # most of that operation's rounds
    wall_s = sum(statistics.median(times) for times in op_times)
    return {"rounds": rounds, "wall_s": wall_s, "attempted": attempted, "failed": failed,
            "failures": failures}


def layer_metrics(tracer: Tracer, n_rounds: int, families_s: float) -> dict:
    """Per-round figures of the traced layers; every ``.s`` is self time."""
    counts = tracer.counts
    solve_s = tracer.self_seconds("solver.solve_at_k")
    solves = counts["solver.exhausted"] + counts["solver.decided"]

    def s(name):
        return tracer.self_seconds(name) / n_rounds

    def calls(name):
        return tracer.calls(name) / n_rounds

    return {
        "solver.trials": counts["solver.trials"] / n_rounds,
        "solver.trials_per_s": counts["solver.trials"] / solve_s if solve_s else 0.0,
        "solver.exhausted": counts["solver.exhausted"] / n_rounds,
        "solver.decided_ratio": counts["solver.decided"] / solves if solves else 0.0,
        "solver.solve_at_k.calls": calls("solver.solve_at_k"),
        "solver.solve_at_k.s": s("solver.solve_at_k"),
        "solver.verify_scheme.calls": calls("solver.verify_scheme"),
        "solver.verify_scheme.s": s("solver.verify_scheme"),
        "solver.derive_decodings.s": s("solver.derive_decodings"),
        "entropy.check.calls": calls("entropy.check"),
        "entropy.check.s": s("entropy.check"),
        "gadgets.entropy_accepted_set.s": s("gadgets.entropy_accepted_set"),
        "gadgets.accepted_set.s": s("gadgets.accepted_set"),
        "gadgets.compose.calls": calls("gadgets.compose"),
        "gadgets.compose.s": s("gadgets.compose"),
        "tiling.reduce.s": s("tiling.reduce"),
        "tiling.reduce.edges": counts["tiling.reduce.edges"] / n_rounds,
        "tiling.torus_bruteforce.s": s("tiling.torus_bruteforce"),
        "model.serialize.s": s("model.serialize"),
        "model.serialize.bytes": counts["model.serialize.bytes"] / n_rounds,
        "model.deserialize.s": s("model.deserialize"),
        "model.validate.calls": calls("model.validate"),
        "model.validate.s": s("model.validate"),
        "model.canonicalize.s": s("model.canonicalize"),
        "indexcoding.confusion_graph.s": s("indexcoding.confusion_graph"),
        "indexcoding.chromatic_leq.s": s("indexcoding.chromatic_leq"),
        "indexcoding.vertices": counts["indexcoding.vertices"] / n_rounds,
        "cli.run.s": s("cli.run"),
        "families.s": families_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(pfsnet)
    ops = BUILDERS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        families_s = 0.0
        if tracer is not None:
            families_s = tracer.self_seconds("families.")
            tracer.reset()
        try:
            out.update(run_rounds(ops, args.seconds, tracer))
        except WrongAnswer as exc:
            print(json.dumps({"correct": False, "error": str(exc)}))
            return 1
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, len(out["rounds"]), families_s)
            out["exact"] = {k: v / len(out["rounds"]) for k, v in tracer.exact().items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
