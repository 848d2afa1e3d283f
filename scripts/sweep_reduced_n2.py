#!/usr/bin/env python3
"""Budget-capped solvability sweep on the smallest compiled condition program
(two colors, no conditions).

The solver decides this program within the default budget: unsolvable at
k=1, a witness at k=2.  Solving larger compiled networks is exponential in
their size, and the point of the script is the outcome contract: the solver
never converts an exhausted budget (``--budget`` entry trials) into a
negative answer.
"""

import argparse
import time

from pfsnet import tiling
from pfsnet.solver import SolveOptions, Status, solve_at_k


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k-max", type=int, default=2)
    ap.add_argument("--budget", type=int, default=200_000)
    args = ap.parse_args()

    net = tiling.reduce(tiling.ConditionProgram(2, ()))
    print(f"compiled network: {len(net.nodes)} nodes, {len(net.edges)} edges")
    for k in range(1, args.k_max + 1):
        t0 = time.time()
        out = solve_at_k(net, k, SolveOptions(node_budget=args.budget))
        status = out.status.value
        print(f"k={k}: {status} after {out.searched} entry trials ({time.time() - t0:.1f}s)")
        if out.status is Status.SOLVABLE:
            print("witness found; stopping")
            break
        if out.status is Status.BUDGET_EXHAUSTED:
            print("  (not a negative answer: the budget ran out first)")


if __name__ == "__main__":
    main()
