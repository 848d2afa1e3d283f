"""Command-line front end.

Exit codes: 0 = decided positive as queried, 1 = decided negative,
2 = budget or cap exhausted (explicitly not a negative answer), 3 = input
error, 4 = internal error (traceback on stderr), 141 = stdout closed before
the output was written (as a shell reports SIGPIPE; no traceback).  Every
command except export-dot emits a JSON object on stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import traceback
from typing import Optional

from . import families, gadgets, indexcoding, tiling
from .model import (
    FormatError,
    InvalidNetwork,
    deserialize,
    load_json,
    scheme_to_json_dict,
    serialize,
    to_dot,
    validate,
)
from .solver import BudgetExhausted, CapExceeded, SolveOptions, Status, solve_at_k, solve_up_to, unsolvable_from

OK, NEGATIVE, EXHAUSTED, BAD_INPUT, INTERNAL = 0, 1, 2, 3, 4
BROKEN_PIPE = 141  # 128 + SIGPIPE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_arg(low: int, even: bool = False):
    """argparse type: an int >= low, even if asked (a violation is a usage
    error)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or even and value % 2:
            raise argparse.ArgumentTypeError(f"must be {'an even' if even else 'an'} int >= {low}, got {value}")
        return value

    return parse


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _load_net(path: str):
    return deserialize(_read(path))


def _solve_options(args) -> SolveOptions:
    return SolveOptions(
        symmetry_breaking=not args.no_symmetry,
        node_budget=args.budget,
    )


def _add_solver_flags(p) -> None:
    p.add_argument("--budget", type=_int_arg(0), default=None, help="entry-trial cap")
    p.add_argument("--no-symmetry", action="store_true", help="disable symmetry breaking")


def _add_gadget_flags(p) -> None:
    p.add_argument("name", choices=sorted(_GADGETS))
    p.add_argument("--b", type=_int_arg(1), default=None, help="buffer/select arity")
    p.add_argument("--n", type=_int_arg(1), default=None, help="switch count for set checkers")
    p.add_argument("--theta", default=None, help="JSON file with allowed state patterns")
    p.add_argument("--w", type=_int_arg(1), default=None, help="condition alphabet: emit the conditional variant")


# built once per process: parse_args returns a fresh Namespace on every call
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="pfsnet", description="exact tools for partially fixed-size network coding")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="structural validation of a network file")
    sp.add_argument("net")

    sp = sub.add_parser("solve", help="decide solvability at a fixed default size k")
    sp.add_argument("net")
    sp.add_argument("--k", type=_int_arg(1), required=True)
    _add_solver_flags(sp)

    sp = sub.add_parser("sweep", help="try k = 1..k-max (a semi-decision: absence proves nothing beyond k-max)")
    sp.add_argument("net")
    sp.add_argument("--k-max", type=_int_arg(1), required=True, dest="k_max")
    _add_solver_flags(sp)

    sp = sub.add_parser("gadget-build", help="emit a standalone network for a named gadget")
    _add_gadget_flags(sp)
    sp.add_argument("-o", "--output", default="-")

    sp = sub.add_parser("verify-checker", help="accepted candidate set plus double-oracle agreement")
    _add_gadget_flags(sp)
    sp.add_argument("--k", type=_int_arg(1), required=True)
    sp.add_argument("--family", default=None, help="JSON candidate family (default: the full canonical family)")

    sp = sub.add_parser("reduce", help="compile a torus-coloring condition program into a network")
    sp.add_argument("program")
    sp.add_argument("-o", "--output", default="-")

    sp = sub.add_parser("torus", help="exhaustive torus-coloring search at a concrete size")
    sp.add_argument("program")
    sp.add_argument("--width", type=_int_arg(2, even=True), required=True)
    sp.add_argument("--height", type=_int_arg(2, even=True), required=True)
    sp.add_argument("--cap", type=_int_arg(1), default=64, help="max cells searched exhaustively")

    sp = sub.add_parser("index", help="decide an index-coding instance at a fixed k")
    sp.add_argument("instance")
    sp.add_argument("--k", type=_int_arg(1), required=True)
    sp.add_argument("--cap", type=_int_arg(1), default=4096, help="max message tuples")
    sp.add_argument("--budget", type=_int_arg(0), default=None, help="coloring-trial cap")

    sp = sub.add_parser("export-dot", help="graphviz text for a network file")
    sp.add_argument("net")
    return p


# ---------------------------------------------------------------------------
# per-command drivers


def _cmd_validate(args) -> int:
    rep = validate(_load_net(args.net))
    _emit({"command": "validate", "ok": rep.ok, "violations": [list(v) for v in rep.violations]})
    return OK if rep.ok else NEGATIVE


def _cmd_solve(args) -> int:
    net = _load_net(args.net)
    outcome = solve_at_k(net, args.k, _solve_options(args))
    doc = {
        "command": "solve",
        "k": args.k,
        "status": outcome.status.value,
        "witness": scheme_to_json_dict(outcome.scheme) if outcome.scheme else None,
        "searched": outcome.searched,
        "cut": outcome.cut._asdict() if outcome.cut else None,
    }
    _emit(doc)
    return {Status.SOLVABLE: OK, Status.UNSOLVABLE_AT_K: NEGATIVE, Status.BUDGET_EXHAUSTED: EXHAUSTED}[outcome.status]


def _cmd_sweep(args) -> int:
    net = _load_net(args.net)
    note = (
        "absence of a solution up to k-max does not prove unsolvability; "
        "the sweep is a semi-decision"
    )
    try:
        found = solve_up_to(net, args.k_max, _solve_options(args))
    except BudgetExhausted as exc:
        doc, code = {"status": "budget-exhausted", "k": exc.k}, EXHAUSTED
    else:
        code = OK if found else NEGATIVE
        doc = {"found": {"k": found[0], "witness": scheme_to_json_dict(found[1])} if found else None}
    # solve_up_to has validated the network
    _emit({"command": "sweep", "k_max": args.k_max, **doc, "unsolvable_from": unsolvable_from(net), "note": note})
    return code


def _load_theta(args):
    if args.theta is None:
        return [tuple(int(i == j) for j in range(args.n)) for i in range(args.n)]
    doc = load_json(_read(args.theta))
    # a bool, float or string entry is refused, not read as the bit it equals
    if not isinstance(doc, list) or not doc or not all(
            isinstance(row, list) and len(row) == args.n and all(type(x) is int and x in (0, 1) for x in row)
            for row in doc):
        raise FormatError(f"{args.theta}: expected a nonempty list of {args.n}-bit 0/1 lists")
    return [tuple(row) for row in doc]


def _theta_family(args):
    b = args.b or 2
    return families.theta_grid_family(args.w, b) if args.w else families.theta_family(b)


def _xor_family(args):
    return families.cond_xor_family(args.w) if args.w else families.xor_family()


# the gadgets by name: the flag the gadget requires, if any, and its lower
# bound; the gadget built from the parsed --b/--n/--theta/--w; its default
# candidate family for verify-checker, None where it has no default family
# conditioned on W
_GADGETS = {
    "xor": ((), lambda a: gadgets.xor_checker(), _xor_family),
    "xor-gate": ((), lambda a: gadgets.xor_gate(), _xor_family),
    "tristate": ((), lambda a: gadgets.tristate_checker(), lambda a: None if a.w else families.tristate_family()),
    "tristate-gate": ((), lambda a: gadgets.tristate_gate(), lambda a: None if a.w else families.tristate_family()),
    "bstate": (("b", 2), lambda a: gadgets.bstate_checker(a.b), lambda a: None if a.w else families.bstate_family(a.b)),
    "switch": ((), lambda a: gadgets.switch_gate(), lambda a: None if a.w else families.switch_family()),
    "cycles": ((), lambda a: gadgets.cycles_gate(), lambda a: None if a.w else families.cycles_family(a.k)),
    "set": (("n", 1), lambda a: gadgets.set_checker(a.n, _load_theta(a)),
            lambda a: None if a.w else families.set_family(a.n)),
    "virtual-eq": ((), lambda a: gadgets.cond_virtual_equality_checker(a.w, a.b or 2) if a.w
                   else gadgets.virtual_equality_checker(), _theta_family),
    "virtual-or": (("b", 2), lambda a: gadgets.cond_virtual_or_checker(a.w, a.b) if a.w
                   else gadgets.virtual_or_checker(a.b), _theta_family),
}


def _make_gadget(args):
    """The named gadget at the given flags, conditioned on a W of size --w
    unless the builder already gave it a condition port.  A required flag
    that is missing or below its bound is a usage error; the flags' bounds
    and ``_load_theta`` refuse every parameter a builder refuses, so an
    error a builder raises is internal."""
    required, build, _ = _GADGETS[args.name]
    if required:
        flag, low = required
        if getattr(args, flag) is None:
            raise _UsageError(f"{args.name} needs --{flag}")
        if getattr(args, flag) < low:
            raise _UsageError(f"{args.name}: --{flag} must be >= {low}, got {getattr(args, flag)}")
    g = build(args)
    if args.w and not any(p.kind is gadgets.PortKind.CONDITION_IN for p in g.ports):
        g = gadgets.conditionalize(g, args.w)
    return g


def _cmd_gadget_build(args) -> int:
    g = _make_gadget(args)
    unsized = [p.name for p in g.ports if p.size is None]
    if unsized and args.b is None:
        raise _UsageError(f"port {unsized[0]} needs --b to fix its alphabet")
    net = gadgets._embedding(g, {}, None, dict.fromkeys(unsized, args.b)).net
    _write(args.output, serialize(net))
    if args.output not in (None, "-"):
        _emit({
            **gadgets.gadget_to_json(g), "command": "gadget-build", "output": args.output,
            "nodes": len(net.nodes), "edges": len(net.edges),
        })
    return OK


def _cmd_verify_checker(args) -> int:
    g = _make_gadget(args)
    if args.family:
        try:
            family = families.family_from_json(_read(args.family))
        except FormatError as exc:
            raise FormatError(f"{args.family}: {exc}") from exc
    else:
        family = _GADGETS[args.name][2](args)
        if family is None:
            raise _UsageError(f"{args.name} has no default family conditioned on W; pass one with --family")
    sizes = {p.name: args.b or 2 for p in g.ports if p.size is None}
    checks: list = []  # the network oracle's check per candidate shape

    def pinned_search(first):
        checks.append(gadgets._PinnedSearch(g, first, args.k, sizes))
        return checks[-1]

    try:
        entries = gadgets._normalize_family(g, family)
        net = [o.solvable for o in gadgets._verdicts(entries, pinned_search)]
    except gadgets.ComposeError as exc:
        if not args.family:
            raise
        raise FormatError(f"{args.family} does not fit {g.name}: candidate {exc.index}: {exc}") from exc
    ent = gadgets._verdicts(entries, lambda first: gadgets._SupportLayout(g, first, args.k, sizes).holds)
    agreement = net == list(ent)
    _emit({
        "command": "verify-checker",
        "name": g.name,
        "k": args.k,
        "family_size": len(family),
        "network_runs": sum(check.runs for check in checks),
        "accepted": sum(net),
        "accepted_indices": [i for i, ok in enumerate(net) if ok],
        "accepted_candidates": [
            {name: families.candidate_to_json(cf) for name, cf in sorted(e.items())}
            for e in itertools.compress(entries, net)
        ],
        "double_oracle_agreement": agreement,
    })
    return OK if agreement else NEGATIVE


def _cmd_reduce(args) -> int:
    program = tiling.program_from_json(_read(args.program))
    net = tiling.reduce(program)
    _write(args.output, serialize(net))
    if args.output not in (None, "-"):
        _emit({
            "command": "reduce", "colors": program.n_colors,
            "switches": len(tiling.color_subsets(program.n_colors)),
            "nodes": len(net.nodes), "edges": len(net.edges),
            "output": args.output,
        })
    return OK


def _cmd_torus(args) -> int:
    program = tiling.program_from_json(_read(args.program))
    witness = tiling.torus_bruteforce(program, args.width, args.height, cap=args.cap)
    doc = {
        "command": "torus",
        "width": args.width,
        "height": args.height,
        "satisfiable_at_size": witness is not None,
        "witness": [list(r) for r in witness.grid] if witness else None,
    }
    _emit(doc)
    return OK if witness is not None else NEGATIVE


def _cmd_index(args) -> int:
    inst = indexcoding.instance_from_json(_read(args.instance))
    try:
        ok, f = indexcoding.solvable_at_k(inst, args.k, cap=args.cap, budget=args.budget)
    except BudgetExhausted:
        _emit({"command": "index", "k": args.k, "status": "budget-exhausted"})
        return EXHAUSTED
    doc = {
        "command": "index",
        "k": args.k,
        "bound": inst.output_bound(args.k),
        "solvable": ok,
        "witness": None
        if f is None
        else {"keys": [list(v) for v in sorted(f)], "values": [f[v] for v in sorted(f)]},
    }
    _emit(doc)
    return OK if ok else NEGATIVE


def _cmd_export_dot(args) -> int:
    sys.stdout.write(to_dot(_load_net(args.net)))
    return OK


_DRIVERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "gadget-build": _cmd_gadget_build,
    "verify-checker": _cmd_verify_checker,
    "reduce": _cmd_reduce,
    "torus": _cmd_torus,
    "index": _cmd_index,
    "export-dot": _cmd_export_dot,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the exit code.  Input errors
    exit 3, an exceeded size cap exits 2; any other exception is an internal
    error and propagates."""
    try:
        args = _build_parser().parse_args(argv)
        return _DRIVERS[args.command](args)
    except (_UsageError, FormatError, InvalidNetwork) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except CapExceeded as exc:
        _emit({"command": args.command, "status": "cap-exceeded", "detail": str(exc)})
        return EXHAUSTED


def main(argv=None) -> int:
    """The console entry point: ``run``, with an internal error reported as
    exit 4 and its traceback on stderr, and a reader that closed stdout
    early (``| head``) as exit 141."""
    try:
        code = run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # what is left in the buffer goes nowhere, so the flush at exit
        # raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
