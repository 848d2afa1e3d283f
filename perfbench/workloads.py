"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the untimed check of every answer.

``BUILDERS[name](seed, workdir)`` returns the workload's list of ``Op``.
``Op.run`` is the timed call into pfsnet.  ``Op.check`` runs afterwards,
outside the timed region: it returns True for a decided answer, False for a failed operation
(budget exhausted, or CLI exit code 2 or 3), and raises ``WrongAnswer`` when a
decided answer disagrees with a witness check, a reference oracle or the
expected answer recorded here.  Operations that raise are failures too; the
worker counts them.

Every pfsnet function is looked up through its module at call time, so the
tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from pfsnet import cli, families, gadgets, indexcoding, model, solver, tiling
from pfsnet.model import DEFAULT, Edge, Network, fixed, resolve_size

# trial budgets of the capped searches; a budget-exhausted search is a failed
# operation, not a negative answer
BUTTERFLY_BUDGET = 200_000
REDUCE_BUDGET = 100_000
# bstate b=3 candidates drawn per run, by cost class (see bstate_class)
BSTATE_DRAW = {"accepted": 4, "copy": 2, "other": 150}
# torus sizes tried per 2- and 3-colour program; small enough that the
# benchmark can confirm a "no colouring" answer by enumeration
TORUS_SIZES = ((2, 2), (2, 4), (4, 2))


class WrongAnswer(Exception):
    """A decided answer that the benchmark's checks refute."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def _solve_check(name: str, net: Network, k: int, expect=None, reference=None):
    """Check a SolveOutcome: a witness must pass verify_scheme, a decided
    answer must match ``expect`` (a bool) or ``reference()`` when given."""

    def check(outcome) -> bool:
        if outcome.status is solver.Status.BUDGET_EXHAUSTED:
            return False
        if outcome.solvable:
            _expect(outcome.scheme.k == k, f"{name}: witness at k={outcome.scheme.k}")
            rep = solver.verify_scheme(net, outcome.scheme)
            _expect(rep.ok, f"{name}: witness fails verify_scheme: {rep.violations}")
        want = expect if reference is None else reference()
        if want is not None:
            _expect(outcome.solvable == want, f"{name}: solvable={outcome.solvable}, expected {want}")
        return True

    return check


def _cached(fn: Callable[[], object]) -> Callable[[], object]:
    """Evaluate a reference answer once per run, however many rounds check it."""
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# search: complete search on the butterfly, the 2-colour reduction, random
# networks and index coding


def classic_butterfly() -> Network:
    """The two-source multicast butterfly with every size default."""
    edges = [("s1>m", "s1", "m"), ("s1>t1", "s1", "t1"), ("s2>m", "s2", "m"),
             ("s2>t2", "s2", "t2"), ("m>c", "m", "c"), ("c>t1", "c", "t1"), ("c>t2", "c", "t2")]
    return Network(
        nodes=("s1", "s2", "m", "c", "t1", "t2"),
        edges=tuple(Edge(i, t, h, DEFAULT) for i, t, h in edges),
        messages=(DEFAULT, DEFAULT),
        sources={"s1": {1}, "s2": {2}},
        demands={"t1": {2}, "t2": {1}},
    )


def _naive_cost(net: Network, k: int) -> int:
    """Number of table combinations naive_solve_at_k enumerates at k."""
    total = 1
    for e in net.edges:
        dom = math.prod(resolve_size(net.messages[i - 1], k) for i in net.source_set(e.tail))
        dom *= math.prod(resolve_size(f.size, k) for f in net.in_edges(e.tail))
        total *= resolve_size(e.size, k) ** dom
    return total


def random_network(rng: random.Random, cap: int = 20_000) -> Network:
    """A small random acyclic network whose naive enumeration at k=2 stays
    under ``cap`` table combinations, so the reference oracle stays cheap."""
    pool = [fixed(2), fixed(3), DEFAULT]
    while True:
        n = rng.randint(2, 5)
        nodes = tuple(f"n{i}" for i in range(n))
        messages = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        edges = []
        for i in range(rng.randint(1, 4)):
            a, b = sorted(rng.sample(range(n), 2))
            edges.append(Edge(f"e{i}", f"n{a}", f"n{b}", rng.choice(pool)))
        sources: dict = {}
        for m in range(1, len(messages) + 1):
            sources.setdefault(f"n{rng.randrange(n)}", set()).add(m)
        fed = sorted({e.head for e in edges})
        demands = {v: set(rng.sample(range(1, len(messages) + 1), rng.randint(1, len(messages))))
                   for v in rng.sample(fed, min(len(fed), rng.randint(1, 2)))}
        net = Network(nodes=nodes, edges=tuple(edges), messages=messages,
                      sources=sources, demands=demands)
        if _naive_cost(net, 2) <= cap:
            return net


def _index_bounds(inst, k: int) -> tuple:
    """(lower, upper): any scheme needs at least ``lower`` symbols (one
    client's demand, its side information fixed); sending every demanded
    message verbatim needs ``upper``."""
    sizes = [resolve_size(m, k) for m in inst.messages]
    wanted = [c.wants for c in inst.clients if c.wants]
    lower = max(math.prod(sizes[i - 1] for i in w) for w in wanted)
    upper = math.prod(sizes[i - 1] for i in set().union(*wanted))
    return lower, upper


def _random_clients(rng: random.Random, n_messages: int, count: int) -> tuple:
    clients = []
    for _ in range(count):
        has = rng.sample(range(1, n_messages + 1), rng.randint(0, n_messages - 1))
        rest = [i for i in range(1, n_messages + 1) if i not in has]
        wants = rng.sample(rest, rng.randint(1, min(2, len(rest))))
        clients.append(indexcoding.Client(frozenset(has), frozenset(wants)))
    return tuple(clients)


def small_index(rng: random.Random) -> tuple:
    """(instance, k) small enough for brute_force_solvable."""
    while True:
        msgs = tuple(rng.choice([fixed(2), DEFAULT]) for _ in range(rng.randint(1, 3)))
        k = rng.choice([1, 2])
        a, b = rng.choice([(1, 0), (2, 0), (1, 1), (3, 0)])
        inst = indexcoding.IndexInstance(msgs, a, b, _random_clients(rng, len(msgs), rng.randint(1, 3)))
        n = math.prod(resolve_size(m, k) for m in msgs)
        if any(c.wants for c in inst.clients) and inst.output_bound(k) ** n <= 5_000:
            return inst, k


def medium_index(rng: random.Random) -> tuple:
    """(instance, k, expected) with a certain answer.  A solvable instance
    gets the upper bound as its output bound.  An unsolvable one has a single
    client and one symbol fewer than its demand needs: its confusion graph is
    a union of complete multipartite graphs, whose largest clique any greedy
    pass finds, so the answer needs no exponential search."""
    while True:
        l = rng.choice([3, 4])
        k = rng.choice([3, 4]) if l == 3 else 3
        msgs = tuple(rng.choice([DEFAULT, DEFAULT, fixed(2)]) for _ in range(l))
        solvable = rng.random() < 0.5
        clients = _random_clients(rng, l, rng.randint(1, 3) if solvable else 1)
        lower, upper = _index_bounds(indexcoding.IndexInstance(msgs, 1, 0, clients), k)
        a = upper if solvable else lower - 1
        if a >= 1:
            return indexcoding.IndexInstance(msgs, a, 0, clients), k, solvable


def large_index(rng: random.Random, k: int) -> tuple:
    """(instance, k, expected): three default-size messages in a seeded
    cyclic side-information pattern, k^3 message tuples (above 1,000) and an
    output bound of k^3, so sending the whole tuple solves it."""
    a, b, c = rng.sample([1, 2, 3], 3)
    Client = indexcoding.Client
    clients = (Client({a}, {b}), Client({b}, {c}), Client({c}, {a}))
    return indexcoding.IndexInstance((DEFAULT,) * 3, 1, 3, clients), k, True


def _index_check(name: str, inst, k: int, expect=None):
    reference = _cached(lambda: indexcoding.brute_force_solvable(inst, k)) if expect is None else None

    def check(result) -> bool:
        ok, f = result
        if ok:
            tuples = list(itertools.product(*(range(resolve_size(m, k)) for m in inst.messages)))
            bound = inst.output_bound(k)
            _expect(sorted(f) == tuples, f"{name}: witness does not cover every message tuple")
            _expect(all(0 <= f[t] < bound for t in tuples), f"{name}: witness symbol out of range")
            for c in inst.clients:
                seen: dict = {}
                for t in tuples:
                    key = (f[t],) + tuple(t[i - 1] for i in sorted(c.has))
                    val = tuple(t[i - 1] for i in sorted(c.wants))
                    _expect(seen.setdefault(key, val) == val, f"{name}: a client cannot decode")
        want = expect if reference is None else reference()
        _expect(ok == want, f"{name}: solvable={ok}, expected {want}")
        return True

    return check


def build_search(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    ops = []
    butterfly = classic_butterfly()
    for k in (2, 3, 4, 5):
        opts = solver.SolveOptions(node_budget=BUTTERFLY_BUDGET)
        ops.append(Op(f"butterfly-k{k}", lambda k=k, o=opts: solver.solve_at_k(butterfly, k, o),
                      # the butterfly is solvable at every k >= 2 (XOR over Z_k)
                      _solve_check(f"butterfly-k{k}", butterfly, k, expect=True)))
    reduced = tiling.reduce(tiling.ConditionProgram(2, ()))
    opts = solver.SolveOptions(node_budget=REDUCE_BUDGET)
    ops.append(Op("reduce2-k2", lambda: solver.solve_at_k(reduced, 2, opts),
                  # a program without conditions accepts every colouring
                  _solve_check("reduce2-k2", reduced, 2, expect=True)))
    for i in range(24):
        net = random_network(rng)
        for k in (1, 2):
            name = f"random{i}-k{k}"
            ops.append(Op(name, lambda net=net, k=k: solver.solve_at_k(net, k),
                          _solve_check(name, net, k, reference=_cached(
                              lambda net=net, k=k: solver.naive_solve_at_k(net, k)))))
    instances = [small_index(rng) + (None,) for _ in range(16)]
    instances += [medium_index(rng) for _ in range(12)]
    instances += [large_index(rng, 11), large_index(rng, 12)]
    for i, (inst, k, expect) in enumerate(instances):
        name = f"index{i}-k{k}"
        ops.append(Op(name, lambda inst=inst, k=k: indexcoding.solvable_at_k(inst, k),
                      _index_check(name, inst, k, expect)))
    return ops


# ---------------------------------------------------------------------------
# acceptance: both acceptance oracles over catalog families


def _theta_family(b: int) -> list:
    return [{"Z0": families.conditional_switch_z0(t)} for t in itertools.product((0, 1), repeat=b)]


def _grid_family(b1: int, b2: int) -> list:
    cells = list(itertools.product(range(b1), range(b2)))
    return [{"Z0": families.conditional_switch_z0_grid(dict(zip(cells, bits)), b1, b2)}
            for bits in itertools.product((0, 1), repeat=b1 * b2)]


def bstate_accepts(cf) -> bool:
    """Closed form of the b-state buffer's accepted set: Z(0, .) and Z(1, .)
    are injective and differ at exactly one y, where Z(1, y) is the one value
    Z(0, .) misses (72 of the 4,096 candidates at b=3)."""
    b = len(cf.table) // 2
    z0 = [cf.table[(0, y)] for y in range(b)]
    z1 = [cf.table[(1, y)] for y in range(b)]
    diff = [y for y in range(b) if z0[y] != z1[y]]
    return (len(set(z0)) == b and len(set(z1)) == b and len(diff) == 1
            and z1[diff[0]] not in z0)


def bstate_class(cf) -> str:
    """The b-state candidate's cost class in the network oracle at b=3:
    "accepted" (about 0.2 s each), "copy" when Z(1, .) equals an injective
    Z(0, .) (about 0.5 s each, 24 candidates) and "other" (about 7 ms each)."""
    if bstate_accepts(cf):
        return "accepted"
    b = len(cf.table) // 2
    z0 = [cf.table[(0, y)] for y in range(b)]
    z1 = [cf.table[(1, y)] for y in range(b)]
    return "copy" if z0 == z1 and len(set(z0)) == b else "other"


def _or_accepts(entry) -> bool:
    """Virtual OR: accepted iff, for every value of the first select part, the
    switch sends M1 (theta = 1) for some value of the rest.  theta(w) is the
    switch output at (M0, M1) = (0, 1)."""
    rows: dict = {}
    for key, z in entry["Z0"].table.items():
        if key[:2] == (0, 1):
            w = key[2:]
            rows.setdefault(w[0] if len(w) > 1 else None, []).append(z)
    return all(any(row) for row in rows.values())


def _acceptance_op(name: str, gadget, family, k: int, sizes: dict, expect) -> Op:
    """Both oracles on one family.  ``expect`` is the recorded accepted count
    of a whole family, or a per-candidate verdict for drawn candidates."""

    def run():
        return (gadgets.accepted_set(gadget, family, k, sizes=sizes),
                gadgets.entropy_accepted_set(gadget, family, k, sizes=sizes))

    def key(entry):
        entry = entry if isinstance(entry, dict) else {entry.output: entry}
        return tuple(sorted((n, tuple(sorted(cf.table.items()))) for n, cf in entry.items()))

    def check(result) -> bool:
        net_acc, ent_acc = result
        _expect([key(e) for e in net_acc] == [key(e) for e in ent_acc],
                f"{name}: the two acceptance oracles disagree")
        if callable(expect):
            accepted = {key(e) for e in net_acc}
            for entry in family:
                _expect((key(entry) in accepted) == expect(entry),
                        f"{name}: unexpected verdict on {key(entry)}")
        else:
            _expect(len(net_acc) == expect, f"{name}: {len(net_acc)} accepted, expected {expect}")
        return True

    return Op(name, run, check)


def build_acceptance(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    G, F = gadgets, families
    # whole small families with their recorded accepted-set sizes
    whole = [
        ("xor", G.xor_checker(), F.xor_family(), 2, {}, 2),
        ("xor-gate", G.xor_gate(), F.xor_family(), 2, {}, 2),
        ("cond-xor", G.cond_xor_checker(2), F.cond_xor_family(), 1, {}, 4),
        ("tristate", G.tristate_checker(), F.tristate_family(), 1, {}, 12),
        ("tristate-gate", G.tristate_gate(), F.tristate_family(), 1, {}, 12),
        ("bstate-b2", G.bstate_checker(2), F.bstate_family(2), 1, {}, 12),
        ("switch", G.switch_gate(), F.switch_family(), 1, {}, 8),
        ("cycles-k2", G.cycles_gate(), F.cycles_family(2), 2, {}, 2),
        ("cycles-k3", G.cycles_gate(), F.cycles_family(3), 3, {}, 12),
        ("set-n2", G.set_checker(2, [(0, 1), (1, 0)]), F.set_family(2), 1, {}, 2),
        ("virtual-eq-b2", G.virtual_equality_checker(), _theta_family(2), 1, {"W": 2}, 2),
        ("virtual-eq-b3", G.virtual_equality_checker(), _theta_family(3), 1, {"W": 3}, 2),
        ("virtual-or-b2", G.virtual_or_checker(2), _theta_family(2), 1, {}, 3),
        ("cond-virtual-or-1x2", G.cond_virtual_or_checker(1, 2), _grid_family(1, 2), 1, {}, 3),
        ("cond-virtual-eq-2x2", G.cond_virtual_equality_checker(2, 2), _grid_family(2, 2), 1, {}, 4),
    ]
    ops = [_acceptance_op(*case) for case in whole]
    # bstate b=3 (4,096 candidates): a seeded draw with a fixed number of
    # candidates from each cost class, so that the seed does not set the
    # round's cost; verdicts are checked against the closed form
    classes: dict = {}
    for cf in F.bstate_family(3):
        classes.setdefault(bstate_class(cf), []).append(cf)
    draw = [cf for name, count in BSTATE_DRAW.items() for cf in rng.sample(classes[name], count)]
    rng.shuffle(draw)
    ops.append(_acceptance_op("bstate-b3-draw", G.bstate_checker(3), draw, 1, {},
                              bstate_accepts))
    # virtual OR at b=3 and (2,2): fixed accepted candidates, because the
    # entropy oracle's cost differs by up to 2x between candidates with one
    # verdict.  Rejected candidates there cost 8 to 38 s each and are left
    # out; the whole b=2 and (1,2) families above cover rejection.
    ops.append(_acceptance_op("virtual-or-b3", G.virtual_or_checker(3),
                              [_theta_family(3)[1]], 1, {}, _or_accepts))
    ops.append(_acceptance_op("cond-virtual-or-2x2", G.cond_virtual_or_checker(2, 2),
                              [_grid_family(2, 2)[5]], 1, {}, _or_accepts))
    return ops


# ---------------------------------------------------------------------------
# reduce-pipeline: condition programs through the CLI, in process


def random_program(rng: random.Random, n_colors: int, n_conditions: int = 3):
    """A seeded program with exactly one face condition of type 11.

    A type-11 face checker depends on no cycles-gate output, so its part sorts
    before the cycles gates in the solver's search order, and ``solve --k 1``
    enumerates its tables (119,320 trials) before the cycles gate refutes
    k=1.  One such condition gives every program the same fixed search cost;
    two would cost about 15M trials.  The other conditions never sort early.
    """
    subsets = tiling.color_subsets(n_colors)
    conds = [tiling.FaceOr(tiling.FACE_11, rng.choice(subsets))]
    for _ in range(n_conditions - 1):
        kind = rng.choice(["eq", "or", "face"])
        colors = rng.choice(subsets)
        if kind == "eq":
            conds.append(tiling.EdgeEq(rng.choice("hv"), colors))
        elif kind == "or":
            conds.append(tiling.EdgeOr(rng.choice("hv"), colors))
        else:
            conds.append(tiling.FaceOr(tiling.FACE_22, colors))
    rng.shuffle(conds)
    return tiling.ConditionProgram(n_colors, tuple(conds))


def _cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def _cycles_unsolvable_at_1() -> bool:
    """Reference for solve --k 1: a reduced network contains two cycles gates
    fed only by messages, and one cycles gate alone is unsolvable at k=1."""
    comp = gadgets.compose([("c", gadgets.cycles_gate(), {"X1": "x1", "U": "u"})], {"x1": None, "u": 2})
    return not solver.naive_solve_at_k(model.canonicalize(comp.net), 1)


def _colorings(program, width: int, height: int):
    for cells in itertools.product(range(1, program.n_colors + 1), repeat=width * height):
        rows = [cells[y * width:(y + 1) * width] for y in range(height)]
        yield tiling.TorusColoring(width, height, rows)


def build_reduce_pipeline(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    cycles_ref = _cached(_cycles_unsolvable_at_1)
    ops = []
    for i, n_colors in enumerate((2, 2, 3, 3, 4)):
        program = random_program(rng, n_colors)
        prog_path = os.path.join(workdir, f"program{i}.json")
        net_path = os.path.join(workdir, f"network{i}.json")
        with open(prog_path, "w", encoding="utf-8") as fh:
            fh.write(tiling.program_to_json(program))
        tag = f"p{i}-c{n_colors}"

        def check_reduce(result, n=n_colors, tag=tag) -> bool:
            code, doc = result
            if code in (2, 3):
                return False
            _expect(code == 0 and doc["colors"] == n and doc["switches"] == 2 ** n - 2,
                    f"{tag} reduce: exit {code}, {doc}")
            return True

        def check_validate(result, tag=tag) -> bool:
            code, doc = result
            if code in (2, 3):
                return False
            _expect(code == 0 and doc["ok"], f"{tag} validate: exit {code}, {doc}")
            return True

        def check_solve(result, tag=tag) -> bool:
            code, doc = result
            if code in (2, 3):
                return False
            _expect(cycles_ref(), "reference: a lone cycles gate is solvable at k=1")
            _expect(code == 1 and doc["status"] == "unsolvable-at-k", f"{tag} solve: exit {code}")
            return True

        ops += [
            Op(f"{tag}-reduce", lambda p=prog_path, o=net_path: _cli(["reduce", p, "-o", o]), check_reduce),
            Op(f"{tag}-validate", lambda o=net_path: _cli(["validate", o]), check_validate),
            Op(f"{tag}-solve-k1", lambda o=net_path: _cli(["solve", o, "--k", "1"]), check_solve),
        ]
        if n_colors > 3:
            continue
        for width, height in TORUS_SIZES:
            name = f"{tag}-torus-{width}x{height}"
            none_ref = _cached(lambda p=program, w=width, h=height: not any(
                tiling.validate_coloring(p, c).ok for c in _colorings(p, w, h)))

            def check_torus(result, p=program, name=name, none_ref=none_ref) -> bool:
                code, doc = result
                if code in (2, 3):
                    return False
                if code == 0:
                    grid = tiling.TorusColoring(doc["width"], doc["height"], doc["witness"])
                    rep = tiling.validate_coloring(p, grid)
                    _expect(rep.ok, f"{name}: witness fails validate_coloring: {rep.violations}")
                else:
                    _expect(code == 1 and none_ref(), f"{name}: exit {code}, but a colouring exists")
                return True

            ops.append(Op(name, lambda p=prog_path, w=width, h=height: _cli(
                ["torus", p, "--width", str(w), "--height", str(h)]), check_torus))
    return ops


BUILDERS = {
    "search": build_search,
    "acceptance": build_acceptance,
    "reduce-pipeline": build_reduce_pipeline,
}
