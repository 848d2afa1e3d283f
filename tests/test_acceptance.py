"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget (visible under ``pytest -s``).

Solving a full reduced tiling network end to end is exponential in network
size; that path is covered structurally here (criteria 10 and 11), and
tests/test_tiling.py decides the smallest compiled program at k=1 and k=2.
"""

import itertools
import pathlib
import random
import time

import pytest

from pfsnet import families as F
from pfsnet import gadgets as G
from pfsnet import indexcoding as I
from pfsnet import tiling as T
from pfsnet.model import DEFAULT, canonicalize, fixed, validate
from pfsnet.solver import (
    SolveOptions,
    Status,
    enumerate_solutions,
    naive_solve_at_k,
    solve_at_k,
    verify_scheme,
)

from conftest import random_micro_net


def _report(num, name, elapsed, limit, ok=True):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {verdict} ({elapsed:.2f}s < {limit}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget: {elapsed:.2f}s"


def _tables(entries, port):
    return [tuple(sorted(e[port].table.items())) for e in entries]


def test_criterion_01_butterfly():
    t0 = time.time()
    comp = G.compose([("g", G.xor_gate(), {"M1": "m1", "M2": "m2"})], {"m1": 2, "m2": 2})
    out = solve_at_k(comp.net, 2)
    ok = out.status is Status.SOLVABLE and verify_scheme(comp.net, out.scheme).ok
    _report(1, "butterfly-solvable-k2", time.time() - t0, 1, ok)


def test_criterion_02_xor_checker_acceptance():
    t0 = time.time()
    fam = F.xor_family()
    net_acc = G.accepted_set(G.xor_checker(), fam, 2)
    ent_acc = G.entropy_accepted_set(G.xor_checker(), fam, 2)
    parity = tuple(sorted({(a, b): a ^ b for a in (0, 1) for b in (0, 1)}.items()))
    complement = tuple(sorted({(a, b): 1 - (a ^ b) for a in (0, 1) for b in (0, 1)}.items()))
    ok = (
        _tables(net_acc, "Y") == _tables(ent_acc, "Y") == sorted([parity, complement])
        and len(net_acc) == 2
    )
    _report(2, "xor-checker-2-of-16", time.time() - t0, 10, ok)


def test_criterion_03_tristate_bstate_double_oracle():
    t0 = time.time()
    tri_net = G.accepted_set(G.tristate_checker(), F.tristate_family(), 1)
    tri_ent = G.entropy_accepted_set(G.tristate_checker(), F.tristate_family(), 1)
    golden = F.family_from_json(
        pathlib.Path(__file__).parent.joinpath("data", "tristate_accepted.json").read_text()
    )
    ok = (
        _tables(tri_net, "Z") == _tables(tri_ent, "Z")
        == [tuple(sorted(cf.table.items())) for cf in golden]
    )
    b3_net = G.accepted_set(G.bstate_checker(3), F.bstate_family(3), 1)
    b3_ent = G.entropy_accepted_set(G.bstate_checker(3), F.bstate_family(3), 1)
    ok = ok and _tables(b3_net, "Z") == _tables(b3_ent, "Z") and len(b3_net) == 72
    _report(3, "tristate-bstate-double-oracle", time.time() - t0, 60, ok)


def test_criterion_04_switch_acceptance():
    t0 = time.time()
    fam = F.switch_family()
    net_acc = G.accepted_set(G.switch_gate(), fam, 1)
    ent_acc = G.entropy_accepted_set(G.switch_gate(), fam, 1)
    expect = [F.switch_pair(t, e0, e1) for t in (0, 1) for e0 in (0, 1) for e1 in (0, 1)]

    def keyset(entries):
        return sorted((_t0, _t1) for _t0, _t1 in zip(_tables(entries, "Z0"), _tables(entries, "Z1")))

    ok = (
        len(net_acc) == 8
        and keyset(net_acc) == keyset(ent_acc) == keyset(expect)
    )
    _report(4, "switch-8-of-256", time.time() - t0, 60, ok)


def test_criterion_05_cycles_counts():
    t0 = time.time()
    ok = True
    for k, expected in ((2, 2), (3, 12)):  # k! * derangements(k)
        fam = F.cycles_family(k)
        net_acc = G.accepted_set(G.cycles_gate(), fam, k)
        ent_acc = G.entropy_accepted_set(G.cycles_gate(), fam, k)
        ok = ok and len(net_acc) == expected and _tables(net_acc, "X2") == _tables(ent_acc, "X2")
        perms = [p for p in itertools.permutations(range(k))]
        brute = 0
        for p0, p1 in itertools.product(perms, repeat=2):
            if all(p0[x] != p1[x] for x in range(k)):
                brute += 1
        ok = ok and brute == expected
    _report(5, "cycles-permutation-pairs", time.time() - t0, 60, ok)


def test_criterion_06_one_hot_set_checker():
    t0 = time.time()
    onehot = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    parts = [(f"sw{i}", G.switch_gate(), {"M0": "m0", "M1": "m1"}) for i in (1, 2, 3)]
    bind = {"M1": "m1"}
    for i in (1, 2, 3):
        bind[f"Z{i}_0"] = G.Out(f"sw{i}", "Z0")
        bind[f"Z{i}_1"] = G.Out(f"sw{i}", "Z1")
    parts.append(("chk", G.set_checker(3, onehot), bind))
    comp = G.compose(parts, {"m0": 2, "m1": 2})
    sols = enumerate_solutions(comp.net, 1)

    def state(table):
        for theta, eta in itertools.product((0, 1), (0, 1)):
            if all(table[m0 * 2 + m1] == ((m1 if theta else m0) ^ eta)
                   for m0 in (0, 1) for m1 in (0, 1)):
                return theta
        return None

    states = {
        tuple(state(s.encodings[comp.out_edges[(f"sw{i}", "Z0")]]) for i in (1, 2, 3))
        for s in sols
    }
    ok = bool(sols) and states == set(onehot)
    _report(6, "one-hot-set-checker", time.time() - t0, 60, ok)


def test_criterion_07_virtual_checkers():
    t0 = time.time()
    ok = True
    for b in (2, 3):
        fam = F.theta_family(b)
        thetas = list(itertools.product((0, 1), repeat=b))
        eq_net = G.accepted_set(G.virtual_equality_checker(), fam, 1, sizes={"W": b})
        eq_ent = G.entropy_accepted_set(G.virtual_equality_checker(), fam, 1, sizes={"W": b})
        expect_eq = [e for th, e in zip(thetas, fam) if len(set(th)) == 1]
        ok = ok and _tables(eq_net, "Z0") == _tables(eq_ent, "Z0") == _tables(expect_eq, "Z0")
        or_net = G.accepted_set(G.virtual_or_checker(b), fam, 1)
        or_ent = G.entropy_accepted_set(G.virtual_or_checker(b), fam, 1)
        expect_or = [e for th, e in zip(thetas, fam) if any(th)]
        ok = ok and _tables(or_net, "Z0") == _tables(or_ent, "Z0") == _tables(expect_or, "Z0")
    # conditional variants at w_alphabet 2: the per-slice law
    grids = [dict(zip(itertools.product(range(2), range(2)), bits))
             for bits in itertools.product((0, 1), repeat=4)]
    cfam = F.theta_grid_family(2, 2)
    ceq_net = G.accepted_set(G.cond_virtual_equality_checker(2, 2), cfam, 1)
    ceq_ent = G.entropy_accepted_set(G.cond_virtual_equality_checker(2, 2), cfam, 1)
    expect_ceq = [e for g, e in zip(grids, cfam)
                  if all(len({g[(w1, w2)] for w2 in range(2)}) == 1 for w1 in range(2))]
    ok = ok and _tables(ceq_net, "Z0") == _tables(ceq_ent, "Z0") == _tables(expect_ceq, "Z0")
    cor_net = G.accepted_set(G.cond_virtual_or_checker(2, 2), cfam, 1)
    cor_ent = G.entropy_accepted_set(G.cond_virtual_or_checker(2, 2), cfam, 1)
    expect_cor = [e for g, e in zip(grids, cfam)
                  if all(any(g[(w1, w2)] for w2 in range(2)) for w1 in range(2))]
    ok = ok and _tables(cor_net, "Z0") == _tables(cor_ent, "Z0") == _tables(expect_cor, "Z0")
    _report(7, "virtual-equality-and-or", time.time() - t0, 300, ok)


def test_criterion_08_conditionalization_law():
    t0 = time.time()
    cx = G.cond_xor_checker(2)
    fam = F.cond_xor_family()
    cond_net = G.accepted_set(cx, fam, 1)
    cond_ent = G.entropy_accepted_set(cx, fam, 1)
    plain_accept = {
        tuple(sorted(e["Y"].table.items()))
        for e in G.accepted_set(G.xor_checker(), F.xor_family(), 1)
    }
    per_slice = []
    for cf in fam:
        slices = [
            tuple(sorted({(a, b): cf.table[(a, b, w)] for a in (0, 1) for b in (0, 1)}.items()))
            for w in (0, 1)
        ]
        if all(s in plain_accept for s in slices):
            per_slice.append({"Y": cf})
    ok = (
        _tables(cond_net, "Y") == _tables(cond_ent, "Y") == _tables(
            G._normalize_family(cx, per_slice), "Y")
        and len(cond_net) == 4
    )
    _report(8, "conditionalization-law", time.time() - t0, 300, ok)


def test_criterion_09_solver_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(424242)
    ok = True
    for _ in range(100):
        net = random_micro_net(rng)
        for k in (1, 2):
            fast = solve_at_k(net, k, SolveOptions(symmetry_breaking=True))
            ok = ok and fast.solvable == naive_solve_at_k(net, k)
            if fast.solvable:
                ok = ok and verify_scheme(net, fast.scheme).ok
    _report(9, "solver-vs-naive-oracle", time.time() - t0, 300, ok)


def test_criterion_10_reduction_structure():
    t0 = time.time()
    ok = True
    for n_colors, expected in ((2, 2), (3, 6)):
        net = T.reduce(T.ConditionProgram(n_colors, ()))
        switches = {v.split("/")[0] for v in net.nodes if v.startswith("sw")}
        rep = validate(net)
        ok = ok and rep.ok and len(switches) == expected == 2 ** n_colors - 2
        ok = ok and canonicalize(net) == net
        ok = ok and len({(e.tail, e.head) for e in net.edges}) == len(net.edges)
    # emitted set-checker semantics on a micro instance: a two-switch
    # conditional array admits exactly the codeword states, per slice
    allowed = sorted(T.phi(c, 2) for c in (1, 2))
    mism = []
    for bits in itertools.product((0, 1), repeat=4):
        grid = dict(zip(itertools.product(range(2), range(2)), bits))
        parts = []
        for i in (1, 2):
            th = [grid[(w, i - 1)] for w in range(2)]
            z0t = {(m0, m1, w): (m1 if th[w] else m0)
                   for m0 in (0, 1) for m1 in (0, 1) for w in (0, 1)}
            z0 = G.CandidateFunction("Z0", ("m0", "m1", "w"), z0t, 2, input_sizes=(fixed(2),) * 3)
            z1t = {(m0, m1, w): (m0 if th[w] else m1)
                   for m0 in (0, 1) for m1 in (0, 1) for w in (0, 1)}
            z1 = G.CandidateFunction("Z1", ("m0", "m1", "w"), z1t, 2)
            parts.append((f"sw{i}", G.cond_switch_gate(2),
                          {"M0": "m0", "M1": "m1", "W": ("w",), "Z0": z0, "Z1": z1}))
        bind = {"M1": "m1", "W": ("w",)}
        for i in (1, 2):
            bind[f"Z{i}_0"] = G.Out(f"sw{i}", "Z0")
            bind[f"Z{i}_1"] = G.Out(f"sw{i}", "Z1")
        parts.append(("chk", G.cond_set_checker(2, allowed, 2), bind))
        comp = G.compose(parts, {"m0": 2, "m1": 2, "w": 2}, k=1)
        solvable = solve_at_k(comp.net, 1, SolveOptions(pins=dict(comp.pins))).solvable
        want = all(tuple(grid[(w, i)] for i in range(2)) in set(allowed) for w in range(2))
        if solvable != want:
            mism.append(bits)
    ok = ok and not mism
    _report(10, "reduction-structure", time.time() - t0, 60, ok)


def test_criterion_11_torus_oracle():
    t0 = time.time()
    rows = [(1, 2, 1, 2), (3, 3, 3, 3), (1, 2, 1, 2), (3, 3, 3, 3)]
    coloring = T.TorusColoring(4, 4, rows)
    program = T.ConditionProgram(3, (
        T.EdgeEq("h", frozenset({3})),
        T.EdgeOr("h", frozenset({1, 3})),
        T.EdgeOr("v", frozenset({3})),
        T.FaceOr("11", frozenset({1})),
        T.FaceOr("22", frozenset({2})),
    ))
    ok = T.validate_coloring(program, coloring).ok
    witness = T.torus_bruteforce(program, 4, 4)
    ok = ok and witness is not None and T.validate_coloring(program, witness).ok
    contra = T.ConditionProgram(2, (
        T.EdgeEq("h", frozenset({1})),
        T.EdgeOr("h", frozenset({1})),
        T.EdgeOr("v", frozenset({2})),
    ))
    ok = ok and T.torus_bruteforce(contra, 2, 2) is None
    ok = ok and T.torus_bruteforce(contra, 4, 4) is None
    _report(11, "torus-oracle", time.time() - t0, 60, ok)


def test_criterion_12_index_coding_oracle():
    t0 = time.time()
    ok = True
    # all instances with one or two messages over {fixed 2, default}
    client_types_2 = []
    for has in [frozenset(), frozenset({1}), frozenset({2})]:
        for wants in [frozenset({1}), frozenset({2}), frozenset({1, 2})]:
            if wants - has:
                client_types_2.append(I.Client(has, wants))
    checked = 0
    for l, types in ((1, [c for c in client_types_2 if (c.has | c.wants) <= {1}]),
                     (2, client_types_2)):
        for sizes in itertools.product([fixed(2), DEFAULT], repeat=l):
            msgs = tuple(sizes)
            for a, b in ((1, 0), (1, 1), (2, 0)):
                for picks in itertools.chain(
                    itertools.combinations(types, 1), itertools.combinations(types, 2)
                ):
                    inst = I.IndexInstance(msgs, a, b, picks)
                    for k in (1, 2):
                        got, _ = I.solvable_at_k(inst, k)
                        ok = ok and got == I.brute_force_solvable(inst, k)
                        checked += 1
    # three default-size messages, three clients, sampled deterministically
    rng = random.Random(7)
    types3 = [I.Client(frozenset(h), frozenset(w))
              for h in [(), (1,), (2,), (3,), (1, 2)]
              for w in [(1,), (2,), (3,), (2, 3)]
              if set(w) - set(h)]
    for _ in range(40):
        picks = tuple(rng.sample(types3, 3))
        a, b = rng.choice([(1, 0), (1, 1)])
        inst = I.IndexInstance((DEFAULT, DEFAULT, DEFAULT), a, b, picks)
        for k in (1, 2):
            got, _ = I.solvable_at_k(inst, k)
            ok = ok and got == I.brute_force_solvable(inst, k)
            checked += 1
    # pigeonhole negative: one output symbol cannot serve a binary demand
    neg = I.IndexInstance((fixed(2),), 1, 0, (I.Client(frozenset(), frozenset({1})),))
    ok = ok and I.solvable_at_k(neg, 2) == (False, None)
    print(f"  (index oracle agreement on {checked} decisions)")
    _report(12, "index-coding-oracle", time.time() - t0, 300, ok)
