import collections
import copy
import dataclasses
import itertools
import json
import math
import operator
import pathlib
import random
import re
from typing import Optional

import pytest

from pfsnet import tiling
from pfsnet.cli import run
from pfsnet.model import (
    CodingScheme,
    DEFAULT,
    Edge,
    Network,
    deserialize,
    fixed,
    resolve_size,
    scheme_to_json_dict,
    serialize,
    validate,
)
from pfsnet.solver import (
    BudgetExhausted,
    Cut,
    SolveOptions,
    Status,
    derive_decodings,
    edge_eval_order,
    enumerate_solutions,
    naive_solve_at_k,
    simulate,
    solve_at_k,
    _Search,
    cut_at,
    solve_up_to,
    table_domain,
    unsolvable_from,
    verify_scheme,
)

from conftest import _naive_cost, random_micro_net


def test_butterfly_solvable(butterfly, classic_butterfly):
    out = solve_at_k(butterfly.net, 2)
    assert out.status is Status.SOLVABLE
    assert verify_scheme(butterfly.net, out.scheme).ok
    out2 = solve_at_k(classic_butterfly, 2)
    assert out2.status is Status.SOLVABLE
    assert verify_scheme(classic_butterfly, out2.scheme).ok


def test_pigeonhole_unsolvable(pigeonhole):
    for k in (1, 2, 4):
        assert solve_at_k(pigeonhole, k).status is Status.UNSOLVABLE_AT_K
        assert naive_solve_at_k(pigeonhole, k) is False


def test_solve_up_to(butterfly, pigeonhole):
    # every alphabet in the parity gate is fixed, so k=1 already works
    assert solve_at_k(butterfly.net, 1).solvable
    k, scheme = solve_up_to(butterfly.net, 4)
    assert k == 1 and verify_scheme(butterfly.net, scheme).ok
    assert solve_up_to(pigeonhole, 4) is None


def test_solve_up_to_unreachable_demand():
    # demand node has an in-edge, but no path carries the demanded message
    net = Network(
        ("a", "b", "s"),
        (Edge("e", "a", "b", DEFAULT),),
        (fixed(2),),
        {"s": {1}},
        {"b": {1}},
    )
    assert solve_up_to(net, 3) is None


def test_enumerate_solutions(butterfly, pigeonhole):
    free = Network(("a", "b"), (Edge("e", "a", "b", DEFAULT),), (DEFAULT,),
                   {"a": {1}}, {})
    schemes = enumerate_solutions(free, 2)
    assert len(schemes) == 4  # all maps {0,1} -> {0,1}
    assert [s.encodings["e"] for s in schemes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_solutions(pigeonhole, 2) == []
    top = enumerate_solutions(butterfly.net, 2, limit=1)
    assert len(top) == 1 and verify_scheme(butterfly.net, top[0]).ok


def test_verify_scheme_reports(butterfly):
    net = butterfly.net
    good = solve_at_k(net, 2).scheme
    assert verify_scheme(net, good).ok
    # constant bottleneck: both sinks fail to decode
    enc = dict(good.encodings)
    bottleneck = next(e.id for e in net.edges if e.tail not in net.broadcast)
    enc[bottleneck] = (0,) * len(enc[bottleneck])
    bad = derive_decodings(net, 2, enc)
    rep = verify_scheme(net, bad)
    decode_fails = [el for rule, el in rep.violations if rule == "decode"]
    assert len(decode_fails) == 2
    # out-of-range table entry
    enc2 = dict(good.encodings)
    enc2[bottleneck] = (2,) * len(enc2[bottleneck])
    rep2 = verify_scheme(net, CodingScheme(2, enc2, good.decodings))
    assert ("encoding-range", bottleneck) in rep2.violations
    # missing table
    enc3 = dict(good.encodings)
    del enc3[bottleneck]
    rep3 = verify_scheme(net, CodingScheme(2, enc3, good.decodings))
    assert ("missing-encoding", bottleneck) in rep3.violations


def test_verify_scheme_reports_each_rule_once(butterfly):
    net = butterfly.net
    good = solve_at_k(net, 2).scheme
    (bottleneck,) = good.encodings
    relay = next(e.id for e in net.edges if e.tail in net.broadcast)
    sink = min(net.demands)

    def violations(encodings=None, decodings=None):
        scheme = CodingScheme(2, {**good.encodings, **(encodings or {})},
                              {**good.decodings, **(decodings or {})})
        return verify_scheme(net, scheme).violations

    assert violations({bottleneck: (0, 1)}) == (("encoding-domain", bottleneck),)
    assert violations({relay: (0, 1)}) == (("broadcast-table", relay),)
    assert violations(decodings={sink: good.decodings[sink][:2]}) == (("decoding-domain", sink),)
    assert violations(decodings={sink: ((0,), (1, 0), (1,), (0,))}) == (("decoding-width", sink),)
    # two rows out of range: one violation
    assert violations(decodings={sink: ((2,), (1,), (1,), (3,))}) == (("decoding-range", sink),)
    # rows are checked up to the first of the wrong width
    assert violations(decodings={sink: ((2,), (1, 0), (3,), (0,))}) == (
        ("decoding-range", sink), ("decoding-width", sink))
    assert violations(decodings={sink: ((0,), (1, 0), (3,), (0,))}) == (("decoding-width", sink),)


def test_derived_witness_agrees_with_naive_oracle():
    # verify_scheme reads every table through table_domain, the naive oracle
    # through its own index arithmetic: with every encoding pinned, both
    # decide whether the encodings separate every demand
    rng = random.Random(20261019)
    merges = 0
    for trial in range(150):
        net = random_micro_net(rng, max_edges=4)
        merges += any(len(net.in_edges(v)) > 1 for v in net.nodes)
        for k in (1, 2):
            enc = {}
            for e in net.edges:
                if e.tail not in net.broadcast:
                    size = resolve_size(e.size, k)
                    n = math.prod(s for _, s in table_domain(net, k, e.tail))
                    enc[e.id] = tuple(rng.randrange(size) for _ in range(n))
            got = verify_scheme(net, derive_decodings(net, k, enc)).ok
            assert got == naive_solve_at_k(net, k, pins=enc), (trial, k, net, enc)
    assert merges >= 30  # enough nodes whose tables read two in-edges


def test_scheme_json_round_trip(butterfly):
    # the witness document ``solve`` writes is plain JSON holding every table
    scheme = solve_at_k(butterfly.net, 2).scheme
    doc = json.loads(json.dumps(scheme_to_json_dict(scheme)))
    assert CodingScheme(doc["k"], doc["encodings"], doc["decodings"]) == scheme


def test_pins(butterfly):
    net = butterfly.net
    bottleneck = next(e.id for e in net.edges if e.tail not in net.broadcast)
    xor_table = (0, 1, 1, 0)
    out = solve_at_k(net, 2, SolveOptions(pins={bottleneck: xor_table}))
    assert out.solvable and out.scheme.encodings[bottleneck] == xor_table
    out2 = solve_at_k(net, 2, SolveOptions(pins={bottleneck: (0, 0, 0, 0)}))
    assert out2.status is Status.UNSOLVABLE_AT_K
    with pytest.raises(ValueError):
        solve_at_k(net, 2, SolveOptions(pins={bottleneck: (0, 1)}))
    with pytest.raises(ValueError):
        solve_at_k(net, 2, SolveOptions(pins={"no-such-edge": (0,)}))


def test_budget(butterfly, classic_butterfly):
    # the classic butterfly still branches at k=2 (its m>c cannot carry its
    # tail's k^2 values), but at k=1 every edge is pinned and takes no trial
    out = solve_at_k(classic_butterfly, 2, SolveOptions(node_budget=3))
    assert out.status is Status.BUDGET_EXHAUSTED
    assert solve_up_to(classic_butterfly, 3, SolveOptions(node_budget=0))[0] == 1
    # the parity gate's one tabled edge (2 values, a view of 4) is searched
    # at k=1, its only k
    with pytest.raises(BudgetExhausted) as exc:
        solve_up_to(butterfly.net, 3, SolveOptions(node_budget=3))
    assert exc.value.k == 1
    # a reduced network is refuted at k=1 by a cut and searched at k=2, so
    # an exhausted budget there carries k=2 and is never a negative answer
    with pytest.raises(BudgetExhausted) as exc:
        solve_up_to(tiling.reduce(tiling.ConditionProgram(2, ())), 3, SolveOptions(node_budget=3))
    assert exc.value.k == 2


def test_determinism(classic_butterfly):
    a = solve_at_k(classic_butterfly, 2)
    b = solve_at_k(classic_butterfly, 2)
    assert a.scheme == b.scheme


def test_oracle_equivalence_random_nets():
    rng = random.Random(20260810)
    for trial in range(30):
        net = random_micro_net(rng)
        for k in (1, 2):
            got = solve_at_k(net, k)
            assert got.status in (Status.SOLVABLE, Status.UNSOLVABLE_AT_K)
            assert got.solvable == naive_solve_at_k(net, k), (trial, k, net)
            if got.solvable:
                assert verify_scheme(net, got.scheme).ok


def test_symmetry_breaking_preserves_status():
    rng = random.Random(77)
    for _ in range(100):
        net = random_micro_net(rng)
        for k in (1, 2):
            with_sb = solve_at_k(net, k, SolveOptions(symmetry_breaking=True))
            without = solve_at_k(net, k, SolveOptions(symmetry_breaking=False))
            assert with_sb.status == without.status
            assert with_sb.searched <= without.searched


def test_rejects_invalid():
    cyc = Network(("a", "b"),
                  (Edge("1", "a", "b", DEFAULT), Edge("2", "b", "a", DEFAULT)), (), {}, {})
    with pytest.raises(ValueError):
        solve_at_k(cyc, 1)


def test_symmetry_suppressed_for_pinned_consumers():
    # a pinned table cannot absorb a relabelling of its input edge, so the
    # canonical-representative restriction must not apply there: here only
    # tables sending one message value into {0,1} and the other to 2 work,
    # and the canonical representative (0,1) is not among them
    net = Network(("s", "a", "t"),
                  (Edge("e1", "s", "a", fixed(3)), Edge("e2", "a", "t", fixed(2))),
                  (fixed(2),), {"s": {1}}, {"t": {1}})
    pins = {"e2": (0, 0, 1)}
    out = solve_at_k(net, 1, SolveOptions(pins=pins, symmetry_breaking=True))
    assert out.solvable and naive_solve_at_k(net, 1, pins=pins)
    # the same situation reached through a forced broadcast relay
    chained = Network(("s", "b", "c", "t"),
                      (Edge("e1", "s", "b", fixed(3)), Edge("eb", "b", "c", fixed(3)),
                       Edge("e2", "c", "t", fixed(2))),
                      (fixed(2),), {"s": {1}}, {"t": {1}}, broadcast={"b"})
    out2 = solve_at_k(chained, 1, SolveOptions(pins=pins, symmetry_breaking=True))
    assert out2.solvable and naive_solve_at_k(chained, 1, pins=pins)


def test_multigraph_supported():
    # two parallel binary edges jointly carry a 4-ary message
    net = Network(("s", "t"),
                  (Edge("p0", "s", "t", fixed(2)), Edge("p1", "s", "t", fixed(2))),
                  (fixed(4),), {"s": {1}}, {"t": {1}})
    assert solve_at_k(net, 1).solvable
    one = Network(("s", "t"), (Edge("p0", "s", "t", fixed(2)),),
                  (fixed(4),), {"s": {1}}, {"t": {1}})
    assert not solve_at_k(one, 1).solvable


def random_pruning_net(rng: random.Random, edge_sizes=(fixed(2), fixed(3), DEFAULT),
                       naive_cap: Optional[int] = 20_000) -> Network:
    """Small random instance with broadcast relays, mixed fixed and default
    sizes and up to three demand nodes; with ``naive_cap`` set, cheap enough
    for the naive oracle."""
    size_pool = [fixed(2), fixed(3), DEFAULT]
    while True:
        n_nodes = rng.randint(3, 5)
        nodes = tuple(f"n{i}" for i in range(n_nodes))
        n_msgs = rng.randint(1, 2)
        messages = tuple(rng.choice(size_pool) for _ in range(n_msgs))
        edges = []
        for i in range(rng.randint(2, 5)):
            a, b = sorted(rng.sample(range(n_nodes), 2))
            edges.append(Edge(f"e{i}", f"n{a}", f"n{b}", rng.choice(edge_sizes)))
        sources: dict = {}
        for m in range(1, n_msgs + 1):
            sources.setdefault(f"n{rng.randrange(n_nodes)}", set()).add(m)
        ins = {v: [e for e in edges if e.head == v] for v in nodes}
        broadcast = {v for v in nodes if len(ins[v]) == 1 and v not in sources
                     and rng.random() < 0.6}
        heads = sorted({e.head for e in edges} - broadcast)
        demands = {v: set(rng.sample(range(1, n_msgs + 1), rng.randint(1, n_msgs)))
                   for v in rng.sample(heads, min(len(heads), rng.randint(1, 3)))}
        net = Network(nodes, tuple(edges), messages, sources, demands, broadcast)
        if validate(net).ok and (naive_cap is None or _naive_cost(net, 2) <= naive_cap):
            return net


def random_pins(rng: random.Random, net: Network, k: int) -> dict:
    """A random table for at most one non-broadcast edge."""
    tabled = [e for e in net.edges if e.tail not in net.broadcast]
    if not tabled or rng.random() < 0.5:
        return {}
    e = rng.choice(tabled)
    return {e.id: random_table(rng, net, e, k)}


def random_table(rng: random.Random, net: Network, e: Edge, k: int) -> tuple:
    dom = 1
    for i in net.source_set(e.tail):
        dom *= resolve_size(net.messages[i - 1], k)
    for f in net.in_edges(e.tail):
        dom *= resolve_size(f.size, k)
    return tuple(rng.randrange(resolve_size(e.size, k)) for _ in range(dom))


def test_a_run_keeps_no_state_in_its_setup(butterfly, classic_butterfly):
    # the keys, the trail, the rows and the tables of a run are its own: the
    # setup's attributes keep their objects and their contents (the run
    # templates included), and gain only the count and the core.  The
    # parity gate's one tabled edge is pinned, so its runs set no entry; the
    # classic butterfly's runs search the edges left free
    for net in (butterfly.net, classic_butterfly):
        pinned = next(e.id for e in net.edges if e.tail not in net.broadcast)
        search = _Search(net, 2, [pinned])

        def state():
            return {name: v for name, v in vars(search).items() if name not in ("searched", "core")}

        ids = {name: id(v) for name, v in state().items()}
        # the checks' key readers compare by identity, so the copy shares them
        readers = {id(f): f for at in search.checks_at for check in at for f in check if callable(f)}
        before = copy.deepcopy(state(), readers)
        searched = 0
        for table in itertools.product(range(2), repeat=search.dom_size[pinned]):
            out = search.decide({pinned: table}, None)
            fresh = solve_at_k(net, 2, SolveOptions(pins={pinned: table}))
            assert (out.searched, out.core) == (fresh.searched, fresh.core)
            assert {name: id(v) for name, v in state().items()} == ids
            assert state() == before
            searched += out.searched
        assert searched > 0 or net is butterfly.net


def evaluate_tuple_by_tuple(net: Network, k: int, encodings) -> list:
    """Reference evaluation, one message tuple at a time: per tuple, the
    messages 1..l and then every edge's value in ``edge_eval_order``."""
    out = []
    for msg in itertools.product(*(range(resolve_size(m, k)) for m in net.messages)):
        values = dict(zip(range(1, net.n_messages + 1), msg))
        for e in edge_eval_order(net):
            if e.tail in net.broadcast:
                values[e.id] = values[net.in_edges(e.tail)[0].id]
                continue
            idx = 0
            for src, size in table_domain(net, k, e.tail):
                idx = idx * size + values[src]
            values[e.id] = encodings[e.id][idx]
        out.append(values)
    return out


def zero_tables(net: Network, k: int) -> dict:
    """An all-zero encoding table for every non-broadcast edge."""
    return {e.id: (0,) * math.prod(size for _, size in table_domain(net, k, e.tail))
            for e in net.edges if e.tail not in net.broadcast}


def narrow_out_edges(net: Network, k: int) -> list:
    """(relay, out-edge id) of every broadcast out-edge narrower at k than its
    relay's in-edge, relays and then out-edges in sorted order."""
    return [(v, e.id) for v in sorted(net.broadcast) for e in net.out_edges(v)
            if e.size.resolve(k) < net.in_edges(v)[0].size.resolve(k)]


def test_column_evaluation_matches_a_tuple_by_tuple_loop():
    # simulate, derive_decodings and verify_scheme evaluate the tables one
    # column per message and edge; on random tables they agree with the
    # loop over tuples, and a derived scheme verifies iff every demand's
    # input determines its messages on every tuple.  Evaluation needs every
    # relay's out-edges as wide as its in-edge at k: a narrower one would
    # carry values outside its alphabet, so simulate and derive_decodings
    # refuse the network with a ValueError naming the first such out-edge
    rng = random.Random(20261021)
    verdicts = set()
    refused = 0
    for trial in range(120):
        net = random_pruning_net(rng)
        for k in (1, 2):
            narrow = narrow_out_edges(net, k)
            if narrow:
                encodings = zero_tables(net, k)
                v, eid = narrow[0]
                msg = re.escape(f"broadcast out-edge {eid!r} of relay {v!r} is narrower than its in-edge at k={k}")
                with pytest.raises(ValueError, match=msg):
                    derive_decodings(net, k, encodings)
                with pytest.raises(ValueError, match=msg):
                    next(simulate(net, CodingScheme(k, encodings, {})))
                refused += 1
                continue
            encodings = {e.id: random_table(rng, net, e, k) for e in net.edges if e.tail not in net.broadcast}
            want = evaluate_tuple_by_tuple(net, k, encodings)
            scheme = derive_decodings(net, k, encodings)
            assert list(simulate(net, scheme)) == want
            decodes = True
            for v, demanded in net.demands.items():
                seen: dict = {}
                for values in want:
                    key = tuple(values[src] for src, _ in table_domain(net, k, v))
                    got = tuple(values[i] for i in sorted(demanded))
                    decodes &= seen.setdefault(key, got) == got
            assert verify_scheme(net, scheme).ok == decodes
            verdicts.add(decodes)
    assert verdicts == {False, True} and refused > 0


def test_broadcast_capacity_violations_are_the_relay_cuts_at_k():
    # relay capacity has one bound: at every k the out-edges verify_scheme
    # reports as broadcast-capacity are exactly those narrower at k than
    # their relay's in-edge, in order, and the first of them is the cut that
    # refutes k unless a demand node's cut comes first.  Relays of mixed
    # sizes make the narrow set change with k
    rng = random.Random(20261022)
    seen = set()
    for trial in range(150):
        net = random_pruning_net(rng, naive_cap=None)
        by_k = []
        for k in (1, 2, 3, 4):
            narrow = narrow_out_edges(net, k)
            rep = verify_scheme(net, CodingScheme(k, zero_tables(net, k), {}))
            assert [eid for rule, eid in rep.violations if rule == "broadcast-capacity"] == [e for _, e in narrow]
            cut = cut_at(net, k)
            assert cut is not None or not narrow
            if cut is not None and cut.node in net.broadcast:
                assert cut == Cut(narrow[0][0], (narrow[0][1],))
                seen.add("relay-cut")
            by_k.append(narrow)
        if any(by_k) and not all(by_k):
            seen.add("k-dependent")
    assert seen == {"relay-cut", "k-dependent"}


def test_one_network_answers_every_k_as_fresh_copies_do(classic_butterfly):
    # the evaluation layout is kept on the network, one per k: one network
    # asked at k=2, then k=3, then k=2 again derives and verifies as a fresh
    # copy does each time, for a scheme that decodes and one that does not
    net = dataclasses.replace(classic_butterfly)

    def encodings(k: int, mix) -> dict:
        same = tuple(range(k))
        return {"s1>m": same, "s1>t1": same, "s2>m": same, "s2>t2": same,
                "m>c": tuple(mix(a, b) % k for a in range(k) for b in range(k)),
                "c>t1": same, "c>t2": same}

    reports = []
    for k in (2, 3, 2):
        for mix in (operator.add, lambda a, b: 0):
            fresh = dataclasses.replace(classic_butterfly)
            got, want = derive_decodings(net, k, encodings(k, mix)), derive_decodings(fresh, k, encodings(k, mix))
            assert got == want
            reports.append(verify_scheme(net, got))
            assert reports[-1] == verify_scheme(fresh, want)
            # the same tables read at the other k fit no domain
            other = CodingScheme(5 - k, got.encodings, got.decodings)
            assert verify_scheme(net, other) == verify_scheme(dataclasses.replace(classic_butterfly), other)
            assert not verify_scheme(net, other).ok
    assert [rep.violations for rep in reports] == [(), (("decode", "t1"), ("decode", "t2"))] * 3


def test_every_pin_set_that_repeats_a_core_is_unsolvable():
    # a refutation's core names the pinned entries it rests on: pin tables
    # that agree with the refuted ones there are refuted too, by the naive
    # oracle, whatever the tables hold elsewhere.  A cut rests on no pin
    rng = random.Random(20261021)
    seen = collections.Counter()
    for trial in range(600):
        net = random_pruning_net(rng)
        tabled = [e for e in net.edges if e.tail not in net.broadcast]
        if not tabled:
            continue
        pinned = rng.sample(tabled, min(len(tabled), rng.randint(1, 2)))
        for k in (1, 2):
            pins = {e.id: random_table(rng, net, e, k) for e in pinned}
            got = solve_at_k(net, k, SolveOptions(pins=pins))
            if got.status is not Status.UNSOLVABLE_AT_K:
                assert got.core is None
                continue
            if got.cut is not None:
                assert got.core == ()
                continue
            entries = [(e.id, d) for e in pinned for d in range(len(pins[e.id]))]
            assert set(got.core) <= set(entries) and len(set(got.core)) == len(got.core)
            free = [(eid, d) for eid, d in entries if (eid, d) not in got.core]
            seen["empty" if not got.core else "partial" if free else "full"] += 1
            sizes = {e.id: e.size.resolve(k) for e in pinned}
            # an empty core gives any pins: one draw suffices, as the other
            # oracle tests draw pins at random too
            for _ in range(8 if got.core else 1):
                tables = {eid: list(t) for eid, t in pins.items()}
                for eid, d in free:
                    tables[eid][d] = rng.randrange(sizes[eid])
                assert not naive_solve_at_k(net, k, pins=tables), (trial, k, pins, got.core, tables, net)
                seen["agreeing"] += 1
    assert seen["empty"] > 100 and seen["partial"] > 20 and seen["full"] > 10, seen


def test_one_setup_serves_runs_with_other_pins():
    # a setup depends on which edges are pinned, not on their tables; every
    # run starts afresh, so it gives the outcome and the trial count of a
    # fresh solve_at_k whatever ran before it, an exhausted budget included
    rng = random.Random(20261019)
    outcomes = set()
    for trial in range(60):
        net = random_pruning_net(rng)
        tabled = [e for e in net.edges if e.tail not in net.broadcast]
        pinned = rng.sample(tabled, rng.randint(0, min(2, len(tabled))))
        for k in (1, 2):
            search = _Search(net, k, [e.id for e in pinned])
            for budget in (None, 2, None, None):
                pins = {e.id: random_table(rng, net, e, k) for e in pinned}
                want = solve_at_k(net, k, SolveOptions(pins=pins, node_budget=budget))
                got = search.decide(pins, budget)
                assert (got.status, got.searched, got.scheme) == (want.status, want.searched, want.scheme)
                outcomes.add(got.status)
        with pytest.raises(ValueError):
            search.decide({}, None) if pinned else search.decide({tabled[0].id: ()}, None)
    assert outcomes == set(Status)


def test_pruning_agrees_with_naive_oracle():
    rng = random.Random(20261018)
    kinds = set()
    for trial in range(150):
        net = random_pruning_net(rng)
        for k in (1, 2):
            pins = random_pins(rng, net, k)
            want = naive_solve_at_k(net, k, pins=pins)
            for sb in (True, False):
                got = solve_at_k(net, k, SolveOptions(pins=pins, symmetry_breaking=sb))
                assert got.solvable == want, (trial, k, sb, pins, net)
                if got.solvable:
                    assert verify_scheme(net, got.scheme).ok
                    assert all(got.scheme.encodings[e] == t for e, t in pins.items())
            kinds.add((bool(net.broadcast), bool(pins), len(net.demands) > 1, want))
    # every combination of broadcast, pins, several demands and outcome occurred
    assert len(kinds) == 16


def test_symmetry_breaking_needs_no_blame_for_restricted_growth():
    # a frame whose domain restricted growth capped blames only the frames
    # its failed checks read, not the earlier frames of its edge that fixed
    # the cap: relabelling the edge maps any solution above the cap onto
    # one at the cap.  Were that wrong, the search with symmetry breaking
    # would prove some solvable network unsolvable.
    rng = random.Random(20261018)
    outcomes = set()
    for trial in range(300):
        # edges of 3, 4 or k values: at k=3 restricted growth caps the
        # domain of entries whose edge already has earlier frames
        net = random_pruning_net(rng, (fixed(3), fixed(4), DEFAULT), naive_cap=None)
        with_sb = solve_at_k(net, 3, SolveOptions(symmetry_breaking=True, node_budget=100_000))
        without = solve_at_k(net, 3, SolveOptions(symmetry_breaking=False, node_budget=100_000))
        assert with_sb.status is not Status.BUDGET_EXHAUSTED, (trial, net)
        assert with_sb.status == without.status, (trial, net)
        outcomes.add(with_sb.status)
    assert outcomes == {Status.SOLVABLE, Status.UNSOLVABLE_AT_K}


BUTTERFLY_TRIALS = {2: 6, 3: 24, 4: 40, 5: 296, 6: 779, 7: 2_479, 8: 288, 16: 2_176}


@pytest.mark.parametrize("k", sorted(BUTTERFLY_TRIALS))
def test_butterfly_trial_counts(classic_butterfly, k):
    out = solve_at_k(classic_butterfly, k, SolveOptions(node_budget=200_000))
    assert out.solvable and out.searched == BUTTERFLY_TRIALS[k]
    assert verify_scheme(classic_butterfly, out.scheme).ok


def test_reduced_net_trial_counts():
    net = tiling.reduce(tiling.ConditionProgram(2, ()))
    # at k=1 a cycles gate's X2 edge (size 1) cannot carry its U (size 2)
    one = solve_at_k(net, 1)
    assert one.status is Status.UNSOLVABLE_AT_K and one.searched == 0
    assert one.cut == Cut("cycx/01.du", ("cycx/00.X2.e",))
    two = solve_at_k(net, 2)
    assert two.solvable and two.searched == 588


def test_enumerate_covers_unreached_entries():
    # e1 carries a binary message on a ternary edge, so one entry of e2's
    # table is never reached; e3 feeds no demand at all
    net = Network(("s", "r", "t", "x"),
                  (Edge("e1", "s", "r", fixed(3)), Edge("e2", "r", "t", fixed(2)),
                   Edge("e3", "s", "x", fixed(2))),
                  (fixed(2),), {"s": {1}}, {"t": {1}})
    spaces = [itertools.product(range(3), repeat=2), itertools.product(range(2), repeat=3),
              itertools.product(range(2), repeat=2)]
    naive = set()
    for t1, t2, t3 in itertools.product(*map(list, spaces)):
        enc = {"e1": t1, "e2": t2, "e3": t3}
        if verify_scheme(net, derive_decodings(net, 1, enc)).ok:
            naive.add(tuple(sorted(enc.items())))
    schemes = enumerate_solutions(net, 1)
    got = [tuple(sorted(s.encodings.items())) for s in schemes]
    assert len(naive) == 96 and len(got) == len(set(got)) and set(got) == naive


def test_enumerate_finds_every_scheme_naive_enumeration_finds():
    # each frame tries its values in the order of their past failures at its
    # entry, and still tries each value once: on random small networks the
    # search yields exactly the encodings that pass the naive oracle when
    # every table is pinned
    rng = random.Random(20261020)
    counts = []
    fired = 0
    for trial in range(40):
        net = random_pruning_net(rng, naive_cap=400)
        tabled = [e for e in net.edges if e.tail not in net.broadcast]
        for k in (1, 2):
            spaces = [itertools.product(range(resolve_size(e.size, k)),
                                        repeat=math.prod(s for _, s in table_domain(net, k, e.tail)))
                      for e in tabled]
            ids = [e.id for e in tabled]
            naive = {tuple(sorted(zip(ids, combo))) for combo in itertools.product(*spaces)
                     if naive_solve_at_k(net, k, pins=dict(zip(ids, combo)))}
            got = [tuple(sorted(s.encodings.items())) for s in enumerate_solutions(net, k)]
            assert len(got) == len(set(got)) and set(got) == naive, (trial, k, net)
            counts.append(len(naive))
            # the enumeration lists every scheme where a solve would pin
            search = _Search(net, k)
            fired += search.cut is None and bool(search.dominated) and len(naive) > 1
    assert 0 in counts and max(counts) > 100 and fired > 10


def test_deep_network_no_recursion_error():
    n = 1500
    nodes = tuple(f"v{i:04d}" for i in range(n + 1))
    edges = tuple(Edge(f"e{i:04d}", nodes[i], nodes[i + 1], fixed(2)) for i in range(n))
    net = Network(nodes, edges, (fixed(2),), {nodes[0]: {1}}, {nodes[-1]: {1}})
    out = solve_at_k(net, 1)
    assert out.solvable and verify_scheme(net, out.scheme).ok


def test_cut_refutations_agree_with_naive_oracle():
    # the cut-set bound refutes a network before any search: every such
    # refutation, under pins too, agrees with the naive oracle, and a setup
    # serves runs with other pin tables as fresh solves do.  Some demand
    # nodes also source a message they demand (it needs no capacity), some
    # read two edges from one relay (they count once), and some relays have
    # an out-edge narrower than their in-edge at k (a relay's cut)
    rng = random.Random(20261020)
    seen = set()
    for trial in range(300):
        net = random_pruning_net(rng)
        if not net.demands:
            continue
        t = rng.choice(sorted(net.demands))
        if rng.random() < 0.4:
            sources = {v: set(m) for v, m in net.sources.items()}
            sources.setdefault(t, set()).add(rng.choice(sorted(net.demands[t])))
            net = dataclasses.replace(net, sources=sources)
        if rng.random() < 0.4:
            # one edge into t becomes two edges from a relay
            e = rng.choice(net.in_edges(t))
            edges = [f for f in net.edges if f is not e]
            edges += [Edge(e.id, e.tail, "r", e.size), Edge("r>1", "r", t, e.size), Edge("r>2", "r", t, e.size)]
            net = dataclasses.replace(net, nodes=(*net.nodes, "r"), edges=tuple(edges),
                                      broadcast=net.broadcast | {"r"})
        for k in (1, 2, 3):
            if _naive_cost(net, k) > 20_000:
                continue
            pins = random_pins(rng, net, k)
            want = naive_solve_at_k(net, k, pins=pins)
            got = solve_at_k(net, k, SolveOptions(pins=pins))
            assert got.solvable == want, (trial, k, pins, net)
            assert got.cut == cut_at(net, k)
            if got.cut:
                assert got.searched == 0 and not want
                t = got.cut.node
                if t in net.broadcast:
                    (e,) = (f for f in net.edges if f.id in got.cut.edges)
                    assert e.tail == t and e.size.resolve(k) < net.in_edges(t)[0].size.resolve(k)
                    seen.add(("relay-cut", bool(pins)))
                else:
                    roots = len(got.cut.edges) < len(net.in_edges(t))
                    seen.add(("cut", bool(net.demands[t] & net.source_set(t)), roots, bool(pins)))
            else:
                seen.add(("search", want))
            search = _Search(net, k, pins)
            for run_pins in (pins, {e.id: random_table(rng, net, e, k) for e in net.edges if e.id in pins}):
                fresh = solve_at_k(net, k, SolveOptions(pins=run_pins))
                assert search.decide(run_pins, None) == fresh
    # cuts fired with and without a sourced demand, a shared relay and pins,
    # and relays' cuts with and without pins
    assert {("cut", a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)} <= seen
    assert {("relay-cut", False), ("relay-cut", True)} <= seen
    assert {("search", False), ("search", True)} <= seen


def test_cut_sources_and_relays():
    # t demands messages 1 (size 3) and 2 (size k) and sources 2 itself, so
    # it needs 3 values; they reach it on edge x (size 3) twice, through a
    # broadcast relay, and on edge y (size 1)
    net = Network(("s", "r", "t"),
                  (Edge("x", "s", "r", fixed(3)), Edge("r>t.1", "r", "t", fixed(3)),
                   Edge("r>t.2", "r", "t", fixed(3)), Edge("y", "s", "t", fixed(1))),
                  (fixed(3), DEFAULT), {"s": {1, 2}, "t": {2}}, {"t": {1, 2}}, {"r"})
    assert cut_at(net, 2) is None and solve_at_k(net, 2).solvable
    assert unsolvable_from(net) is None
    # with x at size 2 the relay's two edges still carry 2 values, not 4
    narrow = dataclasses.replace(net, edges=(Edge("x", "s", "r", fixed(2)), *net.edges[1:]))
    out = solve_at_k(narrow, 2)
    assert out.status is Status.UNSOLVABLE_AT_K and out.searched == 0
    assert out.cut == Cut("t", ("x", "y")) and not naive_solve_at_k(narrow, 2)
    assert unsolvable_from(narrow) == 1


@pytest.mark.parametrize("edges, messages, k0", [
    # a size-k edge against messages of sizes k and 2, at every k
    ((DEFAULT,), (DEFAULT, fixed(2)), 1),
    # k against k^2, from k=2
    ((DEFAULT,), (DEFAULT, DEFAULT), 2),
    # 5 against k, from k=6
    ((fixed(5),), (DEFAULT,), 6),
    # 2k against k^2 (with a size-1 edge), from k=3
    ((DEFAULT, fixed(2), fixed(1)), (DEFAULT, DEFAULT), 3),
])
def test_cut_refutes_every_k_from_k0(capsys, tmp_path, edges, messages, k0):
    net = Network(("s", "t"), tuple(Edge(f"e{i}", "s", "t", size) for i, size in enumerate(edges)),
                  messages, {"s": set(range(1, len(messages) + 1))}, {"t": set(range(1, len(messages) + 1))})
    assert unsolvable_from(net) == k0
    if k0 > 1:
        assert cut_at(net, k0 - 1) is None and solve_at_k(net, k0 - 1).solvable
    for k in range(k0, k0 + 4):
        out = solve_at_k(net, k)
        assert out.status is Status.UNSOLVABLE_AT_K and out.searched == 0 and out.cut.node == "t"
    path = tmp_path / "net.json"
    path.write_text(serialize(net))
    assert run(["sweep", str(path), "--k-max", "1"]) == (1 if k0 == 1 else 0)
    assert json.loads(capsys.readouterr().out)["unsolvable_from"] == k0


def test_unsolvable_from_joins_small_and_large_k():
    # t1 gets a message of size k over a size-3 edge: refuted for k >= 4.
    # t2 gets a message of size m over a size-k edge: refuted for k < m.
    # With m = 4 every k is refuted; with m = 3, k = 3 is solvable
    for m, k0 in ((4, 1), (3, 4)):
        net = Network(("s", "t1", "t2"),
                      (Edge("a", "s", "t1", fixed(3)), Edge("b", "s", "t2", DEFAULT)),
                      (DEFAULT, fixed(m)), {"s": {1, 2}}, {"t1": {1}, "t2": {2}})
        assert unsolvable_from(net) == k0
        refuted = [k for k in range(1, 9) if cut_at(net, k)]
        assert refuted == [k for k in range(1, 9) if k >= 4 or k < m]
        if k0 > 1:
            assert solve_at_k(net, k0 - 1).solvable


def test_relay_network_needs_no_search():
    # tests/data/relay.json: messages of sizes k and 2 reach the sink over
    # one size-k edge, relayed twice, and one size-1 edge; the search takes
    # 80, 186, 1,173, 3,196 and 26,510 trials at k=2..6 without the cut
    path = pathlib.Path(__file__).parent / "data" / "relay.json"
    net = deserialize(path.read_text())
    for k in (1, 2, 8, 50):
        out = solve_at_k(net, k)
        assert out.status is Status.UNSOLVABLE_AT_K and out.searched == 0
        assert out.cut == Cut("t", ("a>r", "c>t"))
    assert unsolvable_from(net) == 1


def test_narrow_relay_needs_no_search(capsys):
    # tests/data/narrow_relay.json: message 1 (size k) reaches t through the
    # broadcast relay r, whose out-edge b has size 2.  From k=3 on, b cannot
    # forward r's in-edge a, so a relay's cut refutes k before the setup
    # lays out the k message tuples
    path = pathlib.Path(__file__).parent / "data" / "narrow_relay.json"
    net = deserialize(path.read_text())
    for k in (1, 2, 3):
        out = solve_at_k(net, k)
        assert out.solvable == naive_solve_at_k(net, k) == (k < 3)
        assert out.cut == (Cut("r", ("b",)) if k == 3 else None)
    out = solve_at_k(net, 10**6)
    assert out.status is Status.UNSOLVABLE_AT_K and out.searched == 0 and out.cut == Cut("r", ("b",))
    assert 10**6 not in net._layouts
    assert unsolvable_from(net) == 3
    # no table lets b carry a's 3 values at k=3, so evaluation refuses it
    with pytest.raises(ValueError, match="broadcast out-edge 'b' of relay 'r'"):
        derive_decodings(net, 3, {"a": (0, 1, 2)})
    assert run(["solve", str(path), "--k", "1000000"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "unsolvable-at-k" and doc["searched"] == 0
    assert doc["cut"] == {"node": "r", "edges": ["b"]}
    assert run(["sweep", str(path), "--k-max", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"]["k"] == 1 and doc["unsolvable_from"] == 3


def with_relay(rng: random.Random, net: Network) -> Network:
    """``net`` with one edge split through a new broadcast relay ``r``, which
    feeds a second node after the edge's tail half the time.  The nodes of
    ``random_micro_net`` are in topological order."""
    e = rng.choice(net.edges)
    outs = [Edge("r>0", "r", e.head, e.size)]
    later = [v for v in net.nodes[net.nodes.index(e.tail) + 1:] if v != e.head]
    if later and rng.random() < 0.5:
        outs.append(Edge("r>1", "r", rng.choice(later), e.size))
    edges = (*(f for f in net.edges if f is not e), Edge(e.id, e.tail, "r", e.size), *outs)
    return dataclasses.replace(net, nodes=(*net.nodes, "r"), edges=edges, broadcast=net.broadcast | {"r"})


def test_dominance_pins_agree_with_naive_oracle():
    # an edge that can carry its tail's whole view is pinned to the identity
    # on its table indices unless a consumer of its value, through relays,
    # has a caller-pinned out-edge.  On random micro networks with one
    # broadcast relay, with and without a caller pin, the search agrees
    # with the naive oracle, and both the pin and the block occur
    rng = random.Random(20261021)
    seen = set()
    for trial in range(500):
        net = with_relay(rng, random_micro_net(rng))
        for k in (1, 2):
            if _naive_cost(net, k) > 20_000:
                continue
            # a pin blocks the rule only on a consumer's out-edge
            tabled = [e for e in net.edges if e.tail not in net.broadcast]
            e = rng.choice([e for e in tabled if net.in_edges(e.tail)] or tabled)
            pins = {e.id: random_table(rng, net, e, k)} if rng.random() < 0.6 else {}
            want = naive_solve_at_k(net, k, pins=pins)
            got = solve_at_k(net, k, SolveOptions(pins=pins))
            assert got.solvable == want, (trial, k, pins, net)
            if got.solvable:
                assert verify_scheme(net, got.scheme).ok
                assert all(got.scheme.encodings[e] == t for e, t in pins.items())
            search = _Search(net, k, pins)
            if search.cut is None:
                fits = {e.id for e in search.edges
                        if e.id not in pins and search.size[e.id] >= search.dom_size[e.id]}
                assert search.dominated <= fits and (pins or search.dominated == fits)
                seen.add((bool(pins), bool(search.dominated), bool(fits - search.dominated), want))
    assert {(False, True, False, True), (False, True, False, False), (True, True, False, True),
            (True, False, True, True), (True, False, True, False)} <= seen


def test_dominance_pins(classic_butterfly):
    # the butterfly's m>c (k values over a view of k^2) is the only edge
    # left to search, and the rule is off without symmetry breaking
    pinned = {"s1>m", "s1>t1", "s2>m", "s2>t2", "c>t1", "c>t2"}
    for k in (2, 3):
        assert _Search(classic_butterfly, k).dominated == pinned
        assert not _Search(classic_butterfly, k, symmetry_breaking=False).dominated
    # e1 (3 values over a view of 2) is pinned unless e2, which reads it,
    # is pinned by the caller, directly or through a relay; e2 (2 values
    # over a view of 3) never is
    net = Network(("s", "a", "t"),
                  (Edge("e1", "s", "a", fixed(3)), Edge("e2", "a", "t", fixed(2))),
                  (fixed(2),), {"s": {1}}, {"t": {1}})
    chained = Network(("s", "b", "c", "t"),
                      (Edge("e1", "s", "b", fixed(3)), Edge("eb", "b", "c", fixed(3)),
                       Edge("e2", "c", "t", fixed(2))),
                      (fixed(2),), {"s": {1}}, {"t": {1}}, broadcast={"b"})
    for n in (net, chained):
        assert _Search(n, 1).dominated == {"e1"}
        assert not _Search(n, 1, ["e2"]).dominated
        assert _Search(n, 1).blank[0] == ("e1", [0, 1]) and _Search(n, 1).setter[0] == [0, 0]


def relay_chain_net(rng: random.Random) -> Network:
    """A random network whose edges are often split through chains of one to
    three broadcast relays, each relay feeding one or more readers after the
    chain's tail (with the chain's size, so no relay is narrow)."""
    size_pool = [fixed(2), fixed(3), DEFAULT]
    while True:
        n = rng.randint(3, 5)
        nodes = [f"n{i}" for i in range(n)]
        messages = tuple(rng.choice(size_pool) for _ in range(rng.randint(1, 2)))
        edges, relays = [], set()
        for i in range(rng.randint(2, 5)):
            a, b = sorted(rng.sample(range(n), 2))
            size = rng.choice(size_pool)
            tail = f"n{a}"
            for j in range(rng.choice((0, 0, 1, 2, 3))):
                r = f"r{i}.{j}"
                nodes.append(r)
                relays.add(r)
                edges.append(Edge(f"e{i}.{j}", tail, r, size))
                tail = r
                # a relay's other readers come after the chain's first tail
                for x, c in enumerate(rng.sample(range(a + 1, n), min(n - a - 1, rng.choice((0, 0, 1, 2))))):
                    edges.append(Edge(f"e{i}.{j}>{x}", r, f"n{c}", size))
            edges.append(Edge(f"e{i}", tail, f"n{b}", size))
        sources: dict = {}
        for m in range(1, len(messages) + 1):
            sources.setdefault(f"n{rng.randrange(n)}", set()).add(m)
        heads = sorted({e.head for e in edges} - relays)
        demands = {v: set(rng.sample(range(1, len(messages) + 1), rng.randint(1, len(messages))))
                   for v in rng.sample(heads, min(len(heads), rng.randint(1, 3)))}
        net = Network(tuple(nodes), tuple(edges), messages, sources, demands, relays)
        if validate(net).ok:
            return net


def relays_to_a_pin(net: Network, e: Edge, pinned) -> Optional[int]:
    """The forward walk that decided symmetry eligibility before the backward
    pass, breadth first: the fewest relays passed from e's head, following
    relays' out-edges, before a node with a caller-pinned out-edge; None if
    no such node is reached (then e is eligible under symmetry breaking)."""
    frontier, seen, hops = [e.head], {e.head}, 0
    while frontier:
        if any(f.id in pinned for u in frontier for f in net.out_edges(u)):
            return hops
        nxt = []
        for u in frontier:
            if u in net.broadcast:
                for f in net.out_edges(u):
                    if f.head not in seen:
                        seen.add(f.head)
                        nxt.append(f.head)
        frontier, hops = nxt, hops + 1
    return None


def test_symmetry_eligibility_matches_the_forward_walk():
    # the setup marks the pinned edges' tails and then every relay with an
    # out-edge into a marked node, and an edge is eligible iff its head is
    # unmarked: on random relay chains with 0-2 caller pins that is the
    # forward walk's answer, with and without symmetry breaking, and the
    # dominance pins are the eligible unpinned edges that can carry their
    # tail's whole view.  Pins are reached through chains of two or more
    # relays and through relays that feed several readers
    rng = random.Random(20261023)
    seen = set()
    for trial in range(400):
        net = relay_chain_net(rng)
        tabled = [e.id for e in net.edges if e.tail not in net.broadcast]
        pinned = rng.sample(tabled, min(len(tabled), rng.choice((0, 1, 1, 2, 2))))
        for symmetry_breaking in (True, False):
            search = _Search(net, 2, pinned, symmetry_breaking)
            if search.cut is not None:
                continue
            hops = [relays_to_a_pin(net, e, pinned) for e in search.edges]
            want = [symmetry_breaking and h is None for h in hops]
            assert search.sym == want, (trial, pinned, net)
            assert search.dominated == {
                e.id for e, ok in zip(search.edges, want) if ok and e.id not in pinned
                and resolve_size(e.size, 2) >= math.prod(s for _, s in table_domain(net, 2, e.tail))}
            seen.add((len(pinned), symmetry_breaking))
            seen.update(("hops", h) for h in hops if h is not None)
            seen.update("fan-out" for e, h in zip(search.edges, hops)
                        if h and len({f.head for f in net.out_edges(e.head)}) > 1)
            seen.add(("dominated", bool(search.dominated)))
    assert {(p, sb) for p in (0, 1, 2) for sb in (True, False)} <= seen
    assert {("hops", 0), ("hops", 1), ("hops", 2), "fan-out", ("dominated", True)} <= seen


@pytest.mark.parametrize("bad", [1.0, 1.5, True], ids=["float-1.0", "float-1.5", "bool"])
def test_pins_refuse_non_int_entries(classic_butterfly, pigeonhole, bad):
    # a pin entry that equals an int, or lies between two, is refused, not
    # read as the int it equals, also where a cut refutes k before the search
    msg = re.escape("pin for 's1>m' out of range: its entries must be ints in [0,2)")
    with pytest.raises(ValueError, match=msg):
        solve_at_k(classic_butterfly, 2, SolveOptions(pins={"s1>m": (0, bad)}))
    assert cut_at(pigeonhole, 1) is not None
    with pytest.raises(ValueError, match="pin for 'e1' out of range"):
        solve_at_k(pigeonhole, 1, SolveOptions(pins={"e1": (0, bad, 0)}))
