import json

import pytest
from hypothesis import given, strategies as st

from pfsnet.model import (
    DEFAULT,
    Edge,
    FormatError,
    InvalidNetwork,
    Network,
    SizeSpec,
    canonicalize,
    deserialize,
    fixed,
    resolve_size,
    serialize,
    to_dot,
    topo_order,
    validate,
)
from pfsnet.solver import solve_at_k


def test_resolve_size():
    assert resolve_size(fixed(3), 7) == 3
    assert resolve_size(DEFAULT, 7) == 7
    assert resolve_size(DEFAULT, 1) == 1
    with pytest.raises(ValueError):
        resolve_size(DEFAULT, 0)
    with pytest.raises(ValueError):
        SizeSpec(0)


def test_validate_empty_network():
    assert validate(Network((), (), (), {}, {})).ok


def test_validate_relay_ok():
    net = Network(("a", "b"), (Edge("e", "a", "b", fixed(2)),), (fixed(2),),
                  {"a": {1}}, {"b": {1}})
    assert validate(net).ok


def test_validate_cycle():
    net = Network(("a", "b"),
                  (Edge("e1", "a", "b", fixed(2)), Edge("e2", "b", "a", fixed(2))),
                  (), {}, {})
    rep = validate(net)
    assert not rep.ok
    assert any(rule == "cycle" for rule, _ in rep.violations)


def test_validate_rules():
    net = Network(("a",), (Edge("e", "a", "zz", fixed(2)),), (fixed(2),),
                  {"a": {7}}, {"qq": {1}})
    rules = {rule for rule, _ in validate(net).violations}
    assert {"endpoint", "message-index", "demands-node"} <= rules


def test_validate_broadcast_shape():
    net = Network(("a", "b", "c"),
                  (Edge("e1", "a", "b", fixed(3)), Edge("e2", "b", "c", fixed(2))),
                  (), {}, {}, broadcast={"b"})
    rules = {rule for rule, _ in validate(net).violations}
    assert "broadcast-capacity" in rules  # 3 does not fit through 2
    net2 = Network(("a", "b"), (Edge("e1", "a", "b", fixed(2)),), (fixed(2),),
                   {"a": {1}}, {}, broadcast={"a"})
    assert "broadcast-shape" in {r for r, _ in validate(net2).violations}


def test_validate_demand_unfed():
    net = Network(("a", "b"), (Edge("e", "a", "b", fixed(2)),), (fixed(2),),
                  {"b": {1}}, {"a": {1}})
    assert "demand-unfed" in {r for r, _ in validate(net).violations}


def test_topo_order_chain_and_diamond():
    chain = Network(("a", "b", "c"),
                    (Edge("1", "a", "b", DEFAULT), Edge("2", "b", "c", DEFAULT)),
                    (), {}, {})
    assert topo_order(chain) == ("a", "b", "c")
    diamond = Network(("a", "b", "c", "d"),
                      tuple(Edge(str(i), t, h, DEFAULT) for i, (t, h) in
                            enumerate([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])),
                      (), {}, {})
    order = topo_order(diamond)
    assert order[0] == "a" and order[-1] == "d"
    assert topo_order(Network(("z",), (), (), {}, {})) == ("z",)
    cyc = Network(("a", "b"),
                  (Edge("1", "a", "b", DEFAULT), Edge("2", "b", "a", DEFAULT)), (), {}, {})
    with pytest.raises(InvalidNetwork):
        topo_order(cyc)


def test_cycle_detail_names_cycle_and_downstream_nodes():
    # s feeds the cycle a -> b -> c -> a, which feeds d -> e; the detail lists
    # every node Kahn's pass cannot reach, in node order
    arcs = [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")]
    net = Network(("e", "d", "c", "b", "a", "s"),
                  tuple(Edge(f"{t}{h}", t, h, DEFAULT) for t, h in arcs), (), {}, {})
    assert validate(net).violations == (("cycle", "a,b,c,d,e"),)
    with pytest.raises(InvalidNetwork, match="cycle"):
        topo_order(net)


def test_canonicalize_parallel_edges():
    net = Network(("u", "v"),
                  (Edge("e1", "u", "v", fixed(2)), Edge("e2", "u", "v", fixed(2))),
                  (fixed(2),), {"u": {1}}, {"v": {1}})
    simple = canonicalize(net)
    assert validate(simple).ok
    heads = {(e.tail, e.head) for e in simple.edges}
    assert len(heads) == len(simple.edges)  # no parallels left
    assert len(simple.nodes) == 4 and len(simple.edges) == 4
    # relays are broadcast and solvability is preserved
    assert len(simple.broadcast) == 2
    for k in (1, 2, 3):
        assert solve_at_k(net, k).solvable == solve_at_k(simple, k).solvable


def test_canonicalize_fixpoint_and_idempotence(classic_butterfly):
    once = canonicalize(classic_butterfly)
    assert once.edges == classic_butterfly.edges
    assert canonicalize(once) == once


def test_canonicalize_rejects_invalid():
    bad = Network(("a", "b"),
                  (Edge("1", "a", "b", DEFAULT), Edge("2", "b", "a", DEFAULT)), (), {}, {})
    with pytest.raises(InvalidNetwork):
        canonicalize(bad)


def test_serialize_round_trip(butterfly, classic_butterfly):
    for net in (butterfly.net, classic_butterfly):
        text = serialize(net)
        again = deserialize(text)
        assert serialize(again) == text
        assert validate(again).ok


def test_deserialize_errors():
    with pytest.raises(FormatError, match="missing field 'messages'"):
        deserialize(json.dumps({"version": 1, "nodes": [], "edges": [],
                                "sources": {}, "demands": {}}))
    doc = {"version": 1, "nodes": [{"id": "a", "broadcast": False}],
           "edges": [{"id": "e", "tail": "a", "head": "a", "size": 0}],
           "messages": [], "sources": {}, "demands": {}}
    with pytest.raises(FormatError, match="size must be >=1 or null"):
        deserialize(json.dumps(doc))
    with pytest.raises(FormatError, match="line 1"):
        deserialize("{not json")
    # ids are strings, as node ids are, never converted
    for field, bad in (("id", {"x": 1}), ("tail", 1), ("head", None)):
        edge = dict(doc["edges"][0], size=2, **{field: bad})
        with pytest.raises(FormatError, match=rf"edges\[0\]\.{field}: expected string"):
            deserialize(json.dumps(dict(doc, edges=[edge])))


def test_to_dot(butterfly):
    one = Network(("a", "b"), (Edge("e", "a", "b", DEFAULT),), (), {}, {})
    text = to_dot(one)
    assert text.count("->") == 1
    assert 'label="k"' in text
    dot = to_dot(butterfly.net)
    assert dot.count("->") == len(butterfly.net.edges) == 3
    assert "style=filled" in dot  # broadcast distributor
    assert to_dot(butterfly.net) == dot  # deterministic


@st.composite
def micro_nets(draw):
    from conftest import random_micro_net
    import random

    seed = draw(st.integers(0, 10**6))
    return random_micro_net(random.Random(seed), max_edges=2)


@given(micro_nets())
def test_canonicalize_preserves_solvability(net):
    assert validate(net).ok
    simple = canonicalize(net)
    assert canonicalize(simple) == simple
    for k in (1, 2):
        assert solve_at_k(net, k).solvable == solve_at_k(simple, k).solvable


@given(micro_nets())
def test_serialize_round_trips_on_random_nets(net):
    text = serialize(net)
    assert serialize(deserialize(text)) == text
