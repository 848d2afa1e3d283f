import json
import random

import pytest
from hypothesis import given, strategies as st

from pfsnet import cli, gadgets, tiling
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


def test_validate_duplicate_ids():
    # each repeated node or edge id is named once, the ids sorted; a
    # repeated node is no cycle
    net = Network(("b", "a", "c", "b", "a"),
                  (Edge("x", "a", "b", DEFAULT), Edge("y", "a", "c", DEFAULT), Edge("x", "b", "c", DEFAULT)),
                  (), {}, {})
    assert validate(net).violations == (("node-id-duplicate", "a,b"), ("edge-id-duplicate", "x"))


def test_validate_duplicate_edge_ids_at_scale():
    # 100K edges, two ids repeated: the ids are counted in one pass
    edges = [Edge(f"e{i}", "a", "b", DEFAULT) for i in range(99_998)]
    edges += [Edge("e500", "b", "a", DEFAULT), Edge("e42", "a", "b", DEFAULT)]
    net = Network(("a", "b"), tuple(edges), (), {}, {})
    assert ("edge-id-duplicate", "e42,e500") in validate(net).violations


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


def reference_serialize(net: Network) -> str:
    """The canonical text as ``json.dumps`` writes it from the document's
    dict form; ``serialize`` writes the same bytes directly."""
    doc = {
        "version": 1,
        "nodes": [{"id": v, "broadcast": v in net.broadcast} for v in sorted(net.nodes)],
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "size": e.size.value}
            for e in sorted(net.edges, key=lambda e: e.id)
        ],
        "messages": [m.value for m in net.messages],
        "sources": {v: sorted(net.sources[v]) for v in sorted(net.sources)},
        "demands": {v: sorted(net.demands[v]) for v in sorted(net.demands)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _seeded_program(n_colors: int, seed: int) -> tiling.ConditionProgram:
    rng = random.Random(seed)
    subsets = tiling.color_subsets(n_colors)
    conds = [tiling.EdgeEq(rng.choice("hv"), rng.choice(subsets)),
             tiling.EdgeOr(rng.choice("hv"), rng.choice(subsets)),
             tiling.FaceOr(rng.choice(("11", "22")), rng.choice(subsets))]
    rng.shuffle(conds)
    return tiling.ConditionProgram(n_colors, tuple(conds[:rng.randint(0, 3)]))


def _gadget_build_net(argv: list) -> Network:
    """The network ``pfsnet gadget-build`` writes for ``argv``."""
    args = cli._build_parser().parse_args(["gadget-build", *argv])
    g = cli._make_gadget(args)
    unsized = [p.name for p in g.ports if p.size is None]
    return gadgets._embedding(g, {}, None, dict.fromkeys(unsized, args.b)).net


# ids that need escaping, in an order that differs from tail, head and
# insertion order, so that any edge order but by id shows
_ESCAPED = Network(
    nodes=("z\u00e9", 'q"uote', "back\\slash", "\u2603", "tab\t"),
    edges=(Edge("\u00ff>1", "z\u00e9", 'q"uote', fixed(3)), Edge('"0', 'q"uote', "back\\slash", DEFAULT),
           Edge("\\e", "z\u00e9", "\u2603", fixed(2)), Edge("a\n", "\u2603", "tab\t", DEFAULT)),
    messages=(fixed(2), DEFAULT),
    sources={"z\u00e9": {2, 1}},
    demands={"back\\slash": {1}, "tab\t": {2, 1}},
    broadcast={'q"uote'},
)


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda n=n, seed=seed: tiling.reduce(_seeded_program(n, seed)), id=f"reduce-{n}colors-seed{seed}")
      for n in range(2, 7) for seed in (1, 2)),
    *(pytest.param(lambda argv=[name, "--b", "2", *(["--n", "2"] if name == "set" else []), *w]: _gadget_build_net(argv),
                   id="gadget-build-" + "-".join([name, *w]).replace("--", ""))
      for name in sorted(cli._GADGETS) for w in ([], ["--w", "2"])),
    pytest.param(lambda: _ESCAPED, id="escaped-ids"),
    pytest.param(lambda: Network(("a", "b"), (Edge("e", "a", "b", DEFAULT),), (), {}, {}), id="no-sources-or-demands"),
    pytest.param(lambda: Network((), (), (), {}, {}), id="empty"),
])
def test_serialize_matches_json_dumps_reference(build):
    net = build()
    text = serialize(net)
    assert text == reference_serialize(net)
    assert text.isascii()
    assert serialize(deserialize(text)) == text


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
    # broadcast is a JSON boolean and version the integer 1, not a value
    # that merely compares equal or is truthy
    for bad in ("false", 1, None):
        nodes = [{"id": "a", "broadcast": bad}]
        with pytest.raises(FormatError, match=r"nodes\[0\]\.broadcast: expected a boolean"):
            deserialize(json.dumps(dict(doc, nodes=nodes, edges=[])))
    for bad in (True, 1.0, "1"):
        with pytest.raises(FormatError, match="version: unsupported"):
            deserialize(json.dumps(dict(doc, version=bad, edges=[])))


def test_deserialize_errors_name_the_faulty_item():
    doc = {"version": 1,
           "nodes": [{"id": f"n{i}", "broadcast": False} for i in range(5)],
           "edges": [{"id": f"e{i}", "tail": f"n{i % 4}", "head": f"n{i % 4 + 1}", "size": 2} for i in range(9)],
           "messages": [2], "sources": {"n0": [1]}, "demands": {"n4": [1]}}
    assert len(deserialize(json.dumps(doc)).edges) == 9

    def fault(key: str, index: int, item: object) -> str:
        items = list(doc[key])
        items[index] = item
        return json.dumps(dict(doc, **{key: items}))

    for text, where in (
        (fault("nodes", 3, {"id": "n3"}), r"nodes\[3\]: missing field 'broadcast'"),
        (fault("nodes", 3, {"id": 3, "broadcast": False}), r"nodes\[3\]\.id: expected string"),
        (fault("nodes", 3, ["n3"]), r"nodes\[3\]: expected an object"),
        (fault("edges", 7, dict(doc["edges"][7], size="2")), r"edges\[7\]: size must be int or null"),
        (fault("edges", 7, dict(doc["edges"][7], size=0)), r"edges\[7\]: size must be >=1"),
        (fault("edges", 7, {"id": "e7", "head": "n4", "size": 2}), r"edges\[7\]: missing field 'tail'"),
        (fault("edges", 7, dict(doc["edges"][7], head=4)), r"edges\[7\]\.head: expected string"),
        (fault("edges", 7, 7), r"edges\[7\]: expected an object"),
        (json.dumps(dict(doc, sources={"n0": [1], "n2": [1, "1"]})), r"sources\[n2\]: expected a list of ints"),
        (json.dumps(dict(doc, demands={"n4": [1], "n3": 1})), r"demands\[n3\]: expected a list of ints"),
    ):
        with pytest.raises(FormatError, match=where):
            deserialize(text)


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
    assert text == reference_serialize(net)
    assert serialize(deserialize(text)) == text
