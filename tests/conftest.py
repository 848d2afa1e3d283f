import random

import pytest
from hypothesis import settings

from pfsnet import gadgets
from pfsnet.model import DEFAULT, Edge, Network, fixed

settings.register_profile("ci", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def butterfly():
    """The composed parity gate: bottleneck signal plus two decoders."""
    return gadgets.compose(
        [("g", gadgets.xor_gate(), {"M1": "m1", "M2": "m2"})], {"m1": 2, "m2": 2}
    )


@pytest.fixture(scope="session")
def classic_butterfly():
    """The textbook two-source multicast network, all sizes default."""
    edges = [
        ("s1>m", "s1", "m"),
        ("s1>t1", "s1", "t1"),
        ("s2>m", "s2", "m"),
        ("s2>t2", "s2", "t2"),
        ("m>c", "m", "c"),
        ("c>t1", "c", "t1"),
        ("c>t2", "c", "t2"),
    ]
    return Network(
        nodes=("s1", "s2", "m", "c", "t1", "t2"),
        edges=tuple(Edge(i, t, h, DEFAULT) for i, t, h in edges),
        messages=(DEFAULT, DEFAULT),
        sources={"s1": {1}, "s2": {2}},
        demands={"t1": {2}, "t2": {1}},
    )


@pytest.fixture(scope="session")
def pigeonhole():
    """A size-3 message demanded across a single size-2 edge."""
    return Network(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t", fixed(2)),),
        messages=(fixed(3),),
        sources={"s": {1}},
        demands={"t": {1}},
    )


def random_micro_net(rng: random.Random, max_edges: int = 3) -> Network:
    """Small random instance kept cheap enough for the naive table-enumeration
    oracle: at most 2 messages and ``max_edges`` edges, alphabet sizes <= 3."""
    size_pool = [fixed(2), fixed(3), DEFAULT]
    while True:
        n_nodes = rng.randint(2, 4)
        nodes = tuple(f"n{i}" for i in range(n_nodes))
        n_msgs = rng.randint(1, 2)
        messages = tuple(rng.choice(size_pool) for _ in range(n_msgs))
        n_edges = rng.randint(1, max_edges)
        edges = []
        for i in range(n_edges):
            a, b = sorted(rng.sample(range(n_nodes), 2))
            edges.append(Edge(f"e{i}", f"n{a}", f"n{b}", rng.choice(size_pool)))
        net_edges = tuple(edges)
        sources: dict = {}
        for m in range(1, n_msgs + 1):
            holder = rng.randrange(n_nodes)
            sources.setdefault(f"n{holder}", set()).add(m)
        demands: dict = {}
        fed = {v for v in nodes if any(e.head == v for e in net_edges)}
        candidates = [v for v in nodes if v in fed] or list(nodes)
        for v in rng.sample(candidates, min(len(candidates), rng.randint(1, 2))):
            want = set(rng.sample(range(1, n_msgs + 1), rng.randint(1, n_msgs)))
            if v in fed or want <= sources.get(v, set()):
                demands[v] = want
        net = Network(
            nodes=nodes, edges=net_edges, messages=messages,
            sources=sources, demands=demands,
        )
        if _naive_cost(net, k=2) <= 40_000:
            return net


def _naive_cost(net: Network, k: int) -> int:
    from pfsnet.model import resolve_size

    total = 1
    for e in net.edges:
        dom = 1
        for i in sorted(net.source_set(e.tail)):
            dom *= resolve_size(net.messages[i - 1], k)
        for f in net.in_edges(e.tail):
            dom *= resolve_size(f.size, k)
        total *= resolve_size(e.size, k) ** dom
        if total > 10**9:
            return total
    return total
