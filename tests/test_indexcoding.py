import itertools
import random

import pytest
from hypothesis import given, strategies as st

from pfsnet import indexcoding as I
from pfsnet.model import DEFAULT, fixed


def test_confusion_graph_shapes():
    inst = I.IndexInstance((DEFAULT,), 1, 1, (I.Client(frozenset(), frozenset({1})),))
    g = I.confusion_graph(inst, 2)
    assert g.n == 2 and g.edge_count() == 1
    # side information partitions the tuples
    inst2 = I.IndexInstance((fixed(2), fixed(2)), 1, 1,
                            (I.Client(frozenset({1}), frozenset({2})),))
    g2 = I.confusion_graph(inst2, 1)
    for i, v in enumerate(g2.vertices):
        for j in g2.adjacency[i]:
            assert g2.vertices[j][0] == v[0] and g2.vertices[j][1] != v[1]
    none = I.IndexInstance((fixed(2),), 1, 0, ())
    assert I.confusion_graph(none, 1).edge_count() == 0


def test_chromatic_leq():
    k4 = I.ConfusionGraph(tuple(range(4)),
                          tuple(frozenset(set(range(4)) - {i}) for i in range(4)))
    assert I.chromatic_leq(k4, 3) is None
    col = I.chromatic_leq(k4, 4)
    assert col is not None and len(set(col.values())) == 4
    empty = I.ConfusionGraph((), ())
    assert I.chromatic_leq(empty, 0) == {}


def test_chromatic_leq_large_graph_no_recursion_error():
    # 1,331 vertices: one search level per uncolored vertex
    clients = tuple(I.Client(frozenset({i}), frozenset({i % 3 + 1})) for i in (1, 2, 3))
    inst = I.IndexInstance((DEFAULT,) * 3, 1, 3, clients)
    ok, f = I.solvable_at_k(inst, 11)
    assert ok and len(f) == 11 ** 3


def test_chromatic_against_exhaustive():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        edges = {tuple(sorted(p)) for p in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5}
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        g = I.ConfusionGraph(tuple(range(n)), tuple(frozenset(s) for s in adj))
        for m in range(0, n + 1):
            witness = I.chromatic_leq(g, m)
            brute = any(
                all(c[a] != c[b] for a, b in edges)
                for c in itertools.product(range(m), repeat=n)
            )
            assert (witness is not None) == brute
            if witness is not None:
                assert all(witness[a] != witness[b] for a, b in edges)


def test_solvable_examples():
    ident = I.IndexInstance((DEFAULT,), 1, 1, (I.Client(frozenset(), frozenset({1})),))
    for k in (1, 2, 3):
        ok, f = I.solvable_at_k(ident, k)
        assert ok and len(set(f.values())) == k
    squeezed = I.IndexInstance((DEFAULT,), 1, 0, (I.Client(frozenset(), frozenset({1})),))
    assert I.solvable_at_k(squeezed, 2) == (False, None)
    assert I.solvable_at_k(squeezed, 1)[0]


def test_client_normalization():
    c = I.Client(frozenset({1}), frozenset({1, 2}))
    assert c.wants == frozenset({2})
    inst = I.IndexInstance((fixed(2), fixed(2)), 1, 0,
                           (I.Client(frozenset({1, 2}), frozenset({1})),))
    ok, _ = I.solvable_at_k(inst, 1)
    assert ok  # demand fully covered by side information


def test_micro_oracle():
    rng = random.Random(99)
    sizes_pool = [fixed(2), DEFAULT]
    client_types = []
    for has in [frozenset(), frozenset({1}), frozenset({2}), frozenset({3})]:
        for wants in [frozenset({1}), frozenset({2}), frozenset({1, 2})]:
            if not wants <= has:
                client_types.append(I.Client(has, wants))
    for _ in range(60):
        l = rng.randint(1, 3)
        msgs = tuple(rng.choice(sizes_pool) for _ in range(l))
        usable = [c for c in client_types if all(i <= l for i in c.has | c.wants)]
        clients = tuple(rng.sample(usable, rng.randint(1, min(3, len(usable)))))
        a, b = rng.choice([(1, 0), (1, 1), (2, 0), (2, 1)])
        inst = I.IndexInstance(msgs, a, b, clients)
        for k in (1, 2):
            got, f = I.solvable_at_k(inst, k)
            assert got == I.brute_force_solvable(inst, k), (inst, k)


@given(st.integers(0, 10**6))
def test_monotone_in_output_bound(seed):
    rng = random.Random(seed)
    l = rng.randint(1, 2)
    msgs = tuple(rng.choice([fixed(2), DEFAULT]) for _ in range(l))
    clients = []
    for _ in range(rng.randint(1, 2)):
        has = frozenset(i for i in range(1, l + 1) if rng.random() < 0.3)
        wants = frozenset(i for i in range(1, l + 1) if i not in has and rng.random() < 0.7)
        if wants:
            clients.append(I.Client(has, wants))
    a, b = rng.choice([(1, 0), (1, 1)]), rng.choice([0, 1])
    inst = I.IndexInstance(msgs, 1, 0, tuple(clients))
    bigger = I.IndexInstance(msgs, 2, 1, tuple(clients))
    k = rng.choice([1, 2])
    if I.solvable_at_k(inst, k)[0]:
        assert I.solvable_at_k(bigger, k)[0]


def test_cap():
    inst = I.IndexInstance((DEFAULT,) * 5, 1, 1,
                           (I.Client(frozenset(), frozenset({1})),))
    with pytest.raises(I.CapExceeded):
        I.confusion_graph(inst, 6, cap=100)


def test_instance_json_round_trip():
    inst = I.IndexInstance((fixed(2), DEFAULT), 2, 1,
                           (I.Client(frozenset({1}), frozenset({2})),))
    text = I.instance_to_json(inst)
    assert I.instance_from_json(text) == inst
    with pytest.raises(Exception):
        I.instance_from_json('{"messages": [0], "a": 1, "b": 0, "clients": []}')
    with pytest.raises(Exception):
        I.instance_from_json('{"a": 1}')
