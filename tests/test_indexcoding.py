import itertools
import pathlib
import random
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from pfsnet import indexcoding as I
from pfsnet.cli import main
from pfsnet.model import DEFAULT, fixed, resolve_size
from pfsnet.solver import BudgetExhausted

DATA = pathlib.Path(__file__).parent / "data"


def bitsets(adj_sets):
    """Int bitset adjacency from neighbour index sets."""
    return tuple(sum(1 << j for j in s) for s in adj_sets)


def neighbours(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def cyclic_instance():
    # three default-size messages; client i holds M_i and wants M_(i+1)
    clients = tuple(I.Client(frozenset({i}), frozenset({i % 3 + 1})) for i in (1, 2, 3))
    return I.IndexInstance((DEFAULT,) * 3, 1, 3, clients)


def test_confusion_graph_shapes():
    inst = I.IndexInstance((DEFAULT,), 1, 1, (I.Client(frozenset(), frozenset({1})),))
    g = I.confusion_graph(inst, 2)
    assert g.n == 2 and g.edge_count() == 1
    # side information partitions the tuples
    inst2 = I.IndexInstance((fixed(2), fixed(2)), 1, 1,
                            (I.Client(frozenset({1}), frozenset({2})),))
    g2 = I.confusion_graph(inst2, 1)
    for i, v in enumerate(g2.vertices):
        for j in neighbours(g2.adjacency[i]):
            assert g2.vertices[j][0] == v[0] and g2.vertices[j][1] != v[1]
    none = I.IndexInstance((fixed(2),), 1, 0, ())
    assert I.confusion_graph(none, 1).edge_count() == 0


def test_chromatic_leq():
    k4 = I.ConfusionGraph(tuple(range(4)), bitsets(set(range(4)) - {i} for i in range(4)))
    assert I.chromatic_leq(k4, 3) is None
    col = I.chromatic_leq(k4, 4)
    assert col is not None and len(set(col.values())) == 4
    empty = I.ConfusionGraph((), ())
    assert I.chromatic_leq(empty, 0) == {}


def test_chromatic_leq_large_graph_no_recursion_error():
    # 1,331 vertices: one search level per uncolored vertex
    ok, f = I.solvable_at_k(cyclic_instance(), 11)
    assert ok and len(f) == 11 ** 3


def pairwise_confusion_graph(inst, k):
    # the definition, pair by pair: an edge wherever some client's side
    # information agrees on two tuples and its demand does not
    sizes = [resolve_size(m, k) for m in inst.messages]
    vertices = tuple(itertools.product(*(range(s) for s in sizes)))
    adj = [set() for _ in vertices]
    for (ia, va), (ib, vb) in itertools.combinations(enumerate(vertices), 2):
        for c in inst.clients:
            if (all(va[i - 1] == vb[i - 1] for i in c.has)
                    and any(va[i - 1] != vb[i - 1] for i in c.wants)):
                adj[ia].add(ib)
                adj[ib].add(ia)
    return I.ConfusionGraph(vertices, bitsets(adj))


def random_index_instance(rng, max_messages=3):
    # sizes fixed or default; clients may hold or demand several messages,
    # demand nothing beyond what they hold, or repeat an earlier client
    l = rng.randint(1, max_messages)
    msgs = tuple(rng.choice([fixed(1), fixed(2), fixed(3), DEFAULT]) for _ in range(l))
    clients = []
    for _ in range(rng.randint(0, 4)):
        if clients and rng.random() < 0.2:
            clients.append(rng.choice(clients))
            continue
        has = frozenset(i for i in range(1, l + 1) if rng.random() < 0.4)
        wants = frozenset(i for i in range(1, l + 1) if rng.random() < 0.5)
        clients.append(I.Client(has, wants))
    return I.IndexInstance(msgs, 1, rng.randint(0, 1), tuple(clients))


def test_confusion_graph_matches_pairwise_reference():
    rng = random.Random(2008)
    seen = set()
    for _ in range(200):
        inst = random_index_instance(rng)
        for c in inst.clients:
            seen.add("wants" if c.wants else "empty wants")
            if len(c.has) > 1:
                seen.add("multi has")
            if len(c.wants) > 1:
                seen.add("multi wants")
        if len(set(inst.clients)) < len(inst.clients):
            seen.add("repeated")
        seen.add("default" if DEFAULT in inst.messages else "fixed")
        for k in (1, 2, 3):
            assert I.confusion_graph(inst, k) == pairwise_confusion_graph(inst, k), (inst, k)
    assert seen == {"empty wants", "wants", "multi has", "multi wants", "repeated",
                    "default", "fixed"}


@given(st.integers(0, 10**6), st.integers(1, 3))
def test_confusion_graph_is_pairwise_definition(seed, k):
    inst = random_index_instance(random.Random(seed))
    assert I.confusion_graph(inst, k) == pairwise_confusion_graph(inst, k)


def decodes(inst, f):
    # every client recovers its demand from the broadcast symbol and its
    # side information
    for c in inst.clients:
        seen = {}
        for v, x in f.items():
            key = (x, tuple(v[i - 1] for i in sorted(c.has)))
            val = tuple(v[i - 1] for i in sorted(c.wants))
            if seen.setdefault(key, val) != val:
                return False
    return True


def test_cap_boundary_cyclic_instance():
    # 16^3 = 4,096 tuples, exactly the default cap
    inst = cyclic_instance()
    ok, f = I.solvable_at_k(inst, 16)
    assert ok and len(f) == 16 ** 3
    assert all(0 <= x < inst.output_bound(16) for x in f.values())
    assert decodes(inst, f)
    with pytest.raises(I.CapExceeded):
        I.solvable_at_k(inst, 16, cap=4095)


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
        g = I.ConfusionGraph(tuple(range(n)), bitsets(adj))
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
    # an output bound far above the tuple count takes no memory in
    # proportion to it
    roomy = I.IndexInstance((DEFAULT,), 1, 40, (I.Client(frozenset(), frozenset({1})),))
    assert I.solvable_at_k(roomy, 2)[0]


def test_client_normalization():
    c = I.Client(frozenset({1}), frozenset({1, 2}))
    assert c.wants == frozenset({2})
    inst = I.IndexInstance((fixed(2), fixed(2)), 1, 0,
                           (I.Client(frozenset({1, 2}), frozenset({1})),))
    ok, _ = I.solvable_at_k(inst, 1)
    assert ok  # demand fully covered by side information


def micro_instances():
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
        yield I.IndexInstance(msgs, a, b, clients)


def test_micro_oracle():
    for inst in micro_instances():
        for k in (1, 2):
            got, f = I.solvable_at_k(inst, k)
            assert got == I.brute_force_solvable(inst, k), (inst, k)


def reference_chromatic_leq(vertices, adjacency, m, budget=None) -> Optional[dict]:
    return reference_search(vertices, adjacency, m, budget)[0]


def reference_search(vertices, adjacency, m, budget=None) -> tuple:
    # the frozenset implementation that the bitset one replaced: adjacency
    # holds one frozenset of neighbour indices per vertex, and the colors
    # taken around a vertex are collected into a set at each step; one
    # color assigned to one vertex is a trial, a trial past the budget
    # raises, and the result is (coloring or None, trials)
    n = len(vertices)
    if n == 0:
        return {}, 0
    order = sorted(range(n), key=lambda i: (-len(adjacency[i]), i))
    clique = []
    for i in order:
        if all(j in adjacency[i] for j in clique):
            clique.append(i)
    if len(clique) > m:
        return None, 0
    color = [-1] * n
    for c, i in enumerate(clique):
        color[i] = c
    rest = [i for i in order if i not in set(clique)]
    used = [len(clique)] + [0] * len(rest)
    trials = 0
    idx = 0
    while 0 <= idx < len(rest):
        i = rest[idx]
        taken = {color[j] for j in adjacency[i] if color[j] >= 0}
        top = min(used[idx] + 1, m)
        c = color[i] + 1
        while c < top and c in taken:
            c += 1
        if c < top:
            if budget is not None and trials >= budget:
                raise BudgetExhausted()
            trials += 1
            color[i] = c
            used[idx + 1] = max(used[idx], c + 1)
            idx += 1
        else:
            color[i] = -1
            idx -= 1
    if idx < 0:
        return None, trials
    return {v: color[i] for i, v in enumerate(vertices)}, trials


def assert_same_coloring(graph, m):
    sets = tuple(frozenset(neighbours(a)) for a in graph.adjacency)
    assert I.chromatic_leq(graph, m) == reference_chromatic_leq(graph.vertices, sets, m), m


def test_chromatic_leq_matches_frozenset_reference():
    # dense random graphs at every m backtrack often: a color class that
    # kept a vertex's bit after the vertex moved on would block its
    # neighbours and change the coloring
    rng = random.Random(2006)
    for _ in range(150):
        n = rng.randint(1, 14)
        p = rng.random()
        adj = [set() for _ in range(n)]
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[a].add(b)
                adj[b].add(a)
        g = I.ConfusionGraph(tuple(range(n)), bitsets(adj))
        for m in range(n + 1):
            assert_same_coloring(g, m)
    for inst in micro_instances():
        for k in (1, 2):
            g = I.confusion_graph(inst, k)
            for m in range(inst.output_bound(k) + 2):
                assert_same_coloring(g, m)
    for k in (11, 12):
        assert_same_coloring(I.confusion_graph(cyclic_instance(), k), k ** 3)


def test_index_budget():
    five = I.instance_from_json((DATA / "five_cycle.json").read_text())
    assert len(five.clients) == 5 and five.output_bound(3) == 9
    with pytest.raises(BudgetExhausted):
        I.solvable_at_k(five, 3, budget=500)
    # an ample budget changes no answer
    cyclic = cyclic_instance()
    assert I.solvable_at_k(cyclic, 4, budget=10**6) == I.solvable_at_k(cyclic, 4)
    assert main(["index", str(DATA / "five_cycle.json"), "--k", "3", "--budget", "10000"]) == 2


def outcome(search, *args):
    """What a search returns, or the BudgetExhausted class if it raises it."""
    try:
        return search(*args)
    except BudgetExhausted:
        return BudgetExhausted


def budget_graphs(rng):
    """Small graphs: random ones (almost never regular), circulants and
    confusion graphs (always regular).  On the larger, sparser random ones
    the clique bound is loose, so backtracking reaches colors that the first
    descent introduced after the clique's."""
    for draw in range(80):
        if draw < 40:
            n, p = rng.randint(4, 13), rng.uniform(0.2, 0.8)
        else:
            n, p = rng.randint(16, 24), rng.uniform(0.15, 0.5)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        yield I.ConfusionGraph(tuple(range(n)), bitsets(
            {b for a, b in edges if a == i} | {a for a, b in edges if b == i} for i in range(n)))
    for _ in range(30):
        # vertex i is adjacent to i + s and i - s modulo n for each s in steps
        n = rng.randint(4, 14)
        steps = [s for s in range(1, n // 2 + 1) if rng.random() < 0.5]
        yield I.ConfusionGraph(tuple(range(n)), bitsets(
            {(i + s) % n for s in steps} | {(i - s) % n for s in steps} for i in range(n)))
    for _ in range(30):
        yield I.confusion_graph(random_index_instance(rng), rng.randint(1, 2))
    yield I.confusion_graph(cyclic_instance(), 2)


def test_budget_and_resume_match_reference():
    # for every budget up to one past the reference's trials, chromatic_leq
    # raises exactly when the reference does and otherwise returns its
    # coloring; at small m the first descent leaves a vertex without a
    # color, so the search resumes there and backtracks
    resumed = {True: 0, False: 0}
    for g in budget_graphs(random.Random(1994)):
        sets = tuple(frozenset(neighbours(a)) for a in g.adjacency)
        regular = len({len(s) for s in sets}) == 1
        # with n colors the first descent colors every vertex outside the
        # pre-colored clique, one trial each
        descent = reference_search(g.vertices, sets, g.n)[1]
        for m in range(g.n + 1):
            coloring, trials = reference_search(g.vertices, sets, m)
            if trials:
                assert outcome(reference_chromatic_leq, g.vertices, sets, m, trials - 1) is BudgetExhausted
            assert reference_chromatic_leq(g.vertices, sets, m, trials) == coloring
            for budget in range(trials + 2):
                expected = BudgetExhausted if budget < trials else coloring
                assert outcome(I.chromatic_leq, g, m, budget) == expected, (g, m, budget)
            if trials > descent or coloring is None and m >= g.n - descent:
                resumed[regular] += 1
    assert min(resumed.values()) >= 10, resumed


def shift_permutation(inst, k, shift):
    """Tuple index -> index of the tuple shifted by ``shift``, modulo each
    message's size."""
    sizes = [resolve_size(m, k) for m in inst.messages]
    tuples = list(itertools.product(*(range(s) for s in sizes)))
    index = {v: i for i, v in enumerate(tuples)}
    return [index[tuple((x + d) % s for x, d, s in zip(v, shift, sizes))] for v in tuples]


def maps_onto_itself(graph, perm):
    return all(sum(1 << perm[j] for j in neighbours(a)) == graph.adjacency[perm[i]]
               for i, a in enumerate(graph.adjacency))


def is_regular(graph):
    return len({a.bit_count() for a in graph.adjacency}) <= 1


@given(st.integers(0, 10**6), st.integers(1, 3))
def test_confusion_graph_shift_invariant_and_regular(seed, k):
    # whether two tuples confuse a client depends only on their difference,
    # so a shift of every tuple is an automorphism and all degrees are equal
    rng = random.Random(seed)
    inst = random_index_instance(rng)
    shift = [rng.randrange(resolve_size(m, k)) for m in inst.messages]
    g = I.confusion_graph(inst, k)
    assert maps_onto_itself(g, shift_permutation(inst, k, shift))
    assert is_regular(g)


def test_shift_checks_catch_a_removed_edge():
    inst = cyclic_instance()
    g = I.confusion_graph(inst, 2)
    a = g.adjacency
    i, j = 0, neighbours(a[0])[0]
    broken = I.ConfusionGraph(g.vertices, tuple(
        x & ~(1 << j) if v == i else x & ~(1 << i) if v == j else x for v, x in enumerate(a)))
    assert broken.edge_count() == g.edge_count() - 1
    assert not is_regular(broken)
    assert not maps_onto_itself(broken, shift_permutation(inst, 2, (1, 0, 0)))


def test_confusion_graph_memory_at_cap():
    # 4,096 tuples of degree 720: one 4,096-bit int per tuple
    tracemalloc.start()
    try:
        g = I.confusion_graph(cyclic_instance(), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 4096 and g.edge_count() == 1_474_560
    assert peak < 32 * 2**20, peak


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
    text = '{"messages": [2, null], "a": 2, "b": 1, "clients": [{"has": [1], "wants": [2]}]}'
    assert I.instance_from_json(text) == inst
    with pytest.raises(Exception):
        I.instance_from_json('{"messages": [0], "a": 1, "b": 0, "clients": []}')
    with pytest.raises(Exception):
        I.instance_from_json('{"a": 1}')
