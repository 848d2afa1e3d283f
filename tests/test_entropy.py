import ast
import itertools
import pathlib

import pytest
from hypothesis import given, strategies as st

from pfsnet.entropy import check, determined
from pfsnet.solver import derive_decodings, simulate, solve_at_k, verify_scheme
from pfsnet.model import CodingScheme, Edge, Network, fixed


def columns_of(rows):
    """The support ``rows`` stored as columns, as ``check`` reads it."""
    return [list(c) for c in zip(*rows)]


def holds(rows, targets, given):
    """``check`` on ``rows``, asserted equal to the row definition."""
    got = check(columns_of(rows), targets, given)
    assert got == determined(rows, targets, given)
    return got


XOR_TRIPLE = [(a, b, a ^ b) for a in (0, 1) for b in (0, 1)]  # M1, M2, Y
FREE_PAIR = [(a, b) for a in (0, 1) for b in (0, 1)]  # M1, M2


def test_determined():
    assert holds(XOR_TRIPLE, [0], [2, 1])
    assert holds(XOR_TRIPLE, [1], [2, 0])
    assert not holds(FREE_PAIR, [1], [0])
    assert not holds(XOR_TRIPLE, [0], [2])


def test_sliced_determined():
    # a condition on every slice of W is a condition with W added to given.
    # Columns M1, M2, W, Y.  Y = M1 xor (W and M2): the parity condition
    # holds on slice w=1 only
    rows = [(m1, m2, w, m1 ^ (w & m2)) for m1 in (0, 1) for m2 in (0, 1) for w in (0, 1)]
    assert not holds(rows, [1], [3, 0])
    assert not holds(rows, [1], [3, 0, 2])
    good = [(m1, m2, w, m1 ^ m2 ^ w) for m1 in (0, 1) for m2 in (0, 1) for w in (0, 1)]
    assert holds(good, [1], [3, 0, 2])


def test_unknown_variable():
    # a column the support does not have is an error, not an answer
    with pytest.raises(IndexError):
        check(columns_of(FREE_PAIR), [2], [])
    with pytest.raises(IndexError):
        determined(FREE_PAIR, [2], [])


def test_cycles_support_determined():
    # X2 = pi_U(X1) with pointwise-distinct permutations: U recoverable.
    # Columns X1, U, X2
    pi = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}
    rows = [(x1, u, pi[u][x1]) for x1 in (0, 1) for u in (0, 1)]
    assert holds(rows, [1], [0, 2])
    assert holds(rows, [0], [2, 1])


def test_nary_parity_characterization():
    # for n inputs, every coordinate is determined by the others plus Y
    # exactly for parity and its complement.  Columns X1..Xn, Y
    for n in (2, 3):
        conds = [([i], [j for j in range(n) if j != i] + [n]) for i in range(n)]
        good = []
        for table in itertools.product((0, 1), repeat=2**n):
            lut = dict(zip(itertools.product((0, 1), repeat=n), table))
            rows = [xs + (lut[xs],) for xs in itertools.product((0, 1), repeat=n)]
            if all(holds(rows, t, g) for t, g in conds):
                good.append(lut)
        parity = {xs: sum(xs) % 2 for xs in itertools.product((0, 1), repeat=n)}
        comp = {xs: 1 - v for xs, v in parity.items()}
        assert sorted(map(sorted, (g.items() for g in good))) == sorted(
            map(sorted, (parity.items(), comp.items()))
        )


def support_of_scheme(net, scheme):
    """The joint support of (messages, edge signals) under ``scheme``, one
    row per message tuple, and each variable's column: message ``i`` and
    edge ids, in the order ``simulate`` yields them."""
    points = list(simulate(net, scheme))
    return [tuple(p.values()) for p in points], {name: i for i, name in enumerate(points[0])}


def test_support_of_scheme(butterfly):
    out = solve_at_k(butterfly.net, 2)
    rows, col = support_of_scheme(butterfly.net, out.scheme)
    assert len(set(rows)) == len(rows) == 4
    assert list(col)[:2] == [1, 2]

    relay = Network(("s", "t"), (Edge("e1", "s", "t", fixed(2)),), (fixed(2),),
                    {"s": {1}}, {"t": {1}})
    scheme = CodingScheme(1, {"e1": (0, 1)}, {"t": ((0,), (1,))})
    rows, col = support_of_scheme(relay, scheme)
    assert sorted(rows) == [(0, 0), (1, 1)] and col == {1: 0, "e1": 1}

    pair = Network(("a",), (), (fixed(2), fixed(2)), {"a": {1, 2}}, {})
    rows, _ = support_of_scheme(pair, CodingScheme(1, {}, {}))
    assert len(set(rows)) == 4


def test_decode_check_matches_determined(butterfly):
    # a node decodes iff its demanded messages are determined by what it sees
    net = butterfly.net

    def decodes(scheme):
        rows, col = support_of_scheme(net, scheme)
        out = {}
        for v, want in net.demands.items():
            given = [col[i] for i in sorted(net.source_set(v))]
            given += [col[e.id] for e in net.in_edges(v)]
            out[v] = holds(rows, [col[i] for i in sorted(want)], given)
        return out

    good = solve_at_k(net, 2).scheme
    rep = verify_scheme(net, good)
    for v, ok in decodes(good).items():
        assert ok == (("decode", v) not in rep.violations)
    # break the bottleneck: decode fails exactly where determination fails
    bad_enc = dict(good.encodings)
    eid = [e.id for e in net.edges if not e.tail in net.broadcast][0]
    bad_enc[eid] = (0,) * len(bad_enc[eid])
    bad = derive_decodings(net, 2, bad_enc)
    rep = verify_scheme(net, bad)
    assert not rep.ok
    for v, ok in decodes(bad).items():
        assert ok == (("decode", v) not in rep.violations)


@st.composite
def supports(draw):
    """A nonempty support: distinct rows over 2-4 columns of sizes 1-3."""
    width = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(width)]
    universe = list(itertools.product(*(range(s) for s in sizes)))
    pts = draw(st.sets(st.sampled_from(universe), min_size=1, max_size=min(12, len(universe))))
    return sizes, sorted(pts)


@given(supports(), st.data())
def test_determined_monotone_in_given(support, data):
    sizes, rows = support
    width = len(sizes)
    t = data.draw(st.integers(0, width - 1))
    rest = [c for c in range(width) if c != t]
    small = data.draw(st.sets(st.sampled_from(rest), max_size=len(rest)))
    extra = [c for c in rest if c not in small]
    big = small | data.draw(st.sets(st.sampled_from(extra), max_size=len(extra)) if extra else st.just(set()))
    if holds(rows, [t], sorted(small)):
        assert holds(rows, [t], sorted(big))


@given(supports(), st.data())
def test_determined_transitive(support, data):
    sizes, rows = support
    cols = range(len(sizes))
    u = data.draw(st.sampled_from(cols))
    t = data.draw(st.sampled_from(cols))
    s = data.draw(st.sets(st.sampled_from(cols), max_size=len(sizes)))
    if holds(rows, [t], sorted(s)) and holds(rows, [u], sorted(s | {t})):
        assert holds(rows, [u], sorted(s))


@given(supports(), st.data())
def test_given_slice_equals_per_slice_check(support, data):
    # H(T | G, S) = 0 iff H(T | G) = 0 on every slice S = s
    sizes, rows = support
    width = len(sizes)
    subset = st.lists(st.integers(0, width - 1), max_size=width, unique=True)
    t = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
    g = data.draw(subset)
    s = data.draw(subset)
    slices: dict = {}
    for r in rows:
        slices.setdefault(tuple(r[c] for c in s), []).append(r)
    per_slice = all(holds(part, t, g) for part in slices.values())
    assert holds(rows, t, g + s) == per_slice


@given(supports(), st.data())
def test_determined_invariant_under_relabelling(support, data):
    # the entropy oracle enumerates each existential's tables up to
    # relabelling: a one-to-one relabelling of one column's values never
    # changes whether a condition holds
    sizes, rows = support
    width = len(sizes)
    col = data.draw(st.integers(0, width - 1))
    perm = data.draw(st.permutations(range(sizes[col])))
    cols = st.lists(st.integers(0, width - 1), max_size=width, unique=True)
    t = data.draw(cols)
    g = data.draw(cols)
    relabelled = [r[:col] + (perm[r[col]],) + r[col + 1:] for r in rows]
    assert holds(relabelled, t, g) == holds(rows, t, g)


@given(supports(), st.data())
def test_determined_columns_equals_row_definition(support, data):
    # the entropy oracle decides conditions on columns by counting distinct
    # projections; column lists may be empty and may repeat a column
    sizes, rows = support
    width = len(sizes)
    cols = st.lists(st.integers(0, width - 1), max_size=width + 1)
    t = data.draw(cols)
    g = data.draw(cols)
    assert check(columns_of(rows), t, g) == determined(rows, t, g)


def test_oracles_share_no_code():
    # the entropy oracle stays independent of the network search: entropy
    # imports nothing from the package, and the solver nothing from entropy
    src = pathlib.Path(check.__code__.co_filename).parent

    def package_imports(name):
        tree = ast.parse((src / f"{name}.py").read_text())
        return {node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert package_imports("entropy") == set()
    assert not any("entropy" in m for m in package_imports("solver"))
