import itertools

import pytest
from hypothesis import given, strategies as st

from pfsnet.entropy import (
    Determined,
    UniformSupport,
    check,
    determined,
    determined_columns,
    support_of_scheme,
)
from pfsnet.solver import solve_at_k, verify_scheme
from pfsnet.model import CodingScheme, Edge, Network, fixed


def xor_triple():
    pts = {(a, b, a ^ b) for a in (0, 1) for b in (0, 1)}
    return UniformSupport((("M1", 2), ("M2", 2), ("Y", 2)), pts)


def free_pair():
    pts = {(a, b) for a in (0, 1) for b in (0, 1)}
    return UniformSupport((("M1", 2), ("M2", 2)), pts)


def test_determined():
    assert check(xor_triple(), Determined(("M1",), ("Y", "M2")))
    assert check(xor_triple(), Determined(("M2",), ("Y", "M1")))
    assert not check(free_pair(), Determined(("M2",), ("M1",)))
    assert not check(xor_triple(), Determined(("M1",), ("Y",)))


def test_sliced_determined():
    # a condition on every slice of W is Determined with W added to given.
    # Y = M1 xor (W and M2): the parity condition holds on slice w=1 only
    pts = {(m1, m2, w, m1 ^ (w & m2)) for m1 in (0, 1) for m2 in (0, 1) for w in (0, 1)}
    dist = UniformSupport((("M1", 2), ("M2", 2), ("W", 2), ("Y", 2)), pts)
    assert not check(dist, Determined(("M2",), ("Y", "M1")))
    assert not check(dist, Determined(("M2",), ("Y", "M1", "W")))
    good = {(m1, m2, w, m1 ^ m2 ^ w) for m1 in (0, 1) for m2 in (0, 1) for w in (0, 1)}
    dist2 = UniformSupport((("M1", 2), ("M2", 2), ("W", 2), ("Y", 2)), good)
    assert check(dist2, Determined(("M2",), ("Y", "M1", "W")))


def test_unknown_variable():
    with pytest.raises(KeyError):
        check(free_pair(), Determined(("nope",), ()))


def test_cycles_support_determined():
    # X2 = pi_U(X1) with pointwise-distinct permutations: U recoverable
    pi = {0: {0: 0, 1: 1}, 1: {0: 1, 1: 0}}
    pts = {(x1, u, pi[u][x1]) for x1 in (0, 1) for u in (0, 1)}
    dist = UniformSupport((("X1", 2), ("U", 2), ("X2", 2)), pts)
    assert check(dist, Determined(("U",), ("X1", "X2")))
    assert check(dist, Determined(("X1",), ("X2", "U")))


def test_nary_parity_characterization():
    # for n inputs, every coordinate is determined by the others plus Y
    # exactly for parity and its complement
    for n in (2, 3):
        names = tuple(f"X{i}" for i in range(1, n + 1))
        conds = [
            Determined((names[i],), tuple(x for x in names if x != names[i]) + ("Y",))
            for i in range(n)
        ]
        good = []
        for table in itertools.product((0, 1), repeat=2**n):
            lut = dict(zip(itertools.product((0, 1), repeat=n), table))
            pts = {xs + (lut[xs],) for xs in itertools.product((0, 1), repeat=n)}
            dist = UniformSupport(tuple((nm, 2) for nm in names) + (("Y", 2),), pts)
            if all(check(dist, c) for c in conds):
                good.append(lut)
        parity = {xs: sum(xs) % 2 for xs in itertools.product((0, 1), repeat=n)}
        comp = {xs: 1 - v for xs, v in parity.items()}
        assert sorted(map(sorted, (g.items() for g in good))) == sorted(
            map(sorted, (parity.items(), comp.items()))
        )


def test_support_of_scheme(butterfly):
    out = solve_at_k(butterfly.net, 2)
    dist = support_of_scheme(butterfly.net, out.scheme)
    assert len(dist.support) == 4
    names = [n for n, _ in dist.variables]
    assert names[:2] == ["M1", "M2"]

    relay = Network(("s", "t"), (Edge("e1", "s", "t", fixed(2)),), (fixed(2),),
                    {"s": {1}}, {"t": {1}})
    scheme = CodingScheme(1, {"e1": (0, 1)}, {"t": ((0,), (1,))})
    dist = support_of_scheme(relay, scheme)
    assert dist.support == frozenset({(0, 0), (1, 1)})

    pair = Network(("a",), (), (fixed(2), fixed(2)), {"a": {1, 2}}, {})
    dist = support_of_scheme(pair, CodingScheme(1, {}, {}))
    assert len(dist.support) == 4


def test_decode_check_matches_determined(butterfly):
    # a node decodes iff its demanded messages are determined by what it sees
    net = butterfly.net
    good = solve_at_k(net, 2).scheme
    dist = support_of_scheme(net, good)
    for v, want in net.demands.items():
        given = tuple(f"M{i}" for i in sorted(net.source_set(v)))
        given += tuple(e.id for e in net.in_edges(v))
        targets = tuple(f"M{i}" for i in sorted(want))
        assert check(dist, Determined(targets, given)) == (
            ("decode", v) not in verify_scheme(net, good).violations
        )
    # break the bottleneck: decode fails exactly where determination fails
    bad_enc = dict(good.encodings)
    eid = [e.id for e in net.edges if not e.tail in net.broadcast][0]
    bad_enc[eid] = (0,) * len(bad_enc[eid])
    from pfsnet.solver import derive_decodings

    bad = derive_decodings(net, 2, bad_enc)
    dist_bad = support_of_scheme(net, bad)
    rep = verify_scheme(net, bad)
    assert not rep.ok
    for v, want in net.demands.items():
        given = tuple(f"M{i}" for i in sorted(net.source_set(v)))
        given += tuple(e.id for e in net.in_edges(v))
        targets = tuple(f"M{i}" for i in sorted(want))
        assert check(dist_bad, Determined(targets, given)) == (
            ("decode", v) not in rep.violations
        )


@st.composite
def supports(draw):
    width = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(width)]
    universe = list(itertools.product(*(range(s) for s in sizes)))
    pts = draw(st.sets(st.sampled_from(universe), min_size=1, max_size=min(12, len(universe))))
    names = tuple((f"V{i}", s) for i, s in enumerate(sizes))
    return UniformSupport(names, frozenset(pts))


@given(supports(), st.data())
def test_determined_monotone_in_given(dist, data):
    names = [n for n, _ in dist.variables]
    t = data.draw(st.sampled_from(names))
    rest = [n for n in names if n != t]
    small = data.draw(st.sets(st.sampled_from(rest), max_size=len(rest)) if rest else st.just(set()))
    extra = [n for n in rest if n not in small]
    big = set(small) | set(data.draw(st.sets(st.sampled_from(extra), max_size=len(extra)) if extra else st.just(set())))
    if check(dist, Determined((t,), tuple(small))):
        assert check(dist, Determined((t,), tuple(big)))


@given(supports(), st.data())
def test_determined_transitive(dist, data):
    names = [n for n, _ in dist.variables]
    u = data.draw(st.sampled_from(names))
    t = data.draw(st.sampled_from(names))
    s = data.draw(st.sets(st.sampled_from(names), max_size=len(names)))
    if check(dist, Determined((t,), tuple(s))) and check(
        dist, Determined((u,), tuple(set(s) | {t}))
    ):
        assert check(dist, Determined((u,), tuple(s)))


@given(supports(), st.data())
def test_given_slice_equals_per_slice_check(dist, data):
    # H(T | G, S) = 0 iff H(T | G) = 0 on every slice S = s
    names = [n for n, _ in dist.variables]
    subset = st.lists(st.sampled_from(names), max_size=len(names), unique=True)
    t = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    g = data.draw(subset)
    s = data.draw(subset)
    slices: dict = {}
    for pt in dist.support:
        slices.setdefault(tuple(pt[i] for i in dist.columns(s)), set()).add(pt)
    per_slice = all(
        check(UniformSupport(dist.variables, part), Determined(tuple(t), tuple(g)))
        for part in slices.values()
    )
    assert check(dist, Determined(tuple(t), tuple(g) + tuple(s))) == per_slice


@given(supports(), st.data())
def test_determined_invariant_under_relabelling(dist, data):
    # the entropy oracle enumerates each existential's tables up to
    # relabelling: a one-to-one relabelling of one column's values never
    # changes whether a Determined condition holds
    width = len(dist.variables)
    col = data.draw(st.integers(0, width - 1))
    perm = data.draw(st.permutations(range(dist.variables[col][1])))
    cols = st.lists(st.integers(0, width - 1), max_size=width, unique=True)
    t = data.draw(cols)
    g = data.draw(cols)
    rows = sorted(dist.support)
    relabelled = [r[:col] + (perm[r[col]],) + r[col + 1:] for r in rows]
    assert determined(relabelled, t, g) == determined(rows, t, g)


@given(supports(), st.data())
def test_determined_columns_equals_row_definition(dist, data):
    # the entropy oracle decides conditions on columns by counting distinct
    # projections; column lists may be empty and may repeat a column
    width = len(dist.variables)
    cols = st.lists(st.integers(0, width - 1), max_size=width + 1)
    t = data.draw(cols)
    g = data.draw(cols)
    rows = sorted(dist.support)
    columns = [list(c) for c in zip(*rows)]
    assert determined_columns(columns, t, g) == determined(rows, t, g)
