import itertools
import json
import math
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from pfsnet import families as F
from pfsnet import gadgets as G
from pfsnet import tiling as T
from pfsnet.entropy import check, determined
from pfsnet.model import DEFAULT, fixed, validate
from pfsnet.solver import SolveOptions, Status, enumerate_solutions, simulate, solve_at_k, verify_scheme

ALL_CONSTRUCTORS = [
    G.xor_checker,
    G.xor_gate,
    G.tristate_checker,
    G.tristate_gate,
    lambda: G.bstate_checker(2),
    lambda: G.bstate_checker(3),
    G.switch_gate,
    lambda: G.set_checker(2, [(0, 1), (1, 0)]),
    G.cycles_gate,
    G.virtual_equality_checker,
    lambda: G.cond_virtual_equality_checker(2, 2),
    lambda: G.virtual_or_checker(2),
    lambda: G.cond_virtual_or_checker(2, 2),
    lambda: G.cond_switch_gate(2),
    lambda: G.cond_xor_checker(2),
    lambda: G.cond_set_checker(2, [(0, 1), (1, 0)], 2),
]


@pytest.mark.parametrize("ctor", ALL_CONSTRUCTORS)
def test_fragments_validate(ctor):
    g = ctor()
    sizes = {p.name: 2 for p in g.ports if p.size is None}
    assert validate(G._embedding(g, {}, None, sizes).net).ok
    # every variable the derived spec names is a port or an existential
    spec = g.spec
    cond_ports = {p.name for p in g.ports if p.kind is G.PortKind.CONDITION_IN}
    known = {p.name for p in g.ports}
    known |= {v.name for v in spec.existentials}
    named = set()
    for c in spec.conditions:
        named |= set(c.targets) | set(c.given)
    for v in spec.existentials:
        named |= set(v.inputs)
    assert named <= known, named - known
    # each node receives the condition ports, and the spec says so
    for c in spec.conditions:
        assert cond_ports <= set(c.given), c
    for v in spec.existentials:
        assert cond_ports <= set(v.inputs), v
    # the JSON export defines every variable it names, too
    doc = json.loads(json.dumps(G.gadget_to_json(g)))
    assert set(doc["conditioned_on"]) == cond_ports
    known = {p["name"] for p in doc["ports"]}
    known |= {v["name"] for v in doc["existentials"]}
    named = set()
    for c in doc["conditions"]:
        named |= set(c["targets"]) | set(c["given"])
    for v in doc["existentials"]:
        named |= set(v["inputs"])
    assert named <= known, named - known


@pytest.mark.parametrize("gadget, family, k, accepted", [
    (G.xor_gate(), F.xor_family(), 2, 2),
    (G.tristate_gate(), F.tristate_family(), 1, 12),
    (G.bstate_checker(2), F.bstate_family(2), 1, 12),
    (G.set_checker(2, [(0, 1), (1, 0)]), F.set_family(2), 1, 2),
], ids=["xor_gate", "tristate_gate", "bstate2", "set2"])
def test_double_oracle_agreement(gadget, family, k, accepted):
    net = G.accepted_set(gadget, family, k)
    ent = G.entropy_accepted_set(gadget, family, k)
    assert entry_keys(net) == entry_keys(ent)
    assert len(net) == accepted


def cond_switch_entry(z0, z1):
    # Z0 and Z1 tables over (M0, M1, W), all binary
    sizes = (fixed(2),) * 3
    return {"Z0": G.CandidateFunction("Z0", ("M0", "M1", "W"), z0, 2, input_sizes=sizes),
            "Z1": G.CandidateFunction("Z1", ("M0", "M1", "W"), z1, 2, input_sizes=sizes)}


def test_cond_switch_double_oracle():
    # a conditional switch is a switch on each slice W = w, so exactly the
    # pairs that are a switch with output flips on both slices are accepted
    keys = list(itertools.product((0, 1), repeat=3))
    switches = [F.switch_pair(*s) for s in itertools.product((0, 1), repeat=3)]
    expect = [cond_switch_entry(*({key: slices[key[2]][z].table[key[:2]] for key in keys}
                                  for z in ("Z0", "Z1")))
              for slices in itertools.product(switches, repeat=2)]
    rng = random.Random(12)
    family = expect + [cond_switch_entry(*({key: rng.randrange(2) for key in keys} for _ in "01"))
                       for _ in range(32)]
    rng.shuffle(family)
    gadget = G.cond_switch_gate(2)
    net = G.accepted_set(gadget, family, 1)
    assert entry_keys(net) == entry_keys(G.entropy_accepted_set(gadget, family, 1))
    assert sorted(entry_keys(net)) == sorted(entry_keys(expect))


def table_of(entry, port):
    return tuple(sorted(entry[port].table.items()))


def entry_keys(entries):
    return [tuple(sorted((p, table_of(e, p)) for p in e)) for e in entries]


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("size", range(1, 5))
def test_restricted_growth_is_one_table_per_relabelling_class(n, size):
    # the entropy oracle's entry search, on an existential with n entries
    # and a condition that never prunes (E is determined by E), visits
    # exactly one table per class of tables equal up to relabelling
    never_prunes = ([], [0], [], [0])
    found = [tuple(t[(0, (x,))] for x in range(n))
             for t in G._entry_tables(n, [list(range(n))], [([0], size)], [never_prunes])]
    classes = {canonical(t) for t in found}
    assert len(classes) == len(found)
    assert classes == {canonical(t) for t in itertools.product(range(size), repeat=n)}


@st.composite
def existential_specs(draw, budget=512):
    """1-3 base variables of size 2-3, 1-2 existentials of size 1-3 over
    random subsets of them, 1-4 random Determined conditions, and a
    condition alphabet w: None, or 1-3 for the ``conditionalize``d spec
    (see ``conditioned``).  Each existential's inputs are dropped from the
    end until the existentials so far have at most ``budget`` tables
    together (64 conditioned, counting W among the inputs), or it has none,
    to keep the brute force small."""
    base = {f"A{i}": draw(st.integers(2, 3)) for i in range(draw(st.integers(1, 3)))}
    w = draw(st.sampled_from([None, 1, 2, 3]))
    budget = 64 if w else budget
    exs, tables = [], 1
    for i in range(draw(st.integers(1, 2))):
        inputs = draw(st.lists(st.sampled_from(list(base)), unique=True))
        size = draw(st.integers(1, 3))
        while inputs and tables * size ** (math.prod(base[v] for v in inputs) * (w or 1)) > budget:
            inputs.pop()
        tables *= size ** (math.prod(base[v] for v in inputs) * (w or 1))
        exs.append((f"E{i}", inputs, size))
    names = list(base) + [name for name, _, _ in exs]
    conds = [(draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
              draw(st.lists(st.sampled_from(names), unique=True)))
             for _ in range(draw(st.integers(1, 4)))]
    return base, exs, conds, w


def conditioned(base, exs, conds, w):
    """The spec ``conditionalize`` makes of it, with the condition port W a
    base variable that every existential reads and every condition is
    given."""
    if w is None:
        return base, exs, conds
    return ({**base, "W": w}, [(name, inputs + ["W"], size) for name, inputs, size in exs],
            [(targets, given + ["W"]) for targets, given in conds])


def canonical(t):
    """The table in its relabelling class's form: values renumbered in the
    order they first occur."""
    first: dict = {}
    return tuple(first.setdefault(x, len(first)) for x in t)


def input_domains(base, exs) -> list:
    """Each existential's sorted projections of the base product onto its
    inputs."""
    rows = list(itertools.product(*(range(s) for s in base.values())))
    return [sorted({tuple(r[list(base).index(v)] for v in inputs) for r in rows}) for _, inputs, _ in exs]


def brute_force_tables(base, exs, conds) -> set:
    """Every table of every existential on which every condition holds, with
    no relabelling reduction and no pruning; a found table is given as one
    canonical table per existential over its sorted input projections."""
    rows = list(itertools.product(*(range(s) for s in base.values())))
    pos = {v: i for i, v in enumerate(base)}
    col = {v: i for i, v in enumerate(list(base) + [name for name, _, _ in exs])}
    domains = input_domains(base, exs)
    spaces = [itertools.product(range(size), repeat=len(dom)) for (_, _, size), dom in zip(exs, domains)]
    found = set()
    for tables in itertools.product(*spaces):
        luts = [dict(zip(dom, t)) for dom, t in zip(domains, tables)]
        full = [r + tuple(lut[tuple(r[pos[v]] for v in inputs)] for lut, (_, inputs, _) in zip(luts, exs))
                for r in rows]
        if all(determined(full, [col[v] for v in t], [col[v] for v in g]) for t, g in conds):
            found.add(tuple(map(canonical, tables)))
    return found


@given(existential_specs())
# a row read before its last entry is set; a stored key kept after backtrack
@example(({"A0": 2}, [("E0", [], 1), ("E1", ["A0"], 2)], [(["A0", "E0"], ["E1"])], None))
@example(({"A0": 2}, [("E1", ["A0"], 2)], [(["E1"], ["A0"])], None))
def test_entry_search_agrees_with_brute_force(spec):
    # a conditioned spec is split by W, so the oracle searches each slice on
    # its own; the brute force and the search alone below see all its rows
    base, exs, conds, w = spec
    b = G._Builder("random_spec")
    for name, size in base.items():
        b.message_in(name, size)
    for name, inputs, size in exs:
        b.internal(name, inputs, size)
    for i, (targets, given) in enumerate(conds):
        b.demand(f"d{i}", targets, given)
    gadget = b.build() if w is None else G.conditionalize(b.build(), w)
    base, exs, conds = conditioned(*spec)
    assert bool(G.entropy_accepted_set(gadget, [{}], 1)) == bool(brute_force_tables(base, exs, conds))
    # the search alone, on the conditions that name an existential: the
    # tables it finds are one per relabelling class of the solutions
    layout = G._SupportLayout(gadget, {}, 1, {})
    found = [tuple(canonical(tuple(t[(e, key)] for key in dom)) for e, dom in enumerate(input_domains(base, exs)))
             for t in G._entry_tables(layout.n_rows, layout.base, layout.existentials, layout.pending)]
    pending = [(t, g) for t, g in conds if not set(t + g) <= set(base)]
    assert len(set(found)) == len(found)
    assert set(found) == brute_force_tables(base, exs, pending)


@pytest.mark.parametrize("gadget, accepted", [
    (G.cond_virtual_or_checker(2, 2), 9),
    (G.cond_virtual_equality_checker(2, 2), 4),
], ids=["cond-virtual-or-2x2", "cond-virtual-eq-2x2"])
def test_entry_order_agrees_with_network_oracle(gadget, accepted):
    # the entry search runs on each W1 slice on its own; on the whole
    # conditional virtual families it accepts what the network oracle accepts
    family = F.theta_grid_family(2, 2)
    net = G.accepted_set(gadget, family, 1)
    assert entry_keys(G.entropy_accepted_set(gadget, family, 1)) == entry_keys(net)
    assert len(net) == accepted


def test_split_keeps_an_existential_that_ignores_the_split_whole():
    # both conditions are given A0 but E reads A1 alone, so the rows with
    # A0 = 0 and A0 = 1 share E's entries: on A0 = 0 the first condition needs
    # E injective, and on A0 = 1 the second needs E constant unless Z = A1
    # there.  A split by A0 would search E once per part and accept both
    b = G._Builder("split_trap")
    b.message_in("A0", 2)
    b.message_in("A1", 2)
    y, z = b.signal_in("Y", 2), b.signal_in("Z", 2)
    e = b.internal("E", ["A1"], 2)
    b.demand("d1", ["A1"], ["A0", y, e])
    b.demand("d2", ["E"], ["A0", z])
    keys = list(itertools.product((0, 1), repeat=2))

    def entry(z_at_a0_1):
        return {"Y": G.CandidateFunction("Y", ("A0", "A1"), {(a0, a1): a1 if a0 else 0 for a0, a1 in keys}, 2),
                "Z": G.CandidateFunction("Z", ("A0", "A1"),
                                         {(a0, a1): z_at_a0_1(a1) if a0 else a1 for a0, a1 in keys}, 2)}

    trap, ok = entry(lambda a1: 0), entry(lambda a1: a1)
    assert entry_keys(G.entropy_accepted_set(b.build(), [trap, ok], 1)) == entry_keys([ok])


def test_xor_checker_accepts_parity_only():
    fam = F.xor_family()
    acc = G.accepted_set(G.xor_checker(), fam, 2)
    ent = G.entropy_accepted_set(G.xor_checker(), fam, 2)
    assert entry_keys(acc) == entry_keys(ent)
    tables = [dict(t) for (_, t), in (e.items() for e in map(lambda x: {k: table_of(x, k) for k in x}, acc))]
    parity = {(a, b): a ^ b for a in (0, 1) for b in (0, 1)}
    comp = {k: 1 - v for k, v in parity.items()}
    got = [dict(table_of(e, "Y")) for e in acc]
    assert got == [parity, comp]
    # identity candidate rejected
    ident = [cf for cf in fam if cf.table == {(a, b): a for a in (0, 1) for b in (0, 1)}]
    assert not G.accepted_set(G.xor_checker(), ident, 2)


def test_tristate_golden_set(tmp_path):
    import pathlib

    golden = F.family_from_json(
        pathlib.Path(__file__).parent.joinpath("data", "tristate_accepted.json").read_text()
    )
    acc = G.accepted_set(G.tristate_checker(), F.tristate_family(), 1)
    assert [table_of(e, "Z") for e in acc] == [tuple(sorted(cf.table.items())) for cf in golden]
    # constant candidates rejected
    const = [cf for cf in F.tristate_family() if len(set(cf.table.values())) == 1]
    assert not G.accepted_set(G.tristate_checker(), const, 1)
    # both pinned-branch orientations appear in the golden set
    tabs = [cf.table for cf in golden]
    assert {(0, 0): 2, (1, 0): 2, (0, 1): 0, (1, 1): 1} in tabs
    assert {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 2} in tabs


def test_tristate_gate_matches_checker():
    fam = F.tristate_family()
    gate = G.accepted_set(G.tristate_gate(), fam, 1)
    checker = G.accepted_set(G.tristate_checker(), fam, 1)
    assert entry_keys(gate) == entry_keys(checker)


def test_bstate_2_equals_tristate():
    b2 = G.accepted_set(G.bstate_checker(2), F.bstate_family(2), 1)
    tri = G.accepted_set(G.tristate_checker(), F.tristate_family(), 1)
    assert [table_of(e, "Z") for e in b2] == [table_of(e, "Z") for e in tri]


def test_bstate_rejects_input_blind_tables():
    b = 3
    zy = G.CandidateFunction(
        "Z", ("X", "Y"), {(x, y): y for x in (0, 1) for y in range(b)}, b + 1,
        input_sizes=(fixed(2), fixed(b)),
    )
    assert not G.accepted_set(G.bstate_checker(b), [zy], 1)
    assert not G.entropy_accepted_set(G.bstate_checker(b), [zy], 1)


def test_switch_expected_states():
    acc = G.accepted_set(G.switch_gate(), F.switch_family(), 1)
    expect = [F.switch_pair(t, e0, e1) for t in (0, 1) for e0 in (0, 1) for e1 in (0, 1)]
    assert sorted(entry_keys(acc)) == sorted(entry_keys(expect))
    # the rejected example: Z0 = parity of the two inputs
    bad = {
        "Z0": G.CandidateFunction("Z0", ("M0", "M1"), {(a, b): a ^ b for a in (0, 1) for b in (0, 1)}, 2),
        "Z1": G.CandidateFunction("Z1", ("M0", "M1"), {(a, b): b for a in (0, 1) for b in (0, 1)}, 2),
    }
    assert not G.accepted_set(G.switch_gate(), [bad], 1)


def test_cycles_counts_and_rejections():
    acc2 = G.accepted_set(G.cycles_gate(), F.cycles_family(2), 2)
    assert len(acc2) == 2
    ignores_u = [cf for cf in F.cycles_family(2)
                 if all(cf.table[(x, 0)] == cf.table[(x, 1)] == x for x in (0, 1))]
    assert len(ignores_u) == 1
    assert not G.accepted_set(G.cycles_gate(), ignores_u, 2)


def test_conditionalize_trivial_alphabet_is_identity():
    plain = G.accepted_set(G.xor_checker(), F.xor_family(), 1)
    cond = G.conditionalize(G.xor_checker(), 1)
    fam1 = [
        G.CandidateFunction("Y", ("M1", "M2", "W"),
                            {(a, b, 0): cf.table[(a, b)] for a in (0, 1) for b in (0, 1)},
                            2, input_sizes=(fixed(2), fixed(2), fixed(1)))
        for cf in F.xor_family()
    ]
    got = G.accepted_set(cond, fam1, 1)
    got_tables = [table_of(e, "Y") for e in got]
    want = [tuple(sorted(fam1[i].table.items())) for i, cf in enumerate(F.xor_family())
            if any(cf.table == a["Y"].table for a in plain)]
    assert got_tables == want


def test_conditionalize_port_collision():
    with pytest.raises(G.ComposeError):
        G.conditionalize(G.xor_checker(), 2, port="M1")


def test_conditional_xor_accepts_sliced_parity():
    cx = G.cond_xor_checker(2)
    for eta in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cf = G.CandidateFunction(
            "Y", ("M1", "M2", "W"),
            {(a, b, w): a ^ b ^ eta[w] for a in (0, 1) for b in (0, 1) for w in (0, 1)},
            2,
        )
        assert G.accepted_set(cx, [cf], 1)
    gated = G.CandidateFunction(
        "Y", ("M1", "M2", "W"),
        {(a, b, w): a ^ (w & b) for a in (0, 1) for b in (0, 1) for w in (0, 1)},
        2,
    )
    assert not G.accepted_set(cx, [gated], 1)
    assert not G.entropy_accepted_set(cx, [gated], 1)


def test_set_checker_validation():
    with pytest.raises(ValueError):
        G.set_checker(2, [])
    with pytest.raises(ValueError):
        G.set_checker(2, [(0, 1, 1)])
    # an entry equal to a bit but not an int is refused, not truncated
    for entry in (1.5, 1.0, "0", True):
        with pytest.raises(ValueError, match="n-bit vectors"):
            G.set_checker(2, [(entry, 0)])
    full = G.set_checker(2, list(itertools.product((0, 1), repeat=2)))
    assert not full.demand_ports  # nothing excluded, no demands emitted


def emitted_cubes(g):
    """Each demand's cube {switch index: bit}, read off the signals the demand
    receives, checked against its label."""
    cubes = []
    for c in g.spec.conditions:
        assert c.targets == ("M1",)
        cube = {}
        for name in c.given:
            i, a = name[1:].split("_")
            cube[int(i) - 1] = int(a)
        assert len(cube) == len(c.given)  # one pick per fixed switch
        cubes.append(cube)
    labels = [v.split(".", 1)[1] for v in g.demand_ports]
    n = int(g.name[len("set"):-len("_checker")])
    assert labels == ["ex" + "".join(str(c.get(i, "-")) for i in range(n)) for c in cubes]
    return cubes


def cover_thetas():
    for n in (1, 2, 3):
        points = list(itertools.product((0, 1), repeat=n))
        for r in range(1, len(points) + 1):
            for theta in itertools.combinations(points, r):
                yield n, set(theta)
    rng = random.Random(20240)
    for n in (4, 5, 6):
        points = list(itertools.product((0, 1), repeat=n))
        for _ in range(25):
            yield n, set(rng.sample(points, rng.randint(1, len(points))))


def test_set_checker_cover_is_exact():
    # the demands' cubes forbid exactly the complement of theta, so no cube
    # contains a theta pattern and together they cover every other one
    for n, theta in cover_thetas():
        cubes = emitted_cubes(G.set_checker(n, theta))
        assert len(cubes) == len({tuple(sorted(c.items())) for c in cubes})
        points = set(itertools.product((0, 1), repeat=n))
        forbidden = {p for p in points if any(all(p[i] == a for i, a in c.items()) for c in cubes)}
        assert forbidden == points - theta, (n, theta)


def reference_theta_free_cover(n, theta):
    # the cover as first written, with patterns and cubes as tuples and
    # dicts: split on the coordinates in order, widen by trying to drop each
    # fixed coordinate in turn against all of theta, drop duplicates
    cubes = []
    stack = [({}, sorted(theta))]
    while stack:
        prefix, agree = stack.pop()
        if not agree:
            cubes.append(prefix)
        elif len(prefix) < n:
            i = len(prefix)
            for a in (1, 0):
                stack.append(({**prefix, i: a}, [t for t in agree if t[i] == a]))
    out = []
    for cube in cubes:
        for i in list(cube):
            wider = {j: a for j, a in cube.items() if j != i}
            if not any(all(t[j] == a for j, a in wider.items()) for t in theta):
                cube = wider
        if cube not in out:
            out.append(cube)
    return out


def test_theta_free_cover_matches_reference():
    # the one-pass widening over disagreement masks keeps the cubes of the
    # coordinate-by-coordinate rule: on random theta sets, and on the colour
    # encodings that reduce gives its set checker at 2 to 5 colours
    rng = random.Random(306)
    cases = [(2 ** c - 2, {T.phi(i, c) for i in range(1, c + 1)}) for c in range(2, 6)]
    for n in range(1, 8):
        points = list(itertools.product((0, 1), repeat=n))
        cases += [(n, set(rng.sample(points, rng.randint(1, len(points))))) for _ in range(60)]
    for n, theta in cases:
        got = G._theta_free_cover(n, theta)
        want = reference_theta_free_cover(n, theta)
        assert got == want, (n, theta)


def test_set_checker_oracles_agree_on_every_theta_n3():
    family = F.set_family(3)
    for r in range(1, 9):
        for theta in itertools.combinations(itertools.product((0, 1), repeat=3), r):
            g = G.set_checker(3, theta)
            net = entry_keys(G.accepted_set(g, family, 1))
            assert net == entry_keys(G.entropy_accepted_set(g, family, 1)), theta
            assert net == entry_keys([F.set_entry(t) for t in sorted(theta)]), theta


def test_set_checker_entropy_acceptance():
    theta = [(1, 1)]
    acc = G.entropy_accepted_set(G.set_checker(2, theta), F.set_family(2), 1)
    got = [e for e in acc]
    assert len(got) == 1
    assert table_of(got[0], "Z1_0") == table_of(F.set_entry((1, 1)), "Z1_0")


def test_compose_switch_with_set_checker():
    # composing one switch with a {cross}-only checker leaves only crossed states
    parts = [
        ("sw", G.switch_gate(), {"M0": "m0", "M1": "m1"}),
        ("chk", G.set_checker(1, [(1,)]),
         {"M1": "m1", "Z1_0": G.Out("sw", "Z0"), "Z1_1": G.Out("sw", "Z1")}),
    ]
    comp = G.compose(parts, {"m0": 2, "m1": 2})
    assert validate(comp.net).ok
    sols = enumerate_solutions(comp.net, 1)
    assert sols
    z0_edge = comp.out_edges[("sw", "Z0")]
    for s in sols:
        table = s.encodings[z0_edge]
        assert table in {(0, 1, 0, 1), (1, 0, 1, 0)}  # Z0 tracks M1, either polarity


def test_compose_errors():
    with pytest.raises(G.ComposeError, match="must bind to message"):
        G.compose(
            [
                ("x", G.xor_gate(), {"M1": "m1", "M2": "m2"}),
                ("orr", G.virtual_or_checker(2),
                 {"M1": "m1", "W": G.Out("x", "Y"), "Z0": G.Out("x", "Y")}),
            ],
            {"m1": 2, "m2": 2},
        )
    with pytest.raises(G.ComposeError, match="M2: message port must bind"):
        G.compose([("g", G.xor_gate(), {"M1": "m1"})], {"m1": 2})
    with pytest.raises(G.ComposeError, match="port size"):
        G.compose([("g", G.xor_gate(), {"M1": "m1", "M2": "m2"})], {"m1": 2, "m2": 3})
    with pytest.raises(G.ComposeError, match="duplicate part"):
        G.compose(
            [("g", G.xor_gate(), {"M1": "m1", "M2": "m2"}),
             ("g", G.xor_gate(), {"M1": "m1", "M2": "m2"})],
            {"m1": 2, "m2": 2},
        )


def test_unbound_condition_port_is_constant():
    # unconditional behaviour: a dangling condition port binds to a size-1 source
    cond = G.cond_xor_checker(2)
    comp = G.compose(
        [("g", cond, {"M1": "m1", "M2": "m2",
                      "Y": G.CandidateFunction("Y", ("m1", "m2"),
                                               {(a, b): a ^ b for a in (0, 1) for b in (0, 1)}, 2)})],
        {"m1": 2, "m2": 2},
        k=1,
    )
    assert any(m.value == 1 for m in comp.net.messages)
    out = solve_at_k(comp.net, 1, SolveOptions(pins=dict(comp.pins)))
    assert out.solvable


def test_gate_nonvacuity_and_soundness():
    # every gate's standalone composition is solvable, and enumerated
    # solutions satisfy the declared conditions on the output signals
    cases = [
        ("xor", G.xor_gate(), {"M1": "a", "M2": "b"}, {"a": 2, "b": 2}, 1),
        ("tristate", G.tristate_gate(), {"X": "a", "Y": "b"}, {"a": 2, "b": 2}, 1),
        ("switch", G.switch_gate(), {"M0": "a", "M1": "b"}, {"a": 2, "b": 2}, 1),
        ("cycles", G.cycles_gate(), {"X1": "x", "U": "u"}, {"x": DEFAULT, "u": 2}, 2),
    ]
    for name, gadget, binds, msgs, k in cases:
        comp = G.compose([("g", gadget, binds)], msgs)
        out = solve_at_k(comp.net, k)
        assert out.solvable, name
        checked = 0
        for scheme in enumerate_solutions(comp.net, k, limit=5):
            points = list(simulate(comp.net, scheme))
            col = {var: i for i, var in enumerate(points[0])}
            columns = [list(c) for c in zip(*(p.values() for p in points))]
            where = {p.name: col[comp.out_edges[("g", p.name)]] for p in gadget.ports
                     if p.kind is G.PortKind.SIGNAL_OUT}
            where.update((mp, col[comp.message_index[label]]) for mp, label in binds.items())
            for cond in gadget.spec.conditions:
                if all(v in where for v in cond.targets + cond.given):  # else names an existential
                    assert check(columns, [where[v] for v in cond.targets],
                                 [where[v] for v in cond.given]), (name, cond)
                    checked += 1
        assert checked, name


def test_accepted_set_empty_family():
    assert G.accepted_set(G.xor_checker(), [], 2) == []
    assert G.entropy_accepted_set(G.xor_checker(), [], 2) == []


def reordered(cf):
    """The same function with its inputs listed in reverse order: a candidate
    of another shape."""
    return G.CandidateFunction(cf.output, cf.inputs[::-1], {key[::-1]: v for key, v in cf.table.items()},
                               cf.size, cf.input_sizes[::-1])


def mixed(family):
    """Each candidate, then the same function with its inputs reordered."""
    return [cf for pair in zip(family, map(reordered, family)) for cf in pair]


def shaped_keys(entries):
    """``entry_keys`` with each candidate's input order: a reordered table
    can equal another candidate's table."""
    return [tuple(sorted((p, cf.inputs, table_of(e, p)) for p, cf in e.items())) for e in entries]


SHARED_SETUP_CASES = {
    "xor": (G.xor_checker(), F.xor_family(), 2),
    "xor-mixed": (G.xor_checker(), mixed(F.xor_family()), 2),
    "cond-xor": (G.cond_xor_checker(2), F.cond_xor_family(), 1),
    "tristate": (G.tristate_checker(), F.tristate_family(), 1),
    "bstate2": (G.bstate_checker(2), F.bstate_family(2), 1),
    "switch": (G.switch_gate(), F.switch_family(), 1),
    "cycles3": (G.cycles_gate(), F.cycles_family(3), 3),
    "cycles2-mixed": (G.cycles_gate(), mixed(F.cycles_family(2)), 2),
    "bstate3-sample": (G.bstate_checker(3), random.Random(20261019).sample(F.bstate_family(3), 300), 1),
}


def shared_outcomes(gadget, entries, k):
    """The network oracle's outcome on each entry, through one check per
    candidate shape, each with whether its check searched it."""
    checks: dict = {}
    runs: dict = {}

    def setup(first):
        checks[G._shape(first)] = G._PinnedSearch(gadget, first, k, {})
        return checks[G._shape(first)]

    out = []
    for entry, got in zip(entries, G._verdicts(entries, setup)):
        shape = G._shape(entry)
        out.append((got, checks[shape].runs > runs.get(shape, 0)))
        runs[shape] = checks[shape].runs
    return out


def entropy_verdicts(gadget, entries, k):
    return list(G._verdicts(entries, lambda first: G._SupportLayout(gadget, first, k, {}).holds))


@pytest.mark.parametrize("gadget, family, k", SHARED_SETUP_CASES.values(), ids=SHARED_SETUP_CASES)
def test_shared_setup_matches_fresh_solves(gadget, family, k):
    # one embedding and search setup per candidate shape gives, candidate by
    # candidate, the verdict and the witness of a fresh composition.  A
    # candidate it searches gets the fresh trial count and core too; one it
    # skips is refuted afresh, and repeats the values of a core that an
    # earlier run of its shape stored
    entries = G._normalize_family(gadget, family)
    stored: dict = {}  # shape -> (core, its values) of each refuted run
    statuses = set()
    skipped = 0
    for entry, (got, ran) in zip(entries, shared_outcomes(gadget, entries, k)):
        comp = G._embedding(gadget, entry, k, {})
        fresh = solve_at_k(comp.net, k, SolveOptions(pins=dict(comp.pins)))
        assert (got.status, got.scheme) == (fresh.status, fresh.scheme), entry_keys([entry])
        values = tuple(comp.pins[eid][d] for eid, d in got.core or ())
        if ran:
            assert got == fresh
            if got.core is not None:
                stored.setdefault(G._shape(entry), []).append((got.core, values))
        else:
            skipped += 1
            assert (got.status, got.searched) == (Status.UNSOLVABLE_AT_K, 0)
            assert (got.core, values) in stored[G._shape(entry)]
        if got.solvable:
            assert verify_scheme(comp.net, got.scheme).ok
            assert all(got.scheme.encodings[e] == t for e, t in comp.pins.items())
        statuses.add(got.status)
    assert len(statuses) == 2  # both verdicts occur
    assert skipped > 0


def narrow_checker():
    """A binary signal Z that must carry a ternary message: a cut refutes
    every embedding, whatever Z's table."""
    b = G._Builder("narrow_checker")
    b.message_in("M", 3)
    z = b.signal_in("Z", 2)
    b.demand("dm", ["M"], [z])
    return b.build()


def broken_checker():
    """A binary internal G of (A, B) that must determine B alone and A with
    B, which no function does, beside a demand that reads the signal Z.
    The bound passes, and the search refutes every embedding without
    blaming Z's table."""
    b = G._Builder("broken_checker")
    b.message_in("A", 2)
    b.message_in("B", 2)
    z = b.signal_in("Z", 2)
    g = b.internal("G", ["A", "B"], 2)
    b.demand("db", ["B"], [g])
    b.demand("da", ["A"], [g, "B"])
    b.demand("dz", ["A"], [z, "B"])
    return b.build()


@pytest.mark.parametrize("ctor, family", [
    (narrow_checker, F.all_functions("Z", [("M", 3), ("Q", 2)], 2)),
    (broken_checker, F.all_functions("Z", [("A", 2), ("B", 2)], 2)),
], ids=["cut", "no-pin"])
def test_an_empty_core_skips_every_later_candidate(ctor, family):
    # the first candidate's refutation rests on no pin, so it refutes every
    # later candidate of the shape without a run; the oracles still agree
    gadget = ctor()
    entries = G._normalize_family(gadget, mixed(family))
    outcomes = shared_outcomes(gadget, entries, 1)
    shapes = {}  # shape -> its first outcome
    for entry, (got, ran) in zip(entries, outcomes):
        first = shapes.setdefault(G._shape(entry), got)
        assert ran == (got is first)
        assert (got.status, got.core, got.cut) == (Status.UNSOLVABLE_AT_K, (), first.cut)
        assert got.searched == 0 or got is first
        comp = G._embedding(gadget, entry, 1, {})
        fresh = solve_at_k(comp.net, 1, SolveOptions(pins=dict(comp.pins)))
        assert (fresh.status, fresh.core, fresh.cut) == (got.status, got.core, got.cut)
    assert len(shapes) == 2
    assert all((got.cut is None) == (ctor is broken_checker) for got in shapes.values())
    assert all(got.searched > 0 for got in shapes.values()) == (ctor is broken_checker)
    assert [got.solvable for got, _ in outcomes] == entropy_verdicts(gadget, entries, 1)


@pytest.mark.parametrize("gadget, family, k", [
    (G.switch_gate(), F.switch_family(), 1),
    (G.cycles_gate(), F.cycles_family(3), 3),
    (G.bstate_checker(2), mixed(F.bstate_family(2)), 1),
], ids=["switch", "cycles3", "bstate2-mixed"])
def test_shuffled_family_finds_its_cores_in_another_order(gadget, family, k):
    # the cores a family's runs store depend on the order of its candidates,
    # the verdicts do not, and they agree with the entropy oracle's
    def cores(outcomes):
        return tuple(got.core for got, ran in outcomes if ran and got.core is not None)

    entries = G._normalize_family(gadget, family)
    outcomes = shared_outcomes(gadget, entries, k)
    entropy = entropy_verdicts(gadget, entries, k)
    assert [got.solvable for got, _ in outcomes] == entropy
    orders = {cores(outcomes)}
    for seed in (1, 2):
        perm = random.Random(seed).sample(range(len(entries)), len(entries))
        got = shared_outcomes(gadget, [entries[i] for i in perm], k)
        assert [o.status for o, _ in got] == [outcomes[i][0].status for i in perm]
        assert [o.solvable for o, _ in got] == [entropy[i] for i in perm]
        orders.add(cores(got))
    assert len(orders) == 3


@pytest.mark.parametrize("gadget, family, k", [
    (G.switch_gate(), F.switch_family(), 1),
    (G.cycles_gate(), F.cycles_family(3), 3),
    (G.bstate_checker(2), mixed(F.bstate_family(2)), 1),
], ids=["switch", "cycles3", "bstate2-mixed"])
def test_accepted_set_of_shuffled_family_matches_lone_candidates(gadget, family, k):
    family = list(family)
    random.Random(7).shuffle(family)
    alone = [entry for entry in family if G.accepted_set(gadget, [entry], k)]
    got = G.accepted_set(gadget, family, k)
    assert shaped_keys(got) == shaped_keys(G._normalize_family(gadget, alone))
    assert got


@pytest.mark.parametrize("gadget, family, k", [
    (G.xor_checker(), F.xor_family(), 2),
    (G.tristate_checker(), F.tristate_family(), 1),
    (G.cycles_gate(), F.cycles_family(2), 2),
], ids=["xor", "tristate", "cycles2"])
def test_family_mixing_two_shapes_matches_its_halves(gadget, family, k):
    other = [reordered(cf) for cf in family]
    first, second = G.accepted_set(gadget, family, k), G.accepted_set(gadget, other, k)
    halves = shaped_keys(first + second)
    both = G._normalize_family(gadget, mixed(family))
    assert shaped_keys(G.accepted_set(gadget, mixed(family), k)) == [
        key for key in shaped_keys(both) if key in halves]
    # the order of a candidate's inputs does not change its verdict
    assert len(first) == len(second) > 0


PARITY = {(a, b): a ^ b for a in (0, 1) for b in (0, 1)}
WELL_FORMED_Y = {"Y": G.CandidateFunction("Y", ("M1", "M2"), PARITY, 2)}
CYCLES_K2 = F.cycles_family(2)[5]


@pytest.mark.parametrize("ctor, entry, well", [
    (G.xor_checker, {"Y": G.CandidateFunction("Y", ("M1", "M2"), dict.fromkeys(PARITY, 5), 2)},
     WELL_FORMED_Y),
    (G.xor_checker, {"Y": G.CandidateFunction("Y", ("M1", "M2"),
                                              {key: v for key, v in PARITY.items() if key != (1, 1)}, 2)},
     WELL_FORMED_Y),
    (G.xor_checker, {"Y": G.CandidateFunction("Y", ("M1", "M2"), PARITY, 2),
                     "Q": G.CandidateFunction("Q", ("M1", "M2"), PARITY, 2)}, None),
    (G.xor_checker, {"Y": G.CandidateFunction("Y", ("M1", "M2"), PARITY, 3)}, None),
    (G.xor_gate, {"Y": G.CandidateFunction("Y", ("M1",), {(0,): 0, (1,): 1}, 2)}, None),
    (G.xor_gate, {"Y": G.CandidateFunction("Y", ("M1", "M2"), dict.fromkeys(PARITY, 2), 2)},
     WELL_FORMED_Y),
    (G.cycles_gate, {"X2": G.CandidateFunction("X2", CYCLES_K2.inputs,
                                               {key: v for key, v in CYCLES_K2.table.items() if key != (1, 0)},
                                               2, CYCLES_K2.input_sizes)},
     {"X2": CYCLES_K2}),
], ids=["value-out-of-range", "missing-entry", "unknown-port", "wrong-size", "gate-output-domain",
        "gate-value-out-of-range", "default-size-missing-entry"])
def test_both_oracles_refuse_malformed_candidates(ctor, entry, well):
    for oracle in (G.accepted_set, G.entropy_accepted_set):
        with pytest.raises(G.ComposeError) as alone:
            oracle(ctor(), [entry], 2)
        if well is not None:
            # after well-formed candidates of the same shape: the same error
            with pytest.raises(G.ComposeError) as later:
                oracle(ctor(), [well, well, entry, well], 2)
            assert str(later.value) == str(alone.value)
            assert later.value.index == 2


@pytest.mark.parametrize("bad", [1.0, 1.5, True], ids=["float-1.0", "float-1.5", "bool"])
def test_both_oracles_refuse_non_int_values(bad):
    # a value that equals an int, or lies between two, is refused, not read
    # as the int it equals, so the two oracles cannot disagree on it: both
    # name the first bad key, alone and after a well-formed candidate
    entry = {"Y": G.CandidateFunction("Y", ("M1", "M2"), {**PARITY, (1, 0): bad, (1, 1): 2.5}, 2)}
    msg = re.escape(f"xor_checker.Y: candidate value {bad!r} at (1, 0) is not an int")
    for oracle in (G.accepted_set, G.entropy_accepted_set):
        for family, index in (([entry], 0), ([WELL_FORMED_Y, entry], 1)):
            with pytest.raises(G.ComposeError, match=msg) as err:
                oracle(G.xor_checker(), family, 1)
            assert err.value.index == index


def test_gadget_json():
    doc = G.gadget_to_json(G.xor_checker())
    assert doc["name"] == "xor_checker"
    assert [(p["name"], p["size"]) for p in doc["ports"]] == [("M1", 2), ("M2", 2), ("Y", 2)]
    doc2 = G.gadget_to_json(G.cond_virtual_or_checker(2, 2))
    assert doc2["conditioned_on"] == ["W1"]


def test_candidate_json_round_trip():
    fam = F.tristate_family()[:5]
    text = F.family_to_json(fam)
    back = F.family_from_json(text)
    assert [cf.table for cf in back] == [cf.table for cf in fam]
    pairs = F.switch_family()[:2]
    text2 = F.family_to_json(pairs)
    back2 = F.family_from_json(text2)
    assert [e["Z0"].table for e in back2] == [e["Z0"].table for e in pairs]
