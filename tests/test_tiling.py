import hashlib
import itertools
import random

import pytest

from pfsnet import tiling as T
from pfsnet.model import canonicalize, serialize, validate
from pfsnet.solver import SolveOptions, Status, solve_at_k, verify_scheme


def fig_coloring():
    rows = [(1, 2, 1, 2), (3, 3, 3, 3), (1, 2, 1, 2), (3, 3, 3, 3)]
    return T.TorusColoring(4, 4, rows)


def fig_program():
    return T.ConditionProgram(3, (
        T.EdgeEq("h", frozenset({3})),
        T.EdgeOr("h", frozenset({1, 3})),
        T.EdgeOr("v", frozenset({3})),
        T.FaceOr("11", frozenset({1})),
        T.FaceOr("22", frozenset({2})),
    ))


def test_phi():
    assert len(T.phi(1, 3)) == 6
    assert T.phi(1, 2) == (1, 0)
    assert T.phi(2, 2) == (0, 1)
    assert len({T.phi(c, 3) for c in (1, 2, 3)}) == 3  # injective
    subsets = T.color_subsets(3)
    assert subsets == [frozenset(s) for s in
                       [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]]
    with pytest.raises(ValueError):
        T.phi(4, 3)


def test_program_validation():
    with pytest.raises(ValueError):
        T.ConditionProgram(1, ())
    with pytest.raises(ValueError):
        T.ConditionProgram(2, (T.EdgeEq("h", frozenset()),))
    with pytest.raises(ValueError):
        T.ConditionProgram(2, (T.EdgeEq("h", frozenset({1, 2})),))
    with pytest.raises(ValueError):
        T.ConditionProgram(2, (T.EdgeEq("x", frozenset({1})),))


def test_program_colour_count_is_checked_by_bounds():
    # a colour set is checked against 1..N, so no set of all N colours is
    # built and a huge N costs nothing
    T.ConditionProgram(10**12, (T.EdgeEq("h", {1}), T.FaceOr("22", {10**12 - 1, 10**12})))
    for colors in ({0}, {10**12 + 1}):
        with pytest.raises(ValueError):
            T.ConditionProgram(10**12, (T.EdgeEq("h", colors),))
    with pytest.raises(ValueError):
        T.ConditionProgram(4, (T.EdgeOr("v", {1, 2, 3, 4}),))
    for n_colors in (True, 3.0, "3"):
        with pytest.raises(TypeError):
            T.ConditionProgram(n_colors, ())


def test_reduce_structure():
    for n_colors in (2, 3):
        net = T.reduce(T.ConditionProgram(n_colors, ()))
        assert validate(net).ok
        switches = {v.split("/")[0] for v in net.nodes if v.startswith("sw")}
        assert len(switches) == 2 ** n_colors - 2
        # messages: M0, M1, U, V fixed binary; X1, Y1 default
        assert [m.value for m in net.messages] == [2, 2, 2, 2, None, None]
        assert canonicalize(net) == net  # already simple


@pytest.mark.parametrize("program", [
    T.ConditionProgram(2, ()),
    T.ConditionProgram(2, (T.EdgeEq("h", {1}), T.EdgeOr("v", {2}), T.FaceOr("22", {1}))),
    T.ConditionProgram(3, ()),
    fig_program(),
], ids=["empty2", "cond2", "empty3", "cond3"])
def test_reduce_output_is_canonical(program):
    # reduce emits no parallel edges, so it needs no canonicalize pass
    net = T.reduce(program)
    assert canonicalize(net) == net


def test_reduce_uses_only_expected_edge_sizes():
    prog = T.ConditionProgram(3, (
        T.EdgeEq("h", frozenset({1})),
        T.EdgeOr("v", frozenset({2, 3})),
        T.FaceOr("11", frozenset({2})),
        T.FaceOr("22", frozenset({1, 2})),
    ))
    net = T.reduce(prog)
    assert validate(net).ok
    fixed_sizes = {e.size.value for e in net.edges if e.size.value is not None}
    assert fixed_sizes == {2, 3, 5}
    assert any(e.size.is_default for e in net.edges)


def test_reduce_condition_parts():
    prog = T.ConditionProgram(3, (T.FaceOr("22", frozenset({1, 2})),))
    net = T.reduce(prog)
    # one 4-ary or checker conditioned on the cycle outputs: size-5 edges exist
    assert {e.size.value for e in net.edges if e.size.value is not None} >= {5}
    parts = {v.split("/")[0] for v in net.nodes if v.startswith("c00")}
    assert parts == {"c00"}
    # edge conditions expand into two checkers (the two shared-coordinate kinds)
    prog2 = T.ConditionProgram(2, (T.EdgeEq("h", frozenset({1})),))
    net2 = T.reduce(prog2)
    parts2 = {v.split("/")[0] for v in net2.nodes if v.startswith("c00")}
    assert parts2 == {"c00a", "c00b"}


def test_reduce_growth_is_structural():
    for n_colors in (2, 3):
        base = T.reduce(T.ConditionProgram(n_colors, ()))
        one = T.reduce(T.ConditionProgram(n_colors, (T.EdgeEq("h", frozenset({1})),)))
        two = T.reduce(T.ConditionProgram(n_colors, (T.EdgeEq("h", frozenset({1})),
                                                     T.EdgeEq("v", frozenset({2})))))
        d1 = (len(one.nodes) - len(base.nodes), len(one.edges) - len(base.edges))
        d2 = (len(two.nodes) - len(one.nodes), len(two.edges) - len(one.edges))
        assert d1 == d2  # each edge-equality condition adds the same increment


def test_reduce_set_checker_stays_small():
    # one demand per cube of a theta-free cover; one demand per excluded
    # pattern would be 2^14 - 4 demands and about 230K edges
    assert len(T.reduce(T.ConditionProgram(4, ())).edges) < 1_000


def test_torus_bruteforce_empty_program():
    w = T.torus_bruteforce(T.ConditionProgram(2, ()), 4, 4)
    assert w is not None
    assert all(c == 1 for row in w.grid for c in row)


def test_torus_bruteforce_large_grid_without_recursion():
    w = T.torus_bruteforce(T.ConditionProgram(2, ()), 40, 40, cap=1600)
    assert w.grid == ((1,) * 40,) * 40


@pytest.mark.parametrize("prog", [
    T.ConditionProgram(2, (T.EdgeOr("h", frozenset({2})),)),
    T.ConditionProgram(3, (T.EdgeEq("v", frozenset({1})), T.FaceOr("22", frozenset({3})))),
    T.ConditionProgram(3, (T.EdgeOr("h", frozenset({2, 3})), T.EdgeOr("v", frozenset({1, 3})))),
], ids=["or-h", "eq-face", "or-hv"])
def test_torus_bruteforce_returns_lexicographically_first_witness(prog):
    # reference: every grid in row-major lexicographic order, first valid one
    first = None
    for cells in itertools.product(range(1, prog.n_colors + 1), repeat=8):
        grid = T.TorusColoring(4, 2, [cells[:4], cells[4:]])
        if T.validate_coloring(prog, grid).ok:
            first = grid
            break
    assert T.torus_bruteforce(prog, 4, 2) == first


def test_torus_bruteforce_contradiction():
    prog = T.ConditionProgram(2, (
        T.EdgeEq("h", frozenset({1})),
        T.EdgeOr("h", frozenset({1})),
        T.EdgeOr("v", frozenset({2})),
    ))
    assert T.torus_bruteforce(prog, 2, 2) is None
    assert T.torus_bruteforce(prog, 4, 4) is None


def test_torus_bruteforce_agrees_with_validator():
    progs = [
        fig_program(),
        T.ConditionProgram(2, (T.EdgeOr("h", frozenset({1})),)),
        T.ConditionProgram(3, (T.FaceOr("11", frozenset({2})),
                               T.EdgeEq("v", frozenset({1, 2})))),
    ]
    for prog in progs:
        w = T.torus_bruteforce(prog, 4, 4)
        if w is not None:
            assert T.validate_coloring(prog, w).ok


def test_torus_cap():
    with pytest.raises(T.CapExceeded):
        T.torus_bruteforce(T.ConditionProgram(2, ()), 10, 10, cap=64)
    with pytest.raises(ValueError):
        T.torus_bruteforce(T.ConditionProgram(2, ()), 3, 4)


def test_fig_coloring_validates():
    assert T.validate_coloring(fig_program(), fig_coloring()).ok
    # every horizontal edge of the checkerboard violates the membership equality
    board = T.TorusColoring(4, 4, [tuple(1 + ((x + y) % 2) for x in range(4)) for y in range(4)])
    rep = T.validate_coloring(T.ConditionProgram(2, (T.EdgeEq("h", frozenset({1})),)), board)
    assert not rep.ok and len(rep.violations) == 16
    for rule, where in rep.violations:
        assert rule == "eq" and "(" in where


def test_all_same_color_satisfies_every_equality():
    mono = T.TorusColoring(4, 4, [(2, 2, 2, 2)] * 4)
    for orient in ("h", "v"):
        prog = T.ConditionProgram(3, (T.EdgeEq(orient, frozenset({1})),))
        assert T.validate_coloring(prog, mono).ok


def test_program_json_round_trip():
    prog = fig_program()
    text = T.program_to_json(prog)
    assert T.program_from_json(text) == prog
    with pytest.raises(Exception):
        T.program_from_json("{")
    with pytest.raises(Exception):
        T.program_from_json('{"colors": 2, "conditions": [{"type": "nope", "set": [1]}]}')


def test_reduced_net_decided_at_k1_and_k2():
    # the two-colour program without conditions: a cycles gate cannot work
    # at k=1, and every colouring is accepted once k=2
    net = T.reduce(T.ConditionProgram(2, ()))
    # the benchmark's cap for this net: a regression exhausts it and fails
    # the exact status asserts instead of hanging the suite
    budget = SolveOptions(node_budget=100_000)
    assert solve_at_k(net, 1, budget).status is Status.UNSOLVABLE_AT_K
    out = solve_at_k(net, 2, budget)
    assert out.status is Status.SOLVABLE
    assert verify_scheme(net, out.scheme).ok


# every condition kind with each place it accepts
KINDS = [(T.EdgeEq, "hv"), (T.EdgeOr, "hv"), (T.FaceOr, ("11", "22"))]
# the 12 single conditions of a 2-colour program
ONE_CONDITIONS = [(kind, where, colour) for kind, places in KINDS for where in places for colour in (1, 2)]


@pytest.mark.parametrize("kind, where, colour", ONE_CONDITIONS,
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_reduced_one_condition_program_agrees_with_torus(kind, where, colour):
    # the select signal addresses 2k x 2k cells, so k=3 is the 6x6 torus;
    # test_reduced_programs_agree_with_torus[k2] solves these programs at
    # k=2.  An exhausted search fails the case: at k=3 the exhausted count
    # is pinned at 0
    prog = T.ConditionProgram(2, (kind(where, {colour}),))
    net = T.reduce(prog)
    out = solve_at_k(net, 3, SolveOptions(node_budget=200_000))
    assert out.status is not Status.BUDGET_EXHAUSTED
    assert out.solvable == (T.torus_bruteforce(prog, 6, 6) is not None)
    if out.solvable:
        assert verify_scheme(net, out.scheme).ok


# every 2-colour program with one or two conditions: 12 + 66
PROGRAMS = [conds for r in (1, 2) for conds in itertools.combinations(
    [kind(where, frozenset({colour})) for kind, where, colour in ONE_CONDITIONS], r)]
# the programs whose search exhausts its budget at each k; a pin may only fall
EXHAUSTED = {2: 0}


# the 12 one-condition programs at k=3 run one per case in
# test_reduced_one_condition_program_agrees_with_torus
@pytest.mark.parametrize("k, programs", [(2, PROGRAMS)], ids=["k2"])
def test_reduced_programs_agree_with_torus(k, programs):
    # the select signal addresses 2k x 2k cells: k=2 is the 4x4 torus.  An
    # exhausted search is skipped and counted, never passed
    assert len(programs) == {2: 78}[k]
    exhausted = 0
    for conds in programs:
        prog = T.ConditionProgram(2, conds)
        net = T.reduce(prog)
        out = solve_at_k(net, k, SolveOptions(node_budget=200_000))
        if out.status is Status.BUDGET_EXHAUSTED:
            exhausted += 1
            continue
        assert out.solvable == (T.torus_bruteforce(prog, 2 * k, 2 * k) is not None), conds
        if out.solvable:
            assert verify_scheme(net, out.scheme).ok
    assert exhausted <= EXHAUSTED[k]


def test_reduced_empty_3_colour_net_solvable_at_k2():
    net = T.reduce(T.ConditionProgram(3, ()))
    out = solve_at_k(net, 2, SolveOptions(node_budget=20_000))
    assert out.status is Status.SOLVABLE
    assert verify_scheme(net, out.scheme).ok


def test_reduced_5_colour_face_program_unsolvable_at_k1():
    net = T.reduce(T.ConditionProgram(5, (T.FaceOr("11", frozenset({1, 2})),)))
    assert validate(net).ok
    assert solve_at_k(net, 1).status is Status.UNSOLVABLE_AT_K


def _seeded_programs():
    # per colour count: one program with a condition at every kind and place,
    # and three with a random sample of those conditions
    rng = random.Random(21)
    out = []
    for n in (2, 3, 4):
        subsets = T.color_subsets(n)
        every = [cls(place, rng.choice(subsets)) for cls, places in KINDS for place in places]
        out.append(T.ConditionProgram(n, every))
        for _ in range(3):
            out.append(T.ConditionProgram(n, rng.sample(every, rng.randint(0, 4))))
    return out


def test_reduce_and_program_json_bytes_are_pinned():
    # the digest of the compiled networks and program files; a refactor of
    # the reduction must leave every byte of both the same
    h = hashlib.sha256()
    for prog in _seeded_programs():
        text = T.program_to_json(prog)
        assert T.program_from_json(text) == prog
        h.update(serialize(T.reduce(prog)).encode())
        h.update(text.encode())
    assert h.hexdigest() == "3fed95e60984d37621d04dffeb4eff947aa302de169e094aceed433f91602f3c"


def test_one_face_type_programs_decided_by_the_2x2_torus():
    # the module docstring's theorem: a program whose faces are all of one
    # type colours some torus iff it colours the 2x2 torus, and then every one
    rng = random.Random(22)
    unsatisfiable = 0
    for _ in range(300):
        n = rng.choice((2, 3))
        subsets = T.color_subsets(n)
        face = rng.choice((T.FACE_11, T.FACE_22))
        conds = [rng.choice((T.EdgeEq, T.EdgeOr))(rng.choice("hv"), rng.choice(subsets))
                 for _ in range(rng.randint(0, 3))]
        conds += [T.FaceOr(face, rng.choice(subsets)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(conds)
        prog = T.ConditionProgram(n, conds)
        small = T.torus_bruteforce(prog, 2, 2) is not None
        unsatisfiable += not small
        for width, height in ((4, 4), (4, 6), (6, 4)):
            assert (T.torus_bruteforce(prog, width, height) is not None) == small, prog
    # both answers occur, so the agreement is not vacuous
    assert 0 < unsatisfiable < 300
