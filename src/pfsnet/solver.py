"""Exact solvability of a network at a given default size k.

The search assigns encoding tables one entry at a time.  Message tuples are
taken in graded order, by largest value and then lexicographically, so the
search settles the sub-box {0..j}^n of message values before it reaches any
value above j.  Each tuple is evaluated along ``edge_eval_order``; an entry
that a tuple reaches for the first time is a branch point, tried with each
value (restricted growth in first-reach order under symmetry breaking).
Entries that no tuple reaches are zero-filled.  Broadcast relays are never
evaluated, and only edges upstream of a demand are searched.

Every demand is checked tuple by tuple.  Besides the check on its own inputs,
each demand gets static frontier-cut checks (forward checking): while part
of a tuple is evaluated, the demand's input is a function of the messages at
its still-open upstream nodes and the evaluated edges into them, so tuples
that agree on that key must agree on the demanded messages.  Decoding tables
are never searched: they are read off the evaluation once the encodings
separate every demand.

Backtracking is conflict-directed backjumping (Prosser 1993).  A failed check
blames the branch points its key's edge values depend on, in its own tuple
and in the earlier tuple that stored the key: the one that set the entry each
value was read from, and, recursively, those of the values that indexed that
entry.  The search jumps back to the newest of them, and an exhausted branch
point passes the union of its values' conflict sets on in the same way.  An
empty conflict set proves that the network is unsolvable at k.  A branch
point whose domain restricted growth capped needs no extra blame:
relabelling its edge maps any solution that gives it a value above the cap
onto one that gives it the cap.

Value order is conflict weighting in the spirit of Boussemart, Hemery,
Lecoutre & Sais 2004: each conflict that lands on a branch point holding
value x (a failed check, or the conflict set an exhausted branch point
passes on; not the jump after a solution) counts one failure of x at that
entry, a (searched edge, table index) pair.  A new branch point tries its
values in ascending order of their counts at its entry, ties in ascending
value order.  The counts belong to the run and outlive the branch point, so
a later tuple that reaches a dropped entry again starts from its
least-failed value.  Each value is still tried once, so the order changes
neither the conflict sets nor completeness.

Before it lays out anything, the setup tries the cut-set bound (Ahlswede,
Cai, Li & Yeung 2000) on each demand node t, in sorted order.  Let D be the
messages t demands but does not source, and fix every other message.  t then
sees its own source messages, now fixed, and the values of its in-edges.  An
in-edge carries the value of its root: the edge itself, or for a broadcast
out-edge the root of its relay's in-edge.  So t's view is a function of the
values on the distinct root edges into t, and two edges from one relay count
once.  t must tell every value of D apart, so if the product of those roots'
sizes is below the product of D's sizes, the network is unsolvable at k.
Such a cut ends the setup at once: every run answers unsolvable after no
trial, and the setup builds no rows, checks or tables.  Pins only restrict
the tables, so the bound holds under pins too.  Both products have the form
k^a·c, with a the count of default sizes and c the product of the fixed
ones.  So a demand node's bound fails for every k from some k_t on (more
default-size messages than roots), for every k up to some j_t (fewer), or
for every k or none (as many); ``unsolvable_from`` is the least k0 from
which some cut refutes every k.

Relay capacity is a cut of the same form.  A broadcast relay forwards its
in-edge's value verbatim, so each of its out-edges must be at least as wide
as the in-edge at k; an out-edge of size k^a·c below the in-edge's k^b·d
refutes k, whatever the tables and pins.  These bounds (``_relay_bounds``)
come after every demand node's, relays in sorted order, and such a cut
names the relay and its narrow out-edge.  They are the one relay-capacity
test: the setup, ``verify_scheme``'s ``broadcast-capacity`` rule and the
evaluation behind ``simulate`` and ``derive_decodings`` (which refuses such
a network with a ``ValueError``) all read them.  An out-edge whose size spec
equals the in-edge's never fires and yields no bound; every relay that
``compose`` builds is of that kind.

Under symmetry breaking the setup also pins by dominance (Chu & Stuckey
2015): a searched edge e that can carry its tail's whole view, size(e) >=
dom_size(tail), is fixed to the identity on its table indices.  This loses
no scheme.  Take any scheme and replace f_e by the identity: each consumer
of e's value, directly or through broadcast relays, now reads the table
index and recomputes the old f_e from it, so every other edge carries what
it carried before.  Only e's own per-tuple values change, so restricted
growth of every other edge survives: a first-reached entry keeps its value
sequence (an old entry may split into several, but each later part repeats
a value already in use).  Dominance-pinned edges are never relabelled; when
a relabelling of another edge reaches their tail, re-pinning them changes
only their own values again.  The consumers must be free to change, so the
rule skips an edge whose consumers (through relays) have a caller-pinned
out-edge, and it is off in ``enumerate_solutions``, which lists every
scheme.  The pinned entries are set in the run template with no frame, like
a caller's pins, so they are never branch points and take no blame.

Each entry of a caller's pin does take blame: it has a blame bit of its own,
below every frame's, and a check that reads it, directly or through the
entries it indexes, blames that bit as it blames a frame.  A jump goes to
the newest frame blamed, and a pin bit is never one, so the jumps, the trial
count and the witness are those of a search whose pins take no blame.  When
no frame is left to blame, the conflict left over is the refutation's core:
the pinned entries it rests on.  The core is sound.  Each conflict set
states that no scheme passing every check agrees with the values of the
entries it names (up to a relabelling, below), and each step keeps that
true.  A failed check computes its two keys from the entries it blames, so
every scheme that agrees with them fails it too.  An exhausted branch point
tried each value up to its restricted-growth cap, and relabelling its edge
maps a scheme that gives it a higher value onto one that gives it the cap.
That relabelling changes only the edge and its consumers, which carry no
caller's pin, and only at values that no earlier entry of the edge holds,
so it keeps every entry that the conflict set names; the dominance pins,
too, change only tables free of a caller's pin.  So any pin tables that
repeat the core's values leave the network unsolvable at k.  A cut's core is
empty, and so is that of a refutation that never reads a pinned entry.

``naive_solve_at_k`` is a deliberately independent oracle that enumerates all
table combinations with no pruning and no symmetry breaking.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Iterator, Mapping, NamedTuple, Optional, Sequence

from .model import (
    CodingScheme,
    InvalidNetwork,
    Network,
    ValidationReport,
    resolve_size,
    topo_order,
    validate,
)


class BudgetExhausted(Exception):
    """Search hit its node budget; explicitly not a negative answer."""

    def __init__(self, k: Optional[int] = None):
        super().__init__(f"search budget exhausted{f' at k={k}' if k else ''}")
        self.k = k


class CapExceeded(Exception):
    """A requested search or build exceeds its configured size cap;
    explicitly not a negative answer."""


class Status(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE_AT_K = "unsolvable-at-k"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SolveOptions:
    """pins maps edge id to a fixed row-major encoding table (not searched).
    node_budget caps the entry trials (one value tried at one table entry)
    of the whole solve."""

    pins: Mapping[str, Sequence[int]] = field(default_factory=dict)
    symmetry_breaking: bool = True
    node_budget: Optional[int] = None


class Cut(NamedTuple):
    """A cut-set refutation (see the module docstring): the demand node, and
    the ids of the distinct root edges into it, sorted; or a broadcast relay
    and the one out-edge too narrow for its in-edge."""

    node: str
    edges: tuple


@dataclass(frozen=True)
class SolveOutcome:
    """``searched`` counts entry trials: one value tried at one table entry.
    The search is deterministic, so the count is the same on every run.
    ``cut`` is the cut that refuted k without a search, if one did: a
    demand node and its root edges, or a relay and its narrow out-edge.
    ``core`` is set on an UNSOLVABLE_AT_K outcome only: the caller-pinned
    entries, as (edge id, table index) pairs, that the refutation rests on
    (see the module docstring); any pins that repeat their values are
    refuted too.  It is ``()`` when a cut refuted k or the refutation names
    no pin."""

    status: Status
    scheme: Optional[CodingScheme] = None
    searched: int = 0
    cut: Optional[Cut] = None
    core: Optional[tuple] = None

    @property
    def solvable(self) -> bool:
        return self.status is Status.SOLVABLE


def edge_eval_order(net: Network) -> list:
    """Edges in evaluation order: topological position of tail, then edge id."""
    pos = {v: i for i, v in enumerate(topo_order(net))}
    return sorted(net.edges, key=lambda e: (pos[e.tail], e.id))


# ---------------------------------------------------------------------------
# the cut-set bound


def _k_form(specs: Sequence) -> tuple:
    """(a, c) such that the product of the sizes ``specs`` is k^a·c at every k."""
    fixed = [s.value for s in specs if s.value is not None]
    return len(specs) - len(fixed), math.prod(fixed)


def _root(net: Network, e):
    """The edge whose value ``e`` carries: ``e`` itself, or for a broadcast
    out-edge the root of its relay's in-edge.  The one relay walk."""
    while e.tail in net.broadcast:
        e = net.in_edges(e.tail)[0]
    return e


def _cut_bounds(net: Network) -> Iterator[tuple]:
    """Per demand node in sorted order: its Cut, the (a, c) of the sizes of
    the distinct root edges into it and the (b, d) of the sizes of the
    messages it demands but does not source; then ``_relay_bounds``.  The
    network must be valid."""
    for t in sorted(net.demands):
        roots = {r.id: r.size for r in (_root(net, f) for f in net.in_edges(t))}
        need = [net.messages[i - 1] for i in net.demands[t] - net.source_set(t)]
        yield Cut(t, tuple(sorted(roots))), _k_form(list(roots.values())), _k_form(need)
    yield from _relay_bounds(net)


def _relay_bounds(net: Network) -> Iterator[tuple]:
    """The relay-capacity bounds: per broadcast relay in sorted order, per
    out-edge whose size spec differs from the relay's in-edge's,
    Cut(relay, (out-edge id,)), the (a, c) of the out-edge's size and the
    (b, d) of the in-edge's.  The network must be valid."""
    for v in sorted(net.broadcast):
        f = net.in_edges(v)[0]
        for e in net.out_edges(v):
            if e.size != f.size:
                yield Cut(v, (e.id,)), _k_form([e.size]), _k_form([f.size])


def _refuting(bounds: Iterator[tuple], k: int) -> Iterator[Cut]:
    """The cuts of ``bounds`` that refute k: those with k^a·c < k^b·d."""
    return (cut for cut, (a, c), (b, d) in bounds if k ** a * c < k ** b * d)


def cut_at(net: Network, k: int) -> Optional[Cut]:
    """The first cut that refutes the valid network at k, demand nodes'
    before relays', or None."""
    return next(_refuting(_cut_bounds(net), k), None)


def _least_k(e: int, x: int, y: int) -> int:
    """The least k >= 1 with k^e·x > y, for e >= 1 and x >= 1."""
    hi = 1
    while hi ** e * x <= y:
        hi *= 2
    return bisect.bisect_right(range(hi + 1), y, key=lambda k: k ** e * x)


def unsolvable_from(net: Network) -> Optional[int]:
    """The least k0 such that a cut refutes the valid network at every
    k >= k0, or None if no cut refutes every large k.  A cut, a demand
    node's or a relay's, refutes k iff k^a·c < k^b·d: exactly the k from
    some k_t on if b > a (or b = a and d > c, then k_t = 1), exactly those
    up to some j_t if b < a.  k0 is the least k_t, or 1 when the j_t reach
    it."""
    up, down = None, 0
    for _, (a, c), (b, d) in _cut_bounds(net):
        if b > a or b == a and d > c:
            k_t = _least_k(b - a, d, c) if b > a else 1
            up = k_t if up is None else min(up, k_t)
        elif b < a:
            down = max(down, _least_k(a - b, c, d - 1) - 1)
    if up is None:
        return None
    return 1 if down >= up - 1 else up


# ---------------------------------------------------------------------------
# straightforward (oracle-grade) evaluation


def table_domain(net: Network, k: int, v: str) -> list:
    """The coordinates of node v's tables (its out-edges' encodings and its
    decoding), in row-major order with the last varying fastest: each source
    message ascending, as (message index, size), then each in-edge by edge
    id, as (edge id, size).  The one definition of the table layout."""
    return [(i, resolve_size(net.messages[i - 1], k)) for i in sorted(net.source_set(v))] + [
        (f.id, resolve_size(f.size, k)) for f in net.in_edges(v)
    ]


class _Layout(NamedTuple):
    """What evaluating a network at k needs, whatever its tables."""

    order: list  # the edges in ``edge_eval_order``
    domain: dict  # node -> its ``table_domain``
    dom_size: dict  # node -> the number of entries of a table over that domain
    tuples: list  # every message tuple, the last message varying fastest


def _layout(net: Network, k: int) -> _Layout:
    """The layout of ``net`` at k, built on first use and kept on the
    network, one per k (a network is immutable)."""
    layout = net._layouts.get(k)
    if layout is None:
        order = edge_eval_order(net)
        domain = {v: table_domain(net, k, v) for v in net.nodes}
        layout = net._layouts[k] = _Layout(
            order, domain, {v: math.prod(size for _, size in dom) for v, dom in domain.items()},
            list(itertools.product(*(range(resolve_size(m, k)) for m in net.messages))))
    return layout


def _index_column(dom: Sequence[tuple], cols: Mapping, n: int) -> list:
    """Per message tuple, the row-major index into a table over ``dom``, read
    off the columns ``cols`` (``_columns``) of ``n`` tuples."""
    idx = None
    for src, size in dom:
        col = cols[src]
        idx = col if idx is None else list(map(operator.add, map(size.__mul__, idx), col))
    return [0] * n if idx is None else idx


def _rows(want: Collection[int], cols: Mapping) -> list:
    """Per message tuple, the values of the messages ``want``, ascending
    (no rows if ``want`` is empty)."""
    return list(zip(*(cols[i] for i in sorted(want))))


def _columns(net: Network, k: int, encodings: Mapping[str, Sequence[int]]) -> dict:
    """The evaluation of the encoding tables at k column-wise: for each
    message index (int) and then each edge id (str) in ``edge_eval_order``,
    its value on every message tuple of ``_layout(net, k).tuples``, in
    order.  A broadcast out-edge shares its relay's in-edge's list, so every
    relay's out-edges must be as wide as its in-edge at k: a relay's cut at k
    (``_relay_bounds``) raises ``ValueError`` naming the narrow out-edge.
    The one evaluation behind ``simulate``, ``derive_decodings`` and
    ``verify_scheme``."""
    narrow = next(_refuting(_relay_bounds(net), k), None)
    if narrow is not None:
        raise ValueError(f"broadcast out-edge {narrow.edges[0]!r} of relay {narrow.node!r} "
                         f"is narrower than its in-edge at k={k}")
    layout = _layout(net, k)
    n = len(layout.tuples)
    cols: dict = {i: [t[i - 1] for t in layout.tuples] for i in range(1, net.n_messages + 1)}
    for e in layout.order:
        if e.tail in net.broadcast:
            cols[e.id] = cols[net.in_edges(e.tail)[0].id]
        else:
            idx = _index_column(layout.domain[e.tail], cols, n)
            cols[e.id] = list(map(encodings[e.id].__getitem__, idx))
    return cols


def simulate(net: Network, scheme: CodingScheme) -> Iterator[dict]:
    """For every message tuple, yield one mapping from message index (int)
    and edge id (str) to value: the messages 1..l, then the edge signals in
    ``edge_eval_order``.  A relay out-edge narrower at k than its in-edge
    raises ``ValueError`` (see ``_columns``)."""
    cols = _columns(net, scheme.k, scheme.encodings)
    for t in range(len(_layout(net, scheme.k).tuples)):
        yield {label: col[t] for label, col in cols.items()}


def derive_decodings(net: Network, k: int, encodings: Mapping[str, Sequence[int]]) -> CodingScheme:
    """Build total decoding tables from the evaluation of the encodings.

    Table entries never exercised by any message tuple are zero-filled.  If
    the encodings do not actually separate some demand, the resulting scheme
    simply fails verify_scheme.  A relay out-edge narrower at k than its
    in-edge cannot carry its value, so no scheme exists there: that raises
    ``ValueError`` naming the out-edge (see ``_columns``).
    """
    cols = _columns(net, k, encodings)
    layout = _layout(net, k)
    n = len(layout.tuples)
    tables = {}
    for v, want in net.demands.items():
        table = tables[v] = [(0,) * len(want)] * layout.dom_size[v]
        # the last tuple that reaches an entry sets it
        for idx, got in dict(zip(_index_column(layout.domain[v], cols, n), _rows(want, cols))).items():
            table[idx] = got
    return CodingScheme(k=k, encodings=encodings, decodings=tables)


def verify_scheme(net: Network, scheme: CodingScheme) -> ValidationReport:
    """Exhaustively evaluate all message tuples and report every violation,
    each rule at most once per edge or node."""
    bad: list = []
    rep = validate(net)
    if not rep.ok:
        return rep
    k = scheme.k
    if k < 1:
        return ValidationReport(False, (("k-positive", str(k)),))
    layout = _layout(net, k)
    dom_size = layout.dom_size
    forced = {e.id for e in net.edges if e.tail in net.broadcast}
    bad.extend(("broadcast-capacity", cut.edges[0]) for cut in _refuting(_relay_bounds(net), k))
    for e in net.edges:
        if e.id in forced:
            if e.id in scheme.encodings:
                bad.append(("broadcast-table", e.id))
            continue
        table = scheme.encodings.get(e.id)
        if table is None:
            bad.append(("missing-encoding", e.id))
        elif len(table) != dom_size[e.tail]:
            bad.append(("encoding-domain", e.id))
        elif min(table) < 0 or max(table) >= resolve_size(e.size, k):
            bad.append(("encoding-range", e.id))
    for v, want in net.demands.items():
        table = scheme.decodings.get(v)
        if table is None:
            bad.append(("missing-decoding", v))
            continue
        if len(table) != dom_size[v]:
            bad.append(("decoding-domain", v))
            continue
        # rows are checked in order up to the first one of the wrong width
        width = len(want)
        rows = list(itertools.takewhile(lambda row: len(row) == width, table))
        sizes = [resolve_size(net.messages[i - 1], k) for i in sorted(want)]
        if any(min(col) < 0 or max(col) >= s for col, s in zip(zip(*rows), sizes)):
            bad.append(("decoding-range", v))
        if len(rows) < len(table):
            bad.append(("decoding-width", v))
    if bad:
        return ValidationReport(False, tuple(bad))
    cols, n = _columns(net, k, scheme.encodings), len(layout.tuples)
    bad.extend(("decode", v) for v in sorted(net.demands) if any(map(
        operator.ne, map(scheme.decodings[v].__getitem__, _index_column(layout.domain[v], cols, n)),
        _rows(net.demands[v], cols))))
    return ValidationReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# the search engine


def _getter(cols: Sequence[int]):
    """Read a key off a row: a value, a tuple of values, or () for no cols."""
    return operator.itemgetter(*cols) if cols else (lambda row: ())


class _Search:
    """Search over single table entries.

    Message tuples are processed in graded order, and within one tuple the
    searched edges are evaluated in ``edge_eval_order``.  An entry that a
    tuple reaches for the first time is a branch point; entries no tuple
    reaches are never tried.  A broadcast out-edge is never evaluated: it
    carries the value of its root (``_root``), the non-broadcast edge at the
    head of its relay chain.  Only edges upstream of a demand are searched;
    the others cannot affect any decoder.

    Each tuple's values live in one row: the message values, then one value
    per searched edge.  After position p of a tuple (its first p searched
    edges evaluated) every check scheduled at p reads a key and the demanded
    messages off the row; two tuples with equal keys and different demanded
    messages refute the branch, and the branch points that the key's edge
    values of both rows depend on take the blame.

    The work comes in two steps.  The setup (``__init__``) depends only on the
    network, k, which edges are pinned and symmetry breaking: it validates the
    network, stops at a cut that refutes k (a demand node and its root edges,
    or a relay and its narrow out-edge; see the module docstring), and
    otherwise fixes the tuple order, the roots, the searched edges, their
    domain columns, their symmetry eligibility, the dominance pins, the
    blame bits of the pinned entries and the frontier-cut checks.  An edge
    is symmetry-eligible (``sym``) when symmetry breaking is on and no
    consumer of its value, directly or through relays, has a caller-pinned
    out-edge: its head is not marked, where one backward pass marks the
    pinned edges' tails and then every relay with an out-edge into a marked
    node.  The dominance pins (``dominated``) are drawn from those edges.
    A run (``solutions`` or ``decide``) takes the pin tables and the budget
    and starts from copies of the setup's rows and tables and from fresh
    keys, trail and failure counts, so one setup serves any number of runs
    that differ only in their pin tables; it leaves only its trial count
    (``searched``) and its core (``core``) on the setup.  What a network's
    evaluation needs at k (edge order, table domains, message tuples) is the
    network's ``_layout``.
    """

    def __init__(self, net: Network, k: int, pinned: Collection[str] = (),
                 symmetry_breaking: bool = True):
        rep = validate(net)
        if not rep.ok:
            raise InvalidNetwork(f"invalid network: {rep.violations}")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.net, self.k = net, k
        by_id = {e.id: e for e in net.edges}
        for eid in pinned:
            if eid not in by_id:
                raise ValueError(f"pin for unknown edge {eid!r}")
            if by_id[eid].tail in net.broadcast:
                raise ValueError(f"cannot pin broadcast out-edge {eid!r}")
        self.pinned = frozenset(pinned)
        self.cut = cut_at(net, k)
        if self.cut is not None:
            # a run still checks its pins' lengths and ranges
            self.size = {eid: by_id[eid].size.resolve(k) for eid in self.pinned}
            self.dom_size = {eid: math.prod(size for _, size in table_domain(net, k, by_id[eid].tail))
                             for eid in self.pinned}
            return
        layout = _layout(net, k)
        n_msgs = net.n_messages
        root = {e.id: _root(net, e) for e in layout.order}
        self.tabled = [e for e in layout.order if e.tail not in net.broadcast]  # edges with a table of their own
        self.size = {e.id: resolve_size(e.size, k) for e in self.tabled}
        self.dom_size = {e.id: layout.dom_size[e.tail] for e in self.tabled}
        # a demand its own sources satisfy needs nothing; the others make
        # every edge upstream of them relevant
        demands = [v for v in sorted(net.demands) if not net.demands[v] <= net.source_set(v)]
        relevant: set = set()
        stack = list(demands)
        while stack:
            for f in net.in_edges(stack.pop()):
                r = root[f.id]
                if r.id not in relevant:
                    relevant.add(r.id)
                    stack.append(r.tail)
        self.edges = [e for e in self.tabled if e.id in relevant]
        pos = {e.id: q for q, e in enumerate(self.edges)}
        n = len(self.edges)
        # row columns and radices of each searched edge's domain index: a
        # message's column, or that of the searched edge an in-edge relays
        # (the in-edges of a searched edge's tail are upstream of a demand too)
        self.dom_cols = [[(src - 1 if isinstance(src, int) else n_msgs + pos[root[src].id], size)
                          for src, size in layout.domain[e.tail]] for e in self.edges]
        # symmetry-breaking eligibility (see above): mark the pinned edges'
        # tails, then every relay with an out-edge into a marked node
        marked = {by_id[eid].tail for eid in self.pinned}
        stack = list(marked)
        while stack:
            for f in net.in_edges(stack.pop()):
                if f.tail in net.broadcast and f.tail not in marked:
                    marked.add(f.tail)
                    stack.append(f.tail)
        self.sym = [symmetry_breaking and e.head not in marked for e in self.edges]
        # frontier cuts.  With the first p searched edges of a tuple
        # evaluated, a node is open if some path from it to demand v uses
        # only unevaluated edges.  v's input is then a function of the
        # messages at open nodes and the evaluated edges into open nodes,
        # so that key must separate v's demanded messages.  b[u] is the
        # largest p at which u is open: the widest path to v by
        # bottleneck (smallest) edge position, found in one pass over the
        # nodes upstream of v in reverse topological order (tails sort by
        # their first searched out-edge).
        first_out: dict = {}
        for q, e in enumerate(self.edges):
            first_out.setdefault(e.tail, q)
        feeds: dict = {}  # node -> (position, tail) of each root edge into it
        msg_cols = {}  # node -> row columns of its source messages
        earliest: dict = {}  # (key cols, demanded cols) -> earliest position
        for v in demands:
            b = {v: n}
            last: dict = {}  # edge position -> largest p at which its head is open
            heap = [(-n, v)]
            while heap:
                w = heapq.heappop(heap)[1]
                bw = b[w]
                if w not in feeds:
                    feeds[w] = sorted({(pos[root[f.id].id], root[f.id].tail) for f in net.in_edges(w)})
                for q, u in feeds[w]:
                    if last.get(q, -1) < bw:
                        last[q] = bw
                    bu = q if q < bw else bw
                    if u not in b:
                        b[u] = bu
                        heapq.heappush(heap, (-first_out[u], u))
                    elif b[u] < bu:
                        b[u] = bu
            open_until: dict = {}
            for u, bu in b.items():
                if u not in msg_cols:
                    msg_cols[u] = [i - 1 for i in net.source_set(u)]
                for c in msg_cols[u]:
                    if open_until.get(c, -1) < bu:
                        open_until[c] = bu
            want = sorted(i - 1 for i in net.demands[v])
            # a key holding every demanded message checks nothing
            start = min(open_until.get(c, -1) for c in want) + 1
            points = {start, *(q + 1 for q in last), *(p + 1 for p in last.values()),
                      *(p + 1 for p in open_until.values())}
            prev = None
            for p in sorted(x for x in points if start <= x <= n):
                msgs = tuple(c for c in sorted(open_until) if p <= open_until[c])
                key = msgs + tuple(n_msgs + q for q in sorted(last) if q < p <= last[q])
                if key != prev:
                    prev = key
                    ident = (key, tuple(c for c in want if c not in msgs))
                    earliest[ident] = min(earliest.get(ident, p), p)
        self.checks_at: list = [[] for _ in range(n + 1)]
        for (key, rest), p in earliest.items():
            # a failed check blames the frames its key's edge cells depend
            # on, which a row keeps n_msgs + n columns after the cell (see
            # ``solutions``)
            blame = tuple(n_msgs + n + c for c in key if c >= n_msgs)
            self.checks_at[p].append((_getter(key), _getter(rest), blame))
        # what every run starts from, copied, never written: a row per message
        # tuple in graded order (every tuple of the sub-box {0..j}^n before
        # any tuple with a value above j; the sort is stable, so each grade
        # stays in lexicographic order), the searched edges' tables with
        # every entry unset but those of the dominance pins (see the module
        # docstring), and the blame bits of their entries (see
        # ``solutions``): one of its own for each entry of a caller's pin,
        # in search order, and 0 for a dominance pin
        tail = [0] * (n + n_msgs + n)
        self.rows = [[*t, *tail] for t in (sorted(layout.tuples, key=max) if n_msgs else layout.tuples)]
        self.dominated = frozenset(e.id for e, ok in zip(self.edges, self.sym) if ok
                                   and e.id not in self.pinned and self.size[e.id] >= self.dom_size[e.id])
        self.blank = [(e.id, list(range(self.dom_size[e.id])) if e.id in self.dominated
                       else [-1] * self.dom_size[e.id]) for e in self.edges]
        self.pin_entries: list = []  # (edge id, table index) of each pin bit
        self.setter = []
        for e in self.edges:
            dom = self.dom_size[e.id]
            if e.id in self.pinned:
                bit = len(self.pin_entries)
                self.pin_entries += [(e.id, d) for d in range(dom)]
                self.setter.append([1 << (bit + d) for d in range(dom)])
            else:
                self.setter.append([0] * dom)
        self.sizes = [self.size[e.id] for e in self.edges]

    def solutions(self, pins: Mapping[str, Sequence[int]], budget: Optional[int]) -> Iterator[dict]:
        """One run: depth-first over single entries, with explicit stacks;
        yields the tables (see ``_tables``) once per assignment of the
        reached entries that satisfies every check.  ``pins`` gives a table
        for exactly the edges the setup pinned; ``budget`` caps the entry
        trials, counted in ``searched`` from 0.

        Backtracking jumps on conflict sets (see the module docstring).  A
        conflict set is an int bitset: bit j < P for the j-th entry of
        ``pin_entries`` (P of them), bit P + f for frame f, frames numbered
        in creation order.  A jump goes to the newest frame blamed; when no
        frame is left to blame the run ends, and what is left is its core,
        kept in ``core`` as (edge id, table index) pairs in bit order (``()``
        if a cut refuted k).  After a solution every open frame is blamed, so
        every solution is yielded."""
        self.searched = 0
        self.core = None
        if pins.keys() != self.pinned:
            raise ValueError(f"pins for {sorted(pins)}, but the setup pinned {sorted(self.pinned)}")
        pinned = {eid: tuple(t) for eid, t in pins.items()}
        for eid, table in pinned.items():
            if len(table) != self.dom_size[eid]:
                raise ValueError(f"pin for {eid!r} has length {len(table)}, expected {self.dom_size[eid]}")
            # a bool or float is refused, not read as the int it equals
            if not {int}.issuperset(map(type, table)) or min(table) < 0 or max(table) >= self.size[eid]:
                raise ValueError(f"pin for {eid!r} out of range: its entries must be ints in [0,{self.size[eid]})")
        if self.cut is not None:
            self.core = ()
            return
        n = len(self.edges)
        T = len(self.rows)
        P = len(self.pin_entries)
        base = self.net.n_messages
        width = base + n
        # a row: the message values and one value per searched edge, then for
        # each of those width cells the blame bits its value depends on: the
        # frame that set the entry it read (the entry's own bit for a
        # caller's pin, none for a dominance pin) and those of the cells that
        # index that entry (none for a message)
        rows = list(map(list.copy, self.rows))
        tables = [list(pinned[eid]) if eid in pinned else blank.copy() for eid, blank in self.blank]
        setter = list(map(list.copy, self.setter))  # blame bit of an entry
        sizes, dom_cols, sym = self.sizes, self.dom_cols, self.sym
        # per check, the index of the row that first stored each key
        checks_at = [[({}, *check) for check in at] for at in self.checks_at]
        used = [0] * n  # values in use per edge (restricted growth)
        # per entry (d * n + p), how often a conflict landed on each value
        fails: dict = {}
        # [tuple, position, table index, place in order, top, used before,
        #  trail mark, blamed, value order (None: ascending), entry]
        frames: list = []
        trail: list = []  # (seen, key) inserted by the checks, in order
        ti = p = 0
        solved = False  # the next jump follows a yielded solution
        while True:
            # evaluate forward until a check fails, an entry is reached for
            # the first time (a new frame), or every tuple has passed; then
            # conflict is the set of frames to blame
            conflict = 0
            while ti < T:
                row = rows[ti]
                for seen, key_of, want_of, blame in checks_at[p]:
                    key = key_of(row)
                    have = seen.get(key)
                    if have is None:
                        seen[key] = ti
                        trail.append((seen, key))
                    elif want_of(rows[have]) != want_of(row):
                        other = rows[have]
                        for c in blame:
                            conflict |= row[c] | other[c]
                        break
                else:
                    if p == n:
                        ti += 1
                        p = 0
                        continue
                    d = under = 0
                    for col, radix in dom_cols[p]:
                        d = d * radix + row[col]
                        under |= row[width + col]
                    x = tables[p][d]
                    if x >= 0:
                        row[base + p] = x
                        row[width + base + p] = setter[p][d] | under
                        p += 1
                        continue
                    # the new frame blames itself, so it takes its first value
                    conflict = setter[p][d] = 1 << (P + len(frames))
                    row[width + base + p] = conflict | under
                    top = min(used[p], sizes[p] - 1) if sym[p] else sizes[p] - 1
                    # least-failed value first, ties in ascending value order
                    entry = d * n + p
                    counts = fails.get(entry)
                    order = None if counts is None else sorted(range(top + 1), key=counts.__getitem__)
                    frames.append([ti, p, d, -1, top, used[p], len(trail), 0, order, entry])
                break
            else:
                yield self._tables(tables, pinned)
                conflict = ((1 << len(frames)) - 1) << P
                solved = True
            # jump to the newest blamed frame, dropping the newer ones, count
            # a failure of its value and move it to its next value; an
            # exhausted frame blames what it collected
            while conflict >> P:
                h = conflict.bit_length() - 1
                while len(frames) > h - P + 1:
                    _, fp, d, _, _, before, _, _, _, _ = frames.pop()
                    tables[fp][d] = -1
                    used[fp] = before
                frame = frames[h - P]
                fti, fp, d, i, top, before, mark, blamed, order, entry = frame
                if i >= 0 and not solved:
                    counts = fails.get(entry)
                    if counts is None:
                        counts = fails[entry] = [0] * sizes[fp]
                    counts[i if order is None else order[i]] += 1
                solved = False
                blamed |= conflict ^ (1 << h)
                i += 1
                if i > top:
                    conflict = blamed  # the next jump drops the frame
                    continue
                while len(trail) > mark:
                    seen, key = trail.pop()
                    del seen[key]
                if budget is not None and self.searched >= budget:
                    raise BudgetExhausted(self.k)
                self.searched += 1
                x = i if order is None else order[i]
                frame[3] = i
                frame[7] = blamed
                tables[fp][d] = x
                used[fp] = max(before, x + 1)
                rows[fti][base + fp] = x
                ti, p = fti, fp + 1
                break
            else:
                self.core = tuple(e for j, e in enumerate(self.pin_entries) if conflict >> j & 1)
                return

    def _tables(self, tables: list, pinned: Mapping[str, tuple]) -> dict:
        """Every encoding table, by edge id, in evaluation order; entries the
        search did not reach are None."""
        searched = {e.id: t for e, t in zip(self.edges, tables)}
        out = {}
        for e in self.tabled:
            if e.id in pinned:
                out[e.id] = pinned[e.id]
            elif e.id in searched:
                out[e.id] = tuple(None if x < 0 else x for x in searched[e.id])
            else:
                out[e.id] = (None,) * self.dom_size[e.id]
        return out

    def decide(self, pins: Mapping[str, Sequence[int]], budget: Optional[int]) -> SolveOutcome:
        """One run to its first solution: the outcome of ``solve_at_k`` with
        these pins and this budget."""
        try:
            for tables in self.solutions(pins, budget):
                return SolveOutcome(Status.SOLVABLE, _witness(self.net, self.k, tables), self.searched)
            return SolveOutcome(Status.UNSOLVABLE_AT_K, None, self.searched, self.cut, self.core)
        except BudgetExhausted:
            return SolveOutcome(Status.BUDGET_EXHAUSTED, None, self.searched)


def _witness(net: Network, k: int, tables: Mapping[str, Sequence]) -> CodingScheme:
    """The verified scheme of a search solution, unreached entries zero-filled."""
    scheme = derive_decodings(net, k, {eid: tuple(x or 0 for x in t) for eid, t in tables.items()})
    rep = verify_scheme(net, scheme)
    if not rep.ok:
        raise AssertionError(f"internal error: witness failed verification: {rep.violations}")
    return scheme


def solve_at_k(net: Network, k: int, opts: Optional[SolveOptions] = None) -> SolveOutcome:
    """Decide solvability at a fixed default size k.

    SOLVABLE outcomes carry a witness that has already passed verify_scheme;
    UNSOLVABLE_AT_K means that a cut refuted k (``outcome.cut``) or that the
    complete search found nothing at this k (it says nothing about other k).
    """
    opts = opts or SolveOptions()
    return _Search(net, k, opts.pins, opts.symmetry_breaking).decide(opts.pins, opts.node_budget)


def solve_up_to(net: Network, k_max: int, opts: Optional[SolveOptions] = None) -> Optional[tuple]:
    """Least k <= k_max admitting a scheme, with witness; None if none do.

    Absence of a solution up to k_max is not unsolvability: the sweep is a
    semi-decision.  Networks with no default-size message or edge do not
    depend on k, so only k=1 is tried.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k_dependent = any(m.is_default for m in net.messages) or any(
        e.size.is_default for e in net.edges
    )
    for k in range(1, (k_max if k_dependent else 1) + 1):
        outcome = solve_at_k(net, k, opts)
        if outcome.status is Status.SOLVABLE:
            return k, outcome.scheme
        if outcome.status is Status.BUDGET_EXHAUSTED:
            raise BudgetExhausted(k)
    return None


def enumerate_solutions(net: Network, k: int, limit: Optional[int] = None) -> list:
    """Up to ``limit`` distinct schemes in a deterministic order.

    The search runs without symmetry breaking or budget, and every entry that
    no message tuple reaches takes each of its values, so with limit=None
    every scheme is produced.
    """
    search = _Search(net, k, symmetry_breaking=False)
    out = []
    for tables in search.solutions({}, None):
        for encodings in _completions(tables, search.size):
            out.append(derive_decodings(net, k, encodings))
            if limit is not None and len(out) >= limit:
                return out
    return out


def _completions(tables: Mapping[str, Sequence], sizes: Mapping[str, int]) -> Iterator[dict]:
    """Every way to give each None entry a value."""
    free = [(eid, i) for eid, t in tables.items() for i, x in enumerate(t) if x is None]
    for values in itertools.product(*(range(sizes[eid]) for eid, _ in free)):
        filled = {eid: list(t) for eid, t in tables.items()}
        for (eid, i), x in zip(free, values):
            filled[eid][i] = x
        yield filled


# ---------------------------------------------------------------------------
# the naive enumeration oracle


def naive_solve_at_k(net: Network, k: int, pins: Optional[Mapping[str, Sequence[int]]] = None) -> bool:
    """Oracle mode: enumerate every combination of encoding tables outright
    and test the decoding constraint directly.  No pruning, no symmetry
    breaking, no shared search machinery."""
    rep = validate(net)
    if not rep.ok:
        raise ValueError(f"invalid network: {rep.violations}")
    pins = dict(pins or {})
    msg_sizes = [resolve_size(m, k) for m in net.messages]
    pos = {v: i for i, v in enumerate(topo_order(net))}
    order = sorted(net.edges, key=lambda e: (pos[e.tail], e.id))
    for v in net.broadcast:
        if net.in_edges(v):
            ins = resolve_size(net.in_edges(v)[0].size, k)
            if any(resolve_size(e.size, k) < ins for e in net.out_edges(v)):
                return False
    free = []
    spaces = []
    for e in order:
        if e.tail in net.broadcast or e.id in pins:
            continue
        dom = 1
        for i in sorted(net.source_set(e.tail)):
            dom *= msg_sizes[i - 1]
        for f in net.in_edges(e.tail):
            dom *= resolve_size(f.size, k)
        free.append(e.id)
        spaces.append([tuple(t) for t in itertools.product(range(resolve_size(e.size, k)), repeat=dom)])
    tuples = list(itertools.product(*(range(s) for s in msg_sizes)))
    for combo in itertools.product(*spaces):
        tables = dict(pins)
        tables.update(zip(free, combo))
        maps: dict = {v: {} for v in net.demands}
        ok = True
        for msg in tuples:
            signals: dict = {}
            for e in order:
                u = e.tail
                if u in net.broadcast:
                    signals[e.id] = signals[net.in_edges(u)[0].id]
                    continue
                idx = 0
                for i in sorted(net.source_set(u)):
                    idx = idx * msg_sizes[i - 1] + msg[i - 1]
                for f in net.in_edges(u):
                    idx = idx * resolve_size(f.size, k) + signals[f.id]
                signals[e.id] = tables[e.id][idx]
            for v, want in net.demands.items():
                key = tuple(msg[i - 1] for i in sorted(net.source_set(v)))
                key += tuple(signals[e.id] for e in net.in_edges(v))
                val = tuple(msg[i - 1] for i in sorted(want))
                if maps[v].setdefault(key, val) != val:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
