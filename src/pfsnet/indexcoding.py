"""Index coding with partially fixed message sizes, decided exactly at a given
default size k via confusion-graph coloring.

A server broadcasts one symbol X = f(M1..Ml) with |X| <= a * k^b; client j
knows M_{A_j} and must decode M_{B_j} from (X, M_{A_j}).  Two message tuples
*confuse* some client when they agree on the client's side information but
disagree on its demand; valid encodings are exactly the proper colorings of
the confusion graph with at most a * k^b colors.  The graph's adjacency and
the coloring search's color classes are int bitsets over the tuple indices,
and a trial budget turns a search that runs too long into ``BudgetExhausted``.

Whether two tuples confuse a client depends only on their difference, so
shifting every tuple by one fixed vector, modulo each message's size, maps
the confusion graph onto itself.  The graph is therefore regular: the
coloring search's degree order is the tuple order, and its first descent
(first fit) is built one color class at a time on bitsets before the
backtracking resumes at the first tuple left without a color.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Mapping, Optional

from .model import FormatError, load_json, resolve_size, size_from_json
from .solver import BudgetExhausted, CapExceeded


@dataclass(frozen=True)
class Client:
    has: frozenset
    wants: frozenset

    def __post_init__(self):
        object.__setattr__(self, "has", frozenset(self.has))
        # a client never needs to demand a message it holds
        object.__setattr__(self, "wants", frozenset(self.wants) - self.has)


@dataclass(frozen=True)
class IndexInstance:
    messages: tuple
    a: int
    b: int
    clients: tuple

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "clients", tuple(self.clients))
        if self.a < 1 or self.b < 0:
            raise ValueError("output bound needs a >= 1 and b >= 0")
        l = len(self.messages)
        for c in self.clients:
            for i in c.has | c.wants:
                if not 1 <= i <= l:
                    raise ValueError(f"message index {i} out of range [1..{l}]")

    def output_bound(self, k: int) -> int:
        return self.a * k**self.b


@dataclass(frozen=True)
class ConfusionGraph:
    vertices: tuple  # message tuples
    adjacency: tuple  # per vertex, an int bitset: bit j set iff j is a neighbour

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


def confusion_graph(inst: IndexInstance, k: int, cap: int = 4096) -> ConfusionGraph:
    """Graph on message tuples with an edge wherever some client would confuse
    the two tuples: same side information, different demand.

    Under one client the tuples with equal side information form a group and
    the tuples of a group with equal demand form a part; the client adds the
    complete multipartite graph on each group's parts.  So each tuple gains
    its group minus its own part, one OR of int bitsets, and no pair is
    tested on its own.  Tuple indices count in mixed radix, the last message
    fastest, so the tuples that fix some messages to given values are the
    block fixing them to 0 shifted by those values' offset: every group and
    part is one shift of a block built once per client."""
    sizes = [resolve_size(m, k) for m in inst.messages]
    total = 1
    for s in sizes:
        total *= s
    if total > cap:
        raise CapExceeded(f"{total} message tuples exceed cap of {cap}")
    strides, stride = [], total
    for s in sizes:
        stride //= s
        strides.append(stride)
    adj = [0] * total
    for c in inst.clients:
        if not c.wants:
            continue
        side = {i - 1 for i in c.has}
        fixed = sorted(side | {i - 1 for i in c.wants})
        group, part = _zero_block(sizes, strides, side), _zero_block(sizes, strides, fixed)
        members = list(_bits(part))
        side_strides = [strides[j] if j in side else 0 for j in fixed]
        fixed_strides = [strides[j] for j in fixed]
        for values in itertools.product(*(range(sizes[j]) for j in fixed)):
            offset = sum(map(operator.mul, values, fixed_strides))
            others = (group << sum(map(operator.mul, values, side_strides))) & ~(part << offset)
            for i in members:
                adj[i + offset] |= others
    vertices = itertools.product(*(range(s) for s in sizes))
    return ConfusionGraph(tuple(vertices), tuple(adj))


def _zero_block(sizes: list, strides: list, fixed) -> int:
    """Bitset of the tuples that hold 0 at every (0-based) message index in
    ``fixed``."""
    block = 1
    for j, (s, stride) in enumerate(zip(sizes, strides)):
        if j not in fixed:
            block = sum(block << x * stride for x in range(s))  # disjoint shifts
    return block


def _bits(mask: int):
    """The indices of a bitset's set bits, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _projection(messages: frozenset):
    """Key function of a message tuple's values at the given 1-based message
    indices, in increasing index order."""
    if not messages:
        return lambda v: ()
    return operator.itemgetter(*(i - 1 for i in sorted(messages)))


def chromatic_leq(graph: ConfusionGraph, m: int, budget: Optional[int] = None) -> Optional[dict]:
    """Exact decision chi(G) <= m by backtracking; returns a proper coloring
    (vertex tuple -> color < m) when one exists, else None.

    Vertices are tried by descending degree, ties by index; a greedy clique
    is pre-colored and new colors are introduced in increasing order, both
    of which only break color symmetries.  All bitsets below are over
    positions in that order.  A confusion graph is regular, so its order is
    the identity and its adjacency serves as it is; any other graph is
    relabelled first.

    The first descent gives each vertex the first color free for it, and is
    built one color class at a time: class c starts from the uncolored
    vertices that clique vertex c does not block, then takes the lowest one
    and drops its neighbours until none is left.  If a vertex is left with
    no color below m, the search resumes there with the descent as its
    stack and backtracks; each color class is a bitset, so a color is free
    for a vertex when its class meets none of the vertex's neighbours.
    ``budget`` caps the trials (one color assigned to one vertex, the
    descent's included); past it ``BudgetExhausted`` is raised, never a
    negative answer.
    """
    if m < 0:
        raise ValueError("color budget must be >= 0")
    n = graph.n
    if n == 0:
        return {}
    vertices, adj = graph.vertices, graph.adjacency
    degrees = list(map(int.bit_count, adj))
    if min(degrees) != max(degrees):
        order = sorted(range(n), key=lambda i: (-degrees[i], i))
        vertices, adj = [vertices[i] for i in order], _relabel(adj, order)
    clique = []
    candidates = uncolored = (1 << n) - 1
    while candidates:
        low = candidates & -candidates
        p = low.bit_length() - 1
        clique.append(p)
        uncolored ^= low
        candidates ^= low
        candidates &= adj[p]
    if len(clique) > m:
        return None
    color = [-1] * n
    for c, p in enumerate(clique):
        color[p] = c
    c = 0
    while uncolored and c < m:
        free = uncolored & ~adj[clique[c]] if c < len(clique) else uncolored
        while free:
            low = free & -free
            p = low.bit_length() - 1
            color[p] = c
            uncolored ^= low
            free ^= low
            free &= ~adj[p]
        c += 1
    # the descent stops at the first position left uncolored, after one
    # trial per position below it outside the clique
    stop = (uncolored & -uncolored).bit_length() - 1 if uncolored else n
    trials = stop - sum(p < stop for p in clique)
    if budget is not None and trials > budget:
        raise BudgetExhausted()
    if uncolored:
        # a vertex is blocked by all m classes, so m < n here
        in_clique = set(clique)
        rest = [p for p in range(n) if p not in in_clique]
        classes = [0] * m  # per color, the bitset of the positions holding it
        for p, c in enumerate(color):
            if p in in_clique or p < stop:
                classes[c] |= 1 << p
            else:
                color[p] = -1
        # depth-first over rest without recursion, which would nest one call
        # per uncolored vertex: used[idx] counts the colors in use before
        # rest[idx] is colored, and color[rest[idx]] is the last color tried
        # there (-1 before the first), so backtracking resumes with the next
        used = [len(clique)] + [0] * len(rest)
        for idx in range(trials):
            used[idx + 1] = max(used[idx], color[rest[idx]] + 1)
        idx = trials
        while 0 <= idx < len(rest):
            p = rest[idx]
            neighbours = adj[p]
            c = color[p]
            if c >= 0:
                classes[c] &= ~(1 << p)
            top = min(used[idx] + 1, m)
            c += 1
            while c < top and classes[c] & neighbours:
                c += 1
            if c < top:
                if budget is not None and trials >= budget:
                    raise BudgetExhausted()
                trials += 1
                color[p] = c
                classes[c] |= 1 << p
                used[idx + 1] = max(used[idx], c + 1)
                idx += 1
            else:
                color[p] = -1
                idx -= 1
        if idx < 0:
            return None
    return dict(zip(vertices, color))


def _relabel(adj: tuple, order: list) -> list:
    """The adjacency bitsets re-indexed by position in ``order``, built by
    walking each vertex's set bits."""
    position = [0] * len(order)
    for p, i in enumerate(order):
        position[i] = p
    return [sum(1 << position[j] for j in _bits(adj[i])) for i in order]


def solvable_at_k(inst: IndexInstance, k: int, cap: int = 4096,
                  budget: Optional[int] = None) -> tuple:
    """Exact decision at default size k; returns (solvable, f) where f maps
    each message tuple to an output symbol and has been verified by direct
    simulation of every client.  ``budget`` caps ``chromatic_leq``'s trials;
    past it ``BudgetExhausted`` is raised."""
    graph = confusion_graph(inst, k, cap=cap)
    f = chromatic_leq(graph, inst.output_bound(k), budget)
    if f is None:
        return False, None
    # a client decodes when its (symbol, side information) pairs determine
    # its demand: adding the demand makes no pair more distinct
    symbols = list(map(f.__getitem__, graph.vertices))
    for c in inst.clients:
        sides = list(map(_projection(c.has), graph.vertices))
        demands = map(_projection(c.wants), graph.vertices)
        if len(set(zip(symbols, sides))) != len(set(zip(symbols, sides, demands))):
            raise AssertionError("internal error: coloring does not decode")
    return True, f


def brute_force_solvable(inst: IndexInstance, k: int) -> bool:
    """Independent oracle: enumerate every encoding table f outright."""
    sizes = [resolve_size(m, k) for m in inst.messages]
    vertices = list(itertools.product(*(range(s) for s in sizes)))
    m = inst.output_bound(k)
    clients = [(sorted(c.has), sorted(c.wants)) for c in inst.clients if c.wants]
    for values in itertools.product(range(m), repeat=len(vertices)):
        f = dict(zip(vertices, values))
        ok = True
        for has, wants in clients:
            seen: dict = {}
            for v in vertices:
                key = (f[v],) + tuple(v[i - 1] for i in has)
                val = tuple(v[i - 1] for i in wants)
                if seen.setdefault(key, val) != val:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# json format


def instance_from_json(text: str) -> IndexInstance:
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("instance: expected a JSON object")
    for key in ("messages", "a", "b", "clients"):
        if key not in doc:
            raise FormatError(f"instance: missing field {key!r}")
    for key in ("messages", "clients"):
        if not isinstance(doc[key], list):
            raise FormatError(f"{key}: expected a list")
    for key in ("a", "b"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise FormatError(f"{key}: expected an int, got {doc[key]!r}")
    messages = [size_from_json(m, f"messages[{i}]") for i, m in enumerate(doc["messages"])]
    clients = []
    for i, c in enumerate(doc["clients"]):
        if not isinstance(c, dict) or "has" not in c or "wants" not in c:
            raise FormatError(f"clients[{i}]: expected object with 'has' and 'wants'")
        for key in ("has", "wants"):
            if not isinstance(c[key], list) or not all(isinstance(j, int) and not isinstance(j, bool) for j in c[key]):
                raise FormatError(f"clients[{i}].{key}: expected a list of message indices")
        clients.append(Client(frozenset(c["has"]), frozenset(c["wants"])))
    try:
        return IndexInstance(tuple(messages), doc["a"], doc["b"], tuple(clients))
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc
