"""Index coding with partially fixed message sizes, decided exactly at a given
default size k via confusion-graph coloring.

A server broadcasts one symbol X = f(M1..Ml) with |X| <= a * k^b; client j
knows M_{A_j} and must decode M_{B_j} from (X, M_{A_j}).  Two message tuples
*confuse* some client when they agree on the client's side information but
disagree on its demand; valid encodings are exactly the proper colorings of
the confusion graph with at most a * k^b colors.  The graph's adjacency and
the coloring search's color classes are int bitsets over the tuple indices,
and a trial budget turns a search that runs too long into ``BudgetExhausted``.
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
    tested on its own."""
    sizes = [resolve_size(m, k) for m in inst.messages]
    total = 1
    for s in sizes:
        total *= s
    if total > cap:
        raise CapExceeded(f"{total} message tuples exceed cap of {cap}")
    vertices = list(itertools.product(*(range(s) for s in sizes)))
    adj = [0] * len(vertices)
    for c in inst.clients:
        if not c.wants:
            continue
        side, demand = _projection(c.has), _projection(c.wants)
        groups: dict = {}
        for i, v in enumerate(vertices):
            groups.setdefault(side(v), {}).setdefault(demand(v), []).append(i)
        for parts in groups.values():
            masks = [sum(1 << i for i in part) for part in parts.values()]
            members = sum(masks)  # the parts are disjoint
            for part, mask in zip(parts.values(), masks):
                others = members & ~mask
                for i in part:
                    adj[i] |= others
    return ConfusionGraph(tuple(vertices), tuple(adj))


def _projection(messages: frozenset):
    """Key function of a message tuple's values at the given 1-based message
    indices, in increasing index order."""
    if not messages:
        return lambda v: ()
    return operator.itemgetter(*(i - 1 for i in sorted(messages)))


def chromatic_leq(graph: ConfusionGraph, m: int, budget: Optional[int] = None) -> Optional[dict]:
    """Exact decision chi(G) <= m by backtracking; returns a proper coloring
    (vertex tuple -> color < m) when one exists, else None.

    Vertices are tried by descending degree; a greedy clique is pre-colored
    and new colors are introduced in increasing order, both of which only
    break color symmetries.  Each color class is kept as an int bitset, so a
    color is free for a vertex when its class meets none of the vertex's
    neighbours.  ``budget`` caps the trials (one color assigned to one
    vertex); past it ``BudgetExhausted`` is raised, never a negative answer.
    """
    if m < 0:
        raise ValueError("color budget must be >= 0")
    n = graph.n
    if n == 0:
        return {}
    adj = graph.adjacency
    order = sorted(range(n), key=lambda i: (-adj[i].bit_count(), i))
    clique = []
    cmask = 0
    for i in order:
        if cmask & ~adj[i] == 0:
            clique.append(i)
            cmask |= 1 << i
    if len(clique) > m:
        return None
    color = [-1] * n
    classes = [0] * m  # per color, the bitset of the vertices holding it
    for c, i in enumerate(clique):
        color[i] = c
        classes[c] = 1 << i
    rest = [i for i in order if not cmask >> i & 1]
    # depth-first over rest without recursion, which would nest one call per
    # uncolored vertex: used[idx] counts the colors in use before rest[idx]
    # is colored, and color[rest[idx]] is the last color tried there (-1
    # before the first), so backtracking resumes with the next color
    used = [len(clique)] + [0] * len(rest)
    trials = 0
    idx = 0
    while 0 <= idx < len(rest):
        i = rest[idx]
        neighbours = adj[i]
        c = color[i]
        if c >= 0:
            classes[c] &= ~(1 << i)
        top = min(used[idx] + 1, m)
        c += 1
        while c < top and classes[c] & neighbours:
            c += 1
        if c < top:
            if budget is not None and trials >= budget:
                raise BudgetExhausted()
            trials += 1
            color[i] = c
            classes[c] |= 1 << i
            used[idx + 1] = max(used[idx], c + 1)
            idx += 1
        else:
            color[i] = -1
            idx -= 1
    if idx < 0:
        return None
    return {v: color[i] for i, v in enumerate(graph.vertices)}


def solvable_at_k(inst: IndexInstance, k: int, cap: int = 4096,
                  budget: Optional[int] = None) -> tuple:
    """Exact decision at default size k; returns (solvable, f) where f maps
    each message tuple to an output symbol and has been verified by direct
    simulation of every client.  ``budget`` caps ``chromatic_leq``'s trials;
    past it ``BudgetExhausted`` is raised."""
    graph = confusion_graph(inst, k, cap=cap)
    coloring = chromatic_leq(graph, inst.output_bound(k), budget)
    if coloring is None:
        return False, None
    f = dict(coloring)
    for c in inst.clients:
        side, demand = _projection(c.has), _projection(c.wants)
        seen: dict = {}
        for v in graph.vertices:
            key = (f[v], side(v))
            val = demand(v)
            if seen.setdefault(key, val) != val:
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
