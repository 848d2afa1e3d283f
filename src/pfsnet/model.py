"""Network model: directed acyclic multigraphs whose messages and edges carry
either a fixed alphabet size or the shared default size k.

A node may hold source messages (``sources``), demand messages (``demands``),
and may be flagged *broadcast*: a broadcast node has exactly one in-edge and
forwards its input verbatim on every out-edge, so its out-edges carry no
encoding tables of their own.
"""

from __future__ import annotations

import heapq
import itertools
import json
import operator
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional


class FormatError(ValueError):
    """A serialized document could not be parsed into a model object."""


class InvalidNetwork(ValueError):
    """An operation was applied to a network that fails validation."""


# ---------------------------------------------------------------------------
# size specs


@dataclass(frozen=True)
class SizeSpec:
    """Alphabet size: a fixed integer, or None meaning the default size k."""

    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.value is not None and self.value < 1:
            raise ValueError(f"fixed size must be >= 1, got {self.value}")

    @property
    def is_default(self) -> bool:
        return self.value is None

    def resolve(self, k: int) -> int:
        return k if self.value is None else self.value

    def __repr__(self) -> str:
        return "k" if self.value is None else str(self.value)


DEFAULT = SizeSpec(None)


def fixed(n: int) -> SizeSpec:
    return SizeSpec(n)


def resolve_size(spec: SizeSpec, k: int) -> int:
    """Resolve a size spec at default size k (fixed sizes ignore k)."""
    if k < 1:
        raise ValueError(f"default size k must be >= 1, got {k}")
    return spec.resolve(k)


def size_from_json(raw: object, where: str) -> SizeSpec:
    if raw is None:
        return DEFAULT
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise FormatError(f"{where}: size must be int or null, got {raw!r}")
    if raw < 1:
        raise FormatError(f"{where}: size must be >=1 or null(default), got {raw}")
    return SizeSpec(raw)


# ---------------------------------------------------------------------------
# networks


class Edge(NamedTuple):
    """A directed edge; a named tuple, as networks build and read many."""

    id: str
    tail: str
    head: str
    size: SizeSpec


def _freeze_index_map(raw: Mapping[str, Iterable[int]]) -> dict:
    out = {}
    for node, idxs in raw.items():
        s = frozenset(map(int, idxs))
        if s:
            out[node] = s
    return out


@dataclass(frozen=True)
class Network:
    """Immutable network.  Messages are 1-indexed; ``sources[v]``/``demands[v]``
    are sets of message indices.  Parallel edges are allowed (canonicalize
    removes them).
    """

    nodes: tuple
    edges: tuple
    messages: tuple
    sources: Mapping[str, frozenset]
    demands: Mapping[str, frozenset]
    broadcast: frozenset = frozenset()

    _in: dict = field(init=False, repr=False, compare=False)
    _out: dict = field(init=False, repr=False, compare=False)
    _layouts: dict = field(init=False, repr=False, compare=False)  # k -> solver's layout at k

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "sources", _freeze_index_map(self.sources))
        object.__setattr__(self, "demands", _freeze_index_map(self.demands))
        object.__setattr__(self, "broadcast", frozenset(self.broadcast))
        inn: dict = {v: [] for v in self.nodes}
        out: dict = {v: [] for v in self.nodes}
        # one stable sort by id leaves every node's lists sorted by id, edges
        # with one id in their given order
        for e in sorted(self.edges, key=operator.attrgetter("id")):
            if e.head in inn:
                inn[e.head].append(e)
            if e.tail in out:
                out[e.tail].append(e)
        object.__setattr__(self, "_in", inn)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_layouts", {})

    # -- structure queries -------------------------------------------------

    def in_edges(self, v: str) -> list:
        return self._in[v]

    def out_edges(self, v: str) -> list:
        return self._out[v]

    def source_set(self, v: str) -> frozenset:
        return self.sources.get(v, frozenset())

    def demand_set(self, v: str) -> frozenset:
        return self.demands.get(v, frozenset())

    @property
    def n_messages(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


def _make_report(violations: list) -> ValidationReport:
    return ValidationReport(ok=not violations, violations=tuple(violations))


def validate(net: Network) -> ValidationReport:
    """Check structural invariants; returns a report instead of raising."""
    bad: list = []
    nodeset = set(net.nodes)
    edge_ids = [e.id for e in net.edges]
    for rule, ids in (("node-id-duplicate", net.nodes), ("edge-id-duplicate", edge_ids)):
        if len(set(ids)) != len(ids):
            dup = sorted(i for i, n in Counter(ids).items() if n > 1)
            bad.append((rule, ",".join(dup)))
    for e in net.edges:
        if e.tail not in nodeset or e.head not in nodeset:
            bad.append(("endpoint", e.id))
        if e.tail == e.head:
            bad.append(("cycle", e.id))
    l = net.n_messages
    labels = set(range(1, l + 1))
    for label, mapping in (("sources", net.sources), ("demands", net.demands)):
        for v, idxs in mapping.items():
            if v not in nodeset:
                bad.append((f"{label}-node", v))
            if not idxs <= labels:
                bad.extend(("message-index", f"{label}[{v}]={i}") for i in idxs if not 1 <= i <= l)
    if not any(rule == "endpoint" or rule == "cycle" for rule, _ in bad):
        order, indeg = _kahn(net)
        if len(order) != len(nodeset):
            bad.append(("cycle", ",".join(sorted(v for v, d in indeg.items() if d > 0))))
    for v in sorted(net.broadcast):
        if v not in nodeset:
            bad.append(("broadcast-node", v))
            continue
        if len(net.in_edges(v)) != 1 or net.source_set(v) or net.demand_set(v):
            bad.append(("broadcast-shape", v))
        else:
            ein = net.in_edges(v)[0].size.value
            for e in net.out_edges(v):
                if ein is not None and e.size.value is not None and e.size.value < ein:
                    bad.append(("broadcast-capacity", e.id))
    for v, want in net.demands.items():
        if v in nodeset and want and not net.in_edges(v) and not want <= net.source_set(v):
            bad.append(("demand-unfed", v))
    return _make_report(bad)


def _kahn(net: Network) -> tuple:
    """Kahn's topological sort of the (multi-)graph, ties broken by node id:
    the order of the nodes it reaches, and each node's in-degree left over,
    positive exactly at the nodes on or downstream of a cycle.  Every edge
    endpoint must be a node."""
    indeg = {v: 0 for v in net.nodes}
    for e in net.edges:
        indeg[e.head] += 1
    heap = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for e in net.out_edges(v):
            indeg[e.head] -= 1
            if indeg[e.head] == 0:
                heapq.heappush(heap, e.head)
    return order, indeg


def topo_order(net: Network) -> tuple:
    """Deterministic topological order (ties broken by node id)."""
    nodes = set(net.nodes)
    for e in net.edges:
        if e.head not in nodes or e.tail not in nodes:
            raise InvalidNetwork(f"endpoint not declared: {e.id}")
    order, _ = _kahn(net)
    if len(order) != len(nodes):
        raise InvalidNetwork("cycle in edge relation")
    return tuple(order)


# ---------------------------------------------------------------------------
# canonicalize: split parallel edges


def canonicalize(net: Network) -> Network:
    """Return an equivalent simple network: every edge that has a parallel
    twin is split through a broadcast relay of its own.  Solvability at every
    k is preserved."""
    rep = validate(net)
    if not rep.ok:
        raise InvalidNetwork(f"cannot canonicalize invalid network: {rep.violations}")
    nodes = list(net.nodes)
    broadcast = set(net.broadcast)
    groups: dict = {}
    for e in net.edges:
        groups.setdefault((e.tail, e.head), []).append(e)
    edges: list = []
    for e in net.edges:
        if len(groups[(e.tail, e.head)]) == 1:
            edges.append(e)
            continue
        relay = f"{e.id}~relay"
        nodes.append(relay)
        broadcast.add(relay)
        edges.append(Edge(f"{e.id}~in", e.tail, relay, e.size))
        edges.append(Edge(f"{e.id}~out", relay, e.head, e.size))
    return Network(
        nodes=tuple(nodes),
        edges=tuple(edges),
        messages=net.messages,
        sources=net.sources,
        demands=net.demands,
        broadcast=frozenset(broadcast),
    )


# ---------------------------------------------------------------------------
# serialization (json) and graphviz export


def _json_block(items: list, brackets: str, pad: str) -> str:
    """A JSON array or object laid out as ``json.dumps(indent=2)`` does, from
    its items already indented; ``pad`` indents the closing bracket."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]


def _index_map_json(mapping: Mapping[str, frozenset]) -> str:
    return _json_block([
        f"    {_quote(v)}: " + _json_block([f"      {i}" for i in sorted(mapping[v])], "[]", "    ")
        for v in sorted(mapping)
    ], "{}", "  ")


def serialize(net: Network) -> str:
    """Canonical JSON text, stable byte-for-byte for a given network: the
    ASCII text ``json.dumps(doc, indent=2, sort_keys=True)`` would give,
    written directly, with nodes and edges sorted by id."""
    rep = validate(net)
    if not rep.ok:
        raise InvalidNetwork(f"cannot serialize invalid network: {rep.violations}")
    nodes = [
        f'    {{\n      "broadcast": {"true" if v in net.broadcast else "false"},\n'
        f'      "id": {_quote(v)}\n    }}'
        for v in sorted(net.nodes)
    ]
    edges = [
        f'    {{\n      "head": {_quote(e.head)},\n      "id": {_quote(e.id)},\n'
        f'      "size": {"null" if e.size.value is None else e.size.value},\n'
        f'      "tail": {_quote(e.tail)}\n    }}'
        for e in sorted(net.edges, key=lambda e: e.id)
    ]
    messages = [f"    {'null' if m.value is None else m.value}" for m in net.messages]
    return (
        f'{{\n  "demands": {_index_map_json(net.demands)},\n'
        f'  "edges": {_json_block(edges, "[]", "  ")},\n'
        f'  "messages": {_json_block(messages, "[]", "  ")},\n'
        f'  "nodes": {_json_block(nodes, "[]", "  ")},\n'
        f'  "sources": {_index_map_json(net.sources)},\n'
        '  "version": 1\n}\n'
    )


def load_json(text: str) -> object:
    """``json.loads``, with a syntax error raised as FormatError at its place."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc


def _require(doc: Mapping, key: str, where: str = "document") -> object:
    if key not in doc:
        raise FormatError(f"{where}: missing field {key!r}")
    return doc[key]


def _require_list(doc: Mapping, key: str) -> list:
    raw = _require(doc, key)
    if not isinstance(raw, list):
        raise FormatError(f"{key}: expected a list")
    return raw


def _raise_item_fault(where: str, item: object, fields: tuple) -> None:
    """Raise the FormatError for the first faulty field of a node or edge
    object, checking ``fields`` (key, type; None for a size) in order;
    ``deserialize`` calls it only for an item that failed its fast check."""
    if not isinstance(item, dict):
        raise FormatError(f"{where}: expected an object")
    for key, kind in fields:
        raw = _require(item, key, where)
        if kind is None:
            size_from_json(raw, where)
        elif type(raw) is not kind:
            raise FormatError(f"{where}.{key}: expected {'string' if kind is str else 'a boolean'}")
    raise AssertionError(f"{where}: no fault found")


def deserialize(text: str) -> Network:
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("document: expected a JSON object")
    version = _require(doc, "version")
    if type(version) is not int or version != 1:
        raise FormatError(f"version: unsupported {version!r}")
    # one pass per list; a location string is built only for a faulty item
    nodes, broadcast = [], set()
    for nd in _require_list(doc, "nodes"):
        if type(nd) is not dict or type(nd.get("id")) is not str or type(nd.get("broadcast")) is not bool:
            _raise_item_fault(f"nodes[{len(nodes)}]", nd, (("id", str), ("broadcast", bool)))
        nodes.append(nd["id"])
        if nd["broadcast"]:
            broadcast.add(nd["id"])
    sizes = {None: DEFAULT}  # one SizeSpec per distinct size
    edges = []
    for ed in _require_list(doc, "edges"):
        ok = type(ed) is dict and type(ed.get("id")) is str and type(ed.get("tail")) is str and type(ed.get("head")) is str
        raw = ed.get("size", 0) if ok else None
        if not ok or raw is not None and (type(raw) is not int or raw < 1):
            fields = (("id", str), ("tail", str), ("head", str), ("size", None))
            _raise_item_fault(f"edges[{len(edges)}]", ed, fields)
        edges.append(Edge(ed["id"], ed["tail"], ed["head"], sizes.get(raw) or sizes.setdefault(raw, SizeSpec(raw))))
    messages = [size_from_json(m, f"messages[{i}]") for i, m in enumerate(_require_list(doc, "messages"))]
    def load_map(key: str) -> dict:
        raw = _require(doc, key)
        if not isinstance(raw, dict):
            raise FormatError(f"{key}: expected an object")
        # one check over every entry; the faulty list is looked for on failure
        if not {*map(type, raw.values())} <= {list} or not {*map(type, itertools.chain(*raw.values()))} <= {int}:
            for v, idxs in raw.items():
                if type(idxs) is not list or not all(type(i) is int for i in idxs):
                    raise FormatError(f"{key}[{v}]: expected a list of ints")
        return raw
    return Network(
        nodes=tuple(nodes),
        edges=tuple(edges),
        messages=tuple(messages),
        sources=load_map("sources"),
        demands=load_map("demands"),
        broadcast=frozenset(broadcast),
    )


def to_dot(net: Network) -> str:
    """Graphviz text: edge labels show sizes ("k" for default), broadcast
    nodes rendered filled.  Output is deterministic."""
    rep = validate(net)
    if not rep.ok:
        raise InvalidNetwork(f"cannot export invalid network: {rep.violations}")
    lines = ["digraph net {"]
    for v in sorted(net.nodes):
        attrs = []
        if v in net.broadcast:
            attrs.append("style=filled")
            attrs.append("fillcolor=black")
            attrs.append("shape=point")
        src = net.source_set(v)
        dem = net.demand_set(v)
        label = v
        if src:
            label += "\\nA=" + ",".join(str(i) for i in sorted(src))
        if dem:
            label += "\\nB=" + ",".join(str(i) for i in sorted(dem))
        if label != v:
            attrs.append(f'label="{label}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{v}"{suffix};')
    for e in sorted(net.edges, key=lambda e: e.id):
        size = "k" if e.size.is_default else str(e.size.value)
        lines.append(f'  "{e.tail}" -> "{e.head}" [label="{size}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# coding schemes


@dataclass(frozen=True)
class CodingScheme:
    """A default size k plus one encoding table per non-broadcast edge and one
    decoding table per demand node.

    Table domains are row-major over (source messages ascending, in-edges by
    edge id), with the last coordinate varying fastest; ``solver.table_domain``
    is the one definition of that layout.  Broadcast out-edges carry no table:
    they forward their node's input verbatim.
    """

    k: int
    encodings: Mapping[str, tuple]
    decodings: Mapping[str, tuple]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "encodings", {e: tuple(t) for e, t in self.encodings.items()}
        )
        object.__setattr__(
            self,
            "decodings",
            {v: tuple(tuple(row) for row in t) for v, t in self.decodings.items()},
        )


def scheme_to_json_dict(scheme: CodingScheme) -> dict:
    return {
        "k": scheme.k,
        "encodings": {e: list(t) for e, t in sorted(scheme.encodings.items())},
        "decodings": {v: [list(r) for r in t] for v, t in sorted(scheme.decodings.items())},
    }
