"""Checker and gate constructions, composition, and acceptance testing.

A *checker* is a network fragment with typed input ports and no outputs; it is
solvable exactly when the joint distribution of its inputs satisfies a
declared list of information conditions (up to relabelling of each input).  A
*gate* additionally produces output signals that any solution must force to
satisfy the conditions.

Each gadget is defined once, by its fragment-builder calls; the conditions
are read off those calls: a demand node receiving S for targets T states "T
is determined by S", an internal signal is an existential variable (any
function of its inputs into its alphabet), and an output is determined by its
inputs.  Every constructed gadget therefore has two independent acceptance
oracles: solvability of the composed network (``accepted_set``) and a direct
search over the declared conditions (``entropy_accepted_set``); the two must
agree candidate by candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import entropy
from .model import DEFAULT, Edge, Network, SizeSpec, fixed, resolve_size
from .solver import SolveOutcome, Status, _Search


class ComposeError(ValueError):
    """A part or candidate does not fit.  ``index`` is the position in the
    family of the candidate at fault, where an acceptance oracle knows it."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class PortKind(Enum):
    MESSAGE_IN = "message-in"
    SIGNAL_IN = "signal-in"
    SIGNAL_OUT = "signal-out"
    CONDITION_IN = "condition-in"


@dataclass(frozen=True)
class Port:
    name: str
    kind: PortKind
    size: Optional[SizeSpec]  # None: any message tuple may bind


@dataclass(frozen=True)
class ExistentialVar:
    """An internal signal the acceptance test may choose freely: any function
    of ``inputs`` into [0..size)."""

    name: str
    inputs: tuple
    size: int


@dataclass(frozen=True)
class ConditionSpec:
    conditions: tuple
    existentials: tuple = ()


@dataclass(frozen=True)
class Gadget:
    name: str
    ports: tuple
    nodes: tuple  # (node id, broadcast flag)
    edges: tuple  # Edge with fragment-local ids
    node_ports: Mapping[str, tuple]  # node -> message-like port names fed into A
    demand_ports: Mapping[str, tuple]  # node -> demanded message port names
    sig_in: Mapping[str, str]  # SIGNAL_IN port -> distributor node
    sig_out: Mapping[str, tuple]  # SIGNAL_OUT port -> (edge id, distributor node)
    spec: ConditionSpec

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"{self.name}: no port {name!r}")


# ---------------------------------------------------------------------------
# fragment builder


@dataclass(frozen=True)
class _Sig:
    name: str  # variable name in the gadget's conditions
    dist: str
    size: SizeSpec


def _names(inputs: Sequence) -> tuple:
    return tuple(x.name if isinstance(x, _Sig) else x for x in inputs)


class _Builder:
    """Builds a gadget's fragment and, from the same calls, the information
    conditions the fragment enforces: a demand is a ``Determined`` condition,
    an internal signal an existential variable, an output a function of its
    inputs."""

    def __init__(self, name: str):
        self.name = name
        self.ports: list = []
        self.nodes: list = []  # (id, broadcast)
        self.edges: list = []
        self.node_ports: dict = {}
        self.demand_ports: dict = {}
        self.sig_in: dict = {}
        self.sig_out: dict = {}
        self.conditions: list = []
        self.existentials: list = []
        self._n = 0

    def _tag(self) -> str:
        tag = f"{self._n:02d}"
        self._n += 1
        return tag

    def message_in(self, name: str, size) -> str:
        spec = None if size is None else (size if isinstance(size, SizeSpec) else fixed(size))
        self.ports.append(Port(name, PortKind.MESSAGE_IN, spec))
        return name

    def signal_in(self, name: str, size) -> _Sig:
        spec = size if isinstance(size, SizeSpec) else fixed(size)
        self.ports.append(Port(name, PortKind.SIGNAL_IN, spec))
        dist = f"{name}.bc"
        self.nodes.append((dist, True))  # a relay: every composition feeds it
        self.sig_in[name] = dist
        return _Sig(name, dist, spec)

    def _producer(self, label: str, inputs: Sequence, size, out_port: Optional[str]) -> _Sig:
        spec = size if isinstance(size, SizeSpec) else fixed(size)
        tag = self._tag()
        node = f"{tag}.{label}"
        dist = f"{node}.bc"
        eid = f"{tag}.{label}.e"
        self.nodes.append((node, False))
        self.nodes.append((dist, True))
        self.edges.append(Edge(eid, node, dist, spec))
        self._feed(node, inputs)
        if out_port is not None:
            self.ports.append(Port(out_port, PortKind.SIGNAL_OUT, spec))
            self.sig_out[out_port] = (eid, dist)
        return _Sig(label, dist, spec)

    def internal(self, label: str, inputs: Sequence, size: int) -> _Sig:
        self.existentials.append(ExistentialVar(label, _names(inputs), size))
        return self._producer(label, inputs, size, None)

    def output(self, port: str, inputs: Sequence, size) -> _Sig:
        self.conditions.append(entropy.Determined((port,), _names(inputs)))
        return self._producer(port, inputs, size, port)

    def parity(self, label: str, a: str, b: str) -> _Sig:
        """Internal binary signal of binary messages a and b that must, with
        either message, determine the other: the parity of a and b up to
        relabelling."""
        y = self.internal(label, [a, b], 2)
        self.demand("xd1", [a], [y, b])
        self.demand("xd2", [b], [y, a])
        return y

    def demand(self, label: str, targets: Sequence[str], given: Sequence) -> None:
        self.conditions.append(entropy.Determined(tuple(targets), _names(given)))
        tag = self._tag()
        node = f"{tag}.{label}"
        self.nodes.append((node, False))
        self.demand_ports[node] = tuple(targets)
        self._feed(node, given)

    def _feed(self, node: str, inputs: Sequence) -> None:
        for x in inputs:
            if isinstance(x, _Sig):
                eid = f"{self._tag()}.{x.dist}>{node}"
                self.edges.append(Edge(eid, x.dist, node, x.size))
            else:
                self.node_ports.setdefault(node, [])
                if x not in self.node_ports[node]:
                    self.node_ports[node].append(x)

    def build(self) -> Gadget:
        return Gadget(
            name=self.name,
            ports=tuple(self.ports),
            nodes=tuple(self.nodes),
            edges=tuple(self.edges),
            node_ports={v: tuple(names) for v, names in self.node_ports.items()},
            demand_ports=dict(self.demand_ports),
            sig_in=dict(self.sig_in),
            sig_out=dict(self.sig_out),
            spec=ConditionSpec(tuple(self.conditions), tuple(self.existentials)),
        )


# ---------------------------------------------------------------------------
# constructors


def _xor(gate: bool) -> Gadget:
    b = _Builder("xor_gate" if gate else "xor_checker")
    b.message_in("M1", 2)
    b.message_in("M2", 2)
    y = b.output("Y", ["M1", "M2"], 2) if gate else b.signal_in("Y", 2)
    b.demand("d1", ["M1"], [y, "M2"])
    b.demand("d2", ["M2"], [y, "M1"])
    return b.build()


def xor_checker() -> Gadget:
    """Inputs M1, M2 (binary messages) and a binary signal Y; accepts exactly
    when Y is the parity of M1, M2 up to relabelling."""
    return _xor(gate=False)


def xor_gate() -> Gadget:
    """Produces a binary output forced to be the parity of its two binary
    message inputs, up to relabelling (the butterfly network)."""
    return _xor(gate=True)


def _bstate(b: int, name: str, gate: bool) -> Gadget:
    bd = _Builder(name)
    bd.message_in("X", 2)
    bd.message_in("Y", b)
    z = bd.output("Z", ["X", "Y"], b + 1) if gate else bd.signal_in("Z", b + 1)
    internals = [bd.internal(f"Z{i}", ["X", "Y"], b + 1) for i in range(2, b + 1)]
    bd.demand("dy1", ["Y"], [z])
    for i, sig in enumerate(internals, start=2):
        bd.demand(f"dy{i}", ["Y"], [sig])
    bd.demand("dx", ["X"], [z] + internals)
    return bd.build()


def tristate_checker() -> Gadget:
    """Binary messages X, Y and a 3-valued signal Z; accepts exactly the
    tristate-buffer behaviours: Z pins one Y-branch to a constant and passes X
    through on the other, up to relabelling (``bstate_checker`` with b=2)."""
    return _bstate(2, "tristate_checker", gate=False)


def tristate_gate() -> Gadget:
    return _bstate(2, "tristate_gate", gate=True)


def bstate_checker(b: int) -> Gadget:
    """Buffer with b+1 states: message X binary, message Y of size b, signal Z
    of size b+1.  Z and b-1 internal signals must each determine Y, and
    jointly determine X."""
    if b < 2:
        raise ValueError(f"bstate arity must be >= 2, got {b}")
    return _bstate(b, f"bstate{b}_checker", gate=False)


def switch_gate() -> Gadget:
    """Two binary message inputs and two binary outputs that any solution
    forces to be the two inputs in one of the two orders (a crossbar switch),
    up to flipping either output."""
    b = _Builder("switch_gate")
    b.message_in("M0", 2)
    b.message_in("M1", 2)
    y = b.parity("XY", "M0", "M1")
    z0 = b.output("Z0", ["M0", "M1"], 2)
    z1 = b.output("Z1", ["M0", "M1"], 2)
    b.demand("dzz", ["M0", "M1"], [z0, z1])
    b.demand("dz0", ["M0", "M1"], [z0, y])
    b.demand("dz1", ["M0", "M1"], [z1, y])
    return b.build()


def _theta_free_cover(n: int, theta: set) -> list:
    """Cubes ``{coordinate: bit}`` that each contain no pattern of ``theta``
    and together cover every other n-bit pattern, computed without
    enumerating the 2^n points: split on the coordinates in order, emitting a
    prefix once no theta pattern agrees with it; then widen each cube by
    dropping, in ascending order, every fixed coordinate whose removal keeps
    it theta-free; then drop duplicates (first occurrence kept).  Patterns
    and cubes are ints with bit i for coordinate i; a cube is ``(mask,
    value)`` over its fixed coordinates, and pattern t lies in it when
    ``t & mask == value``.

    Dropping a coordinate only removes disagreements, and the coordinates
    above the one being dropped are all still fixed.  So a pattern can only
    force the highest coordinate it disagrees on to stay fixed, and it does
    exactly when the widening has dropped every lower coordinate it
    disagrees on: one pass over the disagreement masks in ascending order
    gives the kept mask."""
    thetas = [sum(a << i for i, a in enumerate(t)) for t in sorted(theta)]
    cubes = []
    stack = [(0, 0, thetas)]  # (mask, value) of a prefix, theta patterns in it
    while stack:
        mask, value, agree = stack.pop()
        if not agree:
            cubes.append((mask, value))
        elif mask.bit_length() < n:
            bit = mask + 1  # a prefix fixes coordinates 0..i-1, so bit is 1 << i
            # 0 is popped first: prefixes in lexicographic order
            stack.append((mask | bit, value | bit, [t for t in agree if t & bit]))
            stack.append((mask | bit, value, [t for t in agree if not t & bit]))
    out, seen = [], set()
    for mask, value in cubes:
        kept = 0
        for d in sorted((t ^ value) & mask for t in thetas):
            if not d & kept:
                kept |= 1 << d.bit_length() - 1
        mask, value = kept, value & kept
        if (mask, value) not in seen:
            seen.add((mask, value))
            out.append({i: value >> i & 1 for i in range(n) if mask >> i & 1})
    return out


def set_checker(n: int, theta: Iterable[tuple]) -> Gadget:
    """Checker over the outputs of n switches sharing inputs (M0, M1).  Each
    cube of ``_theta_free_cover(n, theta)`` fixes some switches' bits; for each
    cube it demands M1 from the output picks ``Z{i}_{bit}`` of the switches it
    fixes, which is impossible exactly when the switch states lie in that
    cube.  The cubes miss ``theta`` and cover the rest, so the accepted state
    vectors are exactly ``theta``.  A demand's label is ``ex`` followed by one
    character per switch: its bit, or ``-`` for a switch the cube leaves
    free."""
    patterns = [tuple(t) for t in theta]
    if not patterns:
        raise ValueError("theta must be nonempty: an empty set checker is unsatisfiable by construction")
    # a bool, float or string entry is refused, not read as the bit it equals
    if any(len(t) != n or any(type(x) is not int or x not in (0, 1) for x in t) for t in patterns):
        raise ValueError("theta patterns must be n-bit vectors")
    allowed = set(patterns)
    b = _Builder(f"set{n}_checker")
    b.message_in("M1", 2)
    sigs = {}
    for i in range(1, n + 1):
        for a in (0, 1):
            sigs[(i, a)] = b.signal_in(f"Z{i}_{a}", 2)
    for cube in _theta_free_cover(n, allowed):
        label = ["-"] * n
        for i, a in cube.items():
            label[i] = str(a)
        picks = [sigs[(i + 1, cube[i])] for i in sorted(cube)]
        b.demand("ex" + "".join(label), ["M1"], picks)
    return b.build()


def cycles_gate() -> Gadget:
    """From a default-size message X1 and a binary message U, outputs a
    default-size signal X2 forced to be pi_U(X1) for two permutations that
    disagree at every point (so the support graph is a union of cycles)."""
    b = _Builder("cycles_gate")
    b.message_in("X1", DEFAULT)
    b.message_in("U", 2)
    x2 = b.output("X2", ["X1", "U"], DEFAULT)
    b.demand("du", ["U"], [x2, "X1"])
    b.demand("dx1", ["X1"], [x2, "U"])
    return b.build()


def _virtual_equality(select: str, size) -> Gadget:
    b = _Builder("virtual_equality_checker")
    b.message_in("M0", 2)
    b.message_in("M1", 2)
    b.message_in(select, size)
    z0 = b.signal_in("Z0", 2)
    y = b.parity("XY", "M0", "M1")
    g = b.internal("G", [z0, select], 2)
    b.demand("deq", ["M0", "M1"], [g, y])
    return b.build()


def virtual_equality_checker() -> Gadget:
    """Attached to a conditional switch output Z0 with select signal W, accepts
    exactly the state families that are constant in W (theta_1 = ... = theta_b)."""
    return _virtual_equality("W", None)


def cond_virtual_equality_checker(b1: int, b2: int) -> Gadget:
    """Select signal (W1, W2), conditioned on W1: accepts exactly when, for
    every value of W1, the states theta_{w1, 1..b2} are constant."""
    if b1 < 1 or b2 < 1:
        raise ValueError("select alphabet sizes must be >= 1")
    return conditionalize(_virtual_equality("W2", b2), b1, port="W1")


def _virtual_or(arity: int, select: str, size) -> Gadget:
    if arity < 2:
        raise ValueError(f"or arity must be >= 2, got {arity}")
    b = _Builder(f"virtual_or{arity}_checker")
    b.message_in("M1", 2)
    b.message_in(select, size)
    z0 = b.signal_in("Z0", 2)
    g = b.internal("G", [z0, select], arity + 1)
    internals = [b.internal(f"Z{i}", ["M1", select], arity + 1) for i in range(2, arity + 1)]
    b.demand("dw1", [select], [g])
    for i, sig in enumerate(internals, start=2):
        b.demand(f"dw{i}", [select], [sig])
    b.demand("dm1", ["M1"], [g] + internals)
    return b.build()


def virtual_or_checker(b: int, sized: bool = True) -> Gadget:
    """Attached to a conditional switch output Z0 with message select W of size
    b, accepts exactly when (theta_1, ..., theta_b) is not all-zero.  The
    select must bind to messages: its values are demanded by the buffer
    construction.  With ``sized`` False the select takes any size, as when a
    reduction binds it to a slice of its select signal."""
    return _virtual_or(b, "W", b if sized else None)


def cond_virtual_or_checker(b1: int, b2: int) -> Gadget:
    """Select signal (W1, W2), conditioned on W1: accepts exactly when for
    every value of W1 the row theta_{w1, 1..b2} is not all-zero.  Uses the
    (b2+1)-state buffer."""
    if b1 < 1:
        raise ValueError("condition alphabet must be >= 1")
    return conditionalize(_virtual_or(b2, "W2", b2), b1, port="W1")


def conditionalize(gadget: Gadget, w_alphabet: Optional[int], port: str = "W") -> Gadget:
    """Conditional version of a gadget: a condition signal W is delivered to
    every non-broadcast node, and the declared conditions must hold on every
    slice W = w.  With w_alphabet None the port binds to any message tuple;
    with w_alphabet 1 the gadget is equivalent to the original."""
    if any(p.name == port for p in gadget.ports):
        raise ComposeError(f"{gadget.name}: port {port!r} already exists")
    size = None if w_alphabet is None else fixed(w_alphabet)

    # on a support, "T is determined by G on every slice W = w" is "T is
    # determined by (G, W)": W joins what every condition and existential sees
    def plus(names: tuple) -> tuple:
        return names if port in names else names + (port,)

    spec = gadget.spec
    return replace(
        gadget,
        name=f"cond_{gadget.name}",
        ports=gadget.ports + (Port(port, PortKind.CONDITION_IN, size),),
        spec=ConditionSpec(
            tuple(entropy.Determined(c.targets, plus(c.given)) for c in spec.conditions),
            tuple(replace(e, inputs=plus(e.inputs)) for e in spec.existentials),
        ),
    )


def cond_switch_gate(w_alphabet: int) -> Gadget:
    return conditionalize(switch_gate(), w_alphabet)


def cond_set_checker(n: int, theta: Iterable[tuple], w_alphabet: int) -> Gadget:
    return conditionalize(set_checker(n, theta), w_alphabet)


def cond_xor_checker(w_alphabet: int) -> Gadget:
    return conditionalize(xor_checker(), w_alphabet)


# ---------------------------------------------------------------------------
# composition


@dataclass(frozen=True)
class Out:
    """Reference to a SIGNAL_OUT port of another part in a composition."""

    part: str
    port: str


@dataclass(frozen=True)
class CandidateFunction:
    """A concrete function to test against a checker or to pin a gate output:
    a total table over the named message inputs."""

    output: str
    inputs: tuple  # message labels, table key order
    table: Mapping[tuple, int]
    size: int
    input_sizes: tuple = ()  # SizeSpecs for labels not already messages

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "table", dict(self.table))
        object.__setattr__(
            self,
            "input_sizes",
            tuple(s if isinstance(s, SizeSpec) else fixed(s) for s in self.input_sizes)
            or tuple(None for _ in self.inputs),
        )


Binding = Union[str, tuple, Out, CandidateFunction]


def _table_keys(where: str, cf: CandidateFunction, size: int, in_sizes: Mapping[str, int]) -> list:
    """Check that ``cf`` has exactly the labels of ``in_sizes`` (label ->
    alphabet size) as inputs and ``size`` as its size, and return the keys of
    ``cf.table`` row-major over those labels in mapping order, the last
    varying fastest, each in the candidate's input order.  The keys depend on
    a candidate only through its inputs, so they serve every candidate of its
    shape."""
    if set(cf.inputs) != set(in_sizes):
        raise ComposeError(
            f"{where}: candidate inputs {sorted(cf.inputs)} != required domain {sorted(in_sizes)}"
        )
    if cf.size != size:
        raise ComposeError(f"{where}: candidate size {cf.size} != port size {size}")
    keys = itertools.product(*(range(n) for n in in_sizes.values()))
    if cf.inputs != tuple(in_sizes):
        pos = [list(in_sizes).index(lb) for lb in cf.inputs]
        keys = (tuple(combo[i] for i in pos) for combo in keys)
    return list(keys)


def _candidate_values(where: str, cf: CandidateFunction, size: int, keys: Sequence[tuple]) -> tuple:
    """The values of ``cf`` at ``keys`` (``_table_keys`` of its shape), each
    checked to be an int in [0..size) (a bool or float is refused, not read
    as the int it equals); a missing, non-int or out-of-range entry raises
    for the first one in key order.  Both acceptance oracles check every
    candidate here."""
    try:
        values = tuple(map(cf.table.__getitem__, keys))
        if {int}.issuperset(map(type, values)) and set(values).issubset(range(size)):
            return values
    except (KeyError, TypeError):
        pass
    values = []
    for key in keys:
        try:
            val = cf.table[key]
        except KeyError:
            raise ComposeError(f"{where}: candidate table missing entry {key}")
        if type(val) is not int:
            raise ComposeError(f"{where}: candidate value {val!r} at {key} is not an int")
        if not 0 <= val < size:
            raise ComposeError(f"{where}: candidate value {val} out of range [0,{size})")
        values.append(val)
    return tuple(values)


def _output_domain(where: str, g: Gadget, port: str) -> list:
    """The ports a candidate pinning output ``port`` must be a function of:
    the message ports feeding its producer, then the condition ports."""
    eid, _ = g.sig_out[port]
    producer = next(e.tail for e in g.edges if e.id == eid)
    if any(e.head == producer for e in g.edges):
        raise ComposeError(f"{where}: cannot pin an output fed by signals")
    domain = list(g.node_ports.get(producer, ()))
    for p in g.ports:
        if p.kind is PortKind.CONDITION_IN and p.name not in domain:
            domain.append(p.name)
    return domain


@dataclass(frozen=True)
class Composition:
    net: Network
    pins: Mapping[str, tuple]
    message_index: Mapping[str, int]
    out_edges: Mapping[tuple, str]  # (part, port) -> edge id in net
    # pinned edge id -> (port, where, size, table keys) its candidate was
    # read with by ``_candidate_values``, in the order the pins were made
    pin_domains: Mapping[str, tuple] = field(default_factory=dict)


def _as_label_tuple(binding: Binding) -> Optional[tuple]:
    if isinstance(binding, str):
        return (binding,)
    if isinstance(binding, tuple) and all(isinstance(x, str) for x in binding):
        return binding
    return None


class _Composer:
    def __init__(self, messages: Mapping[str, object], k: Optional[int]):
        self.k = k
        self.specs: dict = {}  # label -> size, in message-index order
        self.indices: dict = {}  # label -> 1-based message index
        for label, size in messages.items():
            self._add_message(label, size)
        self.nodes: list = []
        self.broadcast: set = set()
        self.edges: list = []
        self.sources: dict = {}
        self.demands: dict = {}
        self.pins: dict = {}
        self.pin_domains: dict = {}
        self.out_edges: dict = {}
        self.out_dists: dict = {}  # (part, port) -> (distributor node, size)

    def _add_message(self, label: str, size) -> None:
        spec = size if isinstance(size, SizeSpec) else (DEFAULT if size is None else fixed(size))
        if label in self.specs:
            if self.specs[label] != spec:
                raise ComposeError(f"message {label!r} bound with conflicting sizes")
            return
        self.specs[label] = spec
        self.indices[label] = len(self.indices) + 1

    def index(self, label: str) -> int:
        return self.indices[label]

    def _check_message_port(self, part: str, port: Port, labels: tuple) -> None:
        if not labels:
            raise ComposeError(f"{part}.{port.name}: empty message binding")
        for lb in labels:
            if lb not in self.specs:
                raise ComposeError(f"{part}.{port.name}: unknown message {lb!r}")
        if port.size is None:
            return
        specs = [self.specs[lb] for lb in labels]
        if port.size.is_default:
            if len(labels) != 1 or not specs[0].is_default:
                raise ComposeError(f"{part}.{port.name}: expects one default-size message")
            return
        if any(s.is_default for s in specs):
            raise ComposeError(f"{part}.{port.name}: fixed-size port bound to default-size message")
        prod = 1
        for s in specs:
            prod *= s.value
        if prod != port.size.value:
            raise ComposeError(
                f"{part}.{port.name}: bound alphabet {prod} != port size {port.size.value}"
            )

    def _pin(self, eid: str, part: str, port: str, cf: CandidateFunction, spec: SizeSpec,
             domain_labels: Sequence[str]) -> None:
        """Pin edge ``eid`` to ``cf``: a row-major table over domain_labels
        sorted by message index."""
        order = sorted(domain_labels, key=self.index)
        where = f"{part}.{port}"
        if self.k is None:
            size = spec.value
            in_sizes = {lb: self.specs[lb].value for lb in order}
            if size is None or None in in_sizes.values():
                raise ComposeError(f"{where}: candidate over default-size alphabet needs k")
        else:
            size = resolve_size(spec, self.k)
            in_sizes = {lb: resolve_size(self.specs[lb], self.k) for lb in order}
        keys = _table_keys(where, cf, size, in_sizes)
        self.pin_domains[eid] = (port, where, size, keys)
        self.pins[eid] = _candidate_values(where, cf, size, keys)

    def add_part(self, part: str, g: Gadget, bindings: Mapping[str, Binding]) -> None:
        known = {p.name for p in g.ports}
        for name in bindings:
            if name not in known:
                raise ComposeError(f"{part}: no port {name!r} on {g.name}")
        # candidate fresh inputs first so message indices exist
        for p in g.ports:
            cf = bindings.get(p.name)
            if isinstance(cf, CandidateFunction):
                for lb, sz in zip(cf.inputs, cf.input_sizes):
                    if lb not in self.specs:
                        if sz is None:
                            raise ComposeError(f"{part}.{p.name}: candidate input {lb!r} has no size")
                        self._add_message(lb, sz)
        prefix = f"{part}/"
        inject: dict = {}
        feeds: list = []
        for p in g.ports:
            binding = bindings.get(p.name)
            labels = _as_label_tuple(binding) if binding is not None else None
            if p.kind is PortKind.MESSAGE_IN:
                if labels is None:
                    raise ComposeError(f"{part}.{p.name}: message port must bind to message labels")
                self._check_message_port(part, p, labels)
                inject[p.name] = labels
            elif p.kind is PortKind.SIGNAL_IN:
                dist = g.sig_in[p.name]
                if labels is not None:
                    self._check_message_port(part, replace(p, size=None), labels)
                    feeds.append((p, dist, labels, None))
                elif isinstance(binding, Out):
                    feeds.append((p, dist, binding, None))
                elif isinstance(binding, CandidateFunction):
                    feeds.append((p, dist, None, binding))
                else:
                    raise ComposeError(f"{part}.{p.name}: signal port must bind to a signal, candidate, or messages")
            elif p.kind is PortKind.SIGNAL_OUT:
                if binding is not None and not isinstance(binding, CandidateFunction):
                    raise ComposeError(f"{part}.{p.name}: outputs may only be pinned with a candidate")
            elif p.kind is PortKind.CONDITION_IN:
                if binding is None:
                    zero = f"{part}.{p.name}.zero"
                    self._add_message(zero, fixed(1))
                    inject[p.name] = (zero,)
                else:
                    comps = binding if isinstance(binding, tuple) else (binding,)
                    for comp in comps:
                        if isinstance(comp, str) and comp not in self.specs:
                            raise ComposeError(f"{part}.{p.name}: unknown message {comp!r}")
                    inject[p.name] = comps  # labels and Out refs, resolved below
        # instantiate fragment nodes/edges
        for v, bc in g.nodes:
            self.nodes.append(prefix + v)
            if bc:
                self.broadcast.add(prefix + v)
        for e in g.edges:
            self.edges.append(Edge(prefix + e.id, prefix + e.tail, prefix + e.head, e.size))
        for v, names in g.node_ports.items():
            for name in names:
                labels = inject.get(name)
                if labels is None:
                    raise ComposeError(f"{part}.{name}: unbound message port")
                self.sources.setdefault(prefix + v, set()).update(self.index(lb) for lb in labels)
        for v, targets in g.demand_ports.items():
            want = set()
            for name in targets:
                for lb in inject[name]:
                    want.add(self.index(lb))
            self.demands.setdefault(prefix + v, set()).update(want)
        # feed bound signal inputs
        for p, dist, ref, cf in feeds:
            head = prefix + dist
            if isinstance(ref, Out):
                src_dist, spec = self._output(f"{part}.{p.name}", ref)
                if p.size is not None and spec != p.size:
                    raise ComposeError(
                        f"{part}.{p.name}: size {p.size} != bound signal size {spec}"
                    )
                self.edges.append(Edge(f"{part}/{p.name}.feed", src_dist, head, spec))
            elif ref is not None:  # message labels routed through a source node
                node = f"{part}/{p.name}.src"
                self.nodes.append(node)
                self.sources[node] = {self.index(lb) for lb in ref}
                self.edges.append(Edge(f"{part}/{p.name}.src.e", node, head, p.size))
            else:
                node = f"{part}/{p.name}.cand"
                self.nodes.append(node)
                self.sources[node] = {self.index(lb) for lb in cf.inputs}
                eid = f"{part}/{p.name}.cand.e"
                self.edges.append(Edge(eid, node, head, p.size))
                self._pin(eid, part, p.name, cf, p.size, cf.inputs)
        # register outputs, pin them if asked
        cond_ports = [p.name for p in g.ports if p.kind is PortKind.CONDITION_IN]
        by_id = {e.id: e for e in g.edges}
        for name, (eid, dist) in g.sig_out.items():
            edge = by_id[eid]
            self.out_edges[(part, name)] = prefix + eid
            self.out_dists[(part, name)] = (prefix + dist, edge.size)
            cf = bindings.get(name)
            if isinstance(cf, CandidateFunction):
                domain = []
                for pn in _output_domain(f"{part}.{name}", g, name):
                    for comp in inject[pn]:
                        if not isinstance(comp, str):
                            raise ComposeError(
                                f"{part}.{name}: cannot pin an output conditioned on signals"
                            )
                        if comp not in domain:
                            domain.append(comp)
                self._pin(prefix + eid, part, name, cf, edge.size, domain)
        # condition wiring: deliver to every producer/demand node of the part,
        # its non-broadcast nodes
        targets = [v for v, bc in g.nodes if not bc]
        for wp in cond_ports:
            indices, outputs = set(), []
            for i, comp in enumerate(inject[wp]):
                if isinstance(comp, str):
                    indices.add(self.index(comp))
                elif isinstance(comp, Out):
                    outputs.append((i, *self._output(f"{part}.{wp}", comp)))
                else:
                    raise ComposeError(f"{part}.{wp}: condition components must be messages or outputs")
            for v in targets:
                node = prefix + v
                if indices:
                    self.sources.setdefault(node, set()).update(indices)
                for i, src_dist, spec in outputs:
                    self.edges.append(Edge(f"{part}/{wp}{i}>{v}", src_dist, node, spec))

    def _output(self, where: str, ref: Out) -> tuple:
        try:
            return self.out_dists[(ref.part, ref.port)]
        except KeyError:
            raise ComposeError(f"{where}: unknown output {ref.part}.{ref.port}") from None

    def build(self) -> Composition:
        net = Network(
            nodes=tuple(self.nodes),
            edges=tuple(self.edges),
            messages=tuple(self.specs.values()),
            sources=self.sources,
            demands=self.demands,
            broadcast=frozenset(self.broadcast),
        )
        return Composition(
            net=net,
            pins=dict(self.pins),
            message_index=dict(self.indices),
            out_edges=dict(self.out_edges),
            pin_domains=dict(self.pin_domains),
        )


def compose(
    parts: Sequence[tuple],
    messages: Mapping[str, object],
    k: Optional[int] = None,
) -> Composition:
    """Wire gadgets into a single network.

    ``parts`` is a sequence of (instance name, gadget, bindings); bindings map
    port names to message labels (or tuples of labels), ``Out`` references to
    other parts' outputs, or ``CandidateFunction`` pins.  ``messages`` declares
    the shared messages (label -> size, None for default-size).  ``k`` is only
    needed to materialize candidate tables over default-size alphabets.
    """
    comp = _Composer(messages, k)
    seen = set()
    for name, gadget, bindings in parts:
        if name in seen:
            raise ComposeError(f"duplicate part name {name!r}")
        seen.add(name)
        comp.add_part(name, gadget, bindings)
    return comp.build()


# ---------------------------------------------------------------------------
# acceptance oracles


def _normalize_family(gadget: Gadget, family: Sequence) -> list:
    pinned_ports = [
        p.name
        for p in gadget.ports
        if p.kind in (PortKind.SIGNAL_IN, PortKind.SIGNAL_OUT)
    ]
    expected = set(pinned_ports)
    out = []
    for index, entry in enumerate(family):
        entry = {entry.output: entry} if isinstance(entry, CandidateFunction) else dict(entry)
        if entry.keys() != expected:
            missing = [p for p in pinned_ports if p not in entry]
            if missing:
                raise ComposeError(f"candidate entry missing tables for ports {missing}", index)
            raise ComposeError(f"{gadget.name}: candidate entry names no signal port: "
                               f"{sorted(entry.keys() - expected)}", index)
        out.append(entry)
    return out


def _port_size(gadget: Gadget, p: Port, sizes: Mapping) -> SizeSpec:
    if p.name in sizes:
        s = sizes[p.name]
        return s if isinstance(s, SizeSpec) else fixed(s)
    if p.size is None:
        raise ValueError(f"{gadget.name}.{p.name}: port has no size; pass sizes={{...}}")
    return p.size


def _embedding(gadget: Gadget, entry: Mapping[str, CandidateFunction], k: Optional[int],
               sizes: Mapping) -> Composition:
    """The gadget as a standalone network, one part named after the gadget:
    each candidate of ``entry`` pins its port, and every other port except
    the outputs binds to a message of its own name (``sizes`` sizes the
    unsized ones)."""
    messages: dict = {}
    bindings: dict = dict(entry)
    for p in gadget.ports:
        if p.kind is not PortKind.SIGNAL_OUT and p.name not in entry:
            messages[p.name] = _port_size(gadget, p, sizes)
            bindings[p.name] = (p.name,)
    return compose([(gadget.name, gadget, bindings)], messages, k=k)


def _shape(entry: Mapping[str, CandidateFunction]) -> tuple:
    """What both oracles build once per candidate: for each pinned port, the
    candidate's inputs in order, their sizes and its output size."""
    return tuple([(port, cf.inputs, cf.input_sizes, cf.size) for port, cf in sorted(entry.items())])


def _verdicts(entries: Sequence[Mapping[str, CandidateFunction]], setup) -> Iterator:
    """For each entry in order, an acceptance oracle's verdict on it.  The
    oracle's setup depends on a candidate only through its shape
    (``_shape``): ``setup(first)`` builds it from the shape's first candidate
    and returns the check that every candidate of the shape is run through.
    A check reads each candidate with the table keys its shape was checked
    against, so one that does not fit raises the ``ComposeError`` a fresh
    setup would, here given the entry's position as ``index``."""
    checks: dict = {}  # shape -> check
    for index, entry in enumerate(entries):
        try:
            shape = _shape(entry)
            if shape not in checks:
                checks[shape] = setup(entry)
            verdict = checks[shape](entry)
        except ComposeError as exc:
            exc.index = index
            raise
        yield verdict


class _PinnedSearch:
    """The network oracle's check for the shape of ``first``: its embedding,
    one search setup (see ``solver._Search``) and a trie of the cores of the
    refutations so far.  Calling it on a candidate (checked first by
    ``_candidate_values``) gives the status and the scheme of ``solve_at_k``
    on the candidate's embedding with its pins.  A candidate whose pin
    tables repeat a stored core's values is refuted without a run, with
    ``searched`` 0 and that core; any other is one run of the search, with
    the fresh solve's ``searched`` count and verified witness, and its core,
    if it is refuted, joins the trie.  An empty core refutes every later
    candidate.  ``runs`` counts the candidates searched."""

    def __init__(self, gadget: Gadget, first: Mapping[str, CandidateFunction], k: int, sizes: Mapping):
        comp = _embedding(gadget, first, k, sizes)
        self.pin_domains = comp.pin_domains
        self.search = _Search(comp.net, k, comp.pins)
        # (edge id, table index) -> value -> node; None -> the outcome of a
        # candidate that the core ending there refutes
        self.cores: dict = {}
        self.runs = 0

    def _covering(self, pins: Mapping[str, tuple]) -> Optional[SolveOutcome]:
        """The outcome of a stored core whose values ``pins`` repeat, or None."""
        stack = [self.cores]
        while stack:
            for entry, branches in stack.pop().items():
                if entry is None:
                    return branches
                node = branches.get(pins[entry[0]][entry[1]])
                if node is not None:
                    stack.append(node)
        return None

    def __call__(self, entry: Mapping[str, CandidateFunction]) -> SolveOutcome:
        pins = {eid: _candidate_values(where, entry[port], size, keys)
                for eid, (port, where, size, keys) in self.pin_domains.items()}
        refuted = self._covering(pins)
        if refuted is not None:
            return refuted
        self.runs += 1
        outcome = self.search.decide(pins, None)
        if outcome.core is not None:
            node = self.cores
            for eid, d in outcome.core:
                node = node.setdefault((eid, d), {}).setdefault(pins[eid][d], {})
            node[None] = SolveOutcome(Status.UNSOLVABLE_AT_K, None, 0, outcome.cut, outcome.core)
        return outcome


def accepted_set(gadget: Gadget, family: Sequence, k: int,
                 sizes: Optional[Mapping] = None) -> list:
    """Candidates accepted by the network oracle: each candidate is pinned
    into an embedding network (checker internals left free) and kept iff the
    network is solvable at k.  ``sizes`` instantiates unsized ports.  The
    embedding and the search setup are built once per candidate shape; each
    candidate is one run of the search, unless the core of an earlier
    refutation of its shape already refutes it (see ``_PinnedSearch``)."""
    entries = _normalize_family(gadget, family)
    outcomes = _verdicts(entries, lambda first: _PinnedSearch(gadget, first, k, sizes or {}))
    return [entry for entry, outcome in zip(entries, outcomes) if outcome.solvable]


def entropy_accepted_set(gadget: Gadget, family: Sequence, k: int,
                         sizes: Optional[Mapping] = None) -> list:
    """Candidates accepted by the declared information conditions, on the
    exact joint support of messages and candidate outputs (a conditional
    gadget's conditions already name its condition ports).  The support is
    laid out once per candidate shape, as the network oracle's setup is
    built (see ``_SupportLayout``); each candidate adds one column per pinned
    port.  The conditions that name no existential are decided on the
    columns; the rest by a search over the existentials' table entries (see
    ``_entry_tables``), on each part of a split of the rows by condition
    value.  A candidate that does not fit its port raises ``ComposeError``
    with the entry's position as ``index``, as in ``accepted_set``."""
    entries = _normalize_family(gadget, family)
    verdicts = _verdicts(entries, lambda first: _SupportLayout(gadget, first, k, sizes or {}).holds)
    return list(itertools.compress(entries, verdicts))


class _SupportLayout:
    """The joint support of one candidate shape, stored as columns.

    The variables are the message and condition ports, then the candidates'
    other inputs; the rows are the product of their alphabets, the last
    varying fastest.  Each pinned port (sorted by name) has its candidates'
    table keys and a row -> table index map, so a candidate's column is one
    lookup per row.
    Conditions are column lists: ``ready`` ones read only variables and
    ports, ``pending`` ones also existentials (see ``_entry_tables``).
    ``groups`` splits the rows by their values on the variables that every
    pending condition is given and every existential reads (a conditional
    gadget's condition ports): rows of two groups share no entry and meet in
    no check, so each group is searched on its own (Freuder 1982)."""

    def __init__(self, gadget: Gadget, entry: Mapping[str, CandidateFunction], k: int,
                 sizes: Mapping):
        variables: dict = {}  # name -> alphabet size
        for p in gadget.ports:
            if p.kind in (PortKind.MESSAGE_IN, PortKind.CONDITION_IN):
                variables[p.name] = resolve_size(_port_size(gadget, p, sizes), k)
        for port_name, cf in entry.items():
            for lb, sz in zip(cf.inputs, cf.input_sizes):
                if lb not in variables:
                    if sz is None:
                        raise ComposeError(f"{gadget.name}.{port_name}: candidate input {lb!r} has no size")
                    variables[lb] = resolve_size(sz, k)
        rows = list(itertools.product(*(range(s) for s in variables.values())))
        self.n_rows = len(rows)
        self.base = [list(c) for c in zip(*rows)]
        col = {name: i for i, name in enumerate(variables)}
        self.ports = []  # (port, where, size, table keys, row -> table index)
        for i, port_name in enumerate(sorted(entry), start=len(variables)):
            where = f"{gadget.name}.{port_name}"
            port = gadget.port(port_name)
            domain = (entry[port_name].inputs if port.kind is PortKind.SIGNAL_IN
                      else _output_domain(where, gadget, port_name))
            in_sizes = {lb: variables[lb] for lb in domain}
            size = resolve_size(port.size, k)
            keys = _table_keys(where, entry[port_name], size, in_sizes)
            # so that this port's faults come before a later port's domain fault
            _candidate_values(where, entry[port_name], size, keys)
            index = [0] * self.n_rows
            for lb, s in in_sizes.items():
                index = [j * s + x for j, x in zip(index, self.base[col[lb]])]
            self.ports.append((port_name, where, size, keys, index))
            col[port_name] = i
        ex = {e.name: i for i, e in enumerate(gadget.spec.existentials)}
        self.existentials = [([col[lb] for lb in e.inputs], e.size) for e in gadget.spec.existentials]
        self.ready, self.pending = [], []
        for c in gadget.spec.conditions:
            t, g = c.targets, c.given
            if all(v in col for v in t + g):
                self.ready.append(([col[v] for v in t], [col[v] for v in g]))
            else:
                self.pending.append(([col[v] for v in t if v in col], [ex[v] for v in t if v not in col],
                                     [col[v] for v in g if v in col], [ex[v] for v in g if v not in col]))
        split = set(range(len(variables))).intersection(*(g for _, _, g, _ in self.pending),
                                                        *(ins for ins, _ in self.existentials))
        groups: dict = {}  # split values -> rows
        for r, row in enumerate(rows):
            groups.setdefault(tuple([row[c] for c in split]), []).append(r)
        self.groups = list(groups.values())

    def holds(self, entry: Mapping[str, CandidateFunction]) -> bool:
        """Whether ``entry``'s candidates, each checked by
        ``_candidate_values``, satisfy every condition."""
        columns = list(self.base)
        for port_name, where, size, keys, index in self.ports:
            values = _candidate_values(where, entry[port_name], size, keys)
            columns.append(list(map(values.__getitem__, index)))
        if not all(entropy.check(columns, t, g) for t, g in self.ready):
            return False
        if not self.pending:
            return True
        parts = ([(self.n_rows, columns)] if len(self.groups) == 1 else
                 [(len(rows), [[c[r] for r in rows] for c in columns]) for rows in self.groups])
        return all(next(_entry_tables(n, part, self.existentials, self.pending), None) is not None
                   for n, part in parts)


def _entry_tables(n_rows: int, columns: Sequence, existentials: Sequence,
                  conditions: Sequence) -> Iterator[dict]:
    """Tables of the existentials on which every condition holds, one per
    class of tables equal up to relabelling each existential's values
    (exact: a ``Determined`` condition keeps its truth value under such a
    relabelling), as ``{(existential, input projection): value}``.

    ``existentials`` gives each one's (input columns, size); a condition
    names at least one existential and is (target columns, target
    existentials, given columns, given existentials).  An entry is one
    existential's value at one projection of the rows onto its inputs.  One
    depth-first search sets the entries one at a time: each existential's in
    turn, in the order the rows reach them, its values growing restrictedly
    in that order (a value at most one above its earlier values; Knuth,
    TAOCP 4A, 7.2.1.5).  Each condition is checked on
    a row as soon as the last entry the row reads is set (Haralick and
    Elliott 1980): the row's given values are stored as a key with its
    target values, and a key stored with other target values is a conflict.
    A trail undoes the stored keys on backtrack.  ``_SupportLayout.holds``
    runs it on each part of its split of the rows, so that a failure in one
    part never re-tries the entries of another."""
    def cells(cols: list) -> list:  # per row, its values in cols
        return list(zip(*cols)) if cols else [()] * n_rows

    entries: dict = {}  # (existential, input projection) -> number, in the order the rows reach it
    at = [[entries.setdefault((e, key), len(entries)) for key in cells([columns[c] for c in ins])]
          for e, (ins, _) in enumerate(existentials)]  # existential, row -> entry
    owner = [e for e, _ in entries]
    n = len(owner)
    prev = [x - 1 if x and owner[x - 1] == e else -1 for x, e in enumerate(owner)]  # its existential's previous entry
    checks: list = [[] for _ in owner]  # entry -> rows checked once it is set
    for t_cols, t_ex, g_cols, g_ex in conditions:
        seen: dict = {}  # given values -> target values, on the rows checked so far
        # each distinct row as (given values, given entries, target values, target entries)
        for row in set(zip(cells([columns[c] for c in g_cols]), cells([at[e] for e in g_ex]),
                           cells([columns[c] for c in t_cols]), cells([at[e] for e in t_ex]))):
            checks[max(row[1] + row[3])].append((seen,) + row)
    vals = [-1] * n  # entry -> value
    used = [0] * n  # entry -> its existential's distinct values up to there
    trail, marks = [], []  # stored (seen, key); trail length when each value was set
    x = 0
    while x >= 0:
        if x == n:
            yield dict(zip(entries, vals))
            x -= 1
            continue
        if vals[x] >= 0:  # undo the value tried last
            mark = marks.pop()
            for seen, key in trail[mark:]:
                del seen[key]
            del trail[mark:]
        v = vals[x] = vals[x] + 1
        before = used[prev[x]] if prev[x] >= 0 else 0
        if v > before or v >= existentials[owner[x]][1]:
            vals[x] = -1
            x -= 1
            continue
        used[x] = max(before, v + 1)
        marks.append(len(trail))
        for seen, g_fix, g_ent, t_fix, t_ent in checks[x]:
            key = g_fix + tuple([vals[i] for i in g_ent])
            val = t_fix + tuple([vals[i] for i in t_ent])
            old = seen.get(key)
            if old is None:
                seen[key] = val
                trail.append((seen, key))
            elif old != val:
                break
        else:
            x += 1


# ---------------------------------------------------------------------------
# json export


def gadget_to_json(gadget: Gadget) -> dict:
    spec = gadget.spec
    return {
        "name": gadget.name,
        "ports": [
            {"name": p.name, "kind": p.kind.value, "size": None if p.size is None else p.size.value}
            for p in gadget.ports
        ],
        "conditions": [
            {"kind": "determined", "targets": list(c.targets), "given": list(c.given)}
            for c in spec.conditions
        ],
        "existentials": [
            {"name": e.name, "inputs": list(e.inputs), "size": e.size} for e in spec.existentials
        ],
        "conditioned_on": [p.name for p in gadget.ports if p.kind is PortKind.CONDITION_IN],
    }
