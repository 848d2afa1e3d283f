"""Torus-coloring condition programs: compilation into networks, and a small
exhaustive oracle over concrete torus sizes.

A condition program constrains colorings of the vertices of a torus grid:
edge conditions relate the two endpoints of every horizontal (or vertical)
edge, face conditions constrain the four corners of even faces.  Even faces
(chessboard-black squares) split into two diagonal classes: type "11" faces
sit at even-even corners, type "22" at odd-odd corners; the brute-force oracle
and the network reduction use this typing consistently.

``reduce`` compiles a program into a network built from two cycle gates, one
conditional switch per nonempty proper subset of the colors (addressed by the
select signal (X1, U, Y1, V)), a conditional set checker restricting the
switch states to color codewords, and one conditional equality/OR checker per
program condition.

Each condition kind is one class and one row of ``_KINDS``: its JSON type and
place key, its places with the select slices its checker binds at each, its
torus cells and predicate, and the checker gadget of the reduction.

Programs whose faces are all of one type are satisfiable on some torus if and
only if they color the 2x2 torus.  A 2x2 coloring repeats onto every even
torus: each edge and each face lands on an edge or the face of the 2x2 torus,
whose one type-11 face and one type-22 face are the same four cells.
Conversely, take a valid coloring and the 2x2 window at even-even corners
(faces of type 11) or odd-odd corners (type 22).  Its face is a face of the
big torus, and each of its edges is an edge of the big torus, or that edge
reversed; every edge condition is symmetric in its two cells.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import gadgets
from .model import DEFAULT, FormatError, Network, ValidationReport, fixed, load_json
from .gadgets import Out
from .solver import CapExceeded


# reduce builds one switch per nonempty proper colour subset, 2^N - 2 of
# them; 8 colours build in about 0.2 s (2-vCPU Xeon, Python 3.11), and each
# colour more takes about 2.7 times as long
MAX_REDUCE_COLORS = 8

HORIZONTAL = "h"
VERTICAL = "v"
FACE_11 = "11"
FACE_22 = "22"


@dataclass(frozen=True)
class _Condition:
    place: str  # an orientation for edge conditions, a face type for faces
    colors: frozenset

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))


class EdgeEq(_Condition):
    """On every edge: both ends are in the set, or neither is."""


class EdgeOr(_Condition):
    """On every edge: at least one end is in the set."""


class FaceOr(_Condition):
    """On every face of the type: at least one corner is in the set."""


@dataclass(frozen=True)
class ConditionProgram:
    n_colors: int
    conditions: tuple

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        n = self.n_colors
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"the color count must be an int, got {n!r}")
        if n < 2:
            raise ValueError("a condition program needs at least 2 colors")
        for cond in self.conditions:
            cs = cond.colors
            # bounds, not a set of all N colors: N may be huge
            if not cs or len(cs) >= n or not all(isinstance(c, int) and 1 <= c <= n for c in cs):
                raise ValueError(f"color set must be a nonempty proper subset of [1..{n}]: {sorted(cs)}")
            kind = _KINDS.get(type(cond))
            if kind is None:
                raise ValueError(f"unknown condition {cond!r}")
            if cond.place not in kind.slices:
                raise ValueError(f"bad {kind.key} {cond.place!r}")


@dataclass(frozen=True)
class TorusColoring:
    width: int
    height: int
    grid: tuple  # grid[y][x] in [1..N]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(tuple(row) for row in self.grid))
        if self.width < 2 or self.height < 2 or self.width % 2 or self.height % 2:
            raise ValueError("torus dimensions must be positive even integers")
        if len(self.grid) != self.height or any(len(r) != self.width for r in self.grid):
            raise ValueError("grid shape does not match width/height")


# ---------------------------------------------------------------------------
# the color encoding


def color_subsets(n_colors: int) -> list:
    """Nonempty proper subsets of [1..N], ordered by size then lexicographic;
    this fixed order indexes the switches of the reduction."""
    full = list(range(1, n_colors + 1))
    out = []
    for size in range(1, n_colors):
        out.extend(itertools.combinations(full, size))
    return [frozenset(s) for s in sorted(out, key=lambda s: (len(s), s))]


def phi(c: int, n_colors: int) -> tuple:
    """Membership-indicator encoding of a color: one bit per nonempty proper
    subset, 1 exactly on the subsets containing c.  Length 2^N - 2."""
    if not 1 <= c <= n_colors:
        raise ValueError(f"color {c} out of range [1..{n_colors}]")
    return tuple(int(c in s) for s in color_subsets(n_colors))


# ---------------------------------------------------------------------------
# torus geometry and the exhaustive oracle


def _edges(width: int, height: int, orientation: str) -> list:
    out = []
    for y in range(height):
        for x in range(width):
            if orientation == HORIZONTAL:
                out.append(((x, y), ((x + 1) % width, y)))
            else:
                out.append(((x, y), (x, (y + 1) % height)))
    return out


def _faces(width: int, height: int, face_type: str) -> list:
    par = 0 if face_type == FACE_11 else 1
    out = []
    for y in range(par, height, 2):
        for x in range(par, width, 2):
            out.append(
                (
                    (x, y),
                    ((x + 1) % width, y),
                    (x, (y + 1) % height),
                    ((x + 1) % width, (y + 1) % height),
                )
            )
    return out


@dataclass(frozen=True)
class _Kind:
    type: str  # the JSON "type"
    key: str  # the JSON key of the place
    cells: Callable  # (width, height, place) -> the cell tuples it constrains
    predicate: str  # "eq" or "or", as _satisfied reads it
    checker: Callable  # () -> the reduction's checker, its select unsized
    slices: dict  # accepted place -> the select slices its checkers bind


_X2 = Out("cycx", "X2")
_Y2 = Out("cycy", "X2")
# an edge condition binds two slices: the horizontal edges of a row (y1, Y2)
# whose cells share x1, and those whose cells share X2; vertical edges alike
_EDGE_SLICES = {HORIZONTAL: (("x1", "y1", _Y2), (_X2, "y1", _Y2)),
                VERTICAL: (("x1", _X2, "y1"), ("x1", _X2, _Y2))}
_KINDS = {
    EdgeEq: _Kind("edge_eq", "orientation", _edges, "eq", gadgets.virtual_equality_checker, _EDGE_SLICES),
    EdgeOr: _Kind("edge_or", "orientation", _edges, "or", lambda: gadgets.virtual_or_checker(2, sized=False),
                  _EDGE_SLICES),
    FaceOr: _Kind("face_or", "face", _faces, "or", lambda: gadgets.virtual_or_checker(4, sized=False),
                  {FACE_11: (("x1", "y1"),), FACE_22: ((_X2, _Y2),)}),
}
_CLASS_OF_TYPE = {kind.type: cls for cls, kind in _KINDS.items()}


def _constraints(program: ConditionProgram, width: int, height: int) -> list:
    out = []
    for cond in program.conditions:
        kind = _KINDS[type(cond)]
        out.extend((kind.predicate, cells, cond.colors) for cells in kind.cells(width, height, cond.place))
    return out


def _satisfied(kind: str, colors: Sequence[int], cs: frozenset) -> bool:
    if kind == "eq":
        a, b = colors
        return (a in cs) == (b in cs)
    return any(c in cs for c in colors)


def validate_coloring(program: ConditionProgram, coloring: TorusColoring) -> ValidationReport:
    """Check every edge/face condition; violations carry coordinates."""
    bad = []
    for c in itertools.chain.from_iterable(coloring.grid):
        if not 1 <= c <= program.n_colors:
            bad.append(("color-range", str(c)))
    if not bad:
        for kind, cells, cs in _constraints(program, coloring.width, coloring.height):
            colors = [coloring.grid[y][x] for x, y in cells]
            if not _satisfied(kind, colors, cs):
                bad.append((kind, ",".join(f"({x},{y})" for x, y in cells)))
    return ValidationReport(not bad, tuple(bad))


def torus_bruteforce(
    program: ConditionProgram,
    width: int,
    height: int,
    cap: int = 64,
) -> Optional[TorusColoring]:
    """Exhaustive search for a satisfying coloring of the width x height
    torus, pruning cell by cell.  None means unsatisfiable at this size only.
    Deterministic: the lexicographically first witness is returned."""
    if width < 2 or height < 2 or width % 2 or height % 2:
        raise ValueError("torus dimensions must be positive even integers")
    if width * height > cap:
        raise CapExceeded(f"{width}x{height} torus exceeds cap of {cap} cells")
    order = [(x, y) for y in range(height) for x in range(width)]
    index = {cell: i for i, cell in enumerate(order)}
    checks_at: list = [[] for _ in order]
    for kind, cells, cs in _constraints(program, width, height):
        checks_at[max(index[c] for c in cells)].append((kind, cells, cs))
    grid = [[0] * width for _ in range(height)]
    # depth-first over the cells without recursion, which would nest one call
    # per cell: grid holds the color last tried at each cell up to i (0 before
    # the first), so backtracking resumes with the next color
    i = 0
    while 0 <= i < len(order):
        x, y = order[i]
        color = grid[y][x] + 1
        while color <= program.n_colors:
            grid[y][x] = color
            if all(
                _satisfied(kind, [grid[cy][cx] for cx, cy in cells], cs)
                for kind, cells, cs in checks_at[i]
            ):
                break
            color += 1
        if color <= program.n_colors:
            i += 1
        else:
            grid[y][x] = 0
            i -= 1
    if i < 0:
        return None
    return TorusColoring(width, height, [tuple(row) for row in grid])


# ---------------------------------------------------------------------------
# compilation into a network


def reduce(program: ConditionProgram) -> Network:
    """Compile a condition program into a partially fixed-size network.

    Messages are M0, M1, U, V (size 2) and X1, Y1 (default size); the select
    signal of every conditional component is (X1, U, Y1, V).  Face conditions
    of type 22 are conditioned on the cycle-gate outputs (X2, Y2), which carry
    the same information as selecting by them would.  Programs with more
    than ``MAX_REDUCE_COLORS`` colours raise CapExceeded.
    """
    if program.n_colors > MAX_REDUCE_COLORS:
        raise CapExceeded(f"{program.n_colors} colors exceed the reduce cap of {MAX_REDUCE_COLORS}")
    n = 2 ** program.n_colors - 2
    subsets = color_subsets(program.n_colors)
    switch_of = {s: i for i, s in enumerate(subsets, start=1)}
    select = ("x1", "u", "y1", "v")
    messages = {"m0": fixed(2), "m1": fixed(2), "u": fixed(2), "v": fixed(2),
                "x1": DEFAULT, "y1": DEFAULT}
    # each distinct gadget is built once and shared by all its parts
    switch = gadgets.cond_switch_gate(None)
    parts = [
        ("cycx", gadgets.cycles_gate(), {"X1": "x1", "U": "u"}),
        ("cycy", gadgets.cycles_gate(), {"X1": "y1", "U": "v"}),
    ]
    for i in range(1, n + 1):
        parts.append((f"sw{i:02d}", switch, {"M0": "m0", "M1": "m1", "W": select}))
    theta = sorted(phi(c, program.n_colors) for c in range(1, program.n_colors + 1))
    set_bind: dict = {"M1": "m1", "W": select}
    for i in range(1, n + 1):
        set_bind[f"Z{i}_0"] = Out(f"sw{i:02d}", "Z0")
        set_bind[f"Z{i}_1"] = Out(f"sw{i:02d}", "Z1")
    parts.append(("set", gadgets.cond_set_checker(n, theta, None), set_bind))
    checkers: dict = {}  # each kind's checker is built once, if used
    for ci, cond in enumerate(program.conditions):
        kind = _KINDS[type(cond)]
        if kind.type not in checkers:
            checkers[kind.type] = gadgets.conditionalize(kind.checker(), None, port="C")
        g = checkers[kind.type]
        ports = {p.name for p in g.ports}
        z0 = Out(f"sw{switch_of[cond.colors]:02d}", "Z0")
        slices = kind.slices[cond.place]
        for tag, slc in zip("ab" if len(slices) > 1 else [""], slices):
            bind = {"M0": "m0", "M1": "m1", "W": select, "Z0": z0, "C": slc}
            parts.append((f"c{ci:02d}{tag}", g, {p: v for p, v in bind.items() if p in ports}))
    return gadgets.compose(parts, messages).net


# ---------------------------------------------------------------------------
# json formats


def program_to_json(program: ConditionProgram) -> str:
    conds = []
    for cond in program.conditions:
        kind = _KINDS[type(cond)]
        conds.append({"type": kind.type, kind.key: cond.place, "set": sorted(cond.colors)})
    return json.dumps({"colors": program.n_colors, "conditions": conds}, indent=2, sort_keys=True) + "\n"


def program_from_json(text: str) -> ConditionProgram:
    doc = load_json(text)
    if not isinstance(doc, dict) or "colors" not in doc or "conditions" not in doc:
        raise FormatError("program: expected object with 'colors' and 'conditions'")
    if not isinstance(doc["conditions"], list):
        raise FormatError("conditions: expected a list")
    conds = []
    for i, cd in enumerate(doc["conditions"]):
        where = f"conditions[{i}]"
        if not isinstance(cd, dict):
            raise FormatError(f"{where}: expected an object")
        cs = cd.get("set")
        if not isinstance(cs, list) or not all(isinstance(c, int) and not isinstance(c, bool) for c in cs):
            raise FormatError(f"{where}: expected a color set (list of ints)")
        cls = _CLASS_OF_TYPE.get(cd.get("type"))
        if cls is None:
            raise FormatError(f"{where}: unknown type {cd.get('type')!r}")
        conds.append(cls(cd.get(_KINDS[cls].key, ""), frozenset(cs)))
    try:
        return ConditionProgram(doc["colors"], tuple(conds))
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc
