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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from . import gadgets
from .model import DEFAULT, FormatError, Network, ValidationReport, fixed
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
class EdgeEq:
    orientation: str
    colors: frozenset

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))


@dataclass(frozen=True)
class EdgeOr:
    orientation: str
    colors: frozenset

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))


@dataclass(frozen=True)
class FaceOr:
    face_type: str
    colors: frozenset

    def __post_init__(self):
        object.__setattr__(self, "colors", frozenset(self.colors))


@dataclass(frozen=True)
class ConditionProgram:
    n_colors: int
    conditions: tuple

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if self.n_colors < 2:
            raise ValueError("a condition program needs at least 2 colors")
        full = set(range(1, self.n_colors + 1))
        for cond in self.conditions:
            cs = set(cond.colors)
            if not cs or cs == full or not cs <= full:
                raise ValueError(f"color set must be a nonempty proper subset of [1..{self.n_colors}]: {sorted(cs)}")
            if isinstance(cond, (EdgeEq, EdgeOr)):
                if cond.orientation not in (HORIZONTAL, VERTICAL):
                    raise ValueError(f"bad orientation {cond.orientation!r}")
            elif isinstance(cond, FaceOr):
                if cond.face_type not in (FACE_11, FACE_22):
                    raise ValueError(f"bad face type {cond.face_type!r}")
            else:
                raise ValueError(f"unknown condition {cond!r}")


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


def _constraints(program: ConditionProgram, width: int, height: int) -> list:
    out = []
    for cond in program.conditions:
        if isinstance(cond, EdgeEq):
            for cells in _edges(width, height, cond.orientation):
                out.append(("eq", cells, cond.colors))
        elif isinstance(cond, EdgeOr):
            for cells in _edges(width, height, cond.orientation):
                out.append(("or", cells, cond.colors))
        else:
            for cells in _faces(width, height, cond.face_type):
                out.append(("or", cells, cond.colors))
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
    eq, or2, or4 = (gadgets.conditionalize(g, None, port="C") for g in (
        gadgets.virtual_equality_checker(), gadgets._virtual_or(2, "W", None), gadgets._virtual_or(4, "W", None)))
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
    x2 = Out("cycx", "X2")
    y2 = Out("cycy", "X2")
    for ci, cond in enumerate(program.conditions):
        sw = f"sw{switch_of[cond.colors]:02d}"
        if isinstance(cond, (EdgeEq, EdgeOr)):
            if cond.orientation == HORIZONTAL:
                slices = [("x1", "y1", y2), (x2, "y1", y2)]
            else:
                slices = [("x1", x2, "y1"), ("x1", x2, y2)]
            for tag, slc in zip("ab", slices):
                if isinstance(cond, EdgeEq):
                    g, bind = eq, {"M0": "m0", "M1": "m1", "W": select, "Z0": Out(sw, "Z0"), "C": slc}
                else:
                    g, bind = or2, {"M1": "m1", "W": select, "Z0": Out(sw, "Z0"), "C": slc}
                parts.append((f"c{ci:02d}{tag}", g, bind))
        else:
            slc = ("x1", "y1") if cond.face_type == FACE_11 else (x2, y2)
            parts.append((f"c{ci:02d}", or4, {"M1": "m1", "W": select, "Z0": Out(sw, "Z0"), "C": slc}))
    return gadgets.compose(parts, messages).net


# ---------------------------------------------------------------------------
# json formats


def program_to_json(program: ConditionProgram) -> str:
    conds = []
    for cond in program.conditions:
        if isinstance(cond, EdgeEq):
            conds.append({"type": "edge_eq", "orientation": cond.orientation, "set": sorted(cond.colors)})
        elif isinstance(cond, EdgeOr):
            conds.append({"type": "edge_or", "orientation": cond.orientation, "set": sorted(cond.colors)})
        else:
            conds.append({"type": "face_or", "face": cond.face_type, "set": sorted(cond.colors)})
    return json.dumps({"colors": program.n_colors, "conditions": conds}, indent=2, sort_keys=True) + "\n"


def program_from_json(text: str) -> ConditionProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "colors" not in doc or "conditions" not in doc:
        raise FormatError("program: expected object with 'colors' and 'conditions'")
    if not isinstance(doc["conditions"], list):
        raise FormatError("conditions: expected a list")
    conds = []
    for i, cd in enumerate(doc["conditions"]):
        where = f"conditions[{i}]"
        if not isinstance(cd, dict):
            raise FormatError(f"{where}: expected an object")
        kind = cd.get("type")
        cs = cd.get("set")
        if not isinstance(cs, list) or not all(isinstance(c, int) and not isinstance(c, bool) for c in cs):
            raise FormatError(f"{where}: expected a color set (list of ints)")
        if kind == "edge_eq":
            conds.append(EdgeEq(cd.get("orientation", ""), frozenset(cs)))
        elif kind == "edge_or":
            conds.append(EdgeOr(cd.get("orientation", ""), frozenset(cs)))
        elif kind == "face_or":
            conds.append(FaceOr(cd.get("face", ""), frozenset(cs)))
        else:
            raise FormatError(f"{where}: unknown type {kind!r}")
    try:
        return ConditionProgram(doc["colors"], tuple(conds))
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc)) from exc
