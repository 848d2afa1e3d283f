"""Candidate families for acceptance testing of checkers and gates."""

from __future__ import annotations

import itertools
import json
from typing import Mapping, Optional, Sequence

from .gadgets import CandidateFunction
from .model import DEFAULT, FormatError, fixed, load_json, size_from_json


def all_functions(
    output: str,
    inputs: Sequence[tuple],
    size: int,
    input_specs: Optional[Sequence] = None,
) -> list:
    """Every table over the given input alphabets into [0..size)."""
    labels = [name for name, _ in inputs]
    domains = [range(s) for _, s in inputs]
    keys = list(itertools.product(*domains))
    specs = input_specs if input_specs is not None else [fixed(s) for _, s in inputs]
    out = []
    for values in itertools.product(range(size), repeat=len(keys)):
        out.append(
            CandidateFunction(
                output=output,
                inputs=tuple(labels),
                table=dict(zip(keys, values)),
                size=size,
                input_sizes=tuple(specs),
            )
        )
    return out


def xor_family() -> list:
    """All 16 binary functions of (M1, M2), candidates for the parity slot."""
    return all_functions("Y", [("M1", 2), ("M2", 2)], 2)


def cond_xor_family(w: int = 2) -> list:
    """All 2^(4w) binary functions of (M1, M2, W) with a condition W of size
    w (256 for a binary W)."""
    return all_functions("Y", [("M1", 2), ("M2", 2), ("W", w)], 2)


def tristate_family() -> list:
    """All 81 functions of two bits into {0,1,2}."""
    return all_functions("Z", [("X", 2), ("Y", 2)], 3)


def bstate_family(b: int) -> list:
    """All functions (X, Y) -> [0..b] with X binary and Y of size b."""
    return all_functions("Z", [("X", 2), ("Y", b)], b + 1)


def switch_family() -> list:
    """All 256 output pairs (Z0, Z1), each a binary function of (M0, M1)."""
    z0s = all_functions("Z0", [("M0", 2), ("M1", 2)], 2)
    z1s = all_functions("Z1", [("M0", 2), ("M1", 2)], 2)
    return [{"Z0": a, "Z1": b} for a in z0s for b in z1s]


def cycles_family(k: int) -> list:
    """All functions (X1, U) -> [0..k) with X1 of size k and U binary."""
    return all_functions(
        "X2", [("X1", k), ("U", 2)], k, input_specs=[DEFAULT, fixed(2)]
    )


def switch_pair(theta: int, eta0: int = 0, eta1: int = 0) -> dict:
    """The output pair realized by a switch in state theta with output flips
    (eta0, eta1): Z0 = M_theta ^ eta0, Z1 = M_(1-theta) ^ eta1."""
    t0 = {(m0, m1): (m1 if theta else m0) ^ eta0 for m0 in (0, 1) for m1 in (0, 1)}
    t1 = {(m0, m1): (m0 if theta else m1) ^ eta1 for m0 in (0, 1) for m1 in (0, 1)}
    return {
        "Z0": CandidateFunction("Z0", ("M0", "M1"), t0, 2),
        "Z1": CandidateFunction("Z1", ("M0", "M1"), t1, 2),
    }


def conditional_switch_z0(theta_by_w: Sequence[int]) -> CandidateFunction:
    """The Z0 output of a conditional switch whose state depends on the select
    value w: Z0 = M_(theta_w)."""
    b = len(theta_by_w)
    table = {}
    for m0, m1, w in itertools.product((0, 1), (0, 1), range(b)):
        table[(m0, m1, w)] = m1 if theta_by_w[w] else m0
    return CandidateFunction(
        "Z0", ("M0", "M1", "W"), table, 2, input_sizes=(fixed(2), fixed(2), fixed(b))
    )


def conditional_switch_z0_grid(theta: Mapping, b1: int, b2: int) -> CandidateFunction:
    """Z0 of a conditional switch addressed by a two-part select (W1, W2):
    Z0 = M_(theta[w1, w2])."""
    table = {}
    for m0, m1, w1, w2 in itertools.product((0, 1), (0, 1), range(b1), range(b2)):
        table[(m0, m1, w1, w2)] = m1 if theta[(w1, w2)] else m0
    return CandidateFunction(
        "Z0",
        ("M0", "M1", "W1", "W2"),
        table,
        2,
        input_sizes=(fixed(2), fixed(2), fixed(b1), fixed(b2)),
    )


def theta_family(b: int) -> list:
    """Z0 of a conditional switch for every state vector (theta_1..theta_b)
    over a select of size b, in lexicographic order of theta."""
    return [{"Z0": conditional_switch_z0(t)} for t in itertools.product((0, 1), repeat=b)]


def theta_grid_family(b1: int, b2: int) -> list:
    """Z0 of a conditional switch for every state grid theta[w1, w2] over a
    two-part select (W1, W2), in lexicographic order of the grid's bits."""
    cells = list(itertools.product(range(b1), range(b2)))
    return [
        {"Z0": conditional_switch_z0_grid(dict(zip(cells, bits)), b1, b2)}
        for bits in itertools.product((0, 1), repeat=b1 * b2)
    ]


def set_entry(theta: Sequence[int]) -> dict:
    """Candidate tables for all 2n outputs of a physical array of n switches
    in states theta (no output flips)."""
    entry = {}
    for i, t in enumerate(theta, start=1):
        pair = switch_pair(t)
        entry[f"Z{i}_0"] = CandidateFunction(f"Z{i}_0", ("M0", "M1"), pair["Z0"].table, 2,
                                             input_sizes=(fixed(2), fixed(2)))
        entry[f"Z{i}_1"] = CandidateFunction(f"Z{i}_1", ("M0", "M1"), pair["Z1"].table, 2,
                                             input_sizes=(fixed(2), fixed(2)))
    return entry


def set_family(n: int) -> list:
    return [set_entry(theta) for theta in itertools.product((0, 1), repeat=n)]


# --- json interchange --------------------------------------------------------


def candidate_to_json(cf: CandidateFunction) -> dict:
    keys = sorted(cf.table)
    return {
        "output": cf.output,
        "inputs": [
            {"name": lb, "size": None if sz is None else sz.value}
            for lb, sz in zip(cf.inputs, cf.input_sizes)
        ],
        "size": cf.size,
        "keys": [list(k) for k in keys],
        "values": [cf.table[k] for k in keys],
    }


def candidate_from_json(doc: Mapping) -> CandidateFunction:
    """Inverse of ``candidate_to_json``; a field of the wrong type or length raises ValueError."""
    names, keys, values = [d["name"] for d in doc["inputs"]], doc["keys"], doc["values"]
    if not all(isinstance(x, str) for x in [doc["output"], *names]):
        raise ValueError("candidate output and input names must be strings")
    # a bool or float is refused, not read as the int it equals
    if not all(type(x) is int for x in [doc["size"], *values]):
        raise ValueError("candidate size and values must be ints")
    if len(keys) != len(values) or not all(
            isinstance(key, list) and len(key) == len(names) and all(type(x) is int for x in key) for key in keys):
        raise ValueError(f"candidate keys must be {len(values)} lists of {len(names)} ints, one per value")
    return CandidateFunction(
        output=doc["output"],
        inputs=tuple(names),
        table={tuple(key): v for key, v in zip(keys, values)},
        size=doc["size"],
        input_sizes=tuple(size_from_json(d["size"], f"candidate input {d['name']!r}") for d in doc["inputs"]),
    )


def family_to_json(family: Sequence) -> str:
    out = []
    for entry in family:
        if isinstance(entry, CandidateFunction):
            out.append(candidate_to_json(entry))
        else:
            out.append({name: candidate_to_json(cf) for name, cf in sorted(entry.items())})
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def family_from_json(text: str) -> list:
    """Inverse of ``family_to_json``; a malformed document raises FormatError
    naming the index of the first malformed candidate."""
    doc = load_json(text)
    if not isinstance(doc, list):
        raise FormatError("candidate family: expected a list")
    out = []
    for i, item in enumerate(doc):
        try:
            if not isinstance(item, dict):
                raise ValueError("expected an object")
            if "output" in item and "size" in item:
                out.append(candidate_from_json(item))
            else:
                out.append({name: candidate_from_json(sub) for name, sub in item.items()})
        except KeyError as exc:
            raise FormatError(f"candidate {i}: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"candidate {i}: {exc}") from exc
    return out
