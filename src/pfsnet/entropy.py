"""Exact verification of information conditions on distributions that are
uniform over a finite support.

Every joint distribution arising here is the image of independent uniform
messages under deterministic maps, hence uniform over its support; this lets
every check run on the support set alone, with no floating point and no
tolerances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class UniformSupport:
    """Uniform distribution over ``support``; ``variables`` gives the name and
    alphabet size of each tuple coordinate."""

    variables: tuple
    support: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple((str(n), int(s)) for n, s in self.variables))
        object.__setattr__(self, "support", frozenset(tuple(t) for t in self.support))
        if not self.support:
            raise ValueError("support must be nonempty")
        width = len(self.variables)
        for t in self.support:
            if len(t) != width:
                raise ValueError(f"tuple width {len(t)} != {width} variables")
            for x, (name, size) in zip(t, self.variables):
                if not 0 <= x < size:
                    raise ValueError(f"value {x} out of range for {name} (size {size})")

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise KeyError(f"unknown variable {name!r}")

    def columns(self, names: Iterable[str]) -> tuple:
        return tuple(self.index_of(n) for n in names)


# --- conditions -------------------------------------------------------------


@dataclass(frozen=True)
class Determined:
    """H(targets | given) = 0: no two support points agree on ``given`` but
    differ on ``targets``."""

    targets: tuple
    given: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "given", tuple(self.given))


def determined(rows: Iterable[Sequence], target_cols: Sequence[int],
               given_cols: Sequence[int]) -> bool:
    """H(targets | given) = 0 on a distribution supported on ``rows``: no two
    rows agree on ``given_cols`` but differ on ``target_cols``."""
    key_of, val_of = _getter(given_cols), _getter(target_cols)
    seen: dict = {}
    for r in rows:
        val = val_of(r)
        if seen.setdefault(key_of(r), val) != val:
            return False
    return True


def determined_columns(columns: Sequence[Sequence], target_cols: Sequence[int],
                       given_cols: Sequence[int]) -> bool:
    """``determined`` on a nonempty support stored as ``columns``: H(targets |
    given) = 0 exactly when the support has as many distinct projections onto
    ``given_cols`` as onto ``given_cols`` and ``target_cols`` together."""
    given = [columns[c] for c in given_cols]
    return _distinct(given) == _distinct(given + [columns[c] for c in target_cols])


def _distinct(columns: list) -> int:
    return len(set(zip(*columns))) if columns else 1


def _getter(cols: Sequence[int]):
    """Read a key off a row: a value, a tuple of values, or () for no cols."""
    return operator.itemgetter(*cols) if cols else (lambda row: ())


def check(dist: UniformSupport, cond: Determined) -> bool:
    """Exact decision of an information condition on a uniform support."""
    return determined(dist.support, dist.columns(cond.targets), dist.columns(cond.given))


# --- supports induced by coding schemes -------------------------------------


def support_of_scheme(net, scheme) -> UniformSupport:
    """Joint support of (messages, edge signals) under a coding scheme.

    Variables are all messages (``M1``..``Ml``) followed by all edge signals
    named by edge id, in evaluation order.  The support has one point per
    message tuple.
    """
    from . import solver

    sizes = [m.resolve(scheme.k) for m in net.messages]
    order = solver.edge_eval_order(net)
    variables = [(f"M{i}", s) for i, s in enumerate(sizes, start=1)]
    variables += [(e.id, e.size.resolve(scheme.k)) for e in order]
    points = [tuple(values.values()) for values in solver.simulate(net, scheme)]
    dist = UniformSupport(tuple(variables), frozenset(points))
    expect = 1
    for s in sizes:
        expect *= s
    if len(dist.support) != expect:
        raise ValueError("scheme evaluation collapsed distinct message tuples")
    return dist
