"""Exact decision of zero-conditional-entropy conditions on distributions
that are uniform over a finite support.

Every joint distribution arising here is the image of independent uniform
messages under deterministic maps, hence uniform over its support; this lets
every check run on the support set alone, with no floating point and no
tolerances.  A variable is a column index into the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Determined:
    """H(targets | given) = 0: no two support points agree on ``given`` but
    differ on ``targets``."""

    targets: tuple
    given: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "given", tuple(self.given))


def check(columns: Sequence[Sequence], target_cols: Sequence[int],
          given_cols: Sequence[int]) -> bool:
    """H(targets | given) = 0 on a nonempty support stored as ``columns``
    (one sequence of values per variable): it holds exactly when the support
    has as many distinct projections onto ``given_cols`` as onto
    ``given_cols`` and ``target_cols`` together."""
    given = [columns[c] for c in given_cols]
    return _distinct(given) == _distinct(given + [columns[c] for c in target_cols])


def _distinct(columns: list) -> int:
    return len(set(zip(*columns))) if columns else 1


def determined(rows: Iterable[Sequence], target_cols: Sequence[int],
               given_cols: Sequence[int]) -> bool:
    """H(targets | given) = 0 on a distribution supported on ``rows``: no two
    rows agree on ``given_cols`` but differ on ``target_cols``.  The
    definition itself, kept as the reference ``check`` is tested against."""
    seen: dict = {}
    for r in rows:
        val = tuple(r[c] for c in target_cols)
        if seen.setdefault(tuple(r[c] for c in given_cols), val) != val:
            return False
    return True
