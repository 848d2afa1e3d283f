"""pfsnet: exact tools for network coding with partially fixed alphabet sizes."""

from .model import (
    DEFAULT,
    CodingScheme,
    Edge,
    FormatError,
    InvalidNetwork,
    Network,
    SizeSpec,
    ValidationReport,
    canonicalize,
    deserialize,
    fixed,
    resolve_size,
    serialize,
    to_dot,
    topo_order,
    validate,
)
from .entropy import Determined, check
from .solver import (
    BudgetExhausted,
    SolveOptions,
    SolveOutcome,
    Status,
    enumerate_solutions,
    naive_solve_at_k,
    solve_at_k,
    solve_up_to,
    verify_scheme,
)
from . import families, gadgets, indexcoding, tiling

__all__ = [name for name in dir() if not name.startswith("_")]
