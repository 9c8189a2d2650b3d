"""Exact Cops and Robber solving on periodic temporal graphs."""

from .graphs import (
    Graph,
    LimitError,
    Retraction,
    check_retraction,
    dismantle,
    domination_number,
    girth,
    radius,
    spanning_tree_cover,
)
from .periodic import (
    PeriodicGraph,
    constant,
    footprint,
    foremost_journey,
    induced,
    is_temporally_connected,
    pad,
)
from .corners import CornerWitness, find_k_temporal_corners, find_temporal_corners
from .check import CopPolicy, verify_policy
from .solver import (
    BudgetError,
    SolveResult,
    TripleResult,
    cop_number,
    extract_trace,
    is_k_copwin,
    solve_cop_number,
    static_cop_number,
    triple,
)
from .treewidth import TreeDecomposition, bag_strategy, exact_treewidth, smooth

__all__ = [
    "BudgetError",
    "CopPolicy",
    "CornerWitness",
    "Graph",
    "LimitError",
    "PeriodicGraph",
    "Retraction",
    "SolveResult",
    "TreeDecomposition",
    "TripleResult",
    "bag_strategy",
    "check_retraction",
    "constant",
    "cop_number",
    "dismantle",
    "domination_number",
    "exact_treewidth",
    "extract_trace",
    "find_k_temporal_corners",
    "find_temporal_corners",
    "footprint",
    "foremost_journey",
    "girth",
    "induced",
    "is_k_copwin",
    "is_temporally_connected",
    "pad",
    "radius",
    "smooth",
    "solve_cop_number",
    "spanning_tree_cover",
    "static_cop_number",
    "triple",
    "verify_policy",
]
