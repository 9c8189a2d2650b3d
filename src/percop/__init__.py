"""Exact Cops and Robber solving on periodic temporal graphs.

Each public name is read from its home module on first use (PEP 562), so
importing one submodule, such as the solver-free ``percop.check``, loads
only that module and what it imports itself.
"""

import importlib

# home module -> the public names it defines
_HOMES = {
    "graphs": ("Graph", "LimitError", "Retraction", "check_retraction", "dismantle",
               "domination_number", "girth", "radius", "spanning_tree_cover"),
    "periodic": ("PeriodicGraph", "constant", "footprint", "foremost_journey", "induced",
                 "is_temporally_connected", "pad"),
    "corners": ("CornerWitness", "find_k_temporal_corners", "find_temporal_corners"),
    "check": ("CopPolicy", "verify_policy"),
    "solver": ("BudgetError", "SolveResult", "TripleResult", "cop_number", "extract_trace",
               "is_k_copwin", "solve_cop_number", "static_cop_number", "triple"),
    "treewidth": ("TreeDecomposition", "bag_strategy", "exact_treewidth", "smooth"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_HOMES})
