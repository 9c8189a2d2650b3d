"""Every public name of percop refuses a wrong type with a ValueError.

Each name in ``percop.__all__`` is called with valid values in all of its
arguments but one, and with one wrong value in that one: None, 1.5, "x",
True, [1], NaN or {1: None}.  A value that is valid in an argument (None
where it is the default, [1] and {1: None} where any iterable of vertices
is read, True as a verdict, any hashable value as a policy's memory) is
not tried there.  The package itself binds each public name, on first use,
to the object its home module defines.
"""

import importlib
import math
import random

import pytest

import percop
from percop import (Graph, PeriodicGraph, Retraction, exact_treewidth, is_k_copwin,
                    smooth)

# the wrong values, each by its repr
WRONG = {repr(v): v for v in (None, 1.5, "x", True, [1], math.nan, {1: None})}


def _stay(memory, t, cops, robber):
    return cops, memory


def valid_calls():
    """name -> (valid arguments, {argument index: the reprs of the WRONG
    values that are valid there})."""
    g = Graph(3, [(0, 1), (1, 2)])
    pg = PeriodicGraph([g, g])
    td = smooth(exact_treewidth(g)[1], g)
    won = is_k_copwin(pg, 1)
    vertices = {"[1]", "{1: None}"}
    return {
        "BudgetError": ((10, 5), {}),
        "CopPolicy": ((1, (0,), _stay, None), {3: {"None", "1.5", "'x'", "True", "nan"}}),
        "CornerWitness": ((0, 0, (1,)), {}),
        "Graph": ((3, [(0, 1)]), {}),
        "PeriodicGraph": (([g, g],), {}),
        "Retraction": ((g, [0, 1], {0: 0, 1: 1, 2: 1}), {1: vertices}),
        # only the verdict's arguments: the rest are the decision pass's state
        "SolveResult": ((pg, 1, True), {2: {"True"}}),
        "TreeDecomposition": (([frozenset({0, 1}), frozenset({1, 2})], [(0, 1)]), {}),
        "TripleResult": ((1, 1, 1, 1), {}),
        "bag_strategy": ((pg, td), {}),
        "check_retraction": ((Retraction(g, [0, 1], {0: 0, 1: 1, 2: 1}),), {}),
        "constant": ((g, 2), {}),
        "cop_number": ((pg,), {}),
        "dismantle": ((g,), {}),
        "domination_number": ((g,), {}),
        "exact_treewidth": ((g, 13), {}),
        "extract_trace": ((won, None), {1: vertices | {"None"}}),
        "find_k_temporal_corners": ((pg, 1), {}),
        "find_temporal_corners": ((pg,), {}),
        "footprint": ((pg,), {}),
        "foremost_journey": ((pg, 0, 0, 1), {}),
        "girth": ((g,), {}),
        "induced": ((pg, [0, 1]), {1: vertices}),
        "is_k_copwin": ((pg, 1), {}),
        "is_temporally_connected": ((pg,), {}),
        "pad": ((pg, 4, 0), {}),
        "radius": ((g,), {}),
        "smooth": ((td, g), {}),
        "solve_cop_number": ((pg, None), {1: {"None"}}),
        "spanning_tree_cover": ((g,), {}),
        "static_cop_number": ((g,), {}),
        "triple": ((pg,), {}),
        "verify_policy": ((pg, won.policy()), {}),
    }


def test_every_public_name_refuses_wrong_types():
    calls = valid_calls()
    # LimitError takes any message, as ValueError, its base, does
    assert set(calls) == set(percop.__all__) - {"LimitError"}
    cases = []
    for name, (args, valid) in sorted(calls.items()):
        getattr(percop, name)(*args)  # the valid values are valid
        for i in range(len(args)):
            cases += [(name, i, bad) for key, bad in WRONG.items()
                      if key not in valid.get(i, ())]
    # a seeded order, so that no case leans on what the one before it left
    random.Random(10).shuffle(cases)
    failures = []
    for name, i, bad in cases:
        args = list(calls[name][0])
        args[i] = bad
        try:
            getattr(percop, name)(*args)
        except ValueError:
            continue
        except Exception as e:  # noqa: BLE001 - the wrong kind of error
            failures.append((name, i, bad, type(e).__name__))
            continue
        failures.append((name, i, bad, "no error"))
    assert failures == []
    assert len(cases) > 400


def test_star_import_binds_each_name_from_its_home():
    names = {}
    exec("from percop import *", names)
    del names["__builtins__"]
    assert percop.__all__ == sorted(names)
    for name, obj in names.items():
        assert obj.__module__.startswith("percop."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        percop.nope
