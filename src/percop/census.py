"""Exhaustive census of small periodic graphs: the graph classes on n vertices, and
`instances`, the one stream of temporally connected instances built on them."""

from __future__ import annotations

import itertools

from .graphs import Graph, LimitError, domination_number
from .periodic import PeriodicGraph
from . import solver as _solver

# the most instances a scan enumerates, summed over its rows
SCAN_INSTANCE_LIMIT = 10 ** 7


def _canonical_graph_masks(n):
    """The least edge mask of each isomorphism class of graphs on n vertices.

    Bit i of a mask is the edge pairs[i].  One pass visits the masks in
    increasing order and marks the images of each listed mask under all n!
    relabellings, which is its whole class.  So a mask is marked exactly when
    its class is already listed, and the first unmarked mask of a class is its
    least: reps lists each class once, by its least mask, ascending.
    """
    pairs = list(itertools.combinations(range(n), 2))
    idx = {e: i for i, e in enumerate(pairs)}
    tables = [[idx[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
              for perm in itertools.permutations(range(n))]
    marked = bytearray(1 << len(pairs))
    reps = []
    for mask in range(len(marked)):
        if marked[mask]:
            continue
        reps.append(mask)
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        for t in tables:
            marked[sum(1 << t[i] for i in bits)] = 1
    return pairs, reps


def _mask_graphs(n, pairs):
    """The graph of each edge mask over pairs, indexed by the mask."""
    return [Graph(n, [e for i, e in enumerate(pairs) if mk >> i & 1])
            for mk in range(1 << len(pairs))]


def _check_positive_ints(**named):
    """Refuse any value that is not an int >= 1; bool is not an int here."""
    for name, value in named.items():
        if type(value) is not int or value < 1:
            raise ValueError("%s must be an int >= 1: %r" % (name, value))


def instances(n, p):
    """Yield (G_0 mask, later masks) per temporally connected instance on n vertices
    with period p.  G_0 runs over each class's least mask, ascending (every instance
    is isomorphic to one whose G_0 is), and the p - 1 later masks over all tuples,
    in lexicographic order.  n and p must be ints >= 1, checked before the first
    instance."""
    _check_positive_ints(n=n, p=p)
    pairs, reps = _canonical_graph_masks(n)
    connected = [g.is_connected() for g in _mask_graphs(n, pairs)]
    for g0m in reps:
        for rest in itertools.product(range(len(connected)), repeat=p - 1):
            union = g0m
            for mk in rest:
                union |= mk
            if connected[union]:
                yield g0m, rest


def smallest_3copwin_scan(max_n, max_p):
    """Exhaustively scan small temporally connected instances for cop number 3.

    Per n <= max_n and p <= max_p it reads `instances(n, p)` and solves at k = 2 only
    the ones whose G_0 has domination number >= 3 (two cops on a dominating set of
    G_0 capture at once).  Its rows count the instances enumerated (connected or
    not), temporally connected and solved: bounded evidence, not a proof."""
    _check_positive_ints(max_n=max_n, max_p=max_p)
    if max_n > 5 or max_p > 4:
        raise LimitError("scan limits exceeded: need max_n <= 5, max_p <= 4")
    classes = [_canonical_graph_masks(n) for n in range(1, max_n + 1)]
    enumerated = [[len(reps) << len(pairs) * (p - 1) for p in range(1, max_p + 1)]
                  for pairs, reps in classes]
    if sum(map(sum, enumerated)) > SCAN_INSTANCE_LIMIT:
        raise LimitError("scan limits exceeded: need at most %d instances enumerated"
                         % SCAN_INSTANCE_LIMIT)
    report = {"max_n": max_n, "max_p": max_p, "counts": [], "witnesses": []}
    for n, (pairs, reps) in enumerate(classes, 1):
        by_mask = _mask_graphs(n, pairs)
        certified = {g0m for g0m in reps if domination_number(by_mask[g0m]) <= 2}
        for p in range(1, max_p + 1):
            connected = solved = 0
            for g0m, rest in instances(n, p):
                connected += 1
                if g0m in certified:
                    continue
                solved += 1
                snapshots = [by_mask[mk] for mk in (g0m,) + rest]
                if not _solver.is_k_copwin(PeriodicGraph(snapshots), 2).copwin:
                    report["witnesses"].append({"n": n, "p": p, "snapshots": [
                        sorted(g.sorted_edges()) for g in snapshots]})
            report["counts"].append({"n": n, "p": p, "canonical_g0": len(reps),
                                     "enumerated": enumerated[n - 1][p - 1],
                                     "temporally_connected": connected,
                                     "solved": solved})
    report["three_copwin_found"] = len(report["witnesses"])
    return report
