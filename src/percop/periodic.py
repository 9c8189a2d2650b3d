"""Periodic temporal graphs, their footprints, journeys and padding."""

from __future__ import annotations

import operator

from .graphs import Graph


class PeriodicGraph:
    """A period-p sequence of snapshots sharing the vertex set 0..n-1.

    Snapshot indices are read modulo p everywhere.  ``usnap`` maps each layer
    to an index into ``unique_snapshots`` so that solvers can cache per-snapshot
    work when the sequence repeats graphs (the shipped constructions repeat
    heavily).

    The constructor makes one pass over the snapshots.  Each step checks that
    the snapshot is a Graph, looks its masks tuple up once in the index of
    the distinct snapshots, and, for a new distinct snapshot only, compares
    its n with snapshot 0's.  The errors still come in this order: snapshots
    that are not iterable, an empty sequence (``period must be >= 1``), the
    first snapshot that is no Graph, ``n must be >= 1`` and then
    ``snapshots disagree on vertex count``.
    """

    __slots__ = ("n", "snapshots", "usnap", "unique_snapshots")

    def __init__(self, snapshots):
        try:
            snapshots = tuple(snapshots)
        except TypeError:
            raise ValueError("snapshots must be an iterable of Graphs: %r"
                             % (snapshots,)) from None
        if not snapshots:
            raise ValueError("period must be >= 1")
        uniq = []
        idx = {}
        us = []
        n = None
        agree = True
        for i, g in enumerate(snapshots):
            if type(g) is not Graph:
                raise ValueError("snapshot %d is not a Graph: %r" % (i, g))
            new = len(uniq)
            j = idx.setdefault(g.masks, new)
            if j == new:
                # snapshots with equal masks have equal n
                if n is None:
                    n = g.n
                elif g.n != n:
                    agree = False
                uniq.append(g)
            us.append(j)
        if n < 1:
            raise ValueError("n must be >= 1")
        if not agree:
            raise ValueError("snapshots disagree on vertex count")
        self.n = n
        self.snapshots = snapshots
        self.unique_snapshots = tuple(uniq)
        self.usnap = tuple(us)

    @property
    def period(self):
        return len(self.snapshots)

    def __eq__(self, other):
        return (
            isinstance(other, PeriodicGraph)
            and self.n == other.n
            and self.snapshots == other.snapshots
        )

    def __hash__(self):
        return hash((self.n, self.snapshots))

    def __repr__(self):
        return "PeriodicGraph(n=%d, p=%d)" % (self.n, self.period)


def footprint(pg):
    """The graph of every edge that some snapshot has: the OR of their masks.

    It starts from the first distinct snapshot's masks tuple and ORs each
    further distinct snapshot into a new tuple, so a period-1 graph's
    footprint shares its snapshot's masks."""
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    first, *rest = pg.unique_snapshots
    masks = first.masks
    for g in rest:
        masks = tuple(map(operator.or_, masks, g.masks))
    return Graph._of(masks)


def is_temporally_connected(pg):
    """True iff the footprint is connected (equivalent for periodic graphs)."""
    return footprint(pg).is_connected()


def foremost_journey(pg, t_start, u, v):
    """Earliest-arrival walk from u at time t_start to v, or None.

    Step i of the returned vertex list uses an edge of (or waits in) the
    snapshot at time t_start+i.  The search horizon is n*p steps: in a
    temporally connected periodic graph every vertex is reached within that
    bound, so None only occurs for unreachable targets.  A pg that is no
    PeriodicGraph, u and v other than ints in 0..n-1, and a t_start that is
    no int, are a ValueError.
    """
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    if type(t_start) is not int:
        raise ValueError("t_start must be an int: %r" % (t_start,))
    for name, x in (("u", u), ("v", v)):
        if type(x) is not int or not 0 <= x < pg.n:
            raise ValueError("%s must be a vertex of 0..%d: %r" % (name, pg.n - 1, x))
    if u == v:
        return [u]
    p = pg.period
    horizon = pg.n * p
    prev = {(0, u): None}
    # earliest arrival per (time mod p, vertex) dominates later revisits
    seen_mod = {(t_start % p, u)}
    frontier_keys = [(0, u)]
    for step in range(horizon):
        g = pg.snapshots[(t_start + step) % p]
        nxt_keys = []
        for key in frontier_keys:
            m = g.nbr_mask(key[1])
            x = m
            while x:
                y = (x & -x).bit_length() - 1
                x &= x - 1
                k2 = (step + 1, y)
                mod_key = ((t_start + step + 1) % p, y)
                if mod_key in seen_mod:
                    continue
                seen_mod.add(mod_key)
                prev[k2] = key
                if y == v:
                    out = [y]
                    k = key
                    while k is not None:
                        out.append(k[1])
                        k = prev[k]
                    out.reverse()
                    return out
                nxt_keys.append(k2)
        frontier_keys = nxt_keys
        if not frontier_keys:
            break
    return None


def induced(pg, vertices):
    """Induced periodic subgraph with vertices renumbered 0..|vs|-1.

    Returns (subgraph, mapping) where mapping sends old vertex -> new index.
    """
    if type(pg) is not PeriodicGraph:
        raise ValueError("induced: pg must be a PeriodicGraph: %r" % (pg,))
    try:
        vertices = list(vertices)
    except TypeError:
        raise ValueError("induced: vertices must be ints in an iterable: %r"
                         % (vertices,)) from None
    if any(type(v) is not int for v in vertices):  # before True and 1 merge
        raise ValueError("induced: vertices must be ints: %r" % (vertices,))
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced: empty vertex subset")
    if vs[0] < 0 or vs[-1] >= pg.n:
        raise ValueError("induced: vertex out of range")
    remap = {old: new for new, old in enumerate(vs)}
    snaps = []
    for g in pg.snapshots:
        edges = [(remap[u], remap[v]) for (u, v) in g.subgraph_edges(vs)]
        snaps.append(Graph(len(vs), edges))
    return PeriodicGraph(snaps), remap


def _check_pad(pg, target_n, attach):
    if type(pg) is not PeriodicGraph:
        raise ValueError("pad: pg must be a PeriodicGraph: %r" % (pg,))
    if type(target_n) is not int or type(attach) is not int:
        raise ValueError("pad: target_n and attach must be ints: %r, %r"
                         % (target_n, attach))
    if target_n < pg.n:
        raise ValueError("pad: target_n %d < n %d" % (target_n, pg.n))
    if not (0 <= attach < pg.n):
        raise ValueError("pad: attach vertex out of range")


def pad(pg, target_n, attach):
    """Append a path of target_n - n fresh vertices, hung at ``attach``.

    The whole path is present in every snapshot, which keeps the collapse map
    (path -> attach) a retraction of the footprint and of each snapshot.
    Requires period >= 2.
    """
    _check_pad(pg, target_n, attach)
    if pg.period < 2:
        raise ValueError("padding requires period >= 2")
    extra = target_n - pg.n
    if extra == 0:
        return pg
    chain = [attach] + [pg.n + i for i in range(extra)]
    path_edges = [(chain[i], chain[i + 1]) for i in range(extra)]
    snaps = []
    for g in pg.snapshots:
        snaps.append(Graph(target_n, list(g.edges) + path_edges))
    return PeriodicGraph(snaps)


def pad_collapse_map(pg, target_n, attach):
    """The retraction map sending every padded-path vertex back to ``attach``;
    it refuses the arguments `pad` refuses, whatever the period."""
    _check_pad(pg, target_n, attach)
    m = {u: u for u in range(pg.n)}
    for w in range(pg.n, target_n):
        m[w] = attach
    return m


def constant(g, p):
    """The period-p periodic graph whose every snapshot is g."""
    if type(p) is not int or p < 1:
        raise ValueError("period must be an int >= 1: %r" % (p,))
    return PeriodicGraph([g] * p)
