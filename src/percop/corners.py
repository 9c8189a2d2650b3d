"""Temporal corner detection: the necessary-condition filters for copwin-ness.

A temporal node (t,u) is a k-temporal corner of covers (t+1,y_1..y_k) when
u is none of the y_i and the closed neighborhood of u at time t is contained
in the union of the closed neighborhoods of the y_i at time t+1.  Every
k-copwin arena contains one, so an empty report rules k-copwin out; the
converse does not hold, so presence proves nothing.

`layer_corners` serves every k by the definition itself.  Repeating a cover
never enlarges the union, so covers are distinct sets of min(k, n-1)
vertices, walked in lexicographic order.  A corner u of cover set Y lies
outside Y and, as u is in N_t[u], inside N_{t+1}[Y], so only those vertices
are tested.  The scan tests at most n*C(n-1, min(k, n-1)) (Y, u) pairs per
layer, the count that find_k_temporal_corners and has_k_temporal_corner
check against CORNER_CANDIDATE_LIMIT for every k before anything is scanned.

Most consumers only ask whether a corner exists: the `no_corner_k` screen of
the reconstruction search (see `search._predicates`) and the corner-free
snapshot pairs that `search._gen_hamiltonian` chains.  `layer_corners(...,
first=True)` serves them from the same scan, returned at the first corner
found, and `has_k_temporal_corner` is its whole-period form.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .graphs import LimitError
from .periodic import PeriodicGraph

# candidate (t, u, cover set) tuples find_k_temporal_corners may enumerate
CORNER_CANDIDATE_LIMIT = 10**7


class CornerWitness(NamedTuple):
    t: int
    corner_vertex: int
    covers: tuple

    def as_dict(self):
        return {
            "t": self.t,
            "corner_vertex": self.corner_vertex,
            "covers": list(self.covers),
        }


def layer_corners(gt, gn, k=1, first=False):
    """The k-corners of gt into gn: for each vertex u, the sorted list of its
    covers, each a sorted tuple of min(k, n-1) vertices other than u whose
    closed neighborhoods in gn together hold u's closed neighborhood in gt.
    With `first`, the scan returns at the first corner found, so the lists
    hold at most that one and `any` of them tells whether a corner exists.
    """
    n, nbr, masks = gt.n, gn.masks, gt.masks
    found = [[] for _ in range(n)]
    if n < 2:
        return found
    # cover sets come in lexicographic order, so each list is born sorted
    for ys in combinations(range(n), min(k, n - 1)):
        used = cover = 0
        for y in ys:
            used |= 1 << y
            cover |= nbr[y]
        # u is in N_t[u], so a corner of ys lies in its cover
        cands = cover & ~used
        while cands:
            low = cands & -cands
            u = low.bit_length() - 1
            if masks[u] & ~cover == 0:
                found[u].append(ys)
                if first:
                    return found
            cands ^= low
    return found


def find_temporal_corners(pg):
    """All ((t,u), v) with u != v and N_t[u] <= N_{t+1}[v]."""
    return find_k_temporal_corners(pg, 1)


def _cover_size(pg, k):
    """The size min(k, n-1) of a cover set, once k is checked and the scan is
    within CORNER_CANDIDATE_LIMIT; 0 when pg has under two vertices."""
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    if type(k) is not int or k < 1:
        raise ValueError("k must be an int >= 1: %r" % (k,))
    n = pg.n
    size = min(k, n - 1)
    if size <= 0:
        return 0
    candidates = pg.period * n * comb(n - 1, size)
    if candidates > CORNER_CANDIDATE_LIMIT:
        raise LimitError(
            "corner search budget exceeded: %d candidate tuples > %d"
            % (candidates, CORNER_CANDIDATE_LIMIT)
        )
    return size


def find_k_temporal_corners(pg, k):
    """All k-temporal corner witnesses, covers as sorted distinct k-sets
    (all of V - u when k >= n), sorted by (t, u, covers)."""
    if not _cover_size(pg, k):
        return []
    snaps, p = pg.snapshots, pg.period
    return [
        CornerWitness(t, u, ys)
        for t in range(p)
        for u, covers in enumerate(
            layer_corners(snaps[t], snaps[(t + 1) % p], k))
        for ys in covers
    ]


def has_k_temporal_corner(pg, k):
    """Whether pg has a k-temporal corner: find_k_temporal_corners(pg, k) is
    non-empty, with the same checks, but the scan stops at the first one."""
    if not _cover_size(pg, k):
        return False
    snaps, p = pg.snapshots, pg.period
    return any(
        any(layer_corners(snaps[t], snaps[(t + 1) % p], k, first=True))
        for t in range(p)
    )


def validate_witness(pg, w):
    """Re-check a witness against the raw snapshot neighborhoods.  False
    unless t is an int and the corner vertex and its covers are distinct
    vertices: ints in 0..n-1, bool excluded."""
    vs = (w.corner_vertex,) + tuple(w.covers)
    if type(w.t) is not int or len(set(vs)) != len(vs) or not all(
            type(v) is int and 0 <= v < pg.n for v in vs):
        return False
    gt = pg.snapshots[w.t % pg.period]
    gn = pg.snapshots[(w.t + 1) % pg.period]
    need = set(gt.closed_nbrs(w.corner_vertex))
    have = set()
    for y in w.covers:
        have.update(gn.closed_nbrs(y))
    return need <= have
