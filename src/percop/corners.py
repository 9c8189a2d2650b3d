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
are tested, walked by the byte table of `graphs._bits`.  The scan tests at
most n*C(n-1, min(k, n-1)) (Y, u) pairs per layer, the count that
find_k_temporal_corners and has_k_temporal_corner check against
CORNER_CANDIDATE_LIMIT for every k before anything is scanned.  Its lists
hold the CornerWitness values themselves, each built once by the scan, and
find_k_temporal_corners only concatenates them, layer by layer.

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

from .graphs import LimitError, _bits
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


def layer_corners(gt, gn, k=1, first=False, t=0):
    """The k-corners of gt into gn, taken as layer t: for each vertex u, the
    list of its CornerWitness(t, u, covers), covers ascending, each cover a
    sorted tuple of min(k, n-1) vertices other than u whose closed
    neighborhoods in gn together hold u's closed neighborhood in gt.  Each
    witness is built once, here.  With `first`, the scan returns at the
    first corner found, so the lists hold at most that one and `any` of them
    tells whether a corner exists.
    """
    n, nbr, masks = gt.n, gn.masks, gt.masks
    found = [[] for _ in range(n)]
    if n < 2:
        return found
    # CornerWitness(t, u, ys) is this call behind a Python-level __new__
    new = tuple.__new__
    # cover sets come in lexicographic order, so each list is born sorted
    for ys in combinations(range(n), min(k, n - 1)):
        used = cover = 0
        for y in ys:
            used |= 1 << y
            cover |= nbr[y]
        # u is in N_t[u], so a corner of ys lies in its cover
        for u in _bits(cover & ~used):
            if masks[u] & ~cover == 0:
                found[u].append(new(CornerWitness, (t, u, ys)))
                if first:
                    return found
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
    out = []
    for t in range(p):
        for ws in layer_corners(snaps[t], snaps[(t + 1) % p], k, t=t):
            out += ws
    return out


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
    unless w is a 3-tuple (t, u, covers) with covers a tuple, t an int, and
    the corner vertex and its covers distinct vertices: ints in 0..n-1, bool
    excluded."""
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    if not isinstance(w, tuple) or len(w) != 3 or type(w[2]) is not tuple:
        return False
    t, u, covers = w
    vs = (u,) + covers
    if type(t) is not int or not all(
            type(v) is int and 0 <= v < pg.n for v in vs):
        return False
    if len(set(vs)) != len(vs):
        return False
    gt = pg.snapshots[t % pg.period]
    gn = pg.snapshots[(t + 1) % pg.period]
    need = set(gt.closed_nbrs(u))
    have = set()
    for y in covers:
        have.update(gn.closed_nbrs(y))
    return need <= have
