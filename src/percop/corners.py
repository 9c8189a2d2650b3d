"""Temporal corner detection: the necessary-condition filters for copwin-ness.

A temporal node (t,u) is a k-temporal corner of covers (t+1,y_1..y_k) when
u is none of the y_i and the closed neighborhood of u at time t is contained
in the union of the closed neighborhoods of the y_i at time t+1.  Every
k-copwin arena contains one, so an empty report rules k-copwin out; the
converse does not hold, so presence proves nothing.

One pruned scan, `layer_corners`, serves every k.  Repeating a cover never
enlarges the union, so covers are distinct sets of min(k, n-1) vertices.
For each layer t, each prefix of all covers but the last, in lexicographic
order and leaving a vertex above it, and each u outside the prefix, the
last cover lies above the prefix and must hold every vertex of N_t[u] the
prefix leaves uncovered, so it is a neighbor in G_{t+1} of each such
vertex: of u when u is left, else of the lowest one.  At k = 1 the prefix
is empty and the candidates are u's neighbors in G_{t+1}.  Each u's covers
are kept in their own list, so witnesses come out sorted by (t, u, covers)
without a sort.  Prefixes are drawn one at a time, so the scan holds O(n)
beyond its output.  Every candidate is a distinct cover set, so
p*n*C(n-1, min(k, n-1)) bounds them; that count is checked against
CORNER_CANDIDATE_LIMIT for every k, k = 1 included, before anything is
enumerated.  No more prefixes than candidates are made, and the scan's work
is within a constant factor of checking the union of every candidate.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .graphs import LimitError

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


def layer_corners(gt, gn, k=1):
    """The k-corners of gt into gn: for each vertex u, the sorted list of its
    covers, each a sorted tuple of min(k, n-1) vertices other than u whose
    closed neighborhoods in gn together hold u's closed neighborhood in gt.
    """
    n, nbr = gt.n, gn.masks
    size = min(k, n - 1)
    found = [[] for _ in range(n)]
    if size < 1:
        return found
    # drawn from range(n-1), a prefix leaves a vertex above it for the last
    # cover; its union is made once and serves every u outside it
    for ys in combinations(range(n - 1), size - 1):
        used = union = 0
        for y in ys:
            used |= 1 << y
            union |= nbr[y]
        start = ys[-1] + 1 if ys else 0
        for u, mu in enumerate(gt.masks):
            bit = 1 << u
            if used & bit:
                continue
            left = mu & ~union
            if left & bit:
                vs = nbr[u]
            elif left:
                vs = nbr[(left & -left).bit_length() - 1]
            else:
                vs = (1 << n) - 1
            vs = (vs >> start << start) & ~bit
            while vs:
                low = vs & -vs
                v = low.bit_length() - 1
                if left & ~nbr[v] == 0:
                    found[u].append(ys + (v,))
                vs ^= low
    return found


def find_temporal_corners(pg):
    """All ((t,u), v) with u != v and N_t[u] <= N_{t+1}[v]."""
    return find_k_temporal_corners(pg, 1)


def find_k_temporal_corners(pg, k):
    """All k-temporal corner witnesses, covers as sorted distinct k-sets
    (all of V - u when k >= n), sorted by (t, u, covers)."""
    if type(k) is not int or k < 1:
        raise ValueError("k must be an int >= 1: %r" % (k,))
    n, p = pg.n, pg.period
    size = min(k, n - 1)
    if size <= 0:
        return []
    candidates = p * n * comb(n - 1, size)
    if candidates > CORNER_CANDIDATE_LIMIT:
        raise LimitError(
            "corner search budget exceeded: %d candidate tuples > %d"
            % (candidates, CORNER_CANDIDATE_LIMIT)
        )
    snaps = pg.snapshots
    return [
        CornerWitness(t, u, ys)
        for t in range(p)
        for u, covers in enumerate(
            layer_corners(snaps[t], snaps[(t + 1) % p], k))
        for ys in covers
    ]


def validate_witness(pg, w):
    """Re-check a witness against the raw snapshot neighborhoods."""
    gt = pg.snapshots[w.t % pg.period]
    gn = pg.snapshots[(w.t + 1) % pg.period]
    if w.corner_vertex in w.covers:
        return False
    need = set(gt.closed_nbrs(w.corner_vertex))
    have = set()
    for y in w.covers:
        have.update(gn.closed_nbrs(y))
    return need <= have
