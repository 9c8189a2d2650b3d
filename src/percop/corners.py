"""Temporal corner detection: the necessary-condition filters for copwin-ness.

A temporal node (t,u) is a k-temporal corner of covers (t+1,y_1..y_k) when
u is none of the y_i and the closed neighborhood of u at time t is contained
in the union of the closed neighborhoods of the y_i at time t+1.  Every
k-copwin arena contains one, so an empty report rules k-copwin out; the
converse does not hold, so presence proves nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .graphs import LimitError

# candidate (t, u, cover set) tuples find_k_temporal_corners may enumerate
CORNER_CANDIDATE_LIMIT = 10**7


@dataclass(frozen=True, order=True)
class CornerWitness:
    t: int
    corner_vertex: int
    covers: tuple

    def as_dict(self):
        return {
            "t": self.t,
            "corner_vertex": self.corner_vertex,
            "covers": list(self.covers),
        }


def _pair_corners(gt, gn):
    """Every (u, v) with u != v and N[u] in gt contained in N[v] in gn.

    Since u covers itself, only v with u in N[v] can work, which restricts
    the inner scan to gn's neighbors of u, taken in ascending order.
    """
    for u in range(gt.n):
        mu = gt.nbr_mask(u)
        vs = gn.nbr_mask(u) & ~(1 << u)
        while vs:
            low = vs & -vs
            v = low.bit_length() - 1
            if mu & ~gn.nbr_mask(v) == 0:
                yield u, v
            vs ^= low


def find_temporal_corners(pg):
    """All ((t,u), v) with u != v and N_t[u] <= N_{t+1}[v]."""
    p = pg.period
    return [
        CornerWitness(t, u, (v,))
        for t in range(p)
        for u, v in _pair_corners(pg.snapshots[t], pg.snapshots[(t + 1) % p])
    ]


def find_k_temporal_corners(pg, k):
    """All k-temporal corner witnesses, covers as sorted distinct k-sets.

    Repetition in a cover never enlarges the union, so only distinct cover
    sets are enumerated (capped at n-1 candidates when k exceeds them).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = pg.n
    size = min(k, n - 1)
    if size <= 0:
        return []
    candidates = pg.period * n * comb(n - 1, size)
    if candidates > CORNER_CANDIDATE_LIMIT:
        raise LimitError(
            "corner search budget exceeded: %d candidate tuples > %d"
            % (candidates, CORNER_CANDIDATE_LIMIT)
        )
    out = []
    p = pg.period
    for t in range(p):
        gt = pg.snapshots[t]
        gn = pg.snapshots[(t + 1) % p]
        next_masks = [gn.nbr_mask(v) for v in range(n)]
        for u in range(n):
            mu = gt.nbr_mask(u)
            others = [v for v in range(n) if v != u]
            for ys in itertools.combinations(others, size):
                union = 0
                for y in ys:
                    union |= next_masks[y]
                if mu & ~union == 0:
                    out.append(CornerWitness(t, u, ys))
    return out


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
