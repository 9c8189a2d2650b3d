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

The cover sets of a layer depend only on (n, size, t), size = min(k, n-1),
so they are read from a table kept per key.  Each row of a table holds a
cover set Y, the mask of the vertices outside Y, and one slot per vertex u,
which keeps the CornerWitness(t, u, Y) built the first time u is a corner of
Y in that layer; a later scan appends the kept witness, an immutable tuple
that no caller can tell from a new one.  Tables are kept first come, until
all kept tables together hold _KEPT_ROWS rows; a layer whose table does not
fit is scanned by the same walk over `combinations`, building its witnesses,
and keeps nothing.  Threads may race to fill a slot or to keep a table: they
store equal values, a table is kept under a lock, and a scan reads a slot
once, so a race never yields a wrong witness.

Most consumers only ask whether a corner exists: the `no_corner_k` screen of
the reconstruction search (see `search._predicates`) and the corner-free
snapshot pairs that `families._gen_hamiltonian` chains.  `layer_corners(...,
first=True)` serves them from the same scan, returned at the first corner
found, and `has_k_temporal_corner` is its whole-period form.  It reads no
witness, so it takes every layer as layer 0, and its scans share one table.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from itertools import combinations
from math import comb

from .graphs import LimitError, _bits
from .periodic import PeriodicGraph

# candidate (t, u, cover set) tuples find_k_temporal_corners may enumerate
CORNER_CANDIDATE_LIMIT = 10**7

# The rows that the kept cover tables may hold in all: about 0.3 MB with
# their witnesses.  perfbench's corpus keeps 81 rows and the lem122 search 6;
# a long period, such as petersen_231's (p = 55), would need thousands, so
# the layers past the limit are scanned without a table.  At 1 << 10 rows,
# perfbench's paper read peak_rss_mb about 0.2 MB higher.
_KEPT_ROWS = 1 << 9

# (n, size, t) -> the kept cover table of that layer: its rows (Y, the mask
# of V - Y, slots), Y in lexicographic order and slots[u] the kept
# CornerWitness(t, u, Y) or None.  _kept_rows counts their rows.
_TABLES = {}
_kept_rows = 0
_KEEP_LOCK = threading.Lock()


class CornerWitness(namedtuple("CornerWitness", "t corner_vertex covers")):
    """(t, u, Y): u is a temporal corner at time t of the cover set Y at
    time t + 1.  The constructor checks types only, bool excluded;
    `validate_witness` checks a witness against a graph."""

    __slots__ = ()

    def __new__(cls, t, corner_vertex, covers):
        if (type(t) is not int or type(corner_vertex) is not int
                or type(covers) is not tuple or any(type(y) is not int for y in covers)):
            raise ValueError("CornerWitness: t and corner_vertex must be ints and covers "
                             "a tuple of ints: %r, %r, %r" % (t, corner_vertex, covers))
        return tuple.__new__(cls, (t, corner_vertex, covers))

    def as_dict(self):
        return {
            "t": self.t,
            "corner_vertex": self.corner_vertex,
            "covers": list(self.covers),
        }


def _cover_table(key):
    """The cover table of key = (n, size, t), now kept, or None when it does
    not fit within _KEPT_ROWS.  Tables are never dropped, so the first tables
    built are the ones kept."""
    global _kept_rows
    n, size, _t = key
    rows = comb(n, size)
    if _kept_rows + rows > _KEPT_ROWS:
        return None
    full = (1 << n) - 1
    table = []
    for ys in combinations(range(n), size):
        used = 0
        for y in ys:
            used |= 1 << y
        table.append((ys, full & ~used, [None] * n))
    with _KEEP_LOCK:
        kept = _TABLES.get(key)
        if kept is not None:  # another thread kept an equal table first
            return kept
        if _kept_rows + rows > _KEPT_ROWS:
            return table  # the others' tables filled the room meanwhile
        _kept_rows += rows
        _TABLES[key] = table
    return table


def layer_corners(gt, gn, k=1, first=False, t=0):
    """The k-corners of gt into gn, taken as layer t: for each vertex u, the
    list of its CornerWitness(t, u, covers), covers ascending, each cover a
    sorted tuple of min(k, n-1) vertices other than u whose closed
    neighborhoods in gn together hold u's closed neighborhood in gt.  The
    cover sets and the witnesses found before come from the kept table of
    (n, min(k, n-1), t), if it is kept (see the module docstring).  With
    `first`, the scan returns at the first corner found, so the lists hold
    at most that one and `any` of them tells whether a corner exists.
    """
    n, nbr, masks = gt.n, gn.masks, gt.masks
    found = [[] for _ in range(n)]
    if n < 2:
        return found
    size = min(k, n - 1)
    key = n, size, t
    table = _TABLES.get(key) or _cover_table(key)
    # CornerWitness(t, u, ys) is this call behind a Python-level __new__
    new = tuple.__new__
    # cover sets come in lexicographic order, so each list is born sorted
    if table is None:
        for ys in combinations(range(n), size):
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
    for ys, rest, slots in table:
        cover = 0
        for y in ys:
            cover |= nbr[y]
        for u in _bits(cover & rest):
            if masks[u] & ~cover == 0:
                w = slots[u]
                if w is None:
                    w = slots[u] = new(CornerWitness, (t, u, ys))
                found[u].append(w)
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
