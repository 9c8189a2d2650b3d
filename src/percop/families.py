"""The candidate streams of the search families, one per family.

`search` asks `_candidates` for a family's stream: a generator of
(instance, witness params), or None for a try that built no candidate.
`subgraph_assignment` (when its space is small) and `circulant` walk a fixed
order and read no RNG; every other stream draws from the random.Random that
`search` seeds with the spec's seed, so (spec, seed) fixes the stream.

The coin contract of `girth_snapshots`, on which lem122's shipped witness
depends: a girth-4 draw on n vertices reads n + m coins, each the outcome of
one `random() < 0.5` call: first its vertex split, one coin per vertex
from 0 up, then one coin per pair u < v across the split, m of them, in
lexicographic order.  `_coin_flips` reads those coins from the same
Mersenne-Twister words that the random() calls would, so the RNG may run
ahead of the last coin used but never disagrees with it.  A change to what
a coin means or to how many a draw uses moves lem122's witness.

This module reads nothing from `search`.
"""

from __future__ import annotations

import collections
import itertools

# perfbench's hot probes wrap girth and domination_number on search and
# solver only, so the calls made here are not counted (ROADMAP item 4)
from .graphs import (Graph, PETERSEN_EDGES, domination_number, girth,
                     masks_connected, petersen_graph)
from .periodic import PeriodicGraph
from .corners import layer_corners
from .constructions import circulant_123


# the circulant strides when a spec lists none
_STRIDES = (1, 2, 3, 4, 5)


def _edge_list(edges):
    """Spec edges as Graph stores them: (min, max) pairs."""
    return [(min(u, v), max(u, v)) for u, v in edges]


def _path_from_perm(n, perm):
    return Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])


def _gen_hamiltonian(spec, rng):
    """Chain corner-free random paths, steering coverage of the hub vertex.

    The first snapshots follow the spec hints (a fixed opening path and a set
    of forced edges in the second snapshot) for a while, then fall back to
    fully random openings.
    """
    n, p = spec.n, spec.p
    hub = spec.footprint_constraint.get("vertex")
    g0_hint = spec.hints.get("g0_path")
    g1_frags = spec.hints.get("g1_fragments")
    hint_rounds = 10_000
    tries_per_slot = 300

    def hub_nbrs(perm):
        i = perm.index(hub)
        return {perm[j] for j in (i - 1, i + 1) if 0 <= j < n}

    round_no = 0
    while True:
        round_no += 1
        use_hint = g0_hint is not None and round_no <= hint_rounds
        if use_hint:
            perm0 = list(g0_hint)
        else:
            perm0 = list(range(n))
            rng.shuffle(perm0)
        graphs = [_path_from_perm(n, perm0)]
        cover = set() if hub is None else hub_nbrs(perm0)
        for t in range(1, p):
            for _ in range(tries_per_slot):
                if use_hint and t == 1 and g1_frags:
                    frags = [list(f) for f in g1_frags]
                    rng.shuffle(frags)
                    perm = []
                    for f in frags:
                        if rng.random() < 0.5:
                            f.reverse()
                        perm.extend(f)
                else:
                    perm = list(range(n))
                    rng.shuffle(perm)
                g = _path_from_perm(n, perm)
                if any(layer_corners(graphs[-1], g, first=True)):
                    continue
                if t == p - 1 and any(layer_corners(g, graphs[0], first=True)):
                    continue
                if hub is not None:
                    nbrs = hub_nbrs(perm)
                    missing = (n - 1) - len(cover)
                    if missing > 0 and not (nbrs - cover) and p - t <= missing + 1:
                        continue
                    cover |= nbrs
                graphs.append(g)
                break
            else:
                break
        if len(graphs) < p or hub is not None and len(cover) != n - 1:
            yield None
            continue
        yield PeriodicGraph(graphs), {}


# the largest n whose draws keep a verdict table: one byte per word of
# n + n^2/4 coins, so 2^(n + n^2/4) bytes at n (32 KB at n = 6, 34 KB for
# n <= 6 together); at n = 7 it would be 512 KB and at n = 8 16 MB
_GIRTH4_TABLE_MAX_N = 6
# a word's verdict: 0 if its draw is not judged yet, n + m if it is
# rejected (the coins the draw consumes, at most 15 for n <= 6), and
# _ACCEPTED + gamma if it is accepted with domination number gamma
_ACCEPTED = 16
# n -> (a `_SideRows` row per side, a verdict per word), built on the first
# draw at that n
_GIRTH4_TABLES = {}
# a random() call's first 32-bit word's top byte -> b"1" iff random() < 0.5
_BELOW_HALF = bytes.maketrans(bytes(range(256)), b"1" * 128 + b"0" * 128)
# a coin b"0" or b"1" -> a byte that is false or true, to select its pair
_KEEPS = bytes.maketrans(b"01", b"\0\1")


def _coin_flips(rng, m):
    """b"1"/b"0" for each of m `rng.random() < 0.5` draws, consuming the same
    Mersenne-Twister words: random() reads two 32-bit words and is below 0.5
    exactly when the first one's top bit is clear, and getrandbits(64 m)
    packs the same 2m words least significant first."""
    return rng.getrandbits(64 * m).to_bytes(8 * m, "little")[3::8].translate(_BELOW_HALF)


# coins a refill reads ahead from the RNG, or as many as one draw needs
_COIN_BLOCK = 4096
# coins one int(., 2) parse reads, or as many as one draw needs
_SPAN = 64


class _SideRows(dict):
    """Side s -> (its cross pairs, their count), built on first read; s
    reads vertex 0 as its top bit, as int(coins, 2) does.  The two
    one-sided splits have no cross pairs: their one draw is the edgeless
    graph, rejected on first sight."""

    def __init__(self, n):
        self.n = n

    def __missing__(self, s):
        side = format(s, "0%db" % self.n)
        # the pairs u < v that the side puts apart
        pairs = [(u, v) for u, v in itertools.combinations(range(self.n), 2)
                 if side[u] != side[v]]
        row = self[s] = (pairs, len(pairs))
        return row


def _girth4_table(n):
    """(rows, verdicts) of the draws on n vertices: a list and a bytearray
    kept across searches up to `_GIRTH4_TABLE_MAX_N`, and past it a fresh
    `_SideRows` and a dict that reads 0 for every word, for one window of
    `_girth4_draws`."""
    if n > _GIRTH4_TABLE_MAX_N:
        return _SideRows(n), collections.defaultdict(int)
    table = _GIRTH4_TABLES.get(n)
    if table is None:
        rows = _SideRows(n)
        table = _GIRTH4_TABLES[n] = ([rows[s] for s in range(1 << n)],
                                     bytearray(1 << n + n * n // 4))
    return table


def _connected_girth4(masks):
    """Graph._of(masks) if it is connected with girth 4, else None."""
    if masks_connected(masks):
        g = Graph._of(masks)
        if girth(g) == 4:
            return g
    return None


def _girth4_draws(rng, n):
    """Yield (a connected girth-4 graph on n vertices, its domination
    number) per window of at most 200 draws, or (None, None) if the
    window accepted none.

    A draw splits the vertices by one coin each and keeps each of the m
    pairs across the split by another: n + m coins of `random() < 0.5`
    calls, on which lem122's witness depends.  A one-sided split (m = 0)
    is the edgeless graph, never accepted.  The coins come from ``rng``
    through `_coin_flips` into ``buf``, and ``at`` is the first one not
    used yet.  One int(., 2) parse reads a span of `_SPAN` coins from
    ``at`` into ``bits``, and each draw takes its word, the next n + n^2/4
    coins, from the span by shift and mask: the word holds its side in the
    top n bits and, below it, its cross coins.  A draw moves ``at`` past
    the n + m coins it used; once the span holds no whole word, the next
    parse starts at ``at``.  One refill, at least `_COIN_BLOCK` coins, runs
    before a parse whose word would run past the end of ``buf``, so the
    RNG runs ahead of the last coin used.  Only a draw not rejected before
    reads its side's row and builds its closed-neighborhood masks from its
    kept pairs; an accepted draw is the Graph of those masks.

    For n <= 6 a draw is one of few: 2^n sides, each with at most 2^9
    subsets of its cross pairs (18,306 draws in all at n = 6).  A search
    samples far more draws than that (lem122's makes 555,197 at n = 6), so
    most draws repeat.  The verdict table of n, one byte per word, is a
    cache that the loop reads before anything else: a draw's words are
    those that share its top n + m bits, and judging it writes its verdict
    to all 2^(n^2/4 - m) of them in one slice, so the connectivity, girth
    and domination tests run once per draw, a rejected draw seen before
    costs one read and one add, and an accepted one its row and masks.
    For n >= 7 the table would take 512 KB or more, so every draw is
    tested, and the domination number is None, left to a caller that
    needs it.
    """
    ones = [1 << v for v in range(n)]
    # a draw reads n coins for its side and m <= most = n^2/4 for its
    # pairs; its word is the next need = n + most coins
    most = n * n // 4
    need, full = n + most, (1 << n + most) - 1
    width = max(_SPAN, need)
    kept = n <= _GIRTH4_TABLE_MAX_N
    # bits holds the last span parsed, which ends need coins past last, so
    # the word of a draw at at <= last is bits >> last - at & full
    buf, at, end, last, bits = b"", 0, -1, -1, 0
    # a kept table is read once; past them each window reads a fresh one
    table = _girth4_table(n) if kept else None
    while True:
        rows, verdicts = table or _girth4_table(n)
        g = gamma = None
        for _ in range(200):
            if at > last:
                if at > end:
                    buf = buf[at:] + _coin_flips(rng, max(_COIN_BLOCK, need))
                    at, end = 0, len(buf) - need
                span = buf[at:at + width]
                bits, last = int(span, 2), at + len(span) - need
            w = bits >> last - at & full
            verdict = verdicts[w]
            if 0 < verdict < _ACCEPTED:
                at += verdict
                continue
            pairs, m = rows[w >> most]
            # the coins the draw consumes, its verdict if it is rejected
            used = n + m
            at += used
            masks = ones[:]
            for u, v in itertools.compress(pairs, buf[at - m:at].translate(_KEEPS)):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            if verdict:
                g, gamma = Graph._of(masks), verdict - _ACCEPTED
                break
            g = _connected_girth4(masks)
            if kept:
                if g is None:
                    verdict = used
                else:
                    gamma = domination_number(g)
                    verdict = _ACCEPTED + gamma
                # the draw's words: w's top n + m bits, any coins below
                low = most - m
                lo, hi = w >> low << low, (w >> low) + 1 << low
                verdicts[lo:hi] = bytes((verdict,)) * (hi - lo)
            if g is not None:
                break
        yield g, gamma


def _gen_girth(spec, rng):
    """Candidates of connected girth-4 snapshots, the windows of one
    `_girth4_draws` stream of ``rng``.  A ``gamma_g0`` target reads G_0's
    domination number from the draws, and computes it only past the
    verdict tables."""
    n, p = spec.n, spec.p
    gamma0 = spec.targets.get("gamma_g0")
    draws = _girth4_draws(rng, n)
    while True:
        for _ in range(200):
            g0, gamma = next(draws)
            # gamma is None past the verdict tables, and never 0
            if g0 is not None and (
                gamma0 is None or gamma0 == (gamma or domination_number(g0))
            ):
                break
        else:
            yield None
            continue
        rest = [next(draws)[0] for _ in range(p - 1)]
        if any(g is None for g in rest):
            yield None
            continue
        yield PeriodicGraph([g0] + rest), {}


def _petersen_five_cycles():
    """Petersen's twelve 5-cycles as sorted edge lists, in sorted order.

    Petersen has girth 5, so five vertices that span five edges form a
    5-cycle.
    """
    pet = petersen_graph()
    cycles = []
    for combo in itertools.combinations(range(10), 5):
        edges = [e for e in itertools.combinations(combo, 2) if pet.has_edge(*e)]
        if len(edges) == 5:
            cycles.append(edges)
    return sorted(cycles)


def _gen_petersen_blocks(spec, rng):
    """Unicyclic spanning subgraphs of Petersen, each repeated along a pattern."""
    cycles = _petersen_five_cycles()
    pattern = spec.snapshot_constraint["pattern"]
    groups = sorted(set(pattern))
    while True:
        want = set(PETERSEN_EDGES)
        per_group = {}
        for gid in groups:
            cyc = rng.choice(cycles)
            edges = {tuple(e) for e in cyc}
            verts = {v for e in edges for v in e}
            while len(verts) < 10:
                cands = [
                    (u, v)
                    for (u, v) in PETERSEN_EDGES
                    if (u in verts) != (v in verts)
                ]
                wanted = [e for e in cands if e in want]
                e = (
                    rng.choice(wanted)
                    if wanted and rng.random() < 0.8
                    else rng.choice(cands)
                )
                edges.add(e)
                verts.update(e)
            g = Graph(10, sorted(edges))
            want -= g.edges
            per_group[gid] = g
        if want:
            yield None
            continue
        yield PeriodicGraph([per_group[gid] for gid in pattern]), {}


def _pg_from_assignment(n, p, edges, assign):
    layer_edges = [[] for _ in range(p)]
    for e, layers in zip(edges, assign):
        for t in layers:
            layer_edges[t].append(e)
    return PeriodicGraph([Graph(n, le) for le in layer_edges])


def _iter_subgraph_assignments(spec):
    """Deterministic exhaustive order: hinted sub-space first, then the rest."""
    n, p = spec.n, spec.p
    edges = _edge_list(spec.snapshot_constraint["edges"])
    subs = [frozenset(t for t in range(p) if (s >> t) & 1) for s in range(1, 1 << p)]
    layers = spec.hints.get("edge_layers", ())
    hint = dict(zip(_edge_list(h["edge"] for h in layers), layers))

    def options(e):
        h = hint.get(e)
        if h is None:
            return subs
        req = set(h.get("require", ()))
        forb = set(h.get("forbid", ()))
        return [s for s in subs if req <= s and not (forb & s)]

    hinted = [options(e) for e in edges] if hint else None
    if hinted:
        for assign in itertools.product(*hinted):
            yield _pg_from_assignment(n, p, edges, assign), {}
    for assign in itertools.product(subs, repeat=len(edges)):
        if hinted and all(s in h for s, h in zip(assign, hinted)):
            continue  # tried in the hinted phase
        yield _pg_from_assignment(n, p, edges, assign), {}


def _local_moves(spec, rng):
    """Random walk over layer assignments: toggle one layer of one edge a step."""
    n, p = spec.n, spec.p
    edges = _edge_list(spec.snapshot_constraint["edges"])
    assign = [frozenset(rng.sample(range(p), rng.randint(1, p))) for _ in edges]
    while True:
        yield _pg_from_assignment(n, p, edges, assign), {}
        i = rng.randrange(len(edges))
        s = set(assign[i])
        s.symmetric_difference_update({rng.randrange(p)})
        if s:
            assign[i] = frozenset(s)


def _distinct_orders(items):
    """Each distinct order of ``items`` once, in lexicographic order, one at
    a time (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def _iter_circulant(spec):
    """Distinct stride orders, those ending in the hinted suffix first, each
    phase lexicographic; None where circulant_123 rejects one."""
    strides = spec.snapshot_constraint.get("strides", _STRIDES)
    suffix = tuple(spec.hints.get("suffix", ()))
    rest = list(strides)
    try:
        for s in suffix:
            rest.remove(s)
    except ValueError:
        rest = None  # no order ends in the suffix
    hinted = () if rest is None else (q + suffix for q in _distinct_orders(rest))
    unhinted = (q for q in _distinct_orders(strides)
                if q[len(q) - len(suffix):] != suffix)
    for q in itertools.chain(hinted, unhinted):
        steps = list(q)
        try:
            specimen = circulant_123(steps)
        except ValueError:
            yield None
            continue
        yield specimen.instance, {"steps": steps}
