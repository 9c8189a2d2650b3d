"""Naive reference solver used only as a test oracle.

Implements the game rules directly, with none of the production solver's
shortcuts: cops are an ordered tuple (no interchangeability reduction),
capture happens exactly when a cop moves (or stays) onto the robber, and the
robber may step onto an occupied vertex without immediately losing.  The
fixpoint is a plain change-loop over explicit dictionaries.
"""

import itertools


def reference_is_k_copwin(pg, k):
    n, p = pg.n, pg.period
    nbrs = [
        [pg.snapshots[t].closed_nbrs(v) for v in range(n)] for t in range(p)
    ]
    cop_tuples = list(itertools.product(range(n), repeat=k))
    states = []
    for t in range(p):
        for c in cop_tuples:
            for r in range(n):
                states.append((t, c, r, "C"))
                states.append((t, c, r, "R"))
    win = {}
    for s in states:
        win[s] = False
    changed = True
    while changed:
        changed = False
        for (t, c, r, side) in states:
            if win[(t, c, r, side)]:
                continue
            if side == "C":
                # cops move in G_t; capture iff some cop lands on r
                for moved in itertools.product(*[nbrs[t][ci] for ci in c]):
                    if r in moved or win[(t, moved, r, "R")]:
                        win[(t, c, r, "C")] = True
                        changed = True
                        break
            else:
                # robber moves in G_t, may step anywhere in its neighborhood
                t1 = (t + 1) % p
                if all(win[(t1, c, r2, "C")] for r2 in nbrs[t][r]):
                    win[(t, c, r, "R")] = True
                    changed = True
    for c in cop_tuples:
        if all(r in c or win[(0, c, r, "C")] for r in range(n)):
            return True
    return False


def reference_cop_number(pg, max_k=None):
    k = 1
    while True:
        if reference_is_k_copwin(pg, k):
            return k
        k += 1
        if max_k is not None and k > max_k:
            return None


def reference_ranks(pg, k, allow_stacking=True):
    """Every state's rank, and the initial placement, by value iteration.

    Follows the production solver's conventions, not the strict rules above:
    cops are sorted multisets (distinct sets without stacking), and any
    co-location of a cop and the robber is a capture, of rank 0 whichever side
    is to move.  A cop-to-move state (side 0) has rank 1 + the min over cop
    moves, a robber-to-move state (side 1) the max over robber escapes into the
    next layer.  Starting from "no state won", iteration i gives the values of
    the game cut off after i cop moves, so the fixpoint holds the exact ranks;
    states the cops do not win map to None.  The placement is the first
    configuration, in sorted order, among those that win against every robber
    start with the fewest cop moves in the worst case.
    """
    n, p = pg.n, pg.period
    nbrs = [
        [pg.snapshots[t].closed_nbrs(v) for v in range(n)] for t in range(p)
    ]
    if allow_stacking:
        configs = list(itertools.combinations_with_replacement(range(n), k))
    else:
        configs = list(itertools.combinations(range(n), k))

    def moves(t, c):
        out = set()
        for moved in itertools.product(*[nbrs[t][v] for v in c]):
            if allow_stacking or len(set(moved)) == k:
                out.add(tuple(sorted(moved)))
        return out

    succ = {(t, c): moves(t, c) for t in range(p) for c in configs}
    states = [
        (t, c, r, side)
        for t in range(p) for c in configs for r in range(n) for side in (0, 1)
    ]
    rank = {s: (0 if s[2] in s[1] else None) for s in states}
    changed = True
    while changed:
        changed = False
        new = {}
        for (t, c, r, side) in states:
            if r in c:
                new[(t, c, r, side)] = 0
                continue
            if side == 0:
                vals = [rank[(t, c2, r, 1)] for c2 in succ[(t, c)]]
                vals = [v for v in vals if v is not None]
                value = 1 + min(vals) if vals else None
            else:
                vals = [rank[((t + 1) % p, c, r2, 0)] for r2 in nbrs[t][r]]
                value = None if None in vals else max(vals)
            new[(t, c, r, side)] = value
            if value != rank[(t, c, r, side)]:
                changed = True
        rank = new
    placement = None
    best = None
    for c in configs:
        starts = [rank[(0, c, r, 0)] for r in range(n)]
        if None in starts:
            continue
        if best is None or max(starts) < best:
            best = max(starts)
            placement = c
    return rank, placement


def reference_corners(pg, k):
    """Every k-temporal corner as (t, u, covers), by brute force over sets.

    Covers are the sorted (min(k, n-1))-subsets of V - {u}; one is a corner
    when the closed neighborhoods at t+1 of its vertices together hold the
    closed neighborhood of u at t.  Neighborhoods are rebuilt from the edge
    sets, so nothing is shared with the production scan.
    """
    n, p = pg.n, pg.period
    closed = []
    for g in pg.snapshots:
        nb = [{v} for v in range(n)]
        for a, b in g.edges:
            nb[a].add(b)
            nb[b].add(a)
        closed.append(nb)
    out = []
    for t in range(p):
        now, nxt = closed[t], closed[(t + 1) % p]
        for u in range(n):
            others = [v for v in range(n) if v != u]
            for ys in itertools.combinations(others, min(k, n - 1)):
                if ys and now[u] <= set().union(*(nxt[y] for y in ys)):
                    out.append((t, u, ys))
    return out


def reference_periodic(snapshots):
    """What PeriodicGraph and footprint make of valid snapshots, from their
    edge sets: (n, the masks of the distinct snapshots in order of first
    appearance, usnap, the footprint's masks, temporal connectivity).

    Snapshots are told apart by a linear scan of edge sets, the footprint is
    the union of the edge sets, and connectivity is a plain search over it,
    so no dict, OR loop or connectivity test is shared with the library.
    """
    n = snapshots[0].n
    seen, usnap = [], []
    for g in snapshots:
        edges = set(g.edges)
        if edges not in seen:
            seen.append(edges)
        usnap.append(seen.index(edges))

    def masks(edges):
        out = [1 << v for v in range(n)]
        for a, b in edges:
            out[a] |= 1 << b
            out[b] |= 1 << a
        return tuple(out)

    union = set().union(*seen)
    reached, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for a, b in union:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    todo.append(y)
    return (n, [masks(e) for e in seen], usnap, masks(union),
            len(reached) == n)


def reference_propagate(pg, k, ranked):
    """The solver's induction loop as it ran before its first two levels were
    computed in closed form: levels 0 and 1 run the robber sweep and the
    succ-driven cop step like every later level.

    Configurations, masks, moves and neighbourhoods are rebuilt here from the
    snapshots.  Returns (cw, rw, rank, first): cw and rw hold one mask of
    robber vertices per key t * nc + ci (the solver keeps one configuration
    set per t * n + r instead), rank index ((key * n + robber) << 1) | side,
    rank a list (None when not ranked), first the least (level, ci) of a
    filled layer-0 cw mask.
    Each level runs its fill test before its robber sweep.  Unranked, the
    loop ends at the fill test of the first level at which a layer-0 mask
    fills, so its rw holds the robber states of lower levels only; ranked,
    or when none fills, at the fixpoint.
    """
    n, p = pg.n, pg.period
    nbrs = [
        [pg.snapshots[t].closed_nbrs(v) for v in range(n)] for t in range(p)
    ]
    cfgs = list(itertools.combinations_with_replacement(range(n), k))
    index = {c: i for i, c in enumerate(cfgs)}
    nc = len(cfgs)
    masks = [sum(1 << v for v in set(c)) for c in cfgs]
    succ = [
        [
            {index[tuple(sorted(moved))]
             for moved in itertools.product(*[nbrs[t][v] for v in c])}
            for c in cfgs
        ]
        for t in range(p)
    ]

    def closed(t, y):
        return sum(1 << u for u in
                   {u for v in range(n) if (y >> v) & 1 for u in nbrs[t][v]})

    def write(key, bits, side, level):
        for r in range(n):
            if (bits >> r) & 1:
                rank[((key * n + r) << 1) | side] = level

    full = (1 << n) - 1
    cw = masks * p
    rw = [0] * (p * nc)
    rank = [0] * (p * nc * n * 2) if ranked else None
    filled = []
    level = 0
    stale = {t * nc + ci: t for t in range(p) for ci in range(nc)}
    while True:
        for key1, t1 in stale.items():  # the fill test: at t1 = 0, key1 = ci
            if t1 == 0 and cw[key1] == full:
                filled.append((level, key1))
        if filled and not ranked:
            break
        drw = []
        for key1, t1 in stale.items():
            ci = key1 - t1 * nc
            t0 = (t1 - 1) % p
            key = t0 * nc + ci
            won = (full & ~closed(t0, full & ~cw[key1])) | masks[ci]
            new = won & ~rw[key]
            if new:
                rw[key] |= new
                drw.append((t0, ci, new))
                if ranked:
                    write(key, new, 1, level)
        if not drw:
            break
        level += 1
        stale = {}
        for t, ci, bits in drw:
            for cj in succ[t][ci]:
                key = t * nc + cj
                new = bits & ~cw[key]
                if new:
                    cw[key] |= new
                    stale[key] = t
                    if ranked:
                        write(key, new, 0, level)
    return cw, rw, rank, min(filled, default=None)


def reference_graph_classes(n):
    """(pairs, masks): every graph on n vertices up to isomorphism, by its
    least edge mask, ascending.  Bit i of a mask is the edge pairs[i].

    Per-mask minimisation: a mask is kept when no relabelling of its edges
    gives a smaller mask.
    """
    pairs = list(itertools.combinations(range(n), 2))
    bit = {e: 1 << i for i, e in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    masks = []
    for mask in range(1 << len(pairs)):
        edges = [e for e in pairs if mask & bit[e]]
        if all(sum(bit[tuple(sorted((q[u], q[v])))] for u, v in edges) >= mask
               for q in perms):
            masks.append(mask)
    return pairs, masks


def reference_exact_treewidth(g):
    """(treewidth, decomposition dict) by the elimination-prefix DP, uncapped.

    f(S) is the cheapest max back-set size over orderings that eliminate S
    first, every minimum starting above any width (n + 1); last[S] is the
    lowest v reaching it.  The back set Q(S, v) is the set of vertices
    outside S reachable from v through S.  The decomposition is read off the
    optimal ordering as in the production DP, in the shape of
    `TreeDecomposition.as_dict`.
    """
    n = g.n
    open_adj = [g.nbr_mask(v) & ~(1 << v) for v in range(n)]

    def back_set(S, v):
        inner = S | 1 << v
        seen = todo = 1 << v
        while todo:
            low = todo & -todo
            todo ^= low
            new = open_adj[low.bit_length() - 1] & ~seen
            seen |= new
            todo |= new & inner
        return seen & ~inner

    full = (1 << n) - 1
    f = [0] * (1 << n)
    last = [0] * (1 << n)
    f[0] = -1
    for S in range(1, full + 1):
        best = n + 1
        for v in range(n):
            if not S >> v & 1:
                continue
            Sv = S ^ 1 << v
            if f[Sv] >= best:
                continue  # v cannot lower the minimum
            cost = max(f[Sv], back_set(Sv, v).bit_count())
            if cost < best:
                best = cost
                last[S] = v
        f[S] = best

    order = []
    S = full
    while S:
        order.append(last[S])
        S ^= 1 << last[S]
    order.reverse()
    pos_of = {v: i for i, v in enumerate(order)}
    bags, tree_edges, roots = [], [], []
    S = 0
    for i, v in enumerate(order):
        back = back_set(S, v)
        S |= 1 << v
        later = [u for u in range(n) if back >> u & 1]
        bags.append(sorted([v] + later))
        if later:
            tree_edges.append((i, min(pos_of[u] for u in later)))
        else:
            roots.append(i)
    tree_edges += zip(roots, roots[1:])
    width = f[full]
    return width, {
        "width": max(len(b) for b in bags) - 1,
        "bags": bags,
        "tree_edges": [list(e) for e in sorted(tree_edges)],
    }
