"""Exact tree decompositions for small graphs and the bag-based cop strategy.

One table, nb[S] = N[S] over every vertex subset S, gives the elimination
DP its costs and the decomposition its bags.  The back set Q(S, v) of
Rose, Tarjan & Lueker (1976), the vertices outside S + v reachable from v
through S, is N(C) minus S + v for v's component C of G[S + v], so the DP
prices a whole component at once: a connected S costs |N(S) - S|, and a
disconnected S costs the max over its lowest vertex's component and the
rest.  Components are grown through nb too, and each bag is read from nb
in the same way.  No upper bound caps the DP.  Every other reachability
question is one bitmask closure (`graphs.mask_closure`): the tree check
asks whether the tree edges connect the bags, and the side of a bag-tree
edge (x, y) is the closure from y with x cut out.
The width bound transfers to periodic play:
width+1 cops holding a bag of the footprint, with one cop at a time walking
stubbornly to the next bag, capture the robber on any temporally connected
periodic graph over that footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, LimitError, mask_closure, masks_connected
from .periodic import footprint, foremost_journey, is_temporally_connected
from .solver import CopPolicy


@dataclass
class TreeDecomposition:
    """Bags indexed 0..b-1 with an undirected tree on the indexes."""

    bags: list          # list of frozensets of footprint vertices
    tree_edges: list    # list of (i, j) bag index pairs

    def __post_init__(self):
        # the containers only: validate_decomposition checks what they hold
        if type(self.bags) is not list or any(type(b) is not frozenset for b in self.bags):
            raise ValueError("TreeDecomposition: bags must be a list of frozensets: %r"
                             % (self.bags,))
        if type(self.tree_edges) is not list or any(
                type(e) is not tuple or len(e) != 2 for e in self.tree_edges):
            raise ValueError("TreeDecomposition: tree_edges must be a list of pairs: %r"
                             % (self.tree_edges,))

    @property
    def width(self):
        return max(len(b) for b in self.bags) - 1

    def neighbors(self, i):
        out = []
        for a, b in self.tree_edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def as_dict(self):
        return {
            "width": self.width,
            "bags": [sorted(b) for b in self.bags],
            "tree_edges": [list(e) for e in sorted(self.tree_edges)],
        }


def _tree_masks(td):
    """The bag tree as adjacency masks over bag indexes."""
    masks = [0] * len(td.bags)
    for a, b in td.tree_edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def validate_decomposition(td, g):
    """Return None if valid, else a string naming the violated condition."""
    if type(td) is not TreeDecomposition:
        raise ValueError("validate_decomposition: td must be a TreeDecomposition: %r"
                         % (td,))
    if type(g) is not Graph:
        raise ValueError("validate_decomposition: g must be a Graph: %r" % (g,))
    nb = len(td.bags)
    if not nb:
        return "decomposition has no bags"
    # bool is not an int here, and no float is compared as one
    if any(type(u) is not int for b in td.bags for u in b):
        return "a bag holds a vertex that is not an int"
    for a, b in td.tree_edges:
        if type(a) is not int or type(b) is not int:
            return "a tree edge end is not an int"
        if not (0 <= a < nb and 0 <= b < nb):
            return "tree edge references a missing bag"
    # the tree must be a tree: nb - 1 edges close a cycle iff they leave
    # the nb bags disconnected
    if len(td.tree_edges) != nb - 1:
        return "bag graph is not a tree (edge count)"
    if not masks_connected(_tree_masks(td)):
        return "bag graph is not a tree (cycle)"
    covered = set()
    for b in td.bags:
        covered |= set(b)
    if not covered <= set(range(g.n)):
        return "a bag holds a vertex outside the graph"
    if covered != set(range(g.n)):
        return "some vertex appears in no bag"
    for u, v in g.edges:
        if not any(u in b and v in b for b in td.bags):
            return "some edge has no common bag"
    # in a tree, h bags induce a subtree exactly when they span h - 1 edges
    for u in range(g.n):
        held = sum(u in b for b in td.bags)
        spanned = sum(u in td.bags[a] and u in td.bags[b] for a, b in td.tree_edges)
        if spanned != held - 1:
            return "bags of vertex %d do not induce a subtree" % u
    return None


def exact_treewidth(g, limit=13):
    """(treewidth, minimal TreeDecomposition) by DP over elimination prefixes.

    f(S) = cheapest max |Q(S - v, v)| over orderings eliminating S first.
    Q(S - v, v) is the closure from v through S, minus S, so it is the same
    for every v in one component of G[S].  A connected S costs
    max(min_v f(S - v), |N(S) - S|), read off the table nb[S] = N[S], which
    grows by one vertex per subset.  A disconnected S is eliminated one
    component at a time, so f(S) = max(f(C), f(S - C)) for the component C
    of its lowest vertex, grown by nb from that vertex.  No bound caps f.
    Walking down from the full set, removing the lowest v with
    f(S - v) <= f(S), gives an optimal ordering.  Bag i is order[i] plus
    its back set Q(order[:i], order[i]), read from the same table: grow
    v's component C of G[order[:i + 1]] by nb, and take N(C) minus it.
    The bag is joined to the bag of its earliest back-set member.

    The walk needs no back set: |Q(S - v, v)| = |N(C) - S| for v's component
    C, and every ordering of S pays that much for the last vertex of C it
    eliminates, so it is at most f(S).  The lowest v whose cost reaches
    f(S), the one a per-v minimum with a strict < keeps, is therefore the
    lowest v with f(S - v) <= f(S).
    """
    if type(g) is not Graph:
        raise ValueError("exact_treewidth: g must be a Graph: %r" % (g,))
    if type(limit) is not int or limit < 1:
        raise ValueError("limit must be an int >= 1, got %r" % (limit,))
    if g.n == 0:
        raise ValueError("treewidth undefined for the empty graph")
    if g.n > limit:
        raise LimitError("exact treewidth limit exceeded: n=%d > %d" % (g.n, limit))
    n = g.n
    open_adj = [g.nbr_mask(v) & ~(1 << v) for v in range(n)]
    full = (1 << n) - 1
    f = [0] * (1 << n)
    nb = [0] * (1 << n)
    f[0] = -1
    # a proper subset of S is a smaller int, so its f and nb are set
    for S in range(1, full + 1):
        low = S & -S
        nbS = nb[S] = nb[S ^ low] | open_adj[low.bit_length() - 1] | low
        comp = low
        while True:
            grown = nb[comp] & S
            if grown == comp:
                break
            comp = grown
        if comp != S:
            a, b = f[comp], f[S ^ comp]
            f[S] = a if a > b else b
            continue
        q = (nbS ^ S).bit_count()
        best = n
        m = S
        while m:
            low = m & -m
            m ^= low
            cost = f[S ^ low]
            if cost < best:
                best = cost
                if best <= q:
                    break
        f[S] = best if best > q else q
    width = f[full]

    order = []
    S = full
    while S:
        v = next(v for v in range(n) if S >> v & 1 and f[S ^ 1 << v] <= f[S])
        order.append(v)
        S ^= 1 << v
    order.reverse()

    pos_of = {v: i for i, v in enumerate(order)}
    bags = []
    tree_edges = []
    roots = []
    S = 0
    for i, v in enumerate(order):
        S |= 1 << v
        comp = 1 << v
        while True:
            grown = nb[comp] & S
            if grown == comp:
                break
            comp = grown
        back = nb[comp] & ~S
        later = [u for u in range(n) if (back >> u) & 1]
        bags.append(frozenset([v] + later))
        if later:
            tree_edges.append((i, min(pos_of[u] for u in later)))
        else:
            # last bag of a connected component
            roots.append(i)
    # chain component roots; their components share no vertices, so this
    # cannot break any vertex's bag subtree
    for a, b in zip(roots, roots[1:]):
        tree_edges.append((a, b))
    td = TreeDecomposition(bags=bags, tree_edges=tree_edges)
    bad = validate_decomposition(td, g)
    if bad is not None:
        raise AssertionError("constructed decomposition invalid: " + bad)
    return width, td


def is_smooth(td):
    k = td.width
    if any(len(b) != k + 1 for b in td.bags):
        return False
    for a, b in td.tree_edges:
        if len(td.bags[a] & td.bags[b]) != k:
            return False
    return True


def smooth(td, g):
    """Same-width decomposition with all bags of size k+1 and k-overlaps.

    Contract subset bags, pad small bags from a neighbor, then subdivide tree
    edges whose overlap is still below k by swapping one vertex at a time.
    """
    if type(td) is not TreeDecomposition:
        raise ValueError("smooth: td must be a TreeDecomposition: %r" % (td,))
    if type(g) is not Graph:
        raise ValueError("smooth: g must be a Graph: %r" % (g,))
    bad = validate_decomposition(td, g)
    if bad is not None:
        raise ValueError("invalid input decomposition: " + bad)
    k = td.width
    bags = {i: frozenset(b) for i, b in enumerate(td.bags)}
    adj = {i: set() for i in bags}
    for a, b in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)

    def contract_once():
        for x in sorted(bags):
            for y in sorted(adj[x]):
                if bags[x] <= bags[y]:
                    for z in adj[x]:
                        if z != y:
                            adj[z].discard(x)
                            adj[z].add(y)
                            adj[y].add(z)
                    adj[y].discard(x)
                    del adj[x]
                    del bags[x]
                    return True
        return False

    while True:
        while contract_once():
            pass
        small = [x for x in sorted(bags) if len(bags[x]) < k + 1]
        if not small:
            break
        if len(bags) == 1:
            # lone undersized bag can only happen on tiny graphs; width says
            # some bag has k+1 vertices, so a single bag is already full
            raise AssertionError("single bag smaller than width+1")
        x = small[0]
        y = min(adj[x])
        gain = sorted(bags[y] - bags[x])[: k + 1 - len(bags[x])]
        bags[x] = bags[x] | frozenset(gain)

    # subdivide low-overlap tree edges
    next_id = max(bags) + 1
    edges = sorted(
        (x, y) for x in bags for y in adj[x] if x < y
    )
    for x, y in edges:
        if len(bags[x] & bags[y]) == k:
            continue
        adj[x].discard(y)
        adj[y].discard(x)
        prev = x
        cur = set(bags[x])
        while len(frozenset(cur) & bags[y]) < k:
            a = min(set(cur) - bags[y])
            b = min(bags[y] - cur)
            cur.discard(a)
            cur.add(b)
            bags[next_id] = frozenset(cur)
            adj[next_id] = set()
            adj[prev].add(next_id)
            adj[next_id].add(prev)
            prev = next_id
            next_id += 1
        adj[prev].add(y)
        adj[y].add(prev)

    ids = sorted(bags)
    remap = {old: i for i, old in enumerate(ids)}
    out = TreeDecomposition(
        bags=[bags[i] for i in ids],
        tree_edges=sorted(
            (remap[x], remap[y]) for x in ids for y in adj[x] if remap[x] < remap[y]
        ),
    )
    bad = validate_decomposition(out, g)
    if bad is not None:
        raise AssertionError("smoothing broke the decomposition: " + bad)
    if not is_smooth(out):
        raise AssertionError("smoothing failed to reach the smooth form")
    return out


def _side_vertices(td):
    """For each directed tree edge (x,y): vertices in bags of y's component of T-x.

    That component is the closure from y over the bag tree with x cut out.
    """
    tree = _tree_masks(td)
    sides = {}
    for x in range(len(td.bags)):
        for y in td.neighbors(x):
            comp = mask_closure(tree, 1 << y, ~(1 << x)) & ~(1 << x)
            sides[(x, y)] = {u for z, bag in enumerate(td.bags)
                             if comp >> z & 1 for u in bag}
    return sides


def bag_strategy(pg, td):
    """Width+1 cops: hold a bag, walk one cop stubbornly toward the robber.

    The policy keeps (current bag, target bag) as memory.  When idle it finds
    the tree neighbor on the robber's side and sends the unique cop outside
    the shared k vertices on re-planned foremost journeys to the unique new
    vertex; everyone else holds.  Any robber vertex adjacent to a cop in the
    current snapshot is captured greedily.
    """
    foot = footprint(pg)
    if type(td) is not TreeDecomposition:
        raise ValueError("bag_strategy: td must be a TreeDecomposition: %r" % (td,))
    bad = validate_decomposition(td, foot)
    if bad is not None:
        raise ValueError("decomposition does not fit the footprint: " + bad)
    if not is_smooth(td):
        raise ValueError("bag_strategy requires a smooth decomposition")
    if not is_temporally_connected(pg):
        raise ValueError("bag_strategy requires a temporally connected instance")
    sides = _side_vertices(td)
    bags = td.bags
    start = 0
    initial = tuple(sorted(bags[start]))

    def leg(cops, x, target):
        """(anchors held across x-target, the traveler, its destination)."""
        anchors = sorted(bags[x] & bags[target])
        rest = list(cops)
        for a in anchors:
            rest.remove(a)
        return anchors, rest[0], min(bags[target] - bags[x])

    def step(memory, t, cops, robber):
        x, target = memory
        g = pg.snapshots[t % pg.period]
        # greedy capture beats everything
        for c in sorted(set(cops)):
            if (g.nbr_mask(c) >> robber) & 1:
                moved = list(cops)
                moved.remove(c)
                moved.append(robber)
                return tuple(sorted(moved)), (x, target)
        if target is not None:
            _, traveler, dest = leg(cops, x, target)
            if traveler == dest:
                x, target = target, None
        if target is None:
            if not td.neighbors(x):
                # single bag covers V; the robber cannot be placed uncaught
                return cops, (x, None)
            for y in td.neighbors(x):
                if robber in sides[(x, y)]:
                    target = y
                    break
            else:
                raise AssertionError("robber vertex in no side component")
        anchors, traveler, dest = leg(cops, x, target)
        journey = foremost_journey(pg, t, traveler, dest)
        nxt = journey[1] if len(journey) > 1 else traveler
        return tuple(sorted(anchors + [nxt])), (x, target)

    return CopPolicy(
        k=td.width + 1,
        initial_cops=initial,
        step=step,
        initial_memory=(start, None),
    )
