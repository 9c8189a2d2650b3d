"""Static simple graphs and the classical subroutines the game analysis leans on.

Vertices are always 0..n-1.  A graph is its closed neighborhoods N[u], one
bitmask per vertex (u is always its own neighbor, so reflexivity is a rule of
the game, not data); edge sets, without self-loops, are derived from the
masks when asked for.
"""

from __future__ import annotations

import itertools
from collections import deque


class LimitError(ValueError):
    """An input is larger than an exact routine's documented size limit."""


def mask_closure(masks, seen, through=-1):
    """The vertices reachable from the vertex set ``seen``, as a mask.

    ``masks[u]`` holds u's neighbors as bits (bit u itself may be set or
    not).  Only the vertices in the mask ``through`` (all by default) pass
    reachability on: a reached vertex outside it is in the result, but its
    neighbors are not added.  ``todo`` holds the reached vertices whose
    neighbors are still to be added, so each vertex is expanded once.
    """
    todo = seen & through
    while todo:
        low = todo & -todo
        todo ^= low
        new = masks[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new & through
    return seen


# _BYTE_BITS[b]: the positions of the set bits of the byte b
_BYTE_BITS = [[i for i in range(8) if (b >> i) & 1] for b in range(256)]


def _bits(m):
    """The positions of the set bits of m, ascending: a list that is shared,
    so never mutated, where m < 256."""
    if m < 256:
        return _BYTE_BITS[m]
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def masks_connected(masks):
    """True iff the graph with adjacency masks ``masks`` (as in
    `mask_closure`) is connected; the graph on no vertices is not."""
    if not masks:
        return False
    return mask_closure(masks, 1) == (1 << len(masks)) - 1


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The closed neighborhoods are the data: one bitmask per vertex, and
    ``nbr_mask(u)`` is N[u] (bit u always set).  ``edges``, the (u, v)
    pairs with u < v, is derived from the masks on first read and kept.
    Equality and hashing compare the masks.
    """

    __slots__ = ("n", "_masks", "_edges")

    def __init__(self, n, edges=()):
        # bool is not an int here, and no float or str is converted, for n
        # and for every edge endpoint
        if type(n) is not int or n < 0:
            raise ValueError("n must be an int >= 0: %r" % (n,))
        self.n = n
        masks = [1 << v for v in range(self.n)]
        try:
            pairs = iter(edges)
        except TypeError:
            raise ValueError("edges must be an iterable of pairs: %r" % (edges,)) from None
        for e in pairs:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError("an edge must be a pair (u, v): %r" % (e,)) from None
            if type(u) is not int or type(v) is not int:
                raise ValueError("edge endpoints must be ints: (%r, %r)" % (u, v))
            if u == v:
                raise ValueError("self-loop forbidden: (%d,%d)" % (u, v))
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range: (%d,%d)" % (u, v))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)
        self._edges = None

    @classmethod
    def _of(cls, masks):
        """The graph whose closed neighborhoods are ``masks``, unchecked: for
        callers whose masks are symmetric, with bit u of masks[u] set and no
        bit at n or above, by construction."""
        g = object.__new__(cls)
        g.n = len(masks)
        g._masks = tuple(masks)
        g._edges = None
        return g

    @property
    def edges(self):
        """The edges as a frozenset of (u, v) pairs with u < v.  Threads that
        race on the first read each store the same value."""
        edges = self._edges
        if edges is None:
            edges = self._edges = frozenset(self.sorted_edges())
        return edges

    def nbr_mask(self, u):
        """Closed neighborhood N[u] as a bitmask."""
        return self._masks[u]

    @property
    def masks(self):
        """Every closed neighborhood, N[0] to N[n-1], as a tuple of bitmasks."""
        return self._masks

    def closed_nbrs(self, u):
        """Closed neighborhood N[u] as a sorted list of vertices."""
        m = self._masks[u]
        return [v for v in range(self.n) if (m >> v) & 1]

    def open_nbrs(self, u):
        m = self._masks[u] & ~(1 << u)
        return [v for v in range(self.n) if (m >> v) & 1]

    def degree(self, u):
        """Number of open neighbors; self-loops are never counted."""
        return (self._masks[u] & ~(1 << u)).bit_count()

    def has_edge(self, u, v):
        return u != v and (self._masks[u] >> v) & 1 == 1

    def sorted_edges(self):
        """The edges (u, v), u < v, in increasing order."""
        out = []
        for u, m in enumerate(self._masks):
            m &= -2 << u  # the neighbors above u
            while m:
                low = m & -m
                out.append((u, low.bit_length() - 1))
                m ^= low
        return out

    def is_connected(self):
        return masks_connected(self._masks)

    def components(self):
        """Vertex lists of the connected components, by lowest vertex."""
        left = (1 << self.n) - 1
        out = []
        while left:
            comp = mask_closure(self._masks, left & -left)
            out.append([v for v in range(self.n) if (comp >> v) & 1])
            left &= ~comp
        return out

    def bfs_dist(self, source):
        """BFS distances from source; -1 for unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            for v in self.open_nbrs(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def subgraph_edges(self, vertices):
        """Edges of the induced subgraph on a vertex subset (original numbering)."""
        vs = set(vertices)
        return [(u, v) for (u, v) in self.edges if u in vs and v in vs]

    def relabel(self, perm):
        """Graph with vertex u renamed perm[u]."""
        return Graph(self.n, [(perm[u], perm[v]) for (u, v) in self.edges])

    def __eq__(self, other):
        return isinstance(other, Graph) and self._masks == other._masks

    def __hash__(self):
        return hash(self._masks)

    def __repr__(self):
        m = (sum(mask.bit_count() for mask in self._masks) - self.n) // 2
        return "Graph(n=%d, m=%d)" % (self.n, m)


class Retraction:
    """A vertex map claimed to retract ``source`` onto source[target_vertices]."""

    __slots__ = ("source", "target_vertices", "map")

    def __init__(self, source, target_vertices, mapping):
        if type(source) is not Graph:
            raise ValueError("Retraction: source must be a Graph: %r" % (source,))
        try:
            self.target_vertices = frozenset(target_vertices)
            self.map = dict(mapping)
        except (TypeError, ValueError):
            raise ValueError("Retraction: target_vertices must be an iterable and "
                             "mapping a dict: %r, %r" % (target_vertices, mapping)) from None
        # bool is not an int here, as for Graph's edge ends
        if any(type(v) is not int for v in itertools.chain(
                self.target_vertices, self.map, self.map.values())):
            raise ValueError("Retraction: vertices must be ints: %r, %r"
                             % (target_vertices, mapping))
        self.source = source


def check_retraction(r):
    """True iff r.map is a homomorphism onto the induced target, identity there.

    Raises ValueError when the map is not total on V or leaves the vertex set.
    """
    if type(r) is not Retraction:
        raise ValueError("check_retraction: r must be a Retraction: %r" % (r,))
    g = r.source
    h = r.target_vertices
    for u in range(g.n):
        if u not in r.map:
            raise ValueError("retraction map not total: vertex %d unmapped" % u)
        img = r.map[u]
        if not (0 <= img < g.n):
            raise ValueError("retraction image out of range: %d -> %d" % (u, img))
    for u in h:
        if r.map.get(u) != u:  # a target vertex outside the graph is unmapped
            return False
    if any(r.map[u] not in h for u in range(g.n)):
        return False
    for u, v in g.edges:
        a, b = r.map[u], r.map[v]
        if a != b and not g.has_edge(a, b):
            return False
    return True


def girth(g):
    """Length of a shortest cycle; float('inf') for forests.

    Breadth-first search from each root r, one level at a time on adjacency
    masks (Itai & Rodeh, SIAM J. Comput. 7(4), 1978).  With F the vertices
    at distance d from r:

    * an edge inside F closes a cycle of length at most 2d + 1;
    * a vertex x at distance d + 1 with two neighbors in F closes one of
      length at most 2d + 2: shortest paths from those two neighbors back
      to r, followed until they first meet, make a cycle through x.

    Both give upper bounds on the girth.  They are exact at a root on a
    shortest cycle C: C has no chord or shortcut, so distances from r along
    C are distances in g.  If |C| = 2d + 1, C's two vertices farthest from r
    are adjacent at distance d; if |C| = 2d + 2, C's antipode of r is at
    distance d + 1 with two C-neighbors at distance d.  A root is abandoned
    once 2d + 1 reaches the best cycle found, since no deeper level can
    beat it.
    """
    if type(g) is not Graph:
        raise ValueError("girth: g must be a Graph: %r" % (g,))
    nbrs = [g.nbr_mask(u) & ~(1 << u) for u in range(g.n)]
    best = float("inf")
    for root in range(g.n):
        seen = frontier = 1 << root
        d = 0
        while frontier and 2 * d + 1 < best:
            nxt = twice = 0
            v = frontier
            while v:
                low = v & -v
                nb = nbrs[low.bit_length() - 1]
                if nb & frontier:
                    best = 2 * d + 1
                    break
                new = nb & ~seen
                twice |= nxt & new
                nxt |= new
                v ^= low
            if twice:
                best = min(best, 2 * d + 2)
            seen |= nxt
            frontier = nxt
            d += 1
    return best


# the largest graph `domination_number` will branch on
DOMINATION_LIMIT = 20


def domination_number(g):
    """Exact minimum dominating set size (closed neighborhoods cover V)."""
    if type(g) is not Graph:
        raise ValueError("domination_number: g must be a Graph: %r" % (g,))
    if g.n == 0:
        return 0
    if g.n > DOMINATION_LIMIT:
        raise LimitError(
            "exact domination limit exceeded: n=%d > %d" % (g.n, DOMINATION_LIMIT)
        )
    full = (1 << g.n) - 1
    masks = g.masks
    # greedy upper bound to prime the branch-and-bound
    best = 0
    covered = 0
    while covered != full:
        left, gain = full & ~covered, 0
        for m in masks:  # the first vertex that covers the most
            if (m & left).bit_count() > gain:
                gain, pick = (m & left).bit_count(), m
        covered |= pick
        best += 1

    def branch(covered, size):
        # called only with size < best
        nonlocal best
        if covered == full:
            best = size
            return
        # cover the lowest uncovered vertex: one of its closed neighbors is in
        # D; stop once one more vertex could no longer beat best
        v = ~covered & full
        cands = masks[(v & -v).bit_length() - 1]
        while cands and size + 1 < best:
            low = cands & -cands
            branch(covered | masks[low.bit_length() - 1], size + 1)
            cands ^= low

    branch(0, 0)
    return best


def eccentricity(g, u):
    dist = g.bfs_dist(u)
    if min(dist) < 0:
        raise ValueError("radius undefined: graph disconnected")
    return max(dist)


def radius(g):
    """min over x of max over y of d(x,y); errors on disconnected graphs."""
    if type(g) is not Graph:
        raise ValueError("radius: g must be a Graph: %r" % (g,))
    if g.n == 0:
        raise ValueError("radius undefined: empty graph")
    return min(eccentricity(g, u) for u in range(g.n))


def core(g):
    """The vertices left once dominated vertices are deleted one at a time,
    ascending.

    Each round deletes the lowest survivor u whose closed neighbourhood among
    the survivors lies inside N[v] for some other survivor v; such a v is in
    N[u], so only u's neighbours are tested.  A graph is copwin exactly when
    its core is one vertex (Nowakowski & Winkler, Discrete Math. 43, 1983).
    """
    if type(g) is not Graph:
        raise ValueError("core: g must be a Graph: %r" % (g,))
    masks = g.masks
    alive = left = (1 << g.n) - 1
    while left:
        low = left & -left
        left ^= low
        nu = masks[low.bit_length() - 1] & alive
        others = nu ^ low
        while others:
            v = others & -others
            others ^= v
            if nu & ~masks[v.bit_length() - 1] == 0:
                alive ^= low
                left = alive  # the next round starts at the lowest survivor
                break
    return [u for u in range(g.n) if alive >> u & 1]


def dismantle(g):
    """True iff deleting dominated vertices leaves one vertex (`core`).

    This is the classical static copwin test, used as an oracle independent of
    the game solver.  The empty graph yields False; K1 yields True.
    """
    return len(core(g)) == 1


def spanning_tree_cover(g):
    """Spanning trees whose edge union is E(g).

    The first tree is a BFS tree from a vertex of minimum eccentricity
    (smallest index on ties); later trees greedily prefer still-uncovered
    edges, so every round covers at least one new edge.
    """
    if type(g) is not Graph:
        raise ValueError("spanning_tree_cover: g must be a Graph: %r" % (g,))
    if not g.is_connected():
        raise ValueError("spanning_tree_cover: graph disconnected")
    if g.n == 1:
        return [Graph(1)]
    center = min(range(g.n), key=lambda u: (eccentricity(g, u), u))
    # BFS from the center hangs each vertex from the neighbor one level up
    # that its queue reaches first: the one whose path of vertices from the
    # center is lexicographically least
    dist = g.bfs_dist(center)
    path = {center: ()}
    tree_edges = []
    for v in sorted(range(g.n), key=dist.__getitem__)[1:]:
        u = min((w for w in g.open_nbrs(v) if dist[w] == dist[v] - 1),
                key=path.__getitem__)
        path[v] = path[u] + (v,)
        tree_edges.append((min(u, v), max(u, v)))
    trees = [Graph(g.n, tree_edges)]
    covered = set(tree_edges)
    all_edges = sorted(g.edges)
    while covered != g.edges:
        # Kruskal: keep an edge unless the forest so far already joins its ends
        forest = [0] * g.n
        chosen = []
        for u, v in sorted(all_edges, key=lambda e: (e in covered, e)):
            if not mask_closure(forest, 1 << u) >> v & 1:
                forest[u] |= 1 << v
                forest[v] |= 1 << u
                chosen.append((u, v))
        trees.append(Graph(g.n, chosen))
        covered.update(chosen)
    return trees


# ---------------------------------------------------------------------------
# named graphs used throughout the constructions and tests


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n, stride=1):
    """The stride-s cycle on Z_n: u ~ u + s mod n (the n-cycle at s = 1)."""
    return Graph(n, [(i, (i + stride) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


PETERSEN_LABELS = {i: s for i, s in enumerate("abcdefghij")}

# outer cycle (a,b,c,d,e), spokes a-f .. e-j, inner cycle (f,h,j,g,i)
PETERSEN_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
)


def petersen_graph():
    return Graph(10, PETERSEN_EDGES)


def hypercube_q3():
    """Q3 with vertices as 3-bit integers; u ~ v iff they differ in one bit."""
    edges = [
        (u, u ^ (1 << b))
        for u in range(8)
        for b in range(3)
        if u < (u ^ (1 << b))
    ]
    return Graph(8, edges)
