"""Static simple graphs and the classical subroutines the game analysis leans on.

Vertices are always 0..n-1.  Graphs are stored without self-loops; every
game-related routine works with closed neighborhoods N[u] (u is always its own
neighbor), so reflexivity is a rule of the game, not data.
"""

from __future__ import annotations

import itertools
from collections import deque


class LimitError(ValueError):
    """An input is larger than an exact routine's documented size limit."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is kept as one bitmask per vertex; ``nbr_mask(u)`` is the closed
    neighborhood N[u] (bit u always set).
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n, edges=()):
        self.n = int(n)
        norm = set()
        masks = [1 << v for v in range(self.n)]
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop forbidden: (%d,%d)" % (u, v))
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range: (%d,%d)" % (u, v))
            a, b = (u, v) if u < v else (v, u)
            norm.add((a, b))
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        self.edges = frozenset(norm)
        self._masks = tuple(masks)

    def nbr_mask(self, u):
        """Closed neighborhood N[u] as a bitmask."""
        return self._masks[u]

    def closed_nbrs(self, u):
        """Closed neighborhood N[u] as a sorted list of vertices."""
        m = self._masks[u]
        return [v for v in range(self.n) if (m >> v) & 1]

    def open_nbrs(self, u):
        m = self._masks[u] & ~(1 << u)
        return [v for v in range(self.n) if (m >> v) & 1]

    def degree(self, u):
        """Number of open neighbors; self-loops are never counted."""
        return bin(self._masks[u] & ~(1 << u)).count("1")

    def has_edge(self, u, v):
        return u != v and (self._masks[u] >> v) & 1 == 1

    def sorted_edges(self):
        return sorted(self.edges)

    def is_connected(self):
        if self.n == 0:
            return False
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = frontier
            while v:
                u = (v & -v).bit_length() - 1
                nxt |= self._masks[u]
                v &= v - 1
            nxt &= ~seen
            seen |= nxt
            frontier = nxt
        return seen == (1 << self.n) - 1

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
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, len(self.edges))


class Retraction:
    """A vertex map claimed to retract ``source`` onto source[target_vertices]."""

    __slots__ = ("source", "target_vertices", "map")

    def __init__(self, source, target_vertices, mapping):
        self.source = source
        self.target_vertices = frozenset(target_vertices)
        self.map = dict(mapping)


def check_retraction(r):
    """True iff r.map is a homomorphism onto the induced target, identity there.

    Raises ValueError when the map is not total on V or leaves the vertex set.
    """
    g = r.source
    h = r.target_vertices
    for u in range(g.n):
        if u not in r.map:
            raise ValueError("retraction map not total: vertex %d unmapped" % u)
        img = r.map[u]
        if not (0 <= img < g.n):
            raise ValueError("retraction image out of range: %d -> %d" % (u, img))
    for u in h:
        if r.map[u] != u:
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

    For each edge, BFS in the graph without that edge gives the shortest cycle
    through it.
    """
    best = float("inf")
    for u, v in g.sorted_edges():
        dist = [-1] * g.n
        dist[u] = 0
        q = deque([u])
        while q:
            x = q.popleft()
            if dist[x] + 1 >= best:
                continue
            for y in g.open_nbrs(x):
                if (x, y) in ((u, v), (v, u)):
                    continue
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if dist[v] >= 0:
            best = min(best, dist[v] + 1)
    return best


def domination_number(g):
    """Exact minimum dominating set size (closed neighborhoods cover V)."""
    if g.n == 0:
        return 0
    if g.n > 20:
        raise LimitError("exact domination limit exceeded: n=%d > 20" % g.n)
    full = (1 << g.n) - 1
    masks = [g.nbr_mask(u) for u in range(g.n)]
    # greedy upper bound to prime the branch-and-bound
    best = 0
    covered = 0
    while covered != full:
        u = max(range(g.n), key=lambda w: bin(masks[w] & ~covered).count("1"))
        covered |= masks[u]
        best += 1

    def branch(covered, size):
        nonlocal best
        if size >= best:
            return
        if covered == full:
            best = size
            return
        # cover the lowest uncovered vertex: one of its closed neighbors is in D
        v = ((~covered) & full)
        v = (v & -v).bit_length() - 1
        for u in range(g.n):
            if (masks[v] >> u) & 1:
                branch(covered | masks[u], size + 1)

    branch(0, 0)
    return best


def eccentricity(g, u):
    dist = g.bfs_dist(u)
    if min(dist) < 0:
        raise ValueError("radius undefined: graph disconnected")
    return max(dist)


def radius(g):
    """min over x of max over y of d(x,y); errors on disconnected graphs."""
    if g.n == 0:
        raise ValueError("radius undefined: empty graph")
    return min(eccentricity(g, u) for u in range(g.n))


def dismantle(g):
    """Iteratively delete dominated vertices; True iff one vertex remains.

    A vertex u is dominated when N[u] <= N[v] for some other surviving v.
    This is the classical static copwin test, used as an oracle independent of
    the game solver.  The empty graph yields False; K1 yields True.
    """
    alive = list(range(g.n))
    masks = {u: g.nbr_mask(u) for u in alive}
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for u in list(alive):
            mu = masks[u]
            for v in alive:
                if v != u and mu & ~masks[v] == 0:
                    alive.remove(u)
                    bit = ~(1 << u)
                    for w in alive:
                        masks[w] &= bit
                    changed = True
                    break
            if changed:
                break
    return len(alive) == 1


def spanning_tree_cover(g):
    """Spanning trees whose edge union is E(g).

    The first tree is a BFS tree from a vertex of minimum eccentricity
    (smallest index on ties); later trees greedily prefer still-uncovered
    edges, so every round covers at least one new edge.
    """
    if not g.is_connected():
        raise ValueError("spanning_tree_cover: graph disconnected")
    if g.n == 1:
        return [Graph(1)]
    center = min(range(g.n), key=lambda u: (eccentricity(g, u), u))
    tree_edges = []
    seen = {center}
    q = deque([center])
    while q:
        u = q.popleft()
        for v in g.open_nbrs(u):
            if v not in seen:
                seen.add(v)
                tree_edges.append((min(u, v), max(u, v)))
                q.append(v)
    trees = [Graph(g.n, tree_edges)]
    covered = set(tree_edges)
    all_edges = sorted(g.edges)
    while covered != g.edges:
        ordered = sorted(all_edges, key=lambda e: (e in covered, e))
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = []
        for u, v in ordered:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                chosen.append((u, v))
        trees.append(Graph(g.n, chosen))
        covered.update(chosen)
    return trees


# ---------------------------------------------------------------------------
# named graphs used throughout the constructions and tests


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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
