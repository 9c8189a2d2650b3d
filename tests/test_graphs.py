import itertools
import random
import re
import sys
import threading
from collections import deque

import networkx as nx
import pytest

from percop.graphs import (
    Graph,
    Retraction,
    check_retraction,
    complete_graph,
    core,
    cycle_graph,
    dismantle,
    domination_number,
    girth,
    hypercube_q3,
    mask_closure,
    path_graph,
    petersen_graph,
    radius,
    spanning_tree_cover,
)
from conftest import all_graphs, random_connected_graph, random_graph


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def brute_force_girth(g):
    """Shortest cycle by checking every vertex subset as a cyclic order."""
    for length in range(3, g.n + 1):
        for combo in itertools.combinations(range(g.n), length):
            first = combo[0]
            for perm in itertools.permutations(combo[1:]):
                cyc = (first,) + perm
                if all(
                    g.has_edge(cyc[i], cyc[(i + 1) % length])
                    for i in range(length)
                ):
                    return length
    return float("inf")


def brute_force_domination(g):
    full = (1 << g.n) - 1
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            cov = 0
            for v in combo:
                cov |= g.nbr_mask(v)
            if cov == full:
                return size
    raise AssertionError


class TestGraphBasics:
    def test_closed_neighborhood_contains_self(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            for u in range(g.n):
                assert (g.nbr_mask(u) >> u) & 1 == 1
                assert g.degree(u) == len(g.closed_nbrs(u)) - 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("n", [2.7, "3", -1, True, None])
    def test_n_must_be_an_int(self, n):
        # int() once truncated 2.7 to 2 vertices and read "3" as 3, and -1
        # built a graph with n = -1; bool is not an int here
        with pytest.raises(ValueError, match=r"^n must be an int >= 0: %s$" % re.escape(repr(n))):
            Graph(n)

    @pytest.mark.parametrize("edge", [(False, True), (0, True), (0, 1.0), (0.0, 2),
                                      ("0", 1), (None, 1)])
    def test_endpoints_must_be_ints(self, edge):
        # (False, True) was stored and serialized as [false, true], which
        # parse refuses; (0, 1.0) raised TypeError
        with pytest.raises(ValueError, match=r"^edge endpoints must be ints: "):
            Graph(3, [edge])

    def test_is_connected_against_networkx(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 11), rng.choice([0.1, 0.25, 0.5]))
            assert g.is_connected() == nx.is_connected(to_nx(g))

    def test_empty_graph_is_not_connected(self):
        assert not Graph(0).is_connected()

    def test_components_against_networkx(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 11), rng.choice([0.1, 0.25, 0.5]))
            want = sorted(sorted(c) for c in nx.connected_components(to_nx(g)))
            assert g.components() == want


class TestMaskRepresentation:
    """The masks are a Graph's data; edges, order, equality, hash and repr
    read the same whether a graph was built from edges or from masks."""

    def test_masks_rebuild_the_same_graph(self, rng):
        for n in list(range(11)) * 8:
            want = {(u, v) for u, v in itertools.combinations(range(n), 2)
                    if rng.random() < rng.choice((0.1, 0.4, 0.8))}
            # either orientation, and some edges twice
            given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in want]
            given += rng.sample(given, len(given) // 3)
            g = Graph(n, given)
            h = Graph._of(g.masks)
            assert g.edges == h.edges == frozenset(want)
            assert g.sorted_edges() == h.sorted_edges() == sorted(want)
            assert g == h and hash(g) == hash(h)
            assert repr(g) == repr(h) == "Graph(n=%d, m=%d)" % (n, len(want))
            assert g.n == h.n == n
            if n >= 2:  # one edge more or less
                assert g != Graph(n, set(want) ^ {(0, 1)})

    def test_edges_are_derived_once(self):
        g = Graph(4, [(2, 1), (0, 3)])
        assert g.edges is g.edges
        assert Graph(3) != Graph(4) and Graph(0) == Graph._of(())

    @pytest.mark.parametrize("n, edges, message", [
        (2.7, (), "n must be an int >= 0: 2.7"),
        (-1, (), "n must be an int >= 0: -1"),
        (3, [(0, True)], "edge endpoints must be ints: (0, True)"),
        (3, [(1, 1)], "self-loop forbidden: (1,1)"),
        (3, [(0, 3)], "edge endpoint out of range: (0,3)"),
        (3, [(-1, 2)], "edge endpoint out of range: (-1,2)"),
        # the first bad edge decides, and the checks run in this order
        (3, [(0, 1), (2, 2), (0, 5)], "self-loop forbidden: (2,2)"),
        (3, [(0, 5), (1.0, 1)], "edge endpoint out of range: (0,5)"),
        (3, [(True, True)], "edge endpoints must be ints: (True, True)"),
        (3, [(4, 4)], "self-loop forbidden: (4,4)"),
        # an edges argument that is not iterable, or an edge that is not a
        # pair, once raised a bare TypeError
        (3, 5, "edges must be an iterable of pairs: 5"),
        (3, None, "edges must be an iterable of pairs: None"),
        (3, [1], "an edge must be a pair (u, v): 1"),
        (3, [(0, 1), None], "an edge must be a pair (u, v): None"),
        (3, [(0, 1, 2)], "an edge must be a pair (u, v): (0, 1, 2)"),
        (3, [(0,)], "an edge must be a pair (u, v): (0,)"),
        (3, "ab", "an edge must be a pair (u, v): 'a'"),
    ])
    def test_error_messages(self, n, edges, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            Graph(n, edges)


class TestKeptLists:
    """nbr_lists and nonisolated are derived from the masks on first read and
    kept, as edges is, whichever way the graph was built."""

    @staticmethod
    def graphs(rng, count):
        for _ in range(count):
            g = random_graph(rng, rng.randint(0, 12), rng.choice((0.05, 0.2, 0.5, 0.9)))
            yield g
            yield Graph._of(g.masks)

    def test_lists_and_mask_match_the_neighbourhoods(self, rng):
        isolated = linked = 0
        for g in self.graphs(rng, 150):
            lists = g.nbr_lists
            assert type(lists) is tuple and len(lists) == g.n
            assert all(lists[u] == g.closed_nbrs(u) for u in range(g.n))
            assert g.nonisolated == sum(1 << u for u in range(g.n) if g.degree(u) > 0)
            assert g.nbr_lists is lists
            isolated += g.nonisolated != (1 << g.n) - 1
            linked += g.nonisolated != 0
        assert isolated > 50 and linked > 50

    def test_equality_and_hash_ignore_what_was_read(self, rng):
        for g in self.graphs(rng, 50):
            twin = Graph._of(g.masks)
            g.nbr_lists, g.nonisolated, g.edges
            assert g == twin and twin == g and hash(g) == hash(twin) == hash(g.masks)
            assert {g: 1}[twin] == 1

    def test_threads_racing_on_the_first_read_agree(self, rng):
        # a short switch interval, so that the threads race to store each value
        gs = list(self.graphs(rng, 200))
        got = [None] * 4
        start = threading.Barrier(len(got), timeout=60)

        def read(i):
            start.wait()
            got[i] = [(g.nbr_lists, g.nonisolated) for g in gs]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = [(tuple(map(g.closed_nbrs, range(g.n))),
                 sum(1 << u for u in range(g.n) if g.degree(u))) for g in gs]
        assert all(values == want for values in got)


def reference_closure(g, seen, through):
    """Queue BFS from the set `seen`: every vertex it reaches is kept, but
    only those in `through` are expanded."""
    out = set(seen)
    queue = deque(sorted(out & through))
    while queue:
        for v in g.open_nbrs(queue.popleft()):
            if v not in out:
                out.add(v)
                if v in through:
                    queue.append(v)
    return out


def as_set(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


class TestMaskClosure:
    def test_against_reference_bfs(self, rng):
        for _ in range(500):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5]))
            # closed or open neighborhoods: bit u itself may be set or not
            masks = [g.nbr_mask(u) ^ (rng.random() < 0.5) << u for u in range(n)]
            seen = rng.getrandbits(n) or 1
            through = rng.getrandbits(n)
            everything = set(range(n))
            assert as_set(mask_closure(masks, seen)) == reference_closure(
                g, as_set(seen), everything)
            assert as_set(mask_closure(masks, seen, through)) == reference_closure(
                g, as_set(seen), as_set(through))

    def test_start_outside_through_is_not_expanded(self):
        masks = [path_graph(3).nbr_mask(u) for u in range(3)]
        assert mask_closure(masks, 0b001, 0b110) == 0b001
        assert mask_closure(masks, 0b001, 0b001) == 0b011
        assert mask_closure(masks, 0b001, 0b011) == 0b111


class TestGirth:
    def test_c4(self):
        assert girth(cycle_graph(4)) == 4

    def test_petersen_vs_brute_force(self):
        assert girth(petersen_graph()) == 5
        assert brute_force_girth(petersen_graph()) == 5

    def test_tree_is_acyclic(self):
        assert girth(path_graph(6)) == float("inf")

    def test_random_against_networkx(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 8), 0.4)
            got = girth(g)
            want = nx.girth(to_nx(g))
            assert got == want or (got == float("inf") and want == float("inf"))


def _girth_family(rng, n):
    """A random graph from one of the shapes whose girth is easy to get wrong."""
    kind = rng.randrange(5)
    if kind == 0:  # dense or sparse, mostly odd girth 3
        return random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
    if kind == 1:  # forest: each vertex hangs off an earlier one, or not
        return Graph(n, [(rng.randrange(v), v) for v in range(1, n)
                         if rng.random() < 0.8])
    if kind == 2:  # bipartite: every cycle is even
        side = [rng.random() < 0.5 for _ in range(n)]
        return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                         if side[u] != side[v] and rng.random() < 0.5])
    if kind == 3:  # one cycle of length c with trees hung on it
        c = rng.randint(3, max(3, n)) if n >= 3 else 0
        edges = [(i, (i + 1) % c) for i in range(c)]
        edges += [(rng.randrange(v), v) for v in range(max(c, 1), n)]
        return Graph(n, edges)
    # a tree holding vertex 0, and the only cycle in another component
    k = rng.randint(1, max(1, n - 3))
    edges = [(rng.randrange(v), v) for v in range(1, k)]
    c = rng.randint(3, n - k) if n - k >= 3 else 0
    edges += [(k + i, k + (i + 1) % c) for i in range(c)]
    return Graph(n, edges)


class TestGirthFamilies:
    def test_against_networkx(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(500):
            g = _girth_family(rng, rng.randint(0, 11))
            got = girth(g)
            assert got == nx.girth(to_nx(g)), sorted(g.edges)
            seen.add(got)
        # forests, odd and even girths all occurred
        assert {float("inf"), 3, 4, 5, 6} <= seen

    def test_cycle_outside_vertex_zeros_component(self):
        g = Graph(9, [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 6) for i in range(6)])
        assert girth(g) == 6

    def test_cycles_of_every_length(self):
        for c in range(3, 12):
            assert girth(cycle_graph(c)) == c


class TestDomination:
    def test_complete(self):
        assert domination_number(complete_graph(7)) == 1

    def test_matching_from_rotation_snapshot(self):
        g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert domination_number(g) == 4
        assert brute_force_domination(g) == 4

    def test_limit(self):
        with pytest.raises(ValueError, match="domination limit"):
            domination_number(Graph(21))

    def test_random_against_brute_force(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            assert domination_number(g) == brute_force_domination(g)
        # up to n = 10, from the edgeless graph (answer n) to dense ones
        for n in range(1, 11):
            for p_edge in (0.0, 0.15, 0.3, 0.5, 0.8):
                for _ in range(6):
                    g = random_graph(rng, n, p_edge)
                    assert domination_number(g) == brute_force_domination(g), g.edges

    def test_every_small_graph_against_brute_force(self):
        for n in range(6):
            for g in all_graphs(n):
                assert domination_number(g) == brute_force_domination(g), g.edges

    def test_prop4_footprint_domination(self):
        # Petersen with x joined over the outer cycle, y over the inner one
        pet = petersen_graph()
        edges = list(pet.edges)
        edges += [(v, 10) for v in range(5)]
        edges += [(v, 11) for v in range(5, 10)]
        g = Graph(12, edges)
        assert domination_number(g) == 2


class TestRadius:
    def test_path(self):
        assert radius(path_graph(9)) == 4

    def test_k1(self):
        assert radius(Graph(1)) == 0

    def test_bfs_tree_of_petersen(self):
        cover = spanning_tree_cover(petersen_graph())
        t = cover[0]
        assert radius(t) == nx.radius(to_nx(t)) == 2

    def test_disconnected_errors(self):
        with pytest.raises(ValueError, match="radius undefined"):
            radius(Graph(3, [(0, 1)]))

    def test_radius_diameter_sandwich(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            assert radius(g) == nx.radius(to_nx(g))


class TestRetraction:
    def test_prop3_triangle_collapse(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (2, 4)])
        for image in (1, 2):
            m = {v: v for v in range(5)}
            m[4] = image
            assert check_retraction(Retraction(g, [0, 1, 2, 3], m))

    def test_identity(self, rng):
        g = random_graph(rng, 6, 0.5)
        m = {v: v for v in range(6)}
        assert check_retraction(Retraction(g, range(6), m))

    def test_path_collapse_onto_attachment(self):
        # a cycle with a pendant path folded back onto its attachment vertex
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5)])
        m = {0: 0, 1: 1, 2: 2, 3: 0, 4: 0, 5: 0}
        assert check_retraction(Retraction(g, [0, 1, 2], m))

    def test_non_homomorphism_rejected(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = {0: 0, 1: 1, 2: 2, 3: 0}  # edge (2,3) -> (2,0): not an edge
        assert not check_retraction(Retraction(g, [0, 1, 2], m))

    def test_partial_map_errors(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="not total"):
            check_retraction(Retraction(g, [0], {0: 0, 1: 0}))

    @pytest.mark.parametrize("image", [3, -1])
    def test_image_out_of_range_errors(self, image):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="image out of range: 2 -> %d" % image):
            check_retraction(Retraction(g, [0, 1], {0: 0, 1: 1, 2: image}))

    def test_target_vertex_not_fixed_rejected(self):
        # every vertex to 1: a homomorphism into the target, but 0 moves
        g = path_graph(3)
        assert not check_retraction(Retraction(g, [0, 1], {0: 1, 1: 1, 2: 1}))

    def test_image_outside_target_rejected(self):
        # the identity fixes the target, but sends 2 outside it
        g = path_graph(3)
        assert not check_retraction(Retraction(g, [0, 1], {0: 0, 1: 1, 2: 2}))

    def test_target_vertex_outside_the_graph_rejected(self):
        # once a KeyError: vertex 7 is in no map of a 3-vertex graph
        g = path_graph(3)
        assert not check_retraction(Retraction(g, [7], {0: 0, 1: 1, 2: 2}))

    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    def test_what_is_no_retraction_is_refused(self, bad):
        # each of these once ended in an AttributeError, a TypeError or a
        # KeyError; [1] and (1, 2) are target lists, but no graph or map
        g = path_graph(3)
        with pytest.raises(ValueError, match=r"^check_retraction: r must be a "
                           r"Retraction: %s$" % re.escape(repr(bad))):
            check_retraction(bad)
        with pytest.raises(ValueError, match=r"^Retraction: source must be a "
                           r"Graph: %s$" % re.escape(repr(bad))):
            Retraction(bad, [0], {0: 0})
        with pytest.raises(ValueError, match=r"^Retraction: .*%s$" % re.escape(repr(bad))):
            Retraction(g, [0, 1, 2], bad)
        if type(bad) not in (list, tuple):
            with pytest.raises(ValueError, match=r"^Retraction: .*%s, \{" % re.escape(repr(bad))):
                Retraction(g, bad, {0: 0, 1: 1, 2: 2})

    @pytest.mark.parametrize("kept, mapping", [
        ([True], {0: 0}), ([0], {0: 1.0}), ([0], {"0": 0}),
    ], ids=["bool-target", "float-image", "str-vertex"])
    def test_vertices_must_be_ints(self, kept, mapping):
        with pytest.raises(ValueError, match="^Retraction: vertices must be ints"):
            Retraction(Graph(1), kept, mapping)

    def test_edge_preservation_property(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 6)
            m = {v: v for v in range(6)}
            m[5] = rng.randrange(5)
            r = Retraction(g, range(5), m)
            if check_retraction(r):
                for u, v in g.edges:
                    assert m[u] == m[v] or g.has_edge(m[u], m[v])


class TestDismantle:
    def test_trees(self):
        assert dismantle(path_graph(7))
        assert dismantle(Graph(1))

    def test_c4(self):
        assert not dismantle(cycle_graph(4))

    def test_empty_graph_convention(self):
        assert not dismantle(Graph(0))

    def test_bowtie_snapshots(self):
        from percop.constructions import bowtie_221

        for g in bowtie_221().instance.unique_snapshots:
            assert not dismantle(g)

    def test_q3(self):
        assert not dismantle(hypercube_q3())


class TestCore:
    def test_a_path_leaves_one_vertex(self):
        assert len(core(path_graph(7))) == 1

    @pytest.mark.parametrize("g", [cycle_graph(4), hypercube_q3(), petersen_graph()],
                             ids=["C4", "Q3", "Petersen"])
    def test_no_dominated_vertex_keeps_every_vertex(self, g):
        assert core(g) == list(range(g.n))

    def test_petersen_with_a_pendant_keeps_the_ten(self):
        g = Graph(11, list(petersen_graph().edges) + [(3, 10)])
        assert core(g) == list(range(10))

    def test_k1_and_the_empty_graph(self):
        assert core(Graph(1)) == [0]
        assert core(Graph(0)) == []

    @pytest.mark.parametrize("fn", [core, dismantle])
    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    def test_what_is_no_graph_is_refused(self, fn, bad):
        # dismantle(None) once ended in an AttributeError
        with pytest.raises(ValueError, match=r"^core: g must be a Graph: %s$"
                           % re.escape(repr(bad))):
            fn(bad)


@pytest.mark.parametrize("fn", [girth, domination_number, radius, spanning_tree_cover])
@pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
def test_what_is_no_graph_is_refused(fn, bad):
    # each of these once ended in an AttributeError on its first read of g
    with pytest.raises(ValueError, match=r"^%s: g must be a Graph: %s$"
                       % (fn.__name__, re.escape(repr(bad)))):
        fn(bad)


class TestSpanningTreeCover:
    def check_cover(self, g):
        cover = spanning_tree_cover(g)
        union = set()
        for t in cover:
            assert t.n == g.n
            assert len(t.edges) == g.n - 1
            assert t.is_connected()
            assert girth(t) == float("inf")
            assert t.edges <= g.edges
            union |= t.edges
        assert union == g.edges
        return cover

    def test_petersen(self):
        cover = self.check_cover(petersen_graph())
        assert len(cover) >= 2

    def test_tree_is_itself(self):
        cover = spanning_tree_cover(path_graph(5))
        assert len(cover) == 1
        assert cover[0].edges == path_graph(5).edges

    def test_c4_two_paths(self):
        cover = self.check_cover(cycle_graph(4))
        assert len(cover) == 2

    def test_random(self, rng):
        for _ in range(15):
            self.check_cover(random_connected_graph(rng, rng.randint(2, 8)))

    def test_disconnected_errors(self):
        with pytest.raises(ValueError):
            spanning_tree_cover(Graph(4, [(0, 1)]))

    def test_against_queue_bfs_and_union_find(self, rng):
        # the cover as a queue BFS tree and union-find Kruskal rounds build it
        def reference_cover(g):
            center = min(range(g.n), key=lambda u: (max(g.bfs_dist(u)), u))
            tree_edges, seen, q = [], {center}, deque([center])
            while q:
                u = q.popleft()
                for v in g.open_nbrs(u):
                    if v not in seen:
                        seen.add(v)
                        tree_edges.append((min(u, v), max(u, v)))
                        q.append(v)
            trees = [Graph(g.n, tree_edges)]
            covered = set(tree_edges)
            while covered != g.edges:
                parent = list(range(g.n))

                def find(x):
                    while parent[x] != x:
                        x = parent[x]
                    return x

                chosen = []
                for u, v in sorted(g.edges, key=lambda e: (e in covered, e)):
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        chosen.append((u, v))
                trees.append(Graph(g.n, chosen))
                covered.update(chosen)
            return trees

        for _ in range(400):
            g = random_connected_graph(rng, rng.randint(2, 11), rng.random() * 0.6 + 0.2)
            assert spanning_tree_cover(g) == reference_cover(g)
