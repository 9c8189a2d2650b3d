import itertools
import re

import pytest

from percop.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from percop.periodic import constant, footprint, pad
from percop.search import load_witness
from percop.solver import cop_number, verify_policy
from percop.treewidth import (
    TreeDecomposition,
    _side_vertices,
    bag_strategy,
    exact_treewidth,
    is_smooth,
    smooth,
    validate_decomposition,
)
from percop.constructions import GENERATORS, bowtie_221, q3_rotation
from conftest import (
    WITNESS_NAMES,
    random_connected_graph,
    random_disjoint_union,
    random_graph,
    random_temporally_connected,
    shuffled_union,
)
from reference import reference_exact_treewidth


def width_at_most(g, k):
    """Independent decision procedure: DFS over elimination orderings that
    only ever removes vertices of current fill-degree <= k."""
    n = g.n
    adjs = [set(g.open_nbrs(v)) for v in range(n)]

    def rec(adjs, alive, memo, key):
        if len(alive) <= k + 1:
            return True
        if key in memo:
            return memo[key]
        ok = False
        for v in sorted(alive):
            nb = adjs[v] & alive
            if len(nb) <= k:
                new_alive = alive - {v}
                new_adjs = [set(a) for a in adjs]
                for a in nb:
                    new_adjs[a] |= nb - {a}
                    new_adjs[a].discard(v)
                for a in new_alive:
                    new_adjs[a].discard(v)
                if rec(new_adjs, new_alive, memo, frozenset(new_alive)):
                    ok = True
                    break
        memo[key] = ok
        return ok

    return rec(adjs, frozenset(range(n)), {}, frozenset(range(n)))


class TestExactTreewidth:
    def test_trees_are_width_one(self):
        for n in (2, 5, 9):
            w, td = exact_treewidth(path_graph(n))
            assert w == 1
            assert validate_decomposition(td, path_graph(n)) is None

    def test_clique(self):
        w, _ = exact_treewidth(complete_graph(11))
        assert w == 10

    def test_petersen_is_four(self):
        g = petersen_graph()
        w, td = exact_treewidth(g)
        assert w == 4
        assert validate_decomposition(td, g) is None
        assert not width_at_most(g, 3)
        assert width_at_most(g, 4)

    def test_cycles_are_width_two(self):
        for n in (3, 4, 6):
            w, _ = exact_treewidth(cycle_graph(n))
            assert w == (1 if n < 3 else 2)

    def test_limit(self):
        with pytest.raises(ValueError):
            exact_treewidth(Graph(14))

    @pytest.mark.parametrize("limit", [True, False, 2.5, 13.0, None, "13", 0, -1])
    def test_limit_must_be_an_int_of_at_least_one(self, limit):
        # refused before any work, even on a graph with no treewidth
        for g in (path_graph(3), Graph(0)):
            with pytest.raises(ValueError, match="limit must be an int >= 1"):
                exact_treewidth(g, limit=limit)

    def test_limit_one_allows_one_vertex(self):
        assert exact_treewidth(Graph(1), limit=1)[0] == 0

    def test_empty_graph_refused(self):
        with pytest.raises(ValueError, match="treewidth undefined for the empty graph"):
            exact_treewidth(Graph(0))

    def test_random_matches_decision_oracle(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 7), 0.45)
            w, td = exact_treewidth(g)
            assert validate_decomposition(td, g) is None
            assert td.width == w
            assert width_at_most(g, w)
            if w > 1:
                assert not width_at_most(g, w - 1)

    def test_disconnected(self):
        g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        w, td = exact_treewidth(g)
        assert w == 2
        assert validate_decomposition(td, g) is None


# a graph of treewidth 5 on which greedy min-fill eliminates to width 6
LOOSE_MIN_FILL = Graph(9, [
    (0, 3), (0, 5), (0, 6), (0, 8), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 8),
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 5), (4, 6), (4, 8),
    (5, 8), (6, 7), (7, 8),
])


class TestAgainstReference:
    """The DP gives the width and decomposition of the independent back-set
    DP kept in tests/reference.py."""

    @staticmethod
    def check(g):
        w, td = exact_treewidth(g)
        assert (w, td.as_dict()) == reference_exact_treewidth(g)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_footprints(self, name):
        self.check(footprint(GENERATORS[name]().instance))

    @pytest.mark.parametrize("name", WITNESS_NAMES)
    def test_witness_footprints(self, name):
        self.check(footprint(load_witness(name)[0]))

    @pytest.mark.parametrize("n", (12, 13))
    def test_padded_q3(self, n):
        self.check(footprint(pad(q3_rotation().instance, n, 0)))

    def test_random_graphs(self, rng):
        for _ in range(60):
            self.check(random_graph(rng, rng.randint(1, 10), rng.uniform(0.15, 0.7)))

    # disconnected graphs take the DP's component rule, and the walk down
    # to the ordering passes disconnected subsets

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edgeless(self, n):
        self.check(Graph(n))

    def test_disjoint_unions(self, rng):
        for _ in range(40):
            g = random_disjoint_union(rng, 10)
            assert not g.is_connected()
            self.check(g)

    def test_isolated_vertices(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8), rng.uniform(0.3, 0.8))
            self.check(shuffled_union(rng, g, Graph(rng.randint(1, 3))))

    def test_loose_min_fill(self):
        assert exact_treewidth(LOOSE_MIN_FILL)[0] == 5
        self.check(LOOSE_MIN_FILL)


def _fill_bags(g, order):
    """Bags of a fill-edge elimination along `order`: v plus its later neighbours."""
    adj = [set(g.open_nbrs(v)) for v in range(g.n)]
    bags = []
    for v in order:
        later = adj[v]  # eliminated vertices have been removed from it
        bags.append(frozenset(later | {v}))
        for u in later:
            adj[u] |= later - {u}
            adj[u].discard(v)
    return bags


class TestBagsFromBackSets:
    def check(self, g):
        _w, td = exact_treewidth(g)
        # bag i holds order[i] and vertices eliminated after it
        order = []
        for i, bag in enumerate(td.bags):
            (v,) = bag - set().union(*td.bags[i + 1:])
            order.append(v)
        assert sorted(order) == list(range(g.n))
        assert td.bags == _fill_bags(g, order)

    def test_random_graphs(self, rng):
        for _ in range(60):
            self.check(random_graph(rng, rng.randint(1, 10), rng.random()))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_footprints(self, name):
        self.check(footprint(GENERATORS[name]().instance))


class TestValidateDecomposition:
    @pytest.mark.parametrize("g, bags, tree_edges, message", [
        (path_graph(2), [{0, 1}], [(0, 1)], "tree edge references a missing bag"),
        (path_graph(3), [{0, 1}, {1, 2}], [], "bag graph is not a tree (edge count)"),
        (path_graph(3), [{0, 1}, {1, 2}, {2}], [(0, 1), (1, 0)],
         "bag graph is not a tree (cycle)"),
        (path_graph(3), [{0, 1}, {1, 2}, {2}], [(0, 1), (1, 1)],
         "bag graph is not a tree (cycle)"),
        (path_graph(2), [{0, 1}, {5}], [(0, 1)], "a bag holds a vertex outside the graph"),
        (path_graph(3), [{0, 1}], [], "some vertex appears in no bag"),
        (path_graph(3), [{0, 1}, {2}], [(0, 1)], "some edge has no common bag"),
        (path_graph(3), [{0, 1}, {2}, {1, 2}], [(0, 1), (1, 2)],
         "bags of vertex 1 do not induce a subtree"),
        # compares equal to a valid decomposition of the 3-path
        (path_graph(3), [{0, True}, {1.0, 2}], [(False, True)],
         "a bag holds a vertex that is not an int"),
        (path_graph(3), [{0, 1}, {1.0, 2}], [(0, 1)],
         "a bag holds a vertex that is not an int"),
        (path_graph(3), [{0, 1}, {1, 2}], [(False, True)], "a tree edge end is not an int"),
        (path_graph(3), [{0, 1}, {1, 2}], [(0, 1.0)], "a tree edge end is not an int"),
        (Graph(0), [], [], "decomposition has no bags"),
        (path_graph(3), [], [], "decomposition has no bags"),
    ], ids=["missing-bag", "edge-count", "cycle", "self-loop", "foreign-vertex",
            "uncovered-vertex", "uncovered-edge", "subtree", "bool-member",
            "float-member", "bool-edge-ends", "float-edge-end", "no-bags-empty-graph",
            "no-bags"])
    def test_each_violation_is_named(self, g, bags, tree_edges, message):
        td = TreeDecomposition([frozenset(b) for b in bags], tree_edges)
        assert validate_decomposition(td, g) == message

    def test_tree_check_against_union_find(self, rng):
        # nb - 1 edges form a tree exactly when no edge closes a cycle
        def closes_cycle(nb, tree_edges):
            parent = list(range(nb))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for a, b in tree_edges:
                ra, rb = find(a), find(b)
                if ra == rb:
                    return True
                parent[ra] = rb
            return False

        g = Graph(1)
        for _ in range(1000):
            nb = rng.randint(1, 7)
            edges = [(rng.randrange(nb), rng.randrange(nb)) for _ in range(nb - 1)]
            td = TreeDecomposition([frozenset({0})] * nb, edges)
            cycle = validate_decomposition(td, g) == "bag graph is not a tree (cycle)"
            assert cycle == closes_cycle(nb, edges)

    def test_valid_path_decomposition(self):
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1, 2})], [(0, 1)])
        assert validate_decomposition(td, path_graph(3)) is None


class TestSideVertices:
    @staticmethod
    def reference_sides(td):
        # a DFS from y over the bag tree that never enters x
        sides = {}
        for x in range(len(td.bags)):
            for y in td.neighbors(x):
                seen, stack = {x, y}, [y]
                while stack:
                    for w in td.neighbors(stack.pop()):
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                sides[(x, y)] = set().union(*(td.bags[z] for z in seen - {x}))
        return sides

    def test_against_dfs(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            _w, td = exact_treewidth(g)
            assert _side_vertices(td) == self.reference_sides(td)
            if g.is_connected():
                std = smooth(td, g)
                assert _side_vertices(std) == self.reference_sides(std)


class TestSmooth:
    def check(self, g):
        w, td = exact_treewidth(g)
        std = smooth(td, g)
        assert std.width == w
        assert is_smooth(std)
        assert validate_decomposition(std, g) is None
        for a, b in std.tree_edges:
            assert len(std.bags[a]) == w + 1
            assert len(std.bags[a] & std.bags[b]) == w
        return std

    def test_single_bag_k4(self):
        g = complete_graph(4)
        _w, td = exact_treewidth(g)
        std = smooth(td, g)
        assert len(std.bags) == 1 and len(std.bags[0]) == 4

    def test_already_smooth_path_decomposition(self):
        g = path_graph(4)
        td = TreeDecomposition(
            bags=[frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})],
            tree_edges=[(0, 1), (1, 2)],
        )
        std = smooth(td, g)
        assert is_smooth(std) and std.width == 1

    def test_petersen(self):
        self.check(petersen_graph())

    def test_random(self, rng):
        for _ in range(15):
            self.check(random_connected_graph(rng, rng.randint(2, 8), 0.4))

    def test_overlap_below_width_is_not_smooth(self):
        # every bag has k + 1 = 3 vertices, but the tree edge shares only one
        full = TreeDecomposition([frozenset({0, 1, 2}), frozenset({1, 2, 3})], [(0, 1)])
        thin = TreeDecomposition([frozenset({0, 1, 2}), frozenset({2, 3, 4})], [(0, 1)])
        assert is_smooth(full)
        assert not is_smooth(thin)

    def test_invalid_input_rejected(self):
        g = path_graph(3)
        bad = TreeDecomposition(bags=[frozenset({0, 1})], tree_edges=[])
        with pytest.raises(ValueError, match="invalid input decomposition"):
            smooth(bad, g)

    @pytest.mark.parametrize("g, td, message", [
        (Graph(0), TreeDecomposition([], []), "decomposition has no bags"),
        (path_graph(3), TreeDecomposition([frozenset({0, True}), frozenset({1, 2})], [(0, 1)]),
         "a bag holds a vertex that is not an int"),
        (path_graph(3), TreeDecomposition([frozenset({0, 1}), frozenset({1, 2})],
                                          [(False, True)]),
         "a tree edge end is not an int"),
    ], ids=["no-bags", "bool-member", "bool-edge-ends"])
    def test_wrong_types_and_no_bags_rejected(self, g, td, message):
        with pytest.raises(ValueError, match="invalid input decomposition: " + message):
            smooth(td, g)

    def test_cutset_separation(self, rng):
        # shared vertices of adjacent bags separate the two sides
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 8), 0.4)
            w, td = exact_treewidth(g)
            std = smooth(td, g)
            for a, b in std.tree_edges:
                cut = std.bags[a] & std.bags[b]
                side_a, side_b = _sides(std, a, b)
                rest_mask = 0
                for v in range(g.n):
                    if v not in cut:
                        rest_mask |= 1 << v
                # no edge may run between the two sides outside the cutset
                for u, v in g.edges:
                    if u in cut or v in cut:
                        continue
                    assert not (
                        (u in side_a and v in side_b)
                        or (u in side_b and v in side_a)
                    )


def _sides(td, a, b):
    def comp(root, banned):
        seen = {banned, root}
        stack = [root]
        verts = set()
        while stack:
            x = stack.pop()
            verts |= set(td.bags[x])
            for u, v in td.tree_edges:
                for nxt, cur in ((u, v), (v, u)):
                    if cur == x and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return verts

    cut = td.bags[a] & td.bags[b]
    return comp(a, b) - cut, comp(b, a) - cut


class TestBagStrategy:
    def run_bag_strategy(self, pg):
        foot = footprint(pg)
        w, td = exact_treewidth(foot)
        policy = bag_strategy(pg, smooth(td, foot))
        return w, verify_policy(pg, policy)

    def test_bowtie_three_cops(self):
        pg = bowtie_221().instance
        w, verdict = self.run_bag_strategy(pg)
        assert w == 2
        assert verdict.wins

    def test_q3_rotation_four_cops(self):
        pg = q3_rotation().instance
        w, verdict = self.run_bag_strategy(pg)
        assert w == 3
        assert verdict.wins
        assert cop_number(pg) == 3 <= w + 1

    def test_tree_footprints_two_cops(self, rng):
        from percop.graphs import spanning_tree_cover
        from percop.periodic import PeriodicGraph

        for _ in range(10):
            base = random_connected_graph(rng, rng.randint(3, 7))
            tree = spanning_tree_cover(base)[0]
            snaps = [tree]
            for _ in range(rng.randint(1, 2)):
                keep = [e for e in tree.sorted_edges() if rng.random() < 0.7]
                snaps.append(Graph(tree.n, keep))
            pg = PeriodicGraph(snaps)
            w, verdict = self.run_bag_strategy(pg)
            assert w == 1
            assert verdict.wins

    def test_requires_smooth(self):
        pg = bowtie_221().instance
        foot = footprint(pg)
        _w, td = exact_treewidth(foot)
        if not is_smooth(td):
            with pytest.raises(ValueError, match="smooth"):
                bag_strategy(pg, td)

    @pytest.mark.parametrize("td, message", [
        (TreeDecomposition([], []), "decomposition has no bags"),
        (TreeDecomposition([frozenset({0, 1, 2}), frozenset({1.0, 2, 3})], [(0, 1)]),
         "a bag holds a vertex that is not an int"),
    ], ids=["no-bags", "float-member"])
    def test_invalid_decomposition_rejected(self, td, message):
        pg = bowtie_221().instance
        with pytest.raises(ValueError, match="does not fit the footprint: " + message):
            bag_strategy(pg, td)

    def test_random_corpus(self, rng):
        for _ in range(10):
            pg = random_temporally_connected(rng, rng.randint(4, 7), rng.randint(2, 3))
            w, verdict = self.run_bag_strategy(pg)
            assert verdict.wins
            assert cop_number(pg) <= w + 1

    def test_petersen_footprint_five_cops_cross_check(self, rng):
        # bag strategy win at width+1 = 5 agrees with the solver at k = 5
        from percop.graphs import PETERSEN_EDGES
        from percop.periodic import PeriodicGraph
        from percop.solver import is_k_copwin

        pet = petersen_graph()
        snaps = [pet]
        for _ in range(2):
            keep = [e for e in PETERSEN_EDGES if rng.random() < 0.55]
            snaps.append(Graph(10, keep))
        pg = PeriodicGraph(snaps)
        assert footprint(pg).edges == pet.edges
        w, verdict = self.run_bag_strategy(pg)
        assert w == 4 and verdict.wins
        assert is_k_copwin(pg, 5).copwin


@pytest.mark.parametrize("call, message", [
    (lambda bad: exact_treewidth(bad), "exact_treewidth: g must be a Graph"),
    (lambda bad: smooth(bad, path_graph(3)), "smooth: td must be a TreeDecomposition"),
    (lambda bad: smooth(exact_treewidth(path_graph(3))[1], bad), "smooth: g must be a Graph"),
    (lambda bad: bag_strategy(bowtie_221().instance, bad),
     "bag_strategy: td must be a TreeDecomposition"),
    (lambda bad: validate_decomposition(bad, path_graph(3)),
     "validate_decomposition: td must be a TreeDecomposition"),
    (lambda bad: validate_decomposition(exact_treewidth(path_graph(3))[1], bad),
     "validate_decomposition: g must be a Graph"),
], ids=["exact_treewidth", "smooth-td", "smooth-g", "bag_strategy-td",
        "validate_decomposition-td", "validate_decomposition-g"])
@pytest.mark.parametrize("bad", [None, 1.5, float("nan"), "x", True, [1], (1, 2),
                                 {1: None}])
def test_wrong_types_are_refused(call, message, bad):
    # each of these once ended in an AttributeError or a TypeError
    with pytest.raises(ValueError, match=r"^%s: %s$" % (message, re.escape(repr(bad)))):
        call(bad)
