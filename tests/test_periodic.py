import itertools
import re

import pytest

from percop.graphs import Graph, check_retraction, Retraction, path_graph
from percop.periodic import (
    PeriodicGraph,
    constant,
    footprint,
    foremost_journey,
    induced,
    is_temporally_connected,
    pad,
    pad_collapse_map,
)
from percop.constructions import q3_rotation, petersen_132, bowtie_221
from conftest import random_periodic, random_temporally_connected


class TestPeriodicGraph:
    def test_zero_vertices_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            PeriodicGraph([Graph(0)])
        with pytest.raises(ValueError, match="n must be >= 1"):
            constant(Graph(0), 3)

    def test_no_snapshot_refused(self):
        with pytest.raises(ValueError, match="period must be >= 1"):
            PeriodicGraph([])

    def test_snapshots_disagreeing_on_n_refused(self):
        with pytest.raises(ValueError, match="snapshots disagree on vertex count"):
            PeriodicGraph([Graph(3), Graph(4)])

    def test_snapshot_that_is_no_graph_refused(self):
        with pytest.raises(ValueError, match="snapshot 0 is not a Graph: 1"):
            PeriodicGraph([1, 2])
        with pytest.raises(ValueError, match="snapshot 1 is not a Graph: None"):
            PeriodicGraph([Graph(3), None])
        with pytest.raises(ValueError, match="snapshot 0 is not a Graph: 'g'"):
            constant("g", 2)

    @pytest.mark.parametrize("snapshots", [None, 2.5, -1, 3, True])
    def test_snapshots_that_are_not_iterable_refused(self, snapshots):
        with pytest.raises(ValueError, match=r"^snapshots must be an iterable "
                           r"of Graphs: %s$" % re.escape(repr(snapshots))):
            PeriodicGraph(snapshots)

    def test_refused_snapshot_named_by_its_own_index(self):
        # a Graph subclass equal to snapshot 0 is named by where it stands
        class Sub(Graph):
            pass

        g = path_graph(3)
        twin = Sub(3, g.sorted_edges())
        assert twin == g
        with pytest.raises(ValueError, match="snapshot 2 is not a Graph"):
            PeriodicGraph([g, Graph(3), twin])


PG = bowtie_221().instance  # n = 7, p = 6


class TestIntArguments:
    """Vertices and counts are ints, and bool is not one."""

    @pytest.mark.parametrize("fn, args, match", [
        (induced, (PG, [True, 2]), "induced: vertices must be ints"),
        (induced, (PG, [1, True]), "induced: vertices must be ints"),
        (induced, (PG, [0, 2.0]), "induced: vertices must be ints"),
        (induced, (PG, 5), "induced: vertices must be ints in an iterable: 5"),
        (pad, (PG, 9, True), "pad: target_n and attach must be ints"),
        (pad, (PG, 9.0, 0), "pad: target_n and attach must be ints"),
        (pad, (PG, 9, 1.0), "pad: target_n and attach must be ints"),
        (pad_collapse_map, (PG, 9, True), "pad: target_n and attach must be ints"),
        (pad_collapse_map, (PG, 9.0, 0), "pad: target_n and attach must be ints"),
        (pad_collapse_map, (PG, 9, 99), "pad: attach vertex out of range"),
        (pad_collapse_map, (PG, 3, 0), "pad: target_n 3 < n 7"),
        (constant, (path_graph(3), True), "period must be an int >= 1: True"),
        (constant, (path_graph(3), 2.0), r"period must be an int >= 1: 2\.0"),
        (foremost_journey, (PG, 0, True, 3), "u must be a vertex of 0..6: True"),
        (foremost_journey, (PG, 0, 0, 3.0), r"v must be a vertex of 0..6: 3\.0"),
        (foremost_journey, (PG, 0.5, 0, 3), r"t_start must be an int: 0\.5"),
    ])
    def test_refused(self, fn, args, match):
        with pytest.raises(ValueError, match=match):
            fn(*args)


@pytest.mark.parametrize("fn, prefix", [
    (footprint, ""), (is_temporally_connected, ""),
    (lambda pg: foremost_journey(pg, 0, 0, 1), ""),
    (lambda pg: pad(pg, 9, 0), "pad: "), (lambda pg: induced(pg, [0]), "induced: "),
    (lambda pg: pad_collapse_map(pg, 9, 0), "pad: "),
], ids=["footprint", "is_temporally_connected", "foremost_journey", "pad", "induced",
        "pad_collapse_map"])
@pytest.mark.parametrize("bad", [None, 1.5, float("nan"), "x", True, [1], (1, 2),
                                 {1: None}])
def test_what_is_no_periodic_graph_is_refused(fn, prefix, bad):
    # footprint(None), foremost_journey(None, ...), pad(None, ...),
    # induced(None, ...) and pad_collapse_map(None, ...) once ended in an
    # AttributeError
    with pytest.raises(ValueError, match=r"^%spg must be a PeriodicGraph: %s$"
                       % (prefix, re.escape(repr(bad)))):
        fn(bad)


class TestFootprint:
    def test_q3(self):
        foot = footprint(q3_rotation().instance)
        assert len(foot.edges) == 12
        for u in range(8):
            assert foot.degree(u) == 3

    def test_period1(self, rng):
        g = Graph(5, [(0, 1), (2, 3)])
        assert footprint(constant(g, 1)) == g

    def test_circulant_is_k11(self):
        from percop.constructions import circulant_123

        foot = footprint(circulant_123([5, 2, 3, 1, 4]).instance)
        assert len(foot.edges) == 55  # complete graph on 11 vertices


class TestMaskFootprint:
    """The footprint ORs the snapshots' masks; snapshots are told apart by
    their masks."""

    def test_footprint_is_the_union_of_edges(self, rng):
        disconnected = 0
        for _ in range(200):
            pg = random_periodic(rng, rng.randint(1, 10), rng.randint(1, 4),
                                 rng.choice((0.05, 0.15, 0.4)))
            union = set().union(*(g.edges for g in pg.snapshots))
            foot = footprint(pg)
            assert foot == Graph(pg.n, union)
            assert foot.edges == union and foot.sorted_edges() == sorted(union)
            disconnected += not foot.is_connected()
        assert disconnected > 20

    def test_repeated_snapshots(self, rng):
        for _ in range(100):
            n = rng.randint(1, 6)
            pool = [[(u, v) for u, v in itertools.combinations(range(n), 2)
                     if rng.random() < 0.4] for _ in range(3)]
            picks = [rng.randrange(3) for _ in range(rng.randint(1, 8))]
            pg = PeriodicGraph([Graph(n, pool[i]) for i in picks])
            # the first snapshot of each edge set, and each layer's index
            keys = [frozenset(pool[i]) for i in picks]
            first = list(dict.fromkeys(keys))
            assert pg.usnap == tuple(first.index(k) for k in keys)
            assert len(pg.unique_snapshots) == len(first)
            assert all(g is pg.snapshots[keys.index(k)]
                       for g, k in zip(pg.unique_snapshots, first))


class TestTemporalConnectivity:
    def test_q3_rotation_connected_despite_matchings(self):
        pg = q3_rotation().instance
        assert all(not g.is_connected() for g in pg.snapshots)
        assert is_temporally_connected(pg)

    def test_two_isolated_vertices(self):
        assert not is_temporally_connected(constant(Graph(2), 3))

    def test_equivalence_with_journeys(self, rng):
        # footprint connectivity iff every (t, u, v) admits a journey
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(2, 5), rng.randint(1, 3), 0.3)
            tc = is_temporally_connected(pg)
            journeys_ok = all(
                foremost_journey(pg, t, u, v) is not None
                for t in range(pg.period)
                for u in range(pg.n)
                for v in range(pg.n)
            )
            assert tc == journeys_ok


def journey_oracle(pg, t_start, u, v):
    """Earliest arrival by BFS on the explicit step-expanded graph."""
    horizon = pg.n * pg.period
    frontier = {u}
    if v in frontier:
        return t_start
    for step in range(horizon):
        g = pg.snapshots[(t_start + step) % pg.period]
        frontier = {
            y for w in frontier for y in g.closed_nbrs(w)
        }
        if v in frontier:
            return t_start + step + 1
    return None


class TestForemostJourney:
    def test_static_path(self):
        pg = constant(path_graph(3), 1)
        j = foremost_journey(pg, 0, 0, 2)
        assert j == [0, 1, 2]
        assert len(j) - 1 == 2

    def test_self_journey(self):
        pg = constant(path_graph(3), 1)
        j = foremost_journey(pg, 5, 1, 1)
        assert j == [1]
        assert 5 + len(j) - 1 == 5

    @pytest.mark.parametrize("u, v, name", [(-1, 2, "u"), (99, 0, "u"),
                                            (0, 99, "v"), (0, -1, "v")])
    def test_vertex_out_of_range_refused(self, u, v, name):
        with pytest.raises(ValueError, match="^%s must be a vertex of 0..7" % name):
            foremost_journey(q3_rotation().instance, 0, u, v)

    def test_q3_rotation_antipodal(self):
        pg = q3_rotation().instance
        j = foremost_journey(pg, 0, 0, 7)
        assert len(j) - 1 == 3
        assert j == [0, 1, 3, 7]  # flip bit 0, then 1, then 2

    def test_journey_steps_are_snapshot_edges(self, rng):
        for _ in range(20):
            pg = random_temporally_connected(rng, 6, 3, 0.3)
            j = foremost_journey(pg, 1, 0, 5)
            assert j is not None
            for i in range(len(j) - 1):
                g = pg.snapshots[(1 + i) % pg.period]
                assert j[i + 1] in g.closed_nbrs(j[i])

    def test_matches_oracle(self, rng):
        for _ in range(30):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3), 0.3)
            t0 = rng.randrange(pg.period)
            u, v = rng.randrange(pg.n), rng.randrange(pg.n)
            j = foremost_journey(pg, t0, u, v)
            want = journey_oracle(pg, t0, u, v)
            if want is None:
                assert j is None
            else:
                assert j is not None and t0 + len(j) - 1 == want

    def test_connected_arrival_bound(self, rng):
        for _ in range(20):
            pg = random_temporally_connected(rng, 5, 2, 0.35)
            for u in range(pg.n):
                for v in range(pg.n):
                    j = foremost_journey(pg, 0, u, v)
                    assert j is not None
                    assert len(j) - 1 <= pg.n * pg.period


class TestInduced:
    def test_prop3_restriction(self):
        g0 = Graph(5, [(0, 1), (0, 3), (1, 2), (2, 3)])
        g1 = Graph(5, [(1, 4)])
        g2 = Graph(5, [(2, 4)])
        pg = PeriodicGraph([g0, g1, g2])
        sub, remap = induced(pg, [0, 1, 2, 3])
        assert sub.n == 4
        assert remap == {0: 0, 1: 1, 2: 2, 3: 3}
        assert sub.snapshots[0].edges == g0.edges
        assert len(sub.snapshots[1].edges) == 0

    def test_full_subset_identity(self, rng):
        pg = random_periodic(rng, 5, 2)
        sub, _ = induced(pg, range(5))
        assert sub == pg

    def test_empty_errors(self, rng):
        with pytest.raises(ValueError):
            induced(random_periodic(rng, 4, 2), [])

    @pytest.mark.parametrize("vertices", [[0, 4], [-1, 0]])
    def test_vertex_out_of_range_errors(self, rng, vertices):
        with pytest.raises(ValueError, match="induced: vertex out of range"):
            induced(random_periodic(rng, 4, 2), vertices)

    def test_commutes_with_footprint(self, rng):
        for _ in range(20):
            pg = random_periodic(rng, 6, 2)
            vs = sorted(rng.sample(range(6), rng.randint(1, 6)))
            sub, remap = induced(pg, vs)
            foot_then_restrict = Graph(
                len(vs),
                [
                    (remap[u], remap[v])
                    for (u, v) in footprint(pg).subgraph_edges(vs)
                ],
            )
            assert footprint(sub) == foot_then_restrict

    def test_edge_filter_oracle(self, rng):
        pg = random_periodic(rng, 7, 3)
        vs = [1, 2, 4, 6]
        sub, remap = induced(pg, vs)
        for gs, go in zip(sub.snapshots, pg.snapshots):
            want = {
                (min(remap[u], remap[v]), max(remap[u], remap[v]))
                for (u, v) in go.edges
                if u in remap and v in remap
            }
            assert gs.edges == frozenset(want)


class TestPad:
    def test_identity_when_same_size(self):
        pg = bowtie_221().instance
        assert pad(pg, pg.n, 0) == pg

    def test_period1_rejected(self):
        with pytest.raises(ValueError, match="period >= 2"):
            pad(constant(path_graph(3), 1), 5, 0)

    def test_shrinking_rejected(self):
        pg = bowtie_221().instance
        with pytest.raises(ValueError):
            pad(pg, 5, 0)

    def test_footprint_is_footprint_plus_path(self):
        pg = bowtie_221().instance
        padded = pad(pg, 10, 2)
        foot = footprint(padded)
        base = footprint(pg)
        extra = {(2, 7), (7, 8), (8, 9)}
        assert foot.edges == base.edges | extra

    def test_path_present_in_every_snapshot(self):
        pg = petersen_132().instance
        padded = pad(pg, 13, 4)
        for g in padded.snapshots:
            assert g.has_edge(4, 11) and g.has_edge(11, 12)

    def test_collapse_map_is_retraction_everywhere(self):
        pg = bowtie_221().instance
        padded = pad(pg, 10, 3)
        m = pad_collapse_map(pg, 10, 3)
        kept = range(pg.n)
        assert check_retraction(Retraction(footprint(padded), kept, m))
        for g in padded.snapshots:
            assert check_retraction(Retraction(g, kept, m))
