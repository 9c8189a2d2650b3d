import itertools
import random
import re
import sys
import threading

import pytest

from percop import corners
from percop.graphs import Graph, LimitError, complete_graph, cycle_graph, path_graph
from percop.periodic import PeriodicGraph, constant
from percop.corners import (
    CornerWitness,
    find_k_temporal_corners,
    find_temporal_corners,
    has_k_temporal_corner,
    layer_corners,
    validate_witness,
)
from percop.constructions import GENERATORS, circulant_123, petersen_231
from percop.search import load_witness
from conftest import connected_instances, random_periodic
from reference import reference_corners

SHIPPED_WITNESSES = ["thm112", "lem122", "circulant_123", "search_321",
                     "prop3_retract"]


@pytest.fixture(autouse=True)
def fresh_tables(monkeypatch):
    """No kept cover tables, as in a new process, so that no test reads the
    tables that the tests before it kept; the module's own tables come back
    after the test."""
    monkeypatch.setattr(corners, "_TABLES", {})
    monkeypatch.setattr(corners, "_kept_rows", 0)


def fig2_instance():
    g0 = Graph(3, [(0, 1), (1, 2)])
    g1 = Graph(3, [(0, 1), (0, 2)])
    return PeriodicGraph([g0, g1])


class TestTemporalCorners:
    def test_fig2_witness(self):
        ws = find_temporal_corners(fig2_instance())
        assert CornerWitness(0, 2, (0,)) in ws

    def test_complete_graph_every_pair(self):
        pg = constant(complete_graph(4), 1)
        ws = find_temporal_corners(pg)
        assert len(ws) == 4 * 3

    def test_reconstructed_thm112_has_none(self):
        pg, _meta = load_witness("thm112")
        assert find_temporal_corners(pg) == []

    def test_witnesses_revalidate(self, rng):
        for _ in range(20):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3))
            for w in find_temporal_corners(pg):
                assert validate_witness(pg, w)


    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    @pytest.mark.parametrize("call", [
        find_temporal_corners, lambda pg: find_k_temporal_corners(pg, 1),
        lambda pg: has_k_temporal_corner(pg, 1),
    ], ids=["find_temporal_corners", "find_k_temporal_corners", "has_k_temporal_corner"])
    def test_what_is_no_periodic_graph_is_refused(self, call, bad):
        # each of these once ended in an AttributeError on its first read of pg
        with pytest.raises(ValueError, match=r"^pg must be a PeriodicGraph: %s$"
                           % re.escape(repr(bad))):
            call(bad)


CIRC_STEPS = [5, 2, 3, 1, 4]


class TestKTemporalCorners:
    def test_circulant_has_no_2_corner(self):
        pg = circulant_123(CIRC_STEPS).instance
        assert find_k_temporal_corners(pg, 2) == []

    def test_circulant_3_corner_matches_strategy(self):
        pg = circulant_123(CIRC_STEPS).instance
        ws = find_k_temporal_corners(pg, 3)
        assert any(w.t == 3 and w.covers == (0, 2, 9) for w in ws)

    def test_k1_equals_plain_detector(self, rng):
        for _ in range(15):
            pg = random_periodic(rng, rng.randint(2, 5), rng.randint(1, 3))
            assert find_k_temporal_corners(pg, 1) == find_temporal_corners(pg)

    def test_monotone_extension(self, rng):
        for _ in range(15):
            pg = random_periodic(rng, 5, 2)
            ws1 = {(w.t, w.corner_vertex) for w in find_k_temporal_corners(pg, 1)}
            ws2 = find_k_temporal_corners(pg, 2)
            have2 = {(w.t, w.corner_vertex) for w in ws2}
            # every 1-corner extends: add any unused vertex to its cover
            assert ws1 <= have2

    def test_corner_vertex_never_in_cover(self, rng):
        pg = random_periodic(rng, 5, 2)
        for k in (1, 2, 3):
            for w in find_k_temporal_corners(pg, k):
                assert w.corner_vertex not in w.covers
                assert validate_witness(pg, w)

    def test_witness_vertices_must_exist(self):
        # negative indices must not wrap round to the last vertices
        pg = PeriodicGraph([path_graph(3)])
        assert validate_witness(pg, CornerWitness(0, 0, (1,)))
        # the constructor refuses bools and floats, so those witnesses are
        # plain tuples, which validate_witness reads too
        for w in (CornerWitness(0, -1, (1,)), CornerWitness(0, 2, (-2,)),
                  CornerWitness(0, 3, (1,)), CornerWitness(0, 0, (3,)),
                  (0, 0, (True,)), (0, False, (1,)),
                  (0, 0, (1.0,)), (0.0, 0, (1,)),
                  (True, 0, (1,)), CornerWitness(0, 0, (1, 1)),
                  CornerWitness(0, 0, (0,))):
            assert not validate_witness(pg, w), w

    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    def test_validate_refuses_what_is_no_periodic_graph(self, bad):
        # this once ended in an AttributeError on its first read of pg
        with pytest.raises(ValueError, match=r"^pg must be a PeriodicGraph: %s$"
                           % re.escape(repr(bad))):
            validate_witness(bad, CornerWitness(0, 0, (1,)))

    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2),
                                     (0, 0, [1]), (0, 0, 1), (0, 0, (1,), 0),
                                     (0, 0, ([1],))])
    def test_malformed_witness_is_false(self, bad):
        # each of the first six once ended in an AttributeError
        assert validate_witness(PeriodicGraph([path_graph(3)]), bad) is False

    def test_plain_tuple_witness_is_checked(self):
        pg = PeriodicGraph([path_graph(3)])
        assert validate_witness(pg, (0, 0, (1,)))
        assert not validate_witness(pg, (0, 1, (0,)))

    def test_budget_error(self):
        # 24 * C(23, 12) candidate tuples, over the 10^7 limit
        pg = constant(complete_graph(24), 1)
        with pytest.raises(ValueError, match="budget"):
            find_k_temporal_corners(pg, 12)

    def test_budget_error_k1(self):
        # k = 1 has the same limit: p * n * (n - 1) candidates
        assert find_k_temporal_corners(constant(Graph(3162), 1), 1) == []
        with pytest.raises(ValueError, match="budget"):
            find_k_temporal_corners(constant(Graph(3163), 1), 1)
        with pytest.raises(ValueError, match="budget"):
            find_temporal_corners(constant(Graph(3163), 1))

    def test_k_must_be_positive(self, rng):
        pg = random_periodic(rng, 4, 1)
        with pytest.raises(ValueError):
            find_k_temporal_corners(pg, 0)
        # an int >= 1, and bool is not an int
        for k in (-1, 2.0, "2", True, False, None):
            with pytest.raises(ValueError, match=r"^k must be an int >= 1: "):
                find_k_temporal_corners(pg, k)


class TestCornerExistence:
    """has_k_temporal_corner answers whether find_k_temporal_corners would
    list anything, with the same checks on k and the same budget."""

    def test_random_instances_every_k(self):
        rng = random.Random(28)
        both = set()
        for _ in range(400):
            pg = random_periodic(rng, rng.randint(1, 9), rng.randint(1, 4),
                                 rng.random())
            for k in (1, 2, 3):
                found = bool(find_k_temporal_corners(pg, k))
                assert has_k_temporal_corner(pg, k) == found, (pg.snapshots, k)
                both.add(found)
        assert both == {False, True}

    def test_one_vertex(self):
        for k in (1, 2):
            assert not has_k_temporal_corner(constant(Graph(1), 2), k)

    def test_k_at_least_n(self):
        # the one cover set is V - u: every vertex of a complete layer is a
        # corner, and no vertex of an edgeless one
        rng = random.Random(29)
        for n in (2, 3, 4):
            for k in (n - 1, n, n + 3):
                assert has_k_temporal_corner(constant(complete_graph(n), 1), k)
                assert not has_k_temporal_corner(constant(Graph(n), 2), k)
                for _ in range(10):
                    pg = random_periodic(rng, n, rng.randint(1, 3), rng.random())
                    assert has_k_temporal_corner(pg, k) == bool(
                        find_k_temporal_corners(pg, k)), (pg.snapshots, k)

    @pytest.mark.parametrize("k", [True, 0, 1.0])
    def test_same_value_error(self, k):
        pg = random_periodic(random.Random(3), 4, 2)
        with pytest.raises(ValueError) as listed:
            find_k_temporal_corners(pg, k)
        with pytest.raises(ValueError) as asked:
            has_k_temporal_corner(pg, k)
        assert str(asked.value) == str(listed.value)
        assert str(asked.value).startswith("k must be an int >= 1: ")

    @pytest.mark.parametrize("pg, k", [
        (constant(complete_graph(24), 1), 12),  # 24 * C(23, 12) tuples
        (constant(Graph(3163), 1), 1),          # 3163 * 3162 tuples
    ])
    def test_same_limit_error_before_any_scan(self, pg, k, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned past the budget")

        monkeypatch.setattr(corners, "layer_corners", no_scan)
        with pytest.raises(LimitError) as listed:
            find_k_temporal_corners(pg, k)
        with pytest.raises(LimitError) as asked:
            has_k_temporal_corner(pg, k)
        assert str(asked.value) == str(listed.value)
        assert "budget" in str(asked.value)


class TestCompleteness:
    """The scan finds every corner the brute-force reference finds, in the
    same order: a dropped witness would pass `validate_witness`."""

    @staticmethod
    def assert_matches(pg, k):
        got = [(w.t, w.corner_vertex, w.covers)
               for w in find_k_temporal_corners(pg, k)]
        assert got == reference_corners(pg, k), (pg.snapshots, k)

    def test_random_instances_every_k(self):
        # k = 1..4 against n = 1..7 covers k >= n, where covers are V - u
        rng = random.Random(18)
        for n in range(1, 8):
            for p in range(1, 4):
                for _ in range(6):
                    pg = random_periodic(rng, n, p, rng.random())
                    for k in (1, 2, 3, 4):
                        self.assert_matches(pg, k)

    @pytest.mark.parametrize("k", [27, 28, 29, 40])
    def test_thirty_vertices_k_near_n(self, k):
        # at most 30 * C(29, 27) = 12,180 (cover set, u) pairs per layer; the
        # scan walks the C(30, min(k, 29)) cover sets and tests only the
        # vertices inside each union, so k near n stays cheap
        self.assert_matches(constant(cycle_graph(30), 1), k)
        self.assert_matches(PeriodicGraph([cycle_graph(30), path_graph(30),
                                           Graph(30)]), k)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generators(self, name):
        pg = GENERATORS[name]().instance
        for k in (1, 2):
            self.assert_matches(pg, k)

    @pytest.mark.parametrize("name", SHIPPED_WITNESSES)
    def test_shipped_witnesses(self, name):
        pg, _meta = load_witness(name)
        for k in (1, 2):
            self.assert_matches(pg, k)


class TestNecessityBoundary:
    def test_saturated_placement_escapes_necessity_without_connectivity(self):
        """Two cops on the edgeless 2-vertex instance win at placement, yet
        no 2-corner exists (no vertex lies outside the cover).  Corner
        necessity is therefore scoped to temporally connected instances."""
        from percop.solver import is_k_copwin

        pg = constant(Graph(2), 1)
        assert is_k_copwin(pg, 2).copwin
        assert find_k_temporal_corners(pg, 2) == []

    def test_connected_two_vertex_instances_have_corners(self):
        from percop.solver import is_k_copwin

        for snaps in (
            [Graph(2, [(0, 1)])],
            [Graph(2, [(0, 1)]), Graph(2)],
            [Graph(2), Graph(2, [(0, 1)])],
        ):
            pg = PeriodicGraph(snaps)
            assert is_k_copwin(pg, 2).copwin
            assert find_k_temporal_corners(pg, 2) != []

    def test_necessity_on_connected_random_corpus(self, rng):
        from percop.periodic import is_temporally_connected
        from percop.solver import is_k_copwin

        checked = 0
        for _ in range(150):
            pg = random_periodic(rng, rng.randint(2, 7), rng.randint(1, 3), 0.4)
            if not is_temporally_connected(pg):
                continue
            checked += 1
            for k in (1, 2):
                if is_k_copwin(pg, k).copwin:
                    assert find_k_temporal_corners(pg, k), (pg.snapshots, k)
        assert checked > 50


class TestWitnessOrder:
    def test_enumeration_is_already_sorted(self):
        # the scan walks cover sets in lexicographic order and appends each
        # to its corner's own list, and the lists are read out by t, then u,
        # so witnesses come out sorted without a sort
        rng = random.Random(11)
        nonempty = 0
        for n in range(1, 7):
            for _ in range(40):
                pg = random_periodic(rng, n, rng.randint(1, 3), 0.5)
                lists = [find_temporal_corners(pg)] + [
                    find_k_temporal_corners(pg, k) for k in (1, 2, 3)
                ]
                for got in lists:
                    assert got == sorted(got), (n, pg)
                    nonempty += len(got) > 1
        assert nonempty > 100


class TestWitnessesFromTheScan:
    """layer_corners builds each CornerWitness itself, with the layer's t,
    and find_k_temporal_corners only concatenates its lists."""

    @staticmethod
    def check(pg, k):
        """The list against the brute-force reference, every element a
        CornerWitness, and has_k_temporal_corner against its emptiness."""
        ws = find_k_temporal_corners(pg, k)
        assert ws == reference_corners(pg, k), (pg.snapshots, k)
        assert all(type(w) is CornerWitness for w in ws), (pg.snapshots, k)
        assert has_k_temporal_corner(pg, k) == bool(ws), (pg.snapshots, k)

    def test_small_connected_instances(self):
        # CI checks the 3,934 of at most 4 vertices
        pgs = list(connected_instances(3))
        assert len(pgs) == 62
        for pg in pgs:
            for k in (1, 2, 3):
                self.check(pg, k)

    def test_every_element_is_a_corner_witness(self):
        rng = random.Random(46)
        seen = 0
        for _ in range(60):
            pg = random_periodic(rng, rng.randint(1, 7), rng.randint(1, 3),
                                 rng.random())
            for k in (1, 2, 3, 4):
                for w in find_k_temporal_corners(pg, k):
                    assert type(w) is CornerWitness, w
                    assert w == CornerWitness(w.t, w.corner_vertex, w.covers)
                    assert w.as_dict() == {"t": w.t,
                                           "corner_vertex": w.corner_vertex,
                                           "covers": list(w.covers)}
                    seen += 1
        assert seen > 500

    def test_each_list_carries_its_layer(self):
        rng = random.Random(47)
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(2, 4),
                                 rng.random())
            snaps, p = pg.snapshots, pg.period
            for k in (1, 2, 3):
                for t in range(p):
                    lists = layer_corners(snaps[t], snaps[(t + 1) % p], k, t=t)
                    assert len(lists) == pg.n
                    for u, ws in enumerate(lists):
                        assert all(type(w) is CornerWitness for w in ws)
                        assert all(w.t == t and w.corner_vertex == u
                                   for w in ws), (t, u, ws)

    def test_first_holds_one_witness_when_a_corner_exists(self):
        rng = random.Random(48)
        both = set()
        for _ in range(80):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 rng.random())
            snaps, p = pg.snapshots, pg.period
            for k in (1, 2, 3):
                for t in range(p):
                    gt, gn = snaps[t], snaps[(t + 1) % p]
                    full = [w for ws in layer_corners(gt, gn, k, t=t)
                            for w in ws]
                    first = [w for ws in layer_corners(gt, gn, k, True, t)
                             for w in ws]
                    assert len(first) == (1 if full else 0)
                    # the scan's first corner, in cover order
                    if full:
                        assert first[0] in full
                        assert first[0].covers == min(w.covers for w in full)
                    both.add(bool(full))
        assert both == {False, True}


class TestKeptTables:
    """The cover tables kept per (n, size, t), and the witnesses kept in
    their slots, against the brute force of tests/reference.py."""

    @staticmethod
    def instances(seed=49):
        rng = random.Random(seed)
        return [random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3),
                                rng.random()) for _ in range(60)]

    @staticmethod
    def check_kept():
        """The row count, and every kept row and witness, against the key."""
        assert corners._kept_rows == sum(
            len(table) for table in corners._TABLES.values())
        assert corners._kept_rows <= corners._KEPT_ROWS
        for (n, size, t), table in corners._TABLES.items():
            assert [ys for ys, _rest, _slots in table] == list(
                itertools.combinations(range(n), size))
            for ys, rest, slots in table:
                assert rest == sum(1 << v for v in range(n) if v not in ys)
                assert len(slots) == n
                for u, w in enumerate(slots):
                    assert w is None or (type(w) is CornerWitness
                                         and w == (t, u, ys)), (t, u, ys, w)

    @pytest.mark.parametrize("limit", [0, 20, corners._KEPT_ROWS])
    def test_lists_match_whatever_was_kept_first(self, monkeypatch, limit):
        # limit 0 keeps nothing; at 20 some layers read tables and others not
        monkeypatch.setattr(corners, "_KEPT_ROWS", limit)
        pgs = self.instances()
        for pg in reversed(pgs):  # other keys first, in another order
            for k in (3, 1, 2):
                find_k_temporal_corners(pg, k)
        assert bool(corners._TABLES) == (limit > 0)
        for pg in pgs:
            for k in (1, 2, 3):
                TestWitnessesFromTheScan.check(pg, k)
        self.check_kept()

    def test_long_period_stays_within_the_limit(self):
        # 55 layers of 12 vertices: 660 rows at k = 1 and 3,630 at k = 2
        pg = petersen_231().instance
        assert (pg.n, pg.period) == (12, 55)
        for k in (1, 2):
            TestWitnessesFromTheScan.check(pg, k)
        self.check_kept()
        assert len(corners._TABLES) < 2 * pg.period  # some were not kept
        for later in self.instances(50):
            for k in (1, 2, 3):
                TestWitnessesFromTheScan.check(later, k)
        self.check_kept()
        for k in (1, 2):
            TestWitnessesFromTheScan.check(pg, k)

    def test_first_returns_a_kept_witness(self):
        rng = random.Random(51)
        found = 0
        for i in range(60):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3),
                                 rng.random())
            snaps, p = pg.snapshots, pg.period
            for k in (1, 2):
                for t in range(p):
                    gt, gn = snaps[t], snaps[(t + 1) % p]
                    # the first corner is kept whichever scan comes first
                    if i % 2:
                        full = layer_corners(gt, gn, k, t=t)
                    first = [w for ws in layer_corners(gt, gn, k, True, t)
                             for w in ws]
                    if not i % 2:
                        full = layer_corners(gt, gn, k, t=t)
                    if not first:
                        continue
                    w, = first
                    assert any(w is v for v in full[w.corner_vertex])
                    table = corners._TABLES[pg.n, min(k, pg.n - 1), t]
                    assert any(slots[w.corner_vertex] is w
                               for _ys, _rest, slots in table)
                    found += 1
        assert found > 100

    def test_threads_get_equal_lists(self):
        # more threads than cores, and a short switch interval, so that the
        # threads race to fill the same slots and to keep the same tables
        pgs = self.instances(52)
        lists = [None] * 4
        start = threading.Barrier(len(lists), timeout=60)

        def scan(i):
            start.wait()
            lists[i] = [find_k_temporal_corners(pg, k)
                        for pg in pgs for k in (1, 2, 3)]

        threads = [threading.Thread(target=scan, args=(i,))
                   for i in range(len(lists))]
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
        want = [reference_corners(pg, k) for pg in pgs for k in (1, 2, 3)]
        assert all(got == want for got in lists)
        self.check_kept()
