import itertools

import pytest

from percop.graphs import Graph, dismantle, girth, petersen_graph, PETERSEN_EDGES
from percop.periodic import footprint, is_temporally_connected
from percop.solver import is_k_copwin, static_cop_number
from percop.corners import find_k_temporal_corners
from percop.constructions import (
    GENERATORS,
    bowtie_221,
    circulant_123,
    petersen_132,
    petersen_231,
    petersen_311,
    q3_rotation,
)


class TestQ3Rotation:
    def test_snapshots_are_perfect_matchings(self):
        pg = q3_rotation().instance
        for g in pg.snapshots:
            assert len(g.edges) == 4
            assert all(g.degree(v) == 1 for v in range(8))

    def test_matchings_partition_footprint(self):
        pg = q3_rotation().instance
        seen = set()
        for g in pg.snapshots:
            assert not (seen & g.edges)
            seen |= g.edges
        assert seen == footprint(pg).edges

    def test_footprint_is_q3(self):
        from percop.graphs import hypercube_q3

        assert footprint(q3_rotation().instance).edges == hypercube_q3().edges


class TestBowtie:
    def test_snapshot_shape(self):
        pg = bowtie_221().instance
        assert pg.period == 6
        for g in pg.snapshots:
            assert len(g.edges) == 7
            assert g.is_connected()

    def test_two_unique_snapshots_in_blocks(self):
        pg = bowtie_221().instance
        assert pg.usnap == (0, 0, 0, 1, 1, 1)


class TestPetersen132:
    def test_rare_snapshots_contain_full_petersen(self):
        pg = petersen_132().instance
        assert pg.period == 50
        pet_edges = frozenset(PETERSEN_EDGES)
        rare = [pg.snapshots[t] for t in range(0, 50, 5)]
        assert len(rare) == 10
        for g in rare:
            assert pet_edges <= g.edges

    def test_every_apex_edge_appears_once(self):
        pg = petersen_132().instance
        apex_edges = set()
        for t in range(0, 50, 5):
            (extra,) = [e for e in pg.snapshots[t].edges if 10 in e]
            apex_edges.add(extra)
        assert apex_edges == {(w, 10) for w in range(10)}

    def test_every_snapshot_connected(self):
        pg = petersen_132().instance
        assert all(g.is_connected() for g in pg.snapshots)

    def test_footprint_has_universal_apex(self):
        foot = footprint(petersen_132().instance)
        assert foot.degree(10) == 10

    def test_rare_snapshot_static_cop_number_three(self):
        pg = petersen_132().instance
        assert static_cop_number(pg.snapshots[0]) == 3


class TestPetersen231:
    def test_structure(self):
        pg = petersen_231().instance
        assert pg.period == 55
        rare = [pg.snapshots[t] for t in range(0, 55, 11)]
        pet_edges = frozenset(PETERSEN_EDGES)
        for j, g in enumerate(rare):
            assert pet_edges <= g.edges
            assert g.has_edge(j, 10)
            assert g.has_edge(5 + j, 11)

    def test_tree_block_persists_ten_steps(self):
        pg = petersen_231().instance
        runs = []
        run = 0
        for t in range(55):
            if pg.usnap[t] == pg.usnap[1]:
                run += 1
            else:
                if run:
                    runs.append(run)
                run = 0
        if run:
            runs.append(run)
        assert min(runs) >= 9

    def test_tree_snapshot_is_low_eccentricity_tree(self):
        pg = petersen_231().instance
        t_snap = pg.snapshots[1]
        assert len(t_snap.edges) == 11 and t_snap.is_connected()
        assert girth(t_snap) == float("inf")
        assert min(max(t_snap.bfs_dist(u)) for u in range(12)) <= 4

    def test_rare_snapshot_cop_number_three(self):
        pg = petersen_231().instance
        assert static_cop_number(pg.snapshots[0]) == 3


class TestPetersen311:
    def test_all_snapshots_are_spanning_trees(self):
        pg = petersen_311().instance
        for g in pg.snapshots:
            assert len(g.edges) == 9 and g.is_connected()
            assert dismantle(g)

    def test_footprint_is_exactly_petersen(self):
        assert footprint(petersen_311().instance).edges == frozenset(PETERSEN_EDGES)

    def test_initial_tree_block_length(self):
        spec = petersen_311()
        block = spec.params["tree_block"]
        assert block >= 3  # radius(T) + 1 with radius 2
        assert all(
            spec.instance.usnap[t] == 0 for t in range(block)
        )


class TestCirculant:
    STEPS = [5, 2, 3, 1, 4]

    def test_snapshots_are_elevens_cycles(self):
        pg = circulant_123(self.STEPS).instance
        for g in pg.snapshots:
            assert len(g.edges) == 11
            assert all(g.degree(v) == 2 for v in range(11))
            assert g.is_connected()
            assert static_cop_number(g) == 2

    def test_footprint_complete(self):
        foot = footprint(circulant_123(self.STEPS).instance)
        assert len(foot.edges) == 55

    def test_precondition_validation(self):
        with pytest.raises(ValueError, match="odd period"):
            circulant_123([1, 2, 3, 4])
        with pytest.raises(ValueError, match="consecutive"):
            circulant_123([1, 1, 2, 3, 4])
        with pytest.raises(ValueError, match="cover"):
            circulant_123([1, 2, 1, 2, 3])
        with pytest.raises(ValueError, match="strides"):
            circulant_123([1, 2, 3, 4, 6])

    @pytest.mark.parametrize("steps", [
        [True, 2, 3, 4, 5], [1, 2, 3, 4, 5.0], [1, 2, 3, 4, "5"], [1, 2, 3, 4, None],
    ])
    def test_strides_must_be_ints(self, steps):
        with pytest.raises(ValueError, match="strides must be ints in 1..5"):
            circulant_123(steps)

    def test_extend_odd_grows_period(self):
        bigger = circulant_123(self.STEPS + self.STEPS[-2:] * 2)
        assert bigger.instance.period == 9
        assert bigger.instance.period % 2 == 1
        assert find_k_temporal_corners(bigger.instance, 2) == []

    def test_extended_instance_keeps_triple(self):
        bigger = circulant_123(self.STEPS + self.STEPS[-2:])
        assert bigger.instance.period == 7
        assert not is_k_copwin(bigger.instance, 2).copwin
        assert is_k_copwin(bigger.instance, 3).copwin


class TestAllSpecimens:
    def test_temporally_connected(self):
        for name, gen in GENERATORS.items():
            assert is_temporally_connected(gen().instance), name

    def test_expected_triple_shape(self):
        for name, gen in GENERATORS.items():
            spec = gen()
            assert len(spec.expected_triple) == 3
            assert spec.provenance == "fully-specified"
