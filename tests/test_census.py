import itertools

import pytest

from percop import census
from percop.census import _canonical_graph_masks, instances, smallest_3copwin_scan
from percop.graphs import LimitError, domination_number
from percop.periodic import PeriodicGraph, footprint
from percop.solver import is_k_copwin
from conftest import all_graphs
from reference import reference_graph_classes


def brute_instances(n, p):
    """(every (G_0 mask, later masks) with a connected footprint, the number of
    tuples tried), with G_0 over the reference classes and the later masks over
    all tuples, both in the order `instances` promises."""
    _pairs, reps = reference_graph_classes(n)
    graphs = all_graphs(n)
    found, tried = [], 0
    for g0m in reps:
        for rest in itertools.product(range(len(graphs)), repeat=p - 1):
            tried += 1
            pg = PeriodicGraph([graphs[mk] for mk in (g0m,) + rest])
            if footprint(pg).is_connected():
                found.append((g0m, rest))
    return found, tried


class TestInstances:
    @pytest.mark.parametrize("n, p", [(n, p) for n in (1, 2, 3) for p in (1, 2, 3)])
    def test_matches_brute_force(self, n, p):
        found, _tried = brute_instances(n, p)
        assert list(instances(n, p)) == found

    def test_closed_form_enumerated_matches_brute_force(self):
        report = smallest_3copwin_scan(3, 3)
        for row in report["counts"]:
            found, tried = brute_instances(row["n"], row["p"])
            assert row["enumerated"] == tried
            assert row["temporally_connected"] == len(found)

    @pytest.mark.parametrize("n, p, name", [
        (2.0, 1, "n"), (3, 0, "p"), (0, 2, "n"), (True, 2, "n"),
    ])
    def test_arguments_must_be_positive_ints(self, n, p, name):
        stream = instances(n, p)
        with pytest.raises(ValueError, match="^%s must be an int >= 1: " % name):
            next(stream)


class TestScan:
    def test_tiny_scan_finds_nothing(self):
        report = smallest_3copwin_scan(3, 2)
        assert report["three_copwin_found"] == 0
        total = sum(c["enumerated"] for c in report["counts"])
        assert total > 0

    def test_solved_counts(self):
        report = smallest_3copwin_scan(3, 2)
        assert [c["solved"] for c in report["counts"]] == [0, 0, 0, 0, 0, 4]
        for row in smallest_3copwin_scan(4, 2)["counts"]:
            assert row["solved"] <= row["temporally_connected"]

    def test_five_vertices_period_two(self):
        report = smallest_3copwin_scan(5, 2)
        row = report["counts"][-1]
        assert (row["n"], row["p"]) == (5, 2)
        assert row["temporally_connected"] == 33564
        assert row["solved"] == 6204
        assert report["three_copwin_found"] == 0

    def test_dominated_first_snapshot_is_two_copwin(self):
        # the scan certifies these without solving; the solver must agree
        graphs = all_graphs(4)
        checked = 0
        for g0m, (g1m,) in instances(4, 2):
            if domination_number(graphs[g0m]) > 2:
                continue
            assert is_k_copwin(PeriodicGraph([graphs[g0m], graphs[g1m]]), 2).copwin
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11),
                                            (5, 34), (6, 156)])
    def test_graph_classes_match_the_reference(self, n, classes):
        # one class per graph on n vertices up to isomorphism (OEIS A000088),
        # each by its least mask, ascending
        got = _canonical_graph_masks(n)
        assert got == reference_graph_classes(n)
        assert len(got[1]) == classes

    def test_limits(self):
        with pytest.raises(ValueError):
            smallest_3copwin_scan(6, 2)
        with pytest.raises(ValueError):
            smallest_3copwin_scan(3, 5)
        # 34 classes times 2**20 and 2**30 later-snapshot tuples
        with pytest.raises(LimitError, match="10000000 instances"):
            smallest_3copwin_scan(5, 3)
        with pytest.raises(LimitError, match="10000000 instances"):
            smallest_3copwin_scan(5, 4)

    def test_instance_limit_is_checked_before_any_instance(self, monkeypatch):
        def unreachable(n, p):
            raise AssertionError("enumerated (%d, %d)" % (n, p))

        monkeypatch.setattr(census, "instances", unreachable)
        with pytest.raises(LimitError):
            smallest_3copwin_scan(5, 3)

    def test_largest_scan_in_use_is_allowed(self, monkeypatch):
        # (4, 4) enumerates 2,931,729 instances, under the limit; no instance
        # is enumerated here
        monkeypatch.setattr(census, "instances", lambda n, p: iter(()))
        report = smallest_3copwin_scan(4, 4)
        assert sum(c["enumerated"] for c in report["counts"]) == 2931729
        assert report["counts"][-1]["enumerated"] == 11 << 18

    @pytest.mark.parametrize("max_n, max_p, name", [
        (True, 2, "max_n"), (2.0, 1, "max_n"), (0, 0, "max_n"), (-1, 2, "max_n"),
        (3, 0, "max_p"), (2, True, "max_p"), (2, "2", "max_p"),
    ])
    def test_limits_must_be_positive_ints(self, max_n, max_p, name):
        with pytest.raises(ValueError, match="%s must be an int >= 1" % name):
            smallest_3copwin_scan(max_n, max_p)
