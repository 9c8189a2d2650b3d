import itertools
import json
from importlib import resources

import pytest

from percop.graphs import (
    Graph, complete_graph, cycle_graph, dismantle, domination_number, girth,
    path_graph, petersen_graph, PETERSEN_EDGES,
)
from percop.periodic import PeriodicGraph, footprint, induced
from percop.instancefile import serialize_specimen
from percop.corners import find_k_temporal_corners, find_temporal_corners
from percop.solver import cop_number, is_k_copwin, static_cop_number
from percop.search import (
    SearchSpec,
    _canonical_graph_masks,
    certify,
    get_spec,
    load_witness,
    load_witness_certificate,
    named_specs,
    search,
    smallest_3copwin_scan,
    spec_from_dict,
)
from percop.treewidth import exact_treewidth


class TestSpecPlumbing:
    def test_named_specs_exist(self):
        specs = named_specs()
        assert set(specs) == {
            "thm112", "lem122", "circulant_123", "prop3_retract", "search_321",
        }

    def test_round_trip_through_dict(self):
        spec = get_spec("lem122")
        clone = spec_from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone.name == spec.name
        assert clone.targets == spec.targets

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown search spec fields"):
            spec_from_dict({"name": "x", "n": 3, "p": 1, "family": "circulant",
                            "bogus": 1})

    def test_unknown_targets_rejected(self):
        with pytest.raises(ValueError, match=r"unknown search targets: \['copnun'\]"):
            spec_from_dict({"name": "x", "n": 3, "p": 1, "family": "circulant",
                            "targets": {"copnum": 3, "copnun": 3}})

    def test_unknown_targets_rejected_on_direct_construction(self):
        with pytest.raises(ValueError, match=r"unknown search targets: \['copnun'\]"):
            SearchSpec(name="x", n=3, p=1, family="subgraph_assignment",
                       snapshot_constraint={"kind": "subgraph_of", "edges": [[0, 1]]},
                       targets={"copnun": 3})

    @pytest.mark.parametrize("name, hints", [
        ("thm112", {"g0path": [7, 0, 2, 6, 5, 3, 1, 4, 8]}),
        ("lem122", {"edge_prob": 0.3}),
    ])
    def test_unknown_hints_rejected(self, name, hints):
        d = get_spec(name).as_dict()
        d["hints"] = hints
        with pytest.raises(ValueError, match="unknown search hints"):
            spec_from_dict(d)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown spec"):
            get_spec("nope")


def _tiny_spec(**kw):
    """Two edges over two layers: nine assignments, none with cop number 3."""
    return SearchSpec(
        name="tiny",
        n=3,
        p=2,
        family="subgraph_assignment",
        snapshot_constraint={"kind": "subgraph_of", "edges": [[0, 1], [1, 2]]},
        footprint_constraint={"kind": "equals", "edges": [[0, 1], [1, 2]]},
        targets={"copnum": 3},  # impossible on three vertices
        budget_seconds=60,
        **kw,
    )


class TestExhaustiveMode:
    def test_impossible_target_reports_exhausted_with_full_count(self):
        # tiny subgraph space: the count must equal the naive product size
        out = search(_tiny_spec())
        assert out.status == "exhausted"
        assert out.tried == (2 ** 2 - 1) ** 2  # nonempty layer sets per edge

    def test_hinted_assignments_tried_once(self):
        hints = {"edge_layers": [{"edge": [0, 1], "require": [0]}]}
        out = search(_tiny_spec(hints=hints))
        assert out.status == "exhausted"
        assert out.tried == (2 ** 2 - 1) ** 2

    def test_reversed_spec_edges_match(self):
        # Graph stores (min, max); spec edges may be written either way round
        edges = [[1, 0], [2, 1]]
        spec = SearchSpec(
            name="reversed",
            n=3,
            p=1,
            family="subgraph_assignment",
            snapshot_constraint={"kind": "subgraph_of", "edges": edges},
            footprint_constraint={"kind": "equals", "edges": edges},
            targets={"copnum": 1},
        )
        out = search(spec)
        assert (out.status, out.tried) == ("found", 1)
        assert spec.as_dict()["footprint_constraint"]["edges"] == [[1, 0], [2, 1]]

    def test_reversed_hint_edge_is_honoured(self):
        spec = SearchSpec(
            name="hinted",
            n=3,
            p=2,
            family="subgraph_assignment",
            snapshot_constraint={"kind": "subgraph_of", "edges": [[0, 1], [1, 2]]},
            hints={"edge_layers": [{"edge": [1, 0], "require": [1], "forbid": [0]}]},
        )
        out = search(spec)  # no targets: the first candidate is found
        g0, g1 = out.witness.instance.snapshots
        assert not g0.has_edge(0, 1) and g1.has_edge(0, 1)

    def test_snapshot_constraint_checked_before_triple(self, monkeypatch):
        # K_{2,3} has no 3-cycle, so no candidate meets the snapshot constraint
        from percop import solver

        calls = []
        triple = solver.triple
        monkeypatch.setattr(solver, "triple",
                            lambda *a, **kw: calls.append(1) or triple(*a, **kw))
        k23 = [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]]
        spec = SearchSpec(
            name="k23",
            n=5,
            p=2,
            family="subgraph_assignment",
            snapshot_constraint={"kind": "spanning_subgraph_with_cycle",
                                 "edges": k23, "cycle_length": 3},
            targets={"copnum": 3},
        )
        out = search(spec)
        assert (out.status, out.tried) == ("exhausted", 3 ** 6)
        assert calls == []

    def test_snapshot_constraint_is_a_target(self):
        # the only candidate is the path 0-1-2, cop-win but without a 3-cycle
        spec = SearchSpec(
            name="acyclic",
            n=3,
            p=1,
            family="subgraph_assignment",
            snapshot_constraint={"kind": "spanning_subgraph_with_cycle",
                                 "edges": [[0, 1], [1, 2]], "cycle_length": 3},
            targets={"copnum": 1},
        )
        assert search(spec).status == "exhausted"

    def test_corner_freeness_does_not_rule_out_fewer_cops(self):
        # two isolated vertices: no 2-corners, yet two cops win, so not 3
        spec = SearchSpec(
            name="disconnected",
            n=2,
            p=1,
            family="subgraph_assignment",
            snapshot_constraint={"kind": "subgraph_of", "edges": []},
            targets={"no_corner_k": [2], "copnum": 3},
        )
        assert search(spec).status == "exhausted"

    def test_prop3_found_and_certified(self):
        out = search(get_spec("prop3_retract"))
        assert out.status == "found"
        assert out.certificates["verified"]
        assert out.certificates["induced_copnum"] == 2
        assert out.certificates["retract_premise_fails"]
        pg = out.witness.instance
        assert cop_number(pg) == 1
        sub, _ = induced(pg, [0, 1, 2, 3])
        assert cop_number(sub) == 2

    def test_circulant_found_with_hinted_suffix(self):
        out = search(get_spec("circulant_123"))
        assert out.status == "found"
        steps = out.witness.params["steps"]
        assert steps[3:] == [1, 4]
        assert sorted(steps) == [1, 2, 3, 4, 5]
        assert out.certificates["triple"] == [1, 2, 3]


def _walk_spec(seed, **kw):
    """An assignment space of 15**6 > 10**7, so the search walks it."""
    return SearchSpec(
        name="walk",
        n=5,
        p=4,
        family="subgraph_assignment",
        snapshot_constraint={"kind": "subgraph_of", "edges":
                             [[0, 1], [0, 2], [0, 4], [1, 2], [2, 3], [3, 4]]},
        seed=seed,
        **kw,
    )


class TestLocalMoves:
    @pytest.mark.parametrize("seed,tried", [(0, 64), (1, 6)])
    def test_same_seed_same_walk(self, seed, tried):
        # the pinned counts fix the order of the walk's random draws
        a = search(_walk_spec(seed, targets={"gamma_g0": 4}))
        b = search(_walk_spec(seed, targets={"gamma_g0": 4}))
        assert (a.status, a.tried) == ("found", tried)
        assert a.witness.params == {"seed": seed, "tried": tried}
        assert (b.status, b.tried, b.witness.instance) == (
            a.status, a.tried, a.witness.instance)
        assert domination_number(a.witness.instance.snapshots[0]) == 4


class TestRandomizedMode:
    def test_thm112(self):
        out = search(get_spec("thm112"))
        assert out.status == "found"
        pg = out.witness.instance
        assert out.certificates["triple"] == [1, 1, 2]
        assert find_temporal_corners(pg) == []
        for g in pg.snapshots:
            degs = sorted(g.degree(v) for v in range(9))
            assert len(g.edges) == 8 and g.is_connected()
            assert degs[:2] == [1, 1] and set(degs[2:]) == {2}
        assert footprint(pg).degree(8) == 8

    def test_search_321(self):
        out = search(get_spec("search_321"))
        assert out.status == "found"
        pg = out.witness.instance
        assert out.certificates["triple"] == [3, 2, 1]
        assert footprint(pg).edges == frozenset(PETERSEN_EDGES)
        for g in pg.unique_snapshots:
            assert g.is_connected()
            assert girth(g) == 5
            assert static_cop_number(g) == 2

    def test_determinism_of_found_witness(self):
        a = search(get_spec("thm112"))
        b = search(get_spec("thm112"))
        assert a.witness.instance == b.witness.instance
        assert a.tried == b.tried


class TestTruncation:
    """max_tries and budget_seconds end every family's search alike."""

    def test_exhaustive_max_tries(self):
        out = search(_tiny_spec(max_tries=4))
        assert (out.status, out.tried) == ("budget", 4)
        out = search(_tiny_spec(max_tries=9))  # the space ends first
        assert (out.status, out.tried) == ("exhausted", 9)

    def test_circulant_max_tries(self):
        spec = get_spec("circulant_123")  # found on the fifth stride order
        spec.max_tries = 3
        out = search(spec)
        assert (out.status, out.tried) == ("budget", 3)

    def test_local_moves_max_tries(self):
        out = search(_walk_spec(0, targets={"gamma_g0": 9}, max_tries=500))
        assert (out.status, out.tried) == ("budget", 500)

    def test_generator_max_tries(self):
        spec = get_spec("lem122")  # found after 24588 candidates at seed 0
        spec.max_tries = 50
        out = search(spec)
        assert (out.status, out.tried) == ("budget", 50)

    @pytest.mark.parametrize(
        "name", ["thm112", "lem122", "circulant_123", "prop3_retract", "search_321"]
    )
    def test_spent_deadline(self, name):
        spec = get_spec(name)
        spec.budget_seconds = -1
        out = search(spec)
        assert (out.status, out.tried) == ("budget", 0)


class TestCertify:
    def test_catches_property_loss(self):
        # certify must reject an instance that misses the spec targets
        spec = get_spec("circulant_123")
        from percop.constructions import circulant_123

        bad = circulant_123([2, 3, 5, 1, 4]).instance  # has 2-corners
        certs = certify(bad, spec)
        assert not certs["verified"]


def _footprint_spec(g, p, c):
    """Does some period-p instance with footprint exactly g have cop number c?"""
    edges = [list(e) for e in g.sorted_edges()]
    return SearchSpec(
        name="footprint",
        n=g.n,
        p=p,
        family="subgraph_assignment",
        snapshot_constraint={"kind": "subgraph_of", "edges": edges},
        footprint_constraint={"kind": "equals", "edges": edges},
        targets={"copnum": c},
    )


class TestFootprintSearch:
    """Bounded footprint questions, asked through the exhaustive search."""

    def test_k2_single_edge(self):
        for p in (1, 2, 3):
            out = search(_footprint_spec(complete_graph(2), p, 2))
            assert out.status == "exhausted"

    def test_c4_reaches_two(self):
        out = search(_footprint_spec(cycle_graph(4), 2, 2))
        assert out.status == "found"
        assert out.witness.expected_triple[2] == 2

    def test_bounded_by_treewidth(self):
        for g in (cycle_graph(4), path_graph(4), complete_graph(4)):
            w, _ = exact_treewidth(g)
            for p in (1, 2):
                for c in range(w + 2, g.n + 1):
                    assert search(_footprint_spec(g, p, c)).status == "exhausted"

    @pytest.mark.parametrize("g, best", [
        (complete_graph(2), 1),
        (cycle_graph(4), 2),
        (path_graph(4), 1),
        (complete_graph(4), 1),
    ], ids=["K2", "C4", "P4", "K4"])
    def test_largest_cop_number_up_to_period_two(self, g, best):
        found = {
            c
            for p in (1, 2)
            for c in range(1, g.n + 1)
            if search(_footprint_spec(g, p, c)).status == "found"
        }
        assert max(found) == best


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

    def test_dominated_first_snapshot_is_two_copwin(self):
        # the scan certifies these without solving; the solver must agree
        pairs, reps = _canonical_graph_masks(4)
        graphs = [
            Graph(4, [e for i, e in enumerate(pairs) if (mk >> i) & 1])
            for mk in range(1 << len(pairs))
        ]
        checked = 0
        for g0m in reps:
            if domination_number(graphs[g0m]) > 2:
                continue
            for g1 in graphs:
                pg = PeriodicGraph([graphs[g0m], g1])
                if footprint(pg).is_connected():
                    assert is_k_copwin(pg, 2).copwin
                    checked += 1
        assert checked > 0

    def test_limits(self):
        with pytest.raises(ValueError):
            smallest_3copwin_scan(6, 2)
        with pytest.raises(ValueError):
            smallest_3copwin_scan(3, 5)


class TestShippedWitnesses:
    @pytest.mark.parametrize(
        "name", ["thm112", "lem122", "circulant_123", "prop3_retract", "search_321"]
    )
    def test_witness_matches_certificate(self, name):
        pg, meta = load_witness(name)
        cert = load_witness_certificate(name)
        assert cert["spec"] == name
        want = meta["expected"]
        assert cert["triple"] == [
            want["footprint_copnum"],
            want["max_snapshot_copnum"],
            want["copnum"],
        ]
        assert certify(pg, get_spec(name)) == cert["certificates"]

    def test_shipped_witnesses_regenerate(self):
        # (spec, seed) determines the witness; shipped files must match
        folder = resources.files("percop").joinpath("data/witnesses")
        for name in ("prop3_retract", "circulant_123", "thm112", "search_321"):
            out = search(get_spec(name))
            shipped, _meta = load_witness(name)
            assert out.witness.instance == shipped, name
            text = folder.joinpath("%s.json" % name).read_text()
            assert serialize_specimen(out.witness) == text, name

    def test_missing_witness_raises(self):
        with pytest.raises(FileNotFoundError):
            load_witness("never_shipped")
