import ast
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import networkx as nx
import pytest

from percop.graphs import (
    Graph, complete_graph, cycle_graph, dismantle, domination_number, girth,
    path_graph, petersen_graph, PETERSEN_EDGES,
)
from percop.periodic import PeriodicGraph, constant, footprint, induced
from percop.instancefile import serialize_specimen
from percop.constructions import circulant_123
from percop.corners import find_k_temporal_corners, find_temporal_corners
from percop.solver import cop_number, is_k_copwin, static_cop_number
from percop import families as families_module
from percop import search as search_module
from percop.families import _coin_flips, _girth4_draws, _petersen_five_cycles
from percop.search import (
    SearchSpec,
    _candidates,
    certify,
    check_targets,
    get_spec,
    load_witness,
    load_witness_certificate,
    named_specs,
    search,
    spec_from_dict,
)
from percop.treewidth import exact_treewidth
from conftest import WITNESS_NAMES


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

    def test_unknown_edge_layer_keys_rejected(self):
        # a misspelt key would otherwise drop the constraint silently
        with pytest.raises(ValueError,
                           match=r"unknown search edge_layers keys: \['forbidd'\]"):
            SearchSpec(name="x", n=3, p=2, family="subgraph_assignment",
                       snapshot_constraint={"kind": "subgraph_of",
                                            "edges": [[0, 1], [1, 2]]},
                       hints={"edge_layers": [{"edge": [0, 1], "forbidd": [0]}]})

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown spec"):
            get_spec("nope")

    @pytest.mark.parametrize("bad", [None, 1.5, float("nan"), True, [1], (1, 2),
                                     {1: None}])
    def test_name_of_wrong_type(self, bad):
        # get_spec([1]) and get_spec({1: None}) once ended in a TypeError
        with pytest.raises(ValueError, match=r"^unknown spec %s; known: "
                           % re.escape(repr(bad))):
            get_spec(bad)


@pytest.mark.parametrize("call, message", [
    (search, "search: spec must be a SearchSpec"),
    (lambda bad: check_targets(load_witness("lem122")[0], bad),
     "check_targets: spec must be a SearchSpec"),
    (lambda bad: certify(load_witness("lem122")[0], bad),
     "certify: spec must be a SearchSpec"),
    (lambda bad: certify(bad, get_spec("lem122")), "certify: pg must be a PeriodicGraph"),
], ids=["search", "check_targets-spec", "certify-spec", "certify-pg"])
@pytest.mark.parametrize("bad", [None, 1.5, float("nan"), "x", True, [1], (1, 2),
                                 {1: None}])
def test_wrong_types_are_refused(call, message, bad):
    # each of these once ended in an AttributeError
    with pytest.raises(ValueError, match=r"^%s: %s$" % (message, re.escape(repr(bad)))):
        call(bad)


# the README's footprint question, as a spec file would hold it
C4_SPEC = {
    "name": "c4_copnum2",
    "n": 4,
    "p": 2,
    "family": "subgraph_assignment",
    "snapshot_constraint": {"kind": "subgraph_of",
                            "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
    "footprint_constraint": {"kind": "equals",
                             "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
    "targets": {"copnum": 2},
}


def _c4_with(**fields):
    return {**C4_SPEC, **fields}


class TestSpecValidation:
    """A malformed spec is rejected where it is built, not when a candidate
    first reaches the field it lacks."""

    def test_valid_specs_construct(self):
        for spec in named_specs().values():
            spec_from_dict(json.loads(json.dumps(spec.as_dict())))
        spec_from_dict(C4_SPEC)

    @pytest.mark.parametrize("d, match", [
        ([], "must be an object"),
        ({"name": "x"}, r"missing search spec fields: \['family', 'n', 'p'\]"),
        (_c4_with(snapshot_constraint={"kind": "subgraph_of"}),
         r"snapshot constraint subgraph_of is missing fields: \['edges'\]"),
        (_c4_with(family="girth_snapshots", snapshot_constraint={"kind": "girth"}),
         r"snapshot constraint girth is missing fields: \['girth'\]"),
        # every candidate fails the footprint before the kind is read, so
        # only construction can catch it
        (_c4_with(n=4, p=1, snapshot_constraint={"kind": "subgraph_off",
                                                 "edges": [[0, 1]]},
                  footprint_constraint={"kind": "connected"}),
         "unknown snapshot constraint kind: subgraph_off"),
    ])
    def test_reported_cases(self, d, match):
        with pytest.raises(ValueError, match=match):
            spec_from_dict(d)

    @pytest.mark.parametrize("fields, match", [
        ({"name": 3}, "search spec name must be a string: 3"),
        ({"n": 0}, "n must be an int >= 1: 0"),
        ({"n": True}, "n must be an int >= 1: True"),
        ({"p": 2.0}, "p must be an int >= 1: 2.0"),
        ({"family": "subgraph"}, "unknown search family: subgraph"),
        ({"snapshot_constraint": {"edges": [[0, 1]]}},
         "unknown snapshot constraint kind: None"),
        ({"snapshot_constraint": {"kind": "hamiltonian_path", "edges": [[0, 1]]}},
         r"unknown fields of snapshot constraint hamiltonian_path: \['edges'\]"),
        ({"snapshot_constraint": []}, "snapshot_constraint must be an object"),
        ({"footprint_constraint": {"kind": "equal", "edges": [[0, 1]]}},
         "unknown footprint constraint kind: equal"),
        ({"footprint_constraint": {"kind": "universal_vertex"}},
         r"footprint constraint universal_vertex is missing fields: \['vertex'\]"),
        ({"footprint_constraint": {"kind": "connected", "vertex": 0}},
         r"unknown fields of footprint constraint connected: \['vertex'\]"),
        ({"snapshot_constraint": {"kind": "hamiltonian_path"}},
         "search family subgraph_assignment needs snapshot constraint field edges"),
        ({"family": "petersen_blocks", "snapshot_constraint": {
            "kind": "spanning_subgraph_with_cycle", "edges": [[0, 1]],
            "cycle_length": 5}},
         "search family petersen_blocks needs snapshot constraint field pattern"),
    ])
    def test_field_rules(self, fields, match):
        with pytest.raises(ValueError, match=match):
            spec_from_dict(_c4_with(**fields))
        # the dataclass checks the same, whatever builds it
        with pytest.raises(ValueError, match=match):
            SearchSpec(**_c4_with(**fields))


def _named_with(name, **fields):
    return {**get_spec(name).as_dict(), **fields}


class TestSpecValues:
    """Values the search loop and the candidate streams read are checked
    when the spec is built, not where they are first used."""

    @pytest.mark.parametrize("d, match", [
        # the report prints the name, and a NaN one is not JSON
        (_c4_with(name=float("nan")), "search spec name must be a string: nan"),
        (_c4_with(seed="1"), r"seed must be an int: '1'"),
        (_c4_with(seed=True), "seed must be an int: True"),
        (_c4_with(max_tries="10"), r"max_tries must be an int >= 0: '10'"),
        (_c4_with(max_tries=-1), "max_tries must be an int >= 0: -1"),
        (_c4_with(max_tries=False), "max_tries must be an int >= 0: False"),
        (_c4_with(max_tries=10.0), r"max_tries must be an int >= 0: 10\.0"),
        (_c4_with(budget_seconds="60"),
         r"budget_seconds must be an int or a float: '60'"),
        (_c4_with(budget_seconds=True),
         "budget_seconds must be an int or a float: True"),
        (_c4_with(footprint_constraint={"kind": "universal_vertex", "vertex": 9}),
         r"vertex must be an int in \[0, 4\): 9"),
        (_c4_with(footprint_constraint={"kind": "universal_vertex", "vertex": -1}),
         r"vertex must be an int in \[0, 4\): -1"),
        (_c4_with(footprint_constraint={"kind": "universal_vertex", "vertex": True}),
         r"vertex must be an int in \[0, 4\): True"),
        (_named_with("thm112", footprint_constraint={"kind": "universal_vertex",
                                                     "vertex": 9}),
         r"vertex must be an int in \[0, 9\): 9"),
        (_named_with("search_321", p=4, snapshot_constraint={
            **get_spec("search_321").snapshot_constraint,
            "pattern": [0, 0, 0, 1, 1, 1]}),
         r"pattern must be a list of length p = 4: \[0, 0, 0, 1, 1, 1\]"),
        (_named_with("search_321", snapshot_constraint={
            **get_spec("search_321").snapshot_constraint, "pattern": 20}),
         "pattern must be a list of length p = 20: 20"),
        # the edge rows come before the family's n = 10
        (_named_with("search_321", n=6),
         r"snapshot constraint edge must be two distinct ints in \[0, 6\): \[1, 6\]"),
        # each target, hint and constraint value a predicate or a stream reads
        (_c4_with(targets={"copnum": "2"}), r"search target copnum must be an int >= 1: '2'"),
        (_c4_with(targets={"copnum": True}), "search target copnum must be an int >= 1: True"),
        (_c4_with(targets={"copnum": 0}), "search target copnum must be an int >= 1: 0"),
        (_named_with("lem122", targets={**get_spec("lem122").targets, "gamma_g0": "2"}),
         r"search target gamma_g0 must be an int >= 1: '2'"),
        (_c4_with(targets={"footprint_copnum": 1.0}),
         r"search target footprint_copnum must be an int >= 1: 1\.0"),
        (_c4_with(targets={"snapshot_copnums_all": None}),
         "search target snapshot_copnums_all must be an int >= 1: None"),
        (_c4_with(targets={"triple": [2]}),
         r"search target triple must be a list of three ints >= 1 or nulls: \[2\]"),
        (_c4_with(targets={"triple": [2, 2, 2, 2]}), r"triple .*: \[2, 2, 2, 2\]"),
        (_c4_with(targets={"triple": [2, 0, None]}), r"triple .*: \[2, 0, None\]"),
        (_c4_with(targets={"no_corner_k": 2}),
         "search target no_corner_k must be a list of ints >= 1: 2"),
        (_c4_with(targets={"no_corner_k": [1, 0]}), r"no_corner_k .*: \[1, 0\]"),
        (_c4_with(targets={"induced_copnum": {"vertices": [], "value": 1}}),
         r"search target induced_copnum must be \{vertices: a non-empty list of "
         r"ints in \[0, 4\), value: an int >= 1\}: \{'vertices': \[\], 'value': 1\}"),
        (_c4_with(targets={"induced_copnum": {"vertices": [4], "value": 1}}),
         r"induced_copnum .*: \{'vertices': \[4\], 'value': 1\}"),
        (_c4_with(targets={"induced_copnum": {"vertices": 3, "value": 1}}),
         r"induced_copnum .*: \{'vertices': 3, 'value': 1\}"),
        (_c4_with(targets={"induced_copnum": {"vertices": [0], "value": 0}}),
         r"induced_copnum .*: \{'vertices': \[0\], 'value': 0\}"),
        (_c4_with(targets={"retract_premise_fails": {"removed": 0}}),
         r"search target retract_premise_fails must be \{removed: an int in \[0, 4\), "
         r"kept and images: lists of ints in \[0, 4\)\}: \{'removed': 0\}"),
        (_named_with("prop3_retract", targets={"retract_premise_fails": {
            "removed": 4, "kept": [0, 1, 2, 3], "images": [5]}}),
         r"retract_premise_fails .*'images': \[5\]"),
        (_named_with("thm112", hints={**get_spec("thm112").hints, "g0_path": [0, 1, 2]}),
         r"search hint g0_path must be an order of 0\.\.8: \[0, 1, 2\]"),
        (_named_with("thm112", hints={**get_spec("thm112").hints,
                                      "g1_fragments": [[0, 3, 6], [1, 5], [7, 8], [2]]}),
         r"search hint g1_fragments must be lists that together order 0\.\.8"),
        (_named_with("circulant_123", hints={"suffix": "14"}),
         "search hint suffix must be a list of ints: '14'"),
        (_named_with("prop3_retract", hints={"edge_layers": [
            {"edge": [1, 2], "require": 0}]}),
         r"edge_layers hint require must be a list of ints in \[0, 3\): 0"),
        (_named_with("prop3_retract", hints={"edge_layers": [
            {"edge": [1, 2], "require": [7]}]}),
         r"edge_layers hint require must be a list of ints in \[0, 3\): \[7\]"),
        (_named_with("prop3_retract", hints={"edge_layers": [
            {"edge": [1, 2], "forbid": [True]}]}),
         r"edge_layers hint forbid must be a list of ints in \[0, 3\): \[True\]"),
        (_named_with("lem122", snapshot_constraint={"kind": "girth", "girth": "4"}),
         r"snapshot constraint girth must be an int >= 3: '4'"),
        (_named_with("search_321", snapshot_constraint={
            **get_spec("search_321").snapshot_constraint, "cycle_length": 2}),
         "snapshot constraint cycle_length must be an int >= 3: 2"),
        # pattern entries are group keys: ints only, never lists or a mix
        (_named_with("search_321", snapshot_constraint={
            **get_spec("search_321").snapshot_constraint,
            "pattern": [[i // 4] for i in range(20)]}),
         r"snapshot constraint pattern must be a list of ints: \[\[0\], \[0\], "),
        (_named_with("search_321", snapshot_constraint={
            **get_spec("search_321").snapshot_constraint,
            "pattern": [0] * 10 + ["a"] * 10}),
         r"snapshot constraint pattern must be a list of ints: \[0, .*'a'\]"),
        # NaN never expires as a deadline
        (_c4_with(budget_seconds=float("nan")), "budget_seconds must not be NaN"),
        # two hints for one edge, in either orientation
        (_named_with("prop3_retract", hints={"edge_layers": [
            {"edge": [1, 2], "require": [0]}, {"edge": [2, 1], "forbid": [0]}]}),
         r"edge_layers hints name one edge twice: \[2, 1\]"),
        # strides are read as ints in Z_n by the kind's test, whatever the family
        (_named_with("thm112", snapshot_constraint={"kind": "circulant",
                                                    "strides": ["a"]}),
         r"snapshot constraint strides must be a list of ints in \[1, 9\): \['a'\]"),
        ({"name": "x", "n": 11, "p": 5, "family": "circulant",
          "snapshot_constraint": {"kind": "circulant", "strides": [1, 2, 3, 4, True]}},
         r"snapshot constraint strides .*: \[1, 2, 3, 4, True\]"),
        # with no image no retraction is checked, so the target always held
        (_c4_with(targets={"retract_premise_fails": {
            "removed": 0, "kept": [1, 2], "images": []}}),
         "search target retract_premise_fails must list at least one image: "),
        (_c4_with(footprint_constraint=[]),
         r"search spec footprint_constraint must be an object: \[\]"),
        (_c4_with(targets=[["copnum", 2]]), "search spec targets must be an object: "),
        (_c4_with(hints=None), "search spec hints must be an object: None"),
        (_c4_with(footprint_constraint={"kind": "equals", "edges": "01"}),
         "footprint constraint edges must be a list: '01'"),
    ])
    def test_value_rules(self, d, match, tmp_path, capsys):
        with pytest.raises(ValueError, match=match):
            SearchSpec(**d)
        # a spec file with the same value fails before the first candidate
        from percop.cli import main

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(d))
        code = main(["search", "--spec", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["error"] == "invalid"
        assert re.search(match, out["detail"])

    @pytest.mark.parametrize("fields", [
        {"seed": -3},
        {"max_tries": 0},
        {"budget_seconds": 60},
        {"budget_seconds": 0.5},
        {"footprint_constraint": {"kind": "universal_vertex", "vertex": 3}},
        {"targets": {"triple": [None, 2, None], "no_corner_k": []}},
        {"targets": {"induced_copnum": {"vertices": [0, 1], "value": 1}}},
        {"hints": {"suffix": [], "edge_layers": [{"edge": [0, 1], "require": []}]}},
        {"budget_seconds": float("inf")},  # no deadline
        {"targets": {"footprint_copnum": 2}},
    ])
    def test_accepted_values(self, fields):
        SearchSpec(**_c4_with(**fields))

    @pytest.mark.parametrize("argv, match", [
        (["--budget", "nan"], "budget_seconds must not be NaN"),
        (["--seed", "1", "--budget", "nan"], "budget_seconds must not be NaN"),
    ])
    def test_cli_overrides_are_checked(self, argv, match, capsys):
        from percop.cli import main

        code = main(["search", "--spec", "lem122", *argv])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and out["error"] == "invalid"
        assert re.search(match, out["detail"])

    def test_cli_overrides_apply(self, capsys):
        from percop.cli import main

        code = main(["search", "--spec", "lem122", "--seed", "5", "--budget", "0"])
        out = json.loads(capsys.readouterr().out)
        assert (code, out["status"], out["seed"]) == (1, "budget", 5)


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


def shipped_search(name):
    """search(get_spec(name)) bounded by the candidates that its shipped
    witness's search tried, so that a screen that wrongly refuses the
    witness fails at once instead of searching on to max_tries."""
    spec = get_spec(name)
    spec.max_tries = load_witness_certificate(name)["tried"]
    out = search(spec)
    assert (out.status, out.tried) == ("found", spec.max_tries), (name, out.status)
    return out


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
        out = shipped_search("search_321")
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

    def test_hamiltonian_paths_without_an_opening_hint(self):
        # with no g0_path hint every round shuffles its opening path
        spec = SearchSpec(name="paths", n=5, p=2, family="hamiltonian_path",
                          snapshot_constraint={"kind": "hamiltonian_path"},
                          targets={"no_corner_k": [1]}, max_tries=200)
        openings = set()
        for seed in range(4):
            spec.seed = seed
            out = search(spec)
            assert out.status == "found" and out.certificates["snapshots_ok"]
            assert out.certificates["corners_k1"] == 0
            assert search(spec).witness.instance == out.witness.instance
            openings.add(out.witness.instance.snapshots[0])
        assert len(openings) > 1


def _old_sample_girth4(rng, n):
    """The sampler as first written: a Graph per draw, then the two tests."""
    for _ in range(200):
        side = [rng.random() < 0.5 for _ in range(n)]
        if all(side) or not any(side):
            continue
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if side[u] != side[v] and rng.random() < 0.5
        ]
        g = Graph(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        if g.is_connected() and nx.girth(G) == 4:
            return g
    return None


class _CountingRandom(random.Random):
    """A Random that counts its random() calls and the coins its
    getrandbits calls pack, 64 bits a coin as `_coin_flips` asks."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = self.coins = 0

    def random(self):
        self.calls += 1
        return super().random()

    def getrandbits(self, k):
        self.coins += k // 64
        return super().getrandbits(k)


def _held_coins(draws):
    """The coins a suspended `_girth4_draws` has read from its RNG but not
    used yet: its ``buf`` from ``at`` on."""
    local = draws.gi_frame.f_locals
    return local["buf"][local["at"]:]


def _coins_used(rng, draws):
    """The coins a `_girth4_draws` on a `_CountingRandom` has used."""
    return rng.coins - len(_held_coins(draws))


class TestFamiliesModule:
    """The candidate streams live in `percop.families`, beneath `search`."""

    def test_families_import_no_search(self):
        # a fresh interpreter, so that no other test's import counts
        src = str(Path(families_module.__file__).resolve().parents[1])
        code = ("import sys, percop.families; "
                "assert 'percop.search' not in sys.modules, 'percop.search imported'")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_no_name_defined_in_both(self):
        def defined(module):
            tree = ast.parse(Path(module.__file__).read_text())
            names = set()
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Assign):
                    names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            return names

        assert defined(families_module)
        assert defined(search_module) & defined(families_module) == set()


class TestGirthSampler:
    def test_same_draws_as_graph_first_sampler(self):
        # lem122's witness depends on the exact coin order: windows drawn
        # from one stream are the first sampler's draws chained on a twin
        # RNG, and use as many coins as the twin makes random() calls; below
        # n = 4 every window is (None, None), and the coins used are all
        # that a draw's one parse of n + n^2/4 coins can get wrong, over
        # 600 draws a seed
        for n in range(1, 9):
            for seed in range(200 if n >= 4 else 30):
                rng, twin = _CountingRandom(seed), _CountingRandom(seed)
                draws = _girth4_draws(rng, n)
                for _ in range(3):
                    got, _gamma = next(draws)
                    assert got == _old_sample_girth4(twin, n), (n, seed)
                    assert _coins_used(rng, draws) == twin.calls, (n, seed)

    def test_coin_flips_are_random_calls(self):
        # the identity the sampler's decoding rests on: if CPython changes
        # how getrandbits lays out its words, this fails before lem122 drifts
        for m in (1, 2, 5, 6, 12, 16, 33):
            for seed in range(200):
                flips, twin = random.Random(seed), random.Random(seed)
                want = b"".join(b"1" if twin.random() < 0.5 else b"0" for _ in range(m))
                assert _coin_flips(flips, m) == want, (m, seed)
                assert flips.getstate() == twin.getstate(), (m, seed)

    def test_in_place_refills_cross_blocks(self, monkeypatch):
        # with 8-coin blocks a draw's reads end on, straddle and outgrow a
        # block, and every refill must still read as many coins as the draw
        # may need: draws are the first sampler's, the held coins are the
        # twin's next ones, and the RNG stands where the twin would after them
        monkeypatch.setattr(families_module, "_COIN_BLOCK", 8)
        asked = []
        flips = families_module._coin_flips
        monkeypatch.setattr(families_module, "_coin_flips",
                            lambda rng, m: asked.append(m) or flips(rng, m))
        for n in range(1, 9):
            for seed in range(40 if n >= 4 else 10):
                rng, twin = random.Random(seed), random.Random(seed)
                draws = _girth4_draws(rng, n)
                for _ in range(3):
                    got, _gamma = next(draws)
                    assert got == _old_sample_girth4(twin, n), (n, seed)
                    held = _held_coins(draws)
                    ahead = random.Random()
                    ahead.setstate(twin.getstate())
                    want = b"".join(b"1" if ahead.random() < 0.5 else b"0"
                                    for _ in held)
                    assert held == want, (n, seed)
                    assert rng.getstate() == ahead.getstate(), (n, seed)
        assert 8 in asked and max(asked) > 8

    def test_one_table_read_per_window(self, monkeypatch):
        # n = 8 keeps no table, so each window reads a fresh one
        tables = []
        table = families_module._girth4_table
        monkeypatch.setattr(families_module, "_girth4_table",
                            lambda n: tables.append(table(n)) or tables[-1])
        draws = _girth4_draws(random.Random(0), 8)
        for windows in range(1, 4):
            next(draws)
            assert len(tables) == windows
        assert tables[0][0] is not tables[1][0]

    def test_accepted_bytes_hold_domination_numbers(self, monkeypatch):
        monkeypatch.setattr(families_module, "_GIRTH4_TABLES", {})
        for n in range(4, 8):
            draws = _girth4_draws(random.Random(n), n)
            for _ in range(500):
                next(draws)
            rows, verdicts = families_module._GIRTH4_TABLES[n]
            # the two one-sided splits, each one draw, the edgeless graph,
            # rejected once it has come up (500 windows draw both)
            for s in (0, (1 << n) - 1):
                assert rows[s][:2] == ([], 0), n
                assert verdicts[rows[s][2]] == families_module._REJECTED, n
            seen = set()
            for pairs, m, base in rows:
                for c in range(1 << m):
                    verdict = verdicts[base + c]
                    if not verdict:
                        continue
                    seen.add(min(verdict, families_module._ACCEPTED))
                    # int(coins, 2) reads a draw's first pair as its top bit
                    g = Graph(n, [e for j, e in enumerate(pairs)
                                  if c >> (m - 1 - j) & 1])
                    if verdict == families_module._REJECTED:
                        assert not (g.is_connected() and girth(g) == 4), n
                    else:
                        assert g.is_connected() and girth(g) == 4, n
                        assert verdict - families_module._ACCEPTED == domination_number(g), n
            assert {families_module._REJECTED, families_module._ACCEPTED} <= seen, n

    def test_cold_and_warm_tables_agree(self, monkeypatch):
        monkeypatch.setattr(families_module, "_GIRTH4_TABLES", {})
        judged = []
        judge, dominate = families_module._connected_girth4, families_module.domination_number
        monkeypatch.setattr(families_module, "_connected_girth4",
                            lambda masks: judged.append(masks) or judge(masks))
        monkeypatch.setattr(families_module, "domination_number",
                            lambda g: judged.append(g) or dominate(g))
        for n in range(4, 8):
            runs = []
            for _ in ("cold", "warm"):
                judged.clear()
                run = []
                for seed in range(200):
                    rng = _CountingRandom(seed)
                    draws = _girth4_draws(rng, n)
                    run.append((next(draws), _coins_used(rng, draws)))
                runs.append(run)
            cold, warm = runs
            assert cold == warm, n
            # the warm pass judged nothing anew: every draw, and every
            # domination number, was read from the table
            assert judged == [], n
            verdicts = families_module._GIRTH4_TABLES[n][1]
            assert max(verdicts) >= families_module._ACCEPTED
            assert families_module._REJECTED in verdicts

    def test_n8_keeps_no_table(self, monkeypatch):
        monkeypatch.setattr(families_module, "_GIRTH4_TABLES", {})
        found = [next(_girth4_draws(random.Random(seed), 8)) for seed in range(20)]
        assert any(g is not None for g, _gamma in found)
        # the domination number is left to a caller that needs it
        assert all(gamma is None for _g, gamma in found)
        assert families_module._GIRTH4_TABLES == {}

    def test_tables_stay_within_512_kb(self, monkeypatch):
        monkeypatch.setattr(families_module, "_GIRTH4_TABLES", {})
        for n in range(1, families_module._GIRTH4_TABLE_MAX_N + 1):
            next(_girth4_draws(random.Random(0), n))
        tables = families_module._GIRTH4_TABLES
        assert sorted(tables) == list(range(1, 8))
        assert sum(len(verdicts) for _rows, verdicts in tables.values()) <= 512 * 1024


def _girth_stream_spec(stream, seed):
    """lem122's spec, or at n = 7 with no gamma_g0 target ("n7"), or at
    n = 8, past the verdict tables ("n8")."""
    spec = get_spec("lem122")
    if stream == "n7":
        spec.n = 7
        del spec.targets["gamma_g0"]
    elif stream == "n8":
        spec.n = 8
    spec.seed = seed
    return spec


class TestGirthStreams:
    """The first candidates of `_gen_girth`, each None or its snapshots'
    masks, hashed and compared with digests written from the sampler that
    took each draw's coins through a buffer object and called
    `domination_number` per G_0."""

    PINNED = {
        ("lem122", 0, 2000): "cba849c9bc6229bea10bb68c6d4b60daade8a192f0519cc9ab80466944c401c8",
        ("lem122", 7, 2000): "ceb0b64d35c4409edfd5b76d981015cba46e1b462a9be6c648d2561772001262",
        ("lem122", 123, 2000): "ff8e0f4a5fa2be197e7aff80cdc2ba2d85de66d853ebd8ea2bd8599fedb2d030",
        ("n7", 0, 2000): "b9b0a54dd1c0945407d279dfc651d7abf3c2776f234225cedc95575da4dae86d",
        ("n8", 0, 2000): "de010282ad765d26504e37d666c8bf70e08a231d7a8c95f236c0a0bf630db002",
        # checked in CI, too slow for tier-1
        ("lem122", 0, 30000): "610e4782d52ae4d12c53f06d0be4692e78545c1af025cd9e57845b2e5809b6b4",
        ("lem122", 7, 30000): "0bbc57cf2d306d68eebbf89be55720ca22f8f30573f905c2212e570c734258a9",
        ("lem122", 123, 30000): "a1a76d923302fae5416f048fd7dd3803fd3329b716b63e8dc85df7b2a0acbfdd",
    }

    @staticmethod
    def check(stream, seed, count):
        spec = _girth_stream_spec(stream, seed)
        h = hashlib.sha256()
        for cand in itertools.islice(
                search_module._gen_girth(spec, random.Random(seed)), count):
            h.update(b"-\n" if cand is None else
                     ("%r\n" % [g.masks for g in cand[0].snapshots]).encode())
        assert h.hexdigest() == TestGirthStreams.PINNED[stream, seed, count], (
            stream, seed, count)

    @pytest.mark.parametrize("stream, seed", [
        ("lem122", 0), ("lem122", 7), ("lem122", 123), ("n7", 0), ("n8", 0)])
    def test_candidates_match_pinned_digests(self, stream, seed):
        self.check(stream, seed, 2000)


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

    @pytest.mark.parametrize("field, value, match", [
        ("max_tries", "10", r"search spec max_tries must be an int >= 0: '10'"),
        ("seed", 1.5, r"search spec seed must be an int: 1\.5"),
        ("budget_seconds", float("nan"), "search spec budget_seconds must not be NaN"),
        ("targets", {"gamma_g0": 0}, "search target gamma_g0 must be an int >= 1: 0"),
    ])
    def test_fields_assigned_after_construction(self, field, value, match):
        # search and certify check the spec again, not only when it is built
        pg, _meta = load_witness("lem122")
        for run in (search, lambda spec: certify(pg, spec)):
            spec = get_spec("lem122")
            spec.max_tries = 0  # a search that skips the checks ends at once
            setattr(spec, field, value)
            with pytest.raises(ValueError, match=match):
                run(spec)

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

    def test_refuses_another_n(self):
        # the universal_vertex test would read vertex 8 of a 5-vertex footprint
        spec = get_spec("thm112")
        with pytest.raises(ValueError, match=r"the instance has n=5, spec 'thm112' has n=9"):
            certify(constant(path_graph(5), 9), spec)

    def test_another_period_is_allowed(self):
        pg, _meta = load_witness("thm112")
        doubled = PeriodicGraph(list(pg.snapshots) * 2)
        assert doubled.period == 2 * get_spec("thm112").p
        assert certify(doubled, get_spec("thm112"))["verified"] is True

    @staticmethod
    def retract_premise(pg, images):
        spec = get_spec("prop3_retract")
        target = dict(spec.targets["retract_premise_fails"], images=images)
        spec.targets = dict(spec.targets, retract_premise_fails=target)
        certs = certify(pg, spec)
        assert certs["verified"] is certs["retract_premise_fails"]
        return certs["retract_premise_fails"]

    def test_retract_premise_fails_on_the_witness(self):
        pg, _meta = load_witness("prop3_retract")
        assert self.retract_premise(pg, [1, 2]) is True

    @pytest.mark.parametrize("images", [[0], [3], [1, 0]])
    def test_retract_premise_not_a_retraction_of_the_footprint(self, images):
        # 4 -> 0 sends the edge 24 onto 20 and 4 -> 3 sends 14 onto 13,
        # neither an edge of the footprint
        pg, _meta = load_witness("prop3_retract")
        assert self.retract_premise(pg, images) is False

    def test_retract_premise_holds_on_every_snapshot(self):
        # every snapshot is the footprint, so each retraction of it holds on all
        pg, _meta = load_witness("prop3_retract")
        assert self.retract_premise(constant(footprint(pg), 3), [1, 2]) is False

    @pytest.mark.parametrize("snapshot", [
        cycle_graph(9),                                   # n edges
        Graph(9, [(i, 8) for i in range(8)]),             # a star: a tree, not a path
        Graph(9, [(i, i + 1) for i in range(7)] + [(0, 7)]),  # n - 1 edges, 8 isolated
    ], ids=["cycle", "star", "disconnected"])
    def test_hamiltonian_path_snapshot_refused(self, snapshot):
        pg, _meta = load_witness("thm112")
        assert certify(pg, get_spec("thm112"))["snapshots_ok"] is True
        changed = PeriodicGraph([snapshot] + list(pg.snapshots[1:]))
        certs = certify(changed, get_spec("thm112"))
        assert certs["snapshots_ok"] is False and certs["verified"] is False

    @pytest.mark.parametrize("value, passed", [(2, True), (1, False)])
    def test_footprint_copnum_target(self, value, passed):
        # the footprint C4 needs two cops, whatever the periodic game needs
        spec = SearchSpec(**_c4_with(targets={"footprint_copnum": value}))
        pg = PeriodicGraph([cycle_graph(4), Graph(4, [(0, 1), (2, 3)])])
        certs = certify(pg, spec)
        assert certs["triple"][0] == 2 and certs["verified"] is passed
        assert (check_targets(pg, spec) is not None) is passed


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

    def test_copnum_target_skips_the_triple(self, monkeypatch):
        # deciding copnum == 2 needs the periodic ascent, not the whole triple
        from percop import solver

        calls = []
        inner = solver.is_k_copwin
        monkeypatch.setattr(solver, "is_k_copwin",
                            lambda *a, **kw: calls.append(1) or inner(*a, **kw))
        out = search(_footprint_spec(complete_graph(4), 2, 2))
        assert (out.status, out.tried) == ("exhausted", 729)
        assert len(calls) <= 729

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


class TestSinglePass:
    """A search screens each candidate once; the screen's dict is the
    certificate, and `certify` re-evaluates a given instance to the same."""

    # lem122's search takes 24,588 candidates; its witness is checked below
    @pytest.mark.parametrize(
        "name", ["thm112", "circulant_123", "prop3_retract", "search_321"]
    )
    def test_search_certificate(self, name):
        out = shipped_search(name)
        assert out.certificates == certify(out.witness.instance, get_spec(name))
        assert out.certificates == load_witness_certificate(name)["certificates"]

    def test_screen_fails_with_none(self):
        bad = circulant_123([2, 3, 5, 1, 4]).instance  # has 2-corners
        assert check_targets(bad, get_spec("circulant_123")) is None

    def test_screen_builds_no_corner_list(self, monkeypatch):
        # the screen asks only whether a 2-corner exists; certify still
        # counts them all
        bad = circulant_123([2, 3, 5, 1, 4]).instance
        spec = get_spec("circulant_123")

        def no_list(pg, k):
            raise AssertionError("the screen built a corner list")

        with monkeypatch.context() as m:
            m.setattr(search_module, "find_k_temporal_corners", no_list)
            assert check_targets(bad, spec) is None
        certs = certify(bad, spec)
        assert certs["corners_k2"] == 143
        assert certs["verified"] is False

    @pytest.mark.parametrize("name", WITNESS_NAMES)
    def test_screen_of_shipped_witness(self, name):
        pg, _meta = load_witness(name)
        spec = get_spec(name)
        certs = check_targets(pg, spec)
        assert certs == certify(pg, spec)
        assert certs["verified"] is True

    def test_wrapped_generator_is_called(self, monkeypatch):
        import percop.search

        calls = []
        inner = percop.search._gen_girth

        def wrapped(spec, rng):
            calls.append(spec.name)
            return inner(spec, rng)

        monkeypatch.setattr(percop.search, "_gen_girth", wrapped)
        spec = get_spec("lem122")
        spec.max_tries = 50
        out = search(spec)
        assert (out.status, out.tried) == ("budget", 50)
        assert calls == ["lem122"]

    @pytest.mark.parametrize("name", WITNESS_NAMES)
    def test_kind_tests_call_the_module_names(self, name, monkeypatch):
        # wrappers put on percop.search.girth and .footprint see the calls
        import percop.search

        calls = []
        for attr in ("girth", "footprint"):
            inner = getattr(percop.search, attr)
            monkeypatch.setattr(percop.search, attr,
                                lambda g, a=attr, f=inner: calls.append(a) or f(g))
        pg, _meta = load_witness(name)
        certify(pg, get_spec(name))
        assert "footprint" in calls
        assert ("girth" in calls) == (name in ("lem122", "search_321"))


PATH3 = Graph(3, [(0, 1), (1, 2)])
PATH4 = Graph(4, [(0, 1), (1, 2), (2, 3)])

# (constraint side, constraint, an instance that meets it, one that does not)
KIND_CASES = [
    ("snapshot", {"kind": "subgraph_of", "edges": [[1, 0], [2, 1]]},
     [PATH3, Graph(3, [(0, 1)])], [PATH3, complete_graph(3)]),
    ("snapshot", {"kind": "hamiltonian_path"},
     [PATH4, Graph(4, [(1, 0), (0, 3), (3, 2)])],
     [PATH4, Graph(4, [(0, 1), (0, 2), (0, 3)])]),
    ("snapshot", {"kind": "girth", "girth": 4},
     [cycle_graph(4), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])],
     [cycle_graph(4), complete_graph(4)]),
    ("snapshot", {"kind": "circulant", "strides": [1, 2, 3, 4, 5]},
     [cycle_graph(11, s) for s in (1, 2, 3, 4, 5)],
     [cycle_graph(11, s) for s in (1, 2, 3, 4)] + [path_graph(11)]),
    # Petersen less an edge keeps girth 5, but breaks the pattern
    ("snapshot", {"kind": "spanning_subgraph_with_cycle",
                  "edges": [list(e) for e in PETERSEN_EDGES],
                  "cycle_length": 5, "pattern": [0, 0]},
     [petersen_graph(), petersen_graph()],
     [petersen_graph(), Graph(10, PETERSEN_EDGES[1:])]),
    ("footprint", {"kind": "equals", "edges": [[0, 1], [2, 1]]},
     [Graph(3, [(0, 1)]), Graph(3, [(1, 2)])], [Graph(3, [(0, 1)]), Graph(3)]),
    ("footprint", {"kind": "universal_vertex", "vertex": 1},
     [Graph(3, [(0, 1)]), Graph(3, [(1, 2)])],
     [Graph(3, [(0, 1)]), Graph(3, [(0, 2)])]),
    ("footprint", {"kind": "connected"},
     [Graph(3, [(0, 1)]), Graph(3, [(1, 2)])], [Graph(3, [(0, 1)]), Graph(3)]),
]


# the family each cyclic snapshot kind is tested under; a Hamiltonian path
# has no cycle, and every other kind is tested under hamiltonian_path
_CYCLIC_KIND_FAMILY = {"girth": "girth_snapshots", "circulant": "circulant",
                       "spanning_subgraph_with_cycle": "petersen_blocks"}


class TestConstraintKinds:
    def test_every_kind_has_a_case(self):
        from percop.search import _FOOTPRINT_KINDS, _SNAPSHOT_KINDS

        assert sorted(c["kind"] for _, c, _, _ in KIND_CASES) == sorted(
            [*_SNAPSHOT_KINDS, *_FOOTPRINT_KINDS])

    @pytest.mark.parametrize("side, constraint, good, bad", KIND_CASES,
                             ids=[c["kind"] for _, c, _, _ in KIND_CASES])
    def test_kind(self, side, constraint, good, bad):
        spec = SearchSpec(name="kind", n=good[0].n, p=len(good),
                          family=_CYCLIC_KIND_FAMILY.get(constraint["kind"],
                                                         "hamiltonian_path"),
                          **{"%s_constraint" % side: constraint})
        key = "snapshots_ok" if side == "snapshot" else "footprint_ok"
        assert certify(PeriodicGraph(good), spec)[key] is True
        assert certify(PeriodicGraph(bad), spec)[key] is False


def _brute_force_five_cycles():
    """Petersen's 5-cycles as first found: every vertex order of every
    5-subset, kept when consecutive vertices are adjacent."""
    pet = petersen_graph()
    out = set()
    for combo in itertools.combinations(range(10), 5):
        for perm in itertools.permutations(combo[1:]):
            cyc = (combo[0],) + perm
            if all(pet.has_edge(cyc[i], cyc[(i + 1) % 5]) for i in range(5)):
                out.add(
                    frozenset(
                        (min(cyc[i], cyc[(i + 1) % 5]), max(cyc[i], cyc[(i + 1) % 5]))
                        for i in range(5)
                    )
                )
    return [sorted(k) for k in sorted(out, key=sorted)]


class TestPetersenFiveCycles:
    def test_same_cycles_in_the_same_order(self):
        # search_321's random draws index into this list
        cycles = _petersen_five_cycles()
        assert len(cycles) == 12
        assert cycles == _brute_force_five_cycles()


class TestSpecEdgesAndCirculant:
    """Every edge a spec names, and the circulant family's n, p and strides,
    are checked where the spec is built."""

    @pytest.mark.parametrize("fields, match", [
        ({"footprint_constraint": {"kind": "equals", "edges": [[0, 9]]}},
         r"footprint constraint edge must be two distinct ints in \[0, 4\): \[0, 9\]"),
        ({"footprint_constraint": {"kind": "equals", "edges": [[2, 2]]}},
         r"footprint constraint edge .*: \[2, 2\]"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": [[0, 9]]}},
         r"snapshot constraint edge .*: \[0, 9\]"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": [[-1, 1]]}},
         r"snapshot constraint edge .*: \[-1, 1\]"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": [[0, True]]}},
         r"snapshot constraint edge .*: \[0, True\]"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": [[0, 1.0]]}},
         r"snapshot constraint edge .*: \[0, 1.0\]"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": [[0, 1, 2]]}},
         r"snapshot constraint edge .*: \[0, 1, 2\]"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": [5]}},
         r"snapshot constraint edge .*: 5"),
        ({"snapshot_constraint": {"kind": "subgraph_of", "edges": "01"}},
         "snapshot constraint edges must be a list: '01'"),
        ({"family": "petersen_blocks", "n": 10, "p": 1, "snapshot_constraint": {
            "kind": "spanning_subgraph_with_cycle", "edges": [[0, 10]],
            "cycle_length": 5, "pattern": [0]}},
         r"snapshot constraint edge .*: \[0, 10\]"),
        ({"hints": {"edge_layers": [{"edge": [0, 4], "require": [0]}]}},
         r"edge_layers hint edge .*: \[0, 4\]"),
        ({"hints": {"edge_layers": [{"edge": [1, 1]}]}},
         r"edge_layers hint edge .*: \[1, 1\]"),
        ({"hints": {"edge_layers": [{"require": [0]}]}},
         "edge_layers hint edge .*: None"),
        ({"hints": {"edge_layers": [[0, 1]]}},
         "edge_layers must be a list of objects"),
    ])
    def test_bad_edges(self, fields, match):
        with pytest.raises(ValueError, match=match):
            SearchSpec(**_c4_with(**fields))

    @pytest.mark.parametrize("fields", [
        {"n": 4, "p": 1},
        {"n": 11, "p": 3},
        {"n": 10, "p": 5},
        {"n": 11, "p": 5, "snapshot_constraint": {"kind": "circulant",
                                                  "strides": [1, 2, 3, 4, 5, 1, 4]}},
    ])
    def test_circulant_needs_z11_and_one_stride_a_step(self, fields):
        with pytest.raises(ValueError, match="circulant needs n = 11 and p = the "
                                             "number of strides"):
            SearchSpec(name="x", family="circulant", **fields)

    @pytest.mark.parametrize("name, field, value", [
        ("lem122", "girth", 5), ("lem122", "girth", 3),
        ("search_321", "cycle_length", 4), ("search_321", "cycle_length", 6),
        ("lem122", "kind", "hamiltonian_path"),
    ])
    def test_family_refuses_a_constraint_its_snapshots_never_meet(self, name,
                                                                  field, value):
        # girth_snapshots draws girth-4 snapshots and petersen_blocks builds
        # around 5-cycles, so such a search could only run to its budget
        spec = get_spec(name)
        if field == "kind":  # a constraint of another kind, whole
            spec.snapshot_constraint = {"kind": value}
        else:
            spec.snapshot_constraint[field] = value
        with pytest.raises(ValueError, match=r"^search family %s needs snapshot "
                           r"constraint %s = \S+: %s$"
                           % (spec.family, field, re.escape(repr(value)))):
            search(spec)

    def test_circulant_123_still_found_at_try_5(self):
        out = search(get_spec("circulant_123"))
        assert (out.status, out.tried) == ("found", 5)

    @staticmethod
    def _circulant(strides):
        return SearchSpec(name="x", n=11, p=len(strides), family="circulant",
                          snapshot_constraint={"kind": "circulant",
                                               "strides": strides})

    @pytest.mark.parametrize("strides", [
        [1, 2, 3, 4, 6],               # a stride outside 1..5
        [1, 2, 3, 4, 4],               # 5 missing
        [1, 2, 3, 4, 5, 1],            # even length
        [1, 2, 3],                     # shorter than 5
        [1, 1, 1, 1, 1, 2, 3, 4, 5],   # 1 on more than half the steps
    ])
    def test_circulant_strides_no_order_accepts(self, strides):
        # a stream of rejected orders would end `exhausted`, which is false
        for q in set(itertools.permutations(strides)):
            with pytest.raises(ValueError):
                circulant_123(q)
        with pytest.raises(ValueError, match="circulant needs n = 11"):
            search(self._circulant(strides))

    @pytest.mark.parametrize("strides, order", [
        ([5, 4, 3, 2, 1], [5, 4, 3, 2, 1]),
        ([1, 1, 1, 2, 3, 4, 5], [1, 2, 1, 3, 1, 4, 5]),
        ([1, 1, 1, 1, 2, 2, 3, 4, 5], [1, 2, 1, 2, 1, 3, 1, 4, 5]),
    ])
    def test_circulant_strides_some_order_accepts(self, strides, order):
        assert sorted(order) == sorted(strides)
        circulant_123(order)
        _candidates(self._circulant(strides), None)  # the stream is lazy

    def test_circulant_stream_is_lazy(self):
        spec = self._circulant([1, 2, 1, 2, 1, 3, 1, 4, 5])
        spec.max_tries = 1
        tracemalloc.start()
        try:
            out = search(spec)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.status, out.tried) == ("budget", 1)
        assert peak < 5 * 10**6

    @pytest.mark.parametrize("strides, suffix", [
        ([1, 2, 3, 4, 5], [1, 4]),
        ([1, 2, 3, 4, 5], []),
        ([1, 2, 1, 3, 1, 4, 5], [1, 4]),
        ([1, 2, 1, 3, 1, 4, 5], [1, 1, 1]),
        ([1, 2, 1, 3, 1, 4, 5], [1, 1, 1, 1]),  # more 1s than the strides hold
        ([1, 2, 1, 3, 1, 4, 5], [6]),
    ])
    def test_circulant_orders_each_tried_once(self, strides, suffix, monkeypatch):
        # every order once, in the order of sorting all permutations with the
        # hinted suffix first
        def key(q):
            return q[len(q) - len(suffix):] != tuple(suffix), q

        want = list(dict.fromkeys(sorted(itertools.permutations(strides), key=key)))
        tried = []

        def record(steps):
            tried.append(tuple(steps))
            raise ValueError("recorded")

        monkeypatch.setattr(families_module, "circulant_123", record)
        spec = self._circulant(strides)
        spec.hints = {"suffix": suffix}
        assert list(_candidates(spec, None)) == [None] * len(want)
        assert tried == want

    def test_hint_edge_outside_snapshot_edges(self):
        # the hint would steer no edge, and the search would run unhinted
        with pytest.raises(ValueError, match=r"edge_layers hint edge is not among "
                                             r"the snapshot constraint's edges: \[0, 2\]"):
            SearchSpec(name="x", n=3, p=2, family="subgraph_assignment",
                       snapshot_constraint={"kind": "subgraph_of",
                                            "edges": [[0, 1], [1, 2]]},
                       hints={"edge_layers": [
                           {"edge": [0, 2], "require": [0], "forbid": [1]}]})


# (a valid spec, fields that break one family rule, the message), one case
# per rule in the order `_check_family` states them
FAMILY_RULE_CASES = [
    (C4_SPEC, {"snapshot_constraint": {"kind": "hamiltonian_path"}},
     "search family subgraph_assignment needs snapshot constraint field edges"),
    # a Hamiltonian path gives the hub at most two neighbours a snapshot
    (get_spec("thm112").as_dict(), {"p": 3},
     "search family hamiltonian_path needs 2p >= n - 1 with a universal_vertex "
     "footprint: n = 9, p = 3"),
    (get_spec("lem122").as_dict(), {"snapshot_constraint": {"kind": "hamiltonian_path"}},
     "search family girth_snapshots needs snapshot constraint kind = 'girth': "
     "'hamiltonian_path'"),
    (get_spec("lem122").as_dict(), {"snapshot_constraint": {"kind": "girth", "girth": 5}},
     "search family girth_snapshots needs snapshot constraint girth = 4: 5"),
    # a girth-4 graph has a 4-cycle
    (get_spec("lem122").as_dict(), {"n": 3},
     "search family girth_snapshots needs n >= 4: 3"),
    (get_spec("circulant_123").as_dict(), {"p": 3},
     "search family circulant needs n = 11 and p = the number of strides, an odd "
     "number >= 5 of strides covering 1..5, none in more than half the steps: "
     "n = 11, p = 3, strides [1, 2, 3, 4, 5]"),
    (get_spec("search_321").as_dict(), {"snapshot_constraint": {
        "kind": "spanning_subgraph_with_cycle", "edges": [[0, 1]], "cycle_length": 5}},
     "search family petersen_blocks needs snapshot constraint field pattern"),
    (get_spec("search_321").as_dict(), {"n": 6, "footprint_constraint": {},
                                        "snapshot_constraint": {
        "kind": "spanning_subgraph_with_cycle", "edges": [[0, 1]], "cycle_length": 5,
        "pattern": [0] * 20}},
     "search family petersen_blocks needs n = 10: 6"),
    (get_spec("search_321").as_dict(), {"snapshot_constraint": {
        **get_spec("search_321").snapshot_constraint, "cycle_length": 4}},
     "search family petersen_blocks needs snapshot constraint cycle_length = 5: 4"),
    # a Hamiltonian path has no cycle
    *((get_spec("thm112").as_dict(), {"snapshot_constraint": constraint},
       "search family hamiltonian_path needs a snapshot constraint kind that a "
       "path can meet: %r" % constraint["kind"])
      for constraint in ({"kind": "girth", "girth": 4}, {"kind": "circulant"},
                         {"kind": "spanning_subgraph_with_cycle", "edges": [[0, 1]],
                          "cycle_length": 4})),
    # connected snapshots have a connected footprint
    (get_spec("lem122").as_dict(), {"footprint_constraint": {
        "kind": "equals", "edges": [[0, 1], [1, 2]]}},
     "search family girth_snapshots needs a connected footprint: equals "
     "[[0, 1], [1, 2]]"),
]


class TestFamilyRules:
    """What a family needs of its spec is checked where the spec is built, and
    again by `search` and `certify`, with one message."""

    @pytest.mark.parametrize("base, fields, message", FAMILY_RULE_CASES,
                             ids=[m.split(" needs ")[0].split()[-1] + "-" + str(i)
                                  for i, (_, _, m) in enumerate(FAMILY_RULE_CASES)])
    def test_rule_refused_everywhere(self, base, fields, message):
        SearchSpec(**base)  # the base is valid
        d = {**base, **fields}
        pg = PeriodicGraph([Graph(base["n"])])
        got = []
        for build in (lambda: SearchSpec(**d), lambda: spec_from_dict(d)):
            with pytest.raises(ValueError) as e:
                build()
            got.append(str(e.value))
        for run in (search, lambda spec: certify(pg, spec)):
            spec = SearchSpec(**{**base, "max_tries": 0})
            for key, value in fields.items():
                setattr(spec, key, value)
            with pytest.raises(ValueError) as e:
                run(spec)
            got.append(str(e.value))
        assert got == [message] * 4

    def test_every_family_has_a_case(self):
        from percop.search import _FAMILIES

        assert {base["family"] for base, _, _ in FAMILY_RULE_CASES} == set(_FAMILIES)

    @pytest.mark.parametrize("name, fields", [
        ("thm112", {"p": 4}), ("thm112", {"n": 3, "p": 1, "hints": {},
                                          "footprint_constraint": {
                                              "kind": "universal_vertex", "vertex": 0}}),
        ("lem122", {"n": 4}),
    ])
    def test_boundary_accepted(self, name, fields):
        # 2p = n - 1 and n = 4 can be met: a hub in the middle of each path,
        # and the 4-cycle
        spec_from_dict(_named_with(name, **fields))


def _cases(test):
    """The cases a test's parametrize decorator lists."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


def _rule_pattern(place, key, rule):
    """A regex for the start of the message a rule's row raises, any n and p."""
    text = r"\d+".join(re.escape(part) for part in re.split(r"%\(\w+\)d", rule))
    return r"%s %s must %s: " % (re.escape(place), re.escape(key), text)


class TestSpecRules:
    """The table of spec rules states each rule once; the keys, the tests and
    the README follow it."""

    def test_every_key_has_a_row(self):
        from percop.search import _FOOTPRINT_KINDS, _RULES, _SNAPSHOT_KINDS

        rows = {(place, key) for place, key, _test, _rule in _RULES}
        # the keys the target predicates and the candidate streams read
        read = {
            "search target": {"no_corner_k", "gamma_g0", "snapshot_copnums_all",
                              "copnum", "footprint_copnum", "triple",
                              "induced_copnum", "retract_premise_fails"},
            "search hint": {"g0_path", "g1_fragments", "suffix", "edge_layers"},
            "edge_layers hint": {"edge", "require", "forbid"},
        }
        for place, keys in read.items():
            assert {key for pl, key in rows if pl == place} == keys
        for place, kinds in (("snapshot constraint", _SNAPSHOT_KINDS),
                             ("footprint constraint", _FOOTPRINT_KINDS)):
            for need, may, _test in kinds.values():
                assert {(place, key) for key in need | may} <= rows

    def test_every_row_has_a_rejected_and_an_accepted_case(self):
        from percop.search import _RULES, _given

        rejected = [
            *(d for d, _ in _cases(TestSpecValues.test_value_rules)),
            *(d for d, _ in _cases(TestSpecValidation.test_reported_cases)),
            *(_c4_with(**f) for f, _ in _cases(TestSpecValidation.test_field_rules)),
            *(_c4_with(**f) for f, _ in _cases(TestSpecEdgesAndCirculant.test_bad_edges)),
        ]
        messages = []
        for d in rejected:
            with pytest.raises(ValueError) as e:
                spec_from_dict(d)
            messages.append(str(e.value))
        accepted = [*named_specs().values(), *(
            SearchSpec(**_c4_with(**f)) for f in _cases(TestSpecValues.test_accepted_values))]
        given = {(place, key) for spec in accepted
                 for place, values in [("search spec", vars(spec)), *_given(spec)]
                 for key in values}
        for place, key, _test, rule in _RULES:
            pattern = _rule_pattern(place, key, rule)
            assert any(re.match(pattern, m) for m in messages), (place, key, rule)
            assert (place, key) in given

    def test_readme_states_each_row_in_order(self):
        from percop.search import _RULES

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        places = "|".join(dict.fromkeys(place for place, *_ in _RULES))
        named = re.findall(r"^- (%s) `(\w+)`" % places, readme, re.M)
        assert named == [(place, key) for place, key, _test, _rule in _RULES]
