import json
import os

import pytest

from percop.cli import main
from percop.constructions import GENERATORS
from percop.instancefile import serialize_specimen
from percop.search import get_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def q3_file(tmp_path, capsys):
    path = tmp_path / "q3.json"
    code, _ = run(capsys, "generate", "q3_rotation", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def bowtie_file(tmp_path, capsys):
    path = tmp_path / "bt.json"
    code, _ = run(capsys, "generate", "bowtie_221", "--out", str(path))
    assert code == 0
    return path


class TestSolve:
    def test_q3(self, capsys, q3_file, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out = run_json(
            capsys, "solve", str(q3_file), "--trace", str(trace_path)
        )
        assert code == 0
        assert out["cop_number"] == 3
        assert out["expected_match"] is True
        trace = json.loads(trace_path.read_text())
        assert trace["captured"]

    def test_max_cops_short_circuit(self, capsys, q3_file):
        code, out = run_json(capsys, "solve", str(q3_file), "--max-cops", "2")
        assert code == 0
        assert out["cop_number"] is None
        assert out["searched_up_to"] == 2

    def test_max_cops_below_one_rejected(self, capsys, q3_file):
        code, out = run_json(capsys, "solve", str(q3_file), "--max-cops", "-3")
        assert code == 2 and out["error"] == "invalid"

    def test_state_budget_env(self, capsys, q3_file, monkeypatch):
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "10")
        code, out = run_json(capsys, "solve", str(q3_file))
        assert code == 3
        assert out["error"] == "budget"

    @pytest.mark.parametrize("value", ["1e8", "abc", "0", "-5"])
    def test_state_budget_env_must_be_positive_int(self, capsys, q3_file,
                                                   monkeypatch, value):
        monkeypatch.setenv("PERCOP_STATE_BUDGET", value)
        code, out = run_json(capsys, "solve", str(q3_file))
        assert code == 2 and out["error"] == "invalid"
        assert out["detail"] == (
            "PERCOP_STATE_BUDGET must be an int >= 1: '%s'" % value)

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "n": 2, "period": 1, "snapshots": [[[0,0]]]}')
        code, out = run_json(capsys, "solve", str(bad))
        assert code == 2
        assert out["error"] == "self-loop"


class TestTriple:
    def test_bowtie(self, capsys, bowtie_file):
        code, out = run_json(capsys, "triple", str(bowtie_file))
        assert code == 0
        assert (
            out["footprint_copnum"],
            out["max_snapshot_copnum"],
            out["copnum"],
        ) == (2, 2, 1)
        assert out["expected_match"] is True


class TestCorners:
    def test_counts(self, capsys, bowtie_file):
        code, out = run_json(capsys, "corners", str(bowtie_file), "--k", "1")
        assert code == 0
        assert out["count"] == len(out["witnesses"]) > 0


class TestGenerate:
    def test_unknown_name(self, capsys):
        code, out = run_json(capsys, "generate", "mystery_graph")
        assert code == 2 and out["error"] == "invalid"
        assert "unknown construction 'mystery_graph'" in out["detail"]

    def test_stdout_is_instance_format(self, capsys):
        code, out = run(capsys, "generate", "bowtie_221")
        assert code == 0
        obj = json.loads(out)
        assert obj["version"] == 1 and obj["period"] == 6

    def test_circulant_uses_shipped_steps(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out = run_json(
            capsys, "generate", "circulant_123", "--out", str(path)
        )
        assert code == 0
        assert out["period"] == 5

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_stdout_is_the_specimen_file(self, capsys, name):
        code, out = run(capsys, "generate", name)
        assert code == 0
        assert out == serialize_specimen(GENERATORS[name]())

    def test_circulant_explicit_steps(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _ = run(
            capsys, "generate", "circulant_123", "--steps", "5,2,3,1,4",
            "--out", str(path),
        )
        assert code == 0

    @pytest.mark.parametrize("name, steps", [
        ("q3_rotation", "1,2"), ("bowtie_221", "zz"), ("diagonal_111", ""),
    ])
    def test_steps_refused_off_the_circulant(self, capsys, tmp_path, name, steps):
        path = tmp_path / "x.json"
        code, out = run_json(
            capsys, "generate", name, "--steps", steps, "--out", str(path)
        )
        assert code == 2 and out["error"] == "invalid"
        assert "--steps" in out["detail"] and not path.exists()

    def test_circulant_empty_steps_refused(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out = run_json(
            capsys, "generate", "circulant_123", "--steps", "", "--out", str(path)
        )
        assert code == 2 and out["error"] == "invalid" and not path.exists()


class TestSearchCommand:
    def test_named_spec_with_output(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        code, out = run_json(
            capsys, "search", "--spec", "prop3_retract", "--out", str(out_path)
        )
        assert code == 0
        assert out["status"] == "found"
        assert out_path.is_file()
        code2, solved = run_json(capsys, "solve", str(out_path))
        assert code2 == 0 and solved["cop_number"] == 1

    def test_spec_file(self, capsys, tmp_path):
        from percop.search import get_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(get_spec("circulant_123").as_dict()))
        code, out = run_json(capsys, "search", "--spec", str(spec_path))
        assert code == 0 and out["status"] == "found"

    def test_spec_file_with_edge_hints(self, capsys, tmp_path):
        # hint structures survive the JSON round trip (tuples become lists)
        from percop.search import get_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(get_spec("prop3_retract").as_dict()))
        code, out = run_json(capsys, "search", "--spec", str(spec_path))
        assert code == 0 and out["status"] == "found"


class TestErrorSurface:
    @pytest.mark.parametrize("spec", [
        [],
        {"name": "x"},
        {"name": "x", "n": 4, "p": 2, "family": "subgraph_assignment",
         "snapshot_constraint": {"kind": "subgraph_of"}},
        {"name": "x", "n": 6, "p": 3, "family": "girth_snapshots",
         "snapshot_constraint": {"kind": "girth"}},
        {"name": "x", "n": 4, "p": 1, "family": "subgraph_assignment",
         "snapshot_constraint": {"kind": "subgraph_off", "edges": [[0, 1]]},
         "footprint_constraint": {"kind": "connected"}},
    ])
    def test_malformed_spec_file(self, capsys, tmp_path, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out = run_json(capsys, "search", "--spec", str(spec_path))
        assert code == 2 and out["error"] == "invalid"

    def test_spec_file_nested_too_deeply(self, capsys, tmp_path):
        spec_path = tmp_path / "deep.json"
        spec_path.write_text("[" * 10**5)
        code, out = run_json(capsys, "search", "--spec", str(spec_path))
        assert code == 2 and out["error"] == "invalid"
        assert "nested too deeply" in out["detail"]

    @pytest.mark.parametrize("data, detail", [
        (b"[" * 10**5, "nested too deeply"),
        (b'{"version": 1, "n": "\xe9"}', "not UTF-8 text"),
        (b'{"version": 1, "n": ' + b"9" * 5000 + b"}", "invalid JSON"),
    ])
    def test_unreadable_instance_file_is_a_syntax_error(self, capsys, tmp_path,
                                                         data, detail):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out = run_json(capsys, "solve", str(path))
        assert code == 2 and out["error"] == "syntax"
        assert detail in out["detail"]

    def test_malformed_arguments_exit_2(self, capsys, tmp_path, rng, q3_file):
        # an int option given a word or a float is argparse's error; a bad
        # value it lets through, a bad label and a cut file are JSON errors
        word = rng.choice(["two", "three", "one"])
        real = "%.1f" % rng.uniform(0.5, 4)
        refused = [["solve", str(q3_file), "--max-cops", v] for v in (word, real)]
        refused += [["corners", str(q3_file), "--k", v] for v in (word, real)]
        refused += [["search", "--spec", "prop3_retract", "--seed", v] for v in (word, real)]
        refused.append(["search", "--spec", "prop3_retract", "--budget", word])
        for argv in refused:
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            err = capsys.readouterr().err
            assert exit_.value.code == 2, argv
            assert "error: argument" in err and "Traceback" not in err, (argv, err)
        text = q3_file.read_text()
        labelled = tmp_path / "label.json"
        labelled.write_text(json.dumps({**json.loads(text), "labels": {1: None}}))
        invalid = [["corners", str(q3_file), "--k", "0"], ["solve", str(labelled)]]
        invalid += [["generate", "circulant_123", "--steps", s]
                    for s in ("a,b", "1,,2", real, ",")]
        # every cut before the closing brace leaves the object open
        for i, cut in enumerate(sorted(rng.sample(range(1, text.rindex("}")), 8))):
            path = tmp_path / ("cut%d.json" % i)
            path.write_text(text[:cut])
            invalid.append(["triple", str(path)])
        for argv in invalid:
            code = main(argv)
            out, err = capsys.readouterr()
            assert code == 2 and "Traceback" not in err, (argv, err)
            assert json.loads(out)["error"] in ("invalid", "syntax", "field-type"), (argv, out)

    @pytest.mark.parametrize("command", ["solve", "triple", "corners"])
    def test_missing_instance_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "missing.json"
        code, out = run_json(capsys, command, str(path))
        assert code == 2 and out["error"] == "io"
        assert str(path) in out["detail"]

    def test_unwritable_output_exits_2(self, capsys, tmp_path, bowtie_file):
        # the write side: an --out or --trace path in a directory that is not there
        target = tmp_path / "no_dir" / "x.json"
        for argv in (["generate", "bowtie_221", "--out", str(target)],
                     ["solve", str(bowtie_file), "--trace", str(target)],
                     ["search", "--spec", "prop3_retract", "--out", str(target)]):
            code, out = run_json(capsys, *argv)
            assert code == 2 and out["error"] == "io"
            assert str(target) in out["detail"]
        assert not target.parent.exists()

    def test_limit_errors_become_json(self, capsys, tmp_path):
        # treewidth limit (n > 13) surfaces as a JSON error, exit 3
        from percop.graphs import complete_graph
        from percop.periodic import constant
        from percop.instancefile import serialize

        path = tmp_path / "big.json"
        path.write_text(serialize(constant(complete_graph(14), 1)))
        code, out = run_json(capsys, "treewidth", str(path))
        assert code == 3
        assert out["error"] == "invalid"

    def test_oversized_instance_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"version": 1, "n": 1000000, "period": 1, "snapshots": [[]]}')
        code, out = run_json(capsys, "triple", str(path))
        assert code == 3 and out["error"] == "invalid"
        assert "instance size limit exceeded" in out["detail"]

    def test_plain_value_error_exits_2(self, capsys, bowtie_file, monkeypatch):
        # exit 3 comes from the LimitError type, not from words in a message
        from percop import cli

        def plain_error(_g):
            raise ValueError("not a limit or budget error")

        monkeypatch.setattr(cli, "exact_treewidth", plain_error)
        code, out = run_json(capsys, "treewidth", str(bowtie_file))
        assert code == 2 and out["error"] == "invalid"

    def test_library_limits_raise_limit_error(self):
        from percop.corners import find_k_temporal_corners
        from percop.graphs import Graph, LimitError, complete_graph, domination_number
        from percop.periodic import constant
        from percop.census import smallest_3copwin_scan
        from percop.treewidth import exact_treewidth

        limited = [
            lambda: exact_treewidth(Graph(14)),
            lambda: domination_number(Graph(21)),
            lambda: smallest_3copwin_scan(6, 2),
            lambda: find_k_temporal_corners(constant(complete_graph(24), 1), 12),
        ]
        for call in limited:
            with pytest.raises(LimitError):
                call()

    def test_corner_budget_becomes_json(self, capsys, tmp_path):
        from percop.graphs import complete_graph
        from percop.periodic import constant
        from percop.instancefile import serialize

        path = tmp_path / "kn.json"
        path.write_text(serialize(constant(complete_graph(24), 1)))
        code, out = run_json(capsys, "corners", str(path), "--k", "12")
        assert code == 3 and out["error"] == "invalid"


class TestTreewidthCommands:
    def test_treewidth(self, capsys, bowtie_file):
        code, out = run_json(capsys, "treewidth", str(bowtie_file))
        assert code == 0 and out["treewidth"] == 2

    def test_tw_bound(self, capsys, bowtie_file):
        code, out = run_json(capsys, "tw-bound", str(bowtie_file))
        assert code == 0
        assert out["bound_holds"] and out["bag_strategy_wins"]

    def test_tw_bound_refuses_disconnected_before_solving(self, capsys, tmp_path,
                                                          monkeypatch):
        from percop import solver
        from percop.graphs import PETERSEN_EDGES, Graph
        from percop.instancefile import serialize
        from percop.periodic import PeriodicGraph

        g = Graph(12, list(PETERSEN_EDGES) + [(10, 11)])
        path = tmp_path / "petersen_and_edge.json"
        path.write_text(serialize(PeriodicGraph([g, g])))
        calls = []
        inner = solver.is_k_copwin
        monkeypatch.setattr(solver, "is_k_copwin",
                            lambda pg, k: calls.append(k) or inner(pg, k))
        code, out = run_json(capsys, "tw-bound", str(path))
        assert code == 2 and out["error"] == "invalid"
        assert "temporally connected" in out["detail"]
        assert calls == []


class TestVerifyTable:
    def test_skip_search_rows(self, capsys):
        code, out = run_json(capsys, "verify-table", "--skip-search-rows")
        assert code == 0
        assert out["summary"]["skipped"] == 4
        assert out["summary"]["PASS"] == 7
        assert out["summary"]["external"] == 13
        assert out["summary"]["UNDETERMINED"] == 3

    def test_human_rendering(self, capsys):
        code, out = run(capsys, "--human", "verify-table", "--skip-search-rows")
        assert code == 0
        assert "a b c" in out and "external" in out


# (a, b, c, source) of every row, as cli.py once listed them by hand; the rows
# now come from the generators and named specs that state each triple
FORMER_TABLE = [
    (1, 1, 1, "diagonal_111"), (1, 1, 2, "thm112"), (1, 1, 3, "undetermined"),
    (1, 2, 1, "external"), (1, 2, 2, "lem122"), (1, 2, 3, "circulant_123"),
    (1, 3, 1, "external"), (1, 3, 2, "petersen_132"), (1, 3, 3, "external"),
    (2, 1, 1, "external"), (2, 1, 2, "external"), (2, 1, 3, "undetermined"),
    (2, 2, 1, "bowtie_221"), (2, 2, 2, "diagonal_222"), (2, 2, 3, "external"),
    (2, 3, 1, "petersen_231"), (2, 3, 2, "external"), (2, 3, 3, "external"),
    (3, 1, 1, "petersen_311"), (3, 1, 2, "external"), (3, 1, 3, "undetermined"),
    (3, 2, 1, "search_321"), (3, 2, 2, "external"), (3, 2, 3, "external"),
    (3, 3, 1, "external"), (3, 3, 2, "external"), (3, 3, 3, "diagonal_333"),
]


class TestVerifyTableSources:
    def test_rows_match_the_former_table(self):
        from percop.search import verify_table

        rows = verify_table(skip_search=True)
        assert [(r["a"], r["b"], r["c"], r["source"]) for r in rows] == FORMER_TABLE

    def test_search_rows_are_decided_by_certify(self, capsys, monkeypatch):
        # vertices 0 and 8 swapped keep thm112's triple (1, 1, 2) but move
        # the universal footprint vertex the spec names
        from percop import search as search_mod
        from percop.periodic import PeriodicGraph

        real = search_mod.load_witness

        def swapped(name):
            pg, meta = real(name)
            if name == "thm112":
                perm = list(range(pg.n))
                perm[0], perm[8] = 8, 0
                pg = PeriodicGraph([g.relabel(perm) for g in pg.snapshots])
            return pg, meta

        monkeypatch.setattr(search_mod, "load_witness", swapped)
        code, out = run_json(capsys, "verify-table")
        row = out["rows"][1]
        assert (row["a"], row["b"], row["c"], row["source"]) == (1, 1, 2, "thm112")
        assert row["status"] == "FAIL" and row["computed"] == [1, 1, 2]
        assert out["summary"]["PASS"] == 10
        assert code == out["exit_code"] == 2

    def test_missing_witness(self, capsys, monkeypatch):
        from percop import search as search_mod

        def missing(name):
            raise FileNotFoundError("missing witness file for spec %r" % name)

        monkeypatch.setattr(search_mod, "load_witness", missing)
        code, out = run_json(capsys, "verify-table")
        gone = [r for r in out["rows"] if r["status"] == "missing-witness"]
        assert [r["source"] for r in gone] == [
            "thm112", "lem122", "circulant_123", "search_321"]
        assert all("computed" not in r for r in gone)
        assert out["summary"]["PASS"] == 7
        assert code == out["exit_code"] == 2

    def test_state_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "100")
        code, out = run_json(capsys, "verify-table")
        solved = [r for r in out["rows"]
                  if r["status"] not in ("external", "UNDETERMINED")]
        over = [r for r in solved if r["status"] == "budget-error"]
        assert len(solved) == 11
        # diagonal_111's games fit in 100 states; every other row's do not
        assert [r["source"] for r in solved if r not in over] == ["diagonal_111"]
        assert all("solver state budget exceeded" in r["detail"]
                   and "computed" not in r for r in over)
        assert code == out["exit_code"] == 3


# the README's footprint question as a spec file
C4_FILE = {
    "name": "c4_copnum2", "n": 4, "p": 2, "family": "subgraph_assignment",
    "snapshot_constraint": {"kind": "subgraph_of",
                            "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
    "footprint_constraint": {"kind": "equals",
                             "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
    "targets": {"copnum": 2},
}


class TestSpecFileChecks:
    @pytest.mark.parametrize("spec", [
        {"name": "x", "n": 4, "p": 1, "family": "circulant"},
        {**C4_FILE, "footprint_constraint": {"kind": "equals", "edges": [[0, 9]]}},
        {**C4_FILE, "footprint_constraint": {"kind": "equals", "edges": [[2, 2]]}},
        {**C4_FILE, "snapshot_constraint": {"kind": "subgraph_of", "edges": [[0, 9]]}},
        {**C4_FILE, "hints": {"edge_layers": [{"edge": [0, 4], "require": [0]}]}},
        {**C4_FILE, "hints": {"edge_layers": [{"edge": [0, True]}]}},
        {**C4_FILE, "hints": {"edge_layers": [{"edge": [0, 2], "require": [0]}]}},
        {"name": "x", "n": 5, "p": 2, "family": "girth_snapshots",
         "snapshot_constraint": {"kind": "girth", "girth": 5}},
        {"name": "x", "n": 5, "p": 2, "family": "girth_snapshots",
         "snapshot_constraint": {"kind": "hamiltonian_path"}},
        {**get_spec("search_321").as_dict(), "snapshot_constraint": {
            **get_spec("search_321").snapshot_constraint, "cycle_length": 4}},
    ])
    def test_rejected_before_the_first_candidate(self, capsys, tmp_path, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out = run_json(capsys, "search", "--spec", str(spec_path))
        assert code == 2 and out["error"] == "invalid"
