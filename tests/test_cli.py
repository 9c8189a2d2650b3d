import json
import os

import pytest

from percop.cli import main
from percop.constructions import GENERATORS
from percop.instancefile import serialize_specimen


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

    def test_state_budget_env(self, capsys, q3_file, monkeypatch):
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "10")
        code, out = run_json(capsys, "solve", str(q3_file))
        assert code == 3
        assert out["error"] == "budget"

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
        with pytest.raises(SystemExit):
            main(["generate", "mystery_graph"])

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
        from percop.search import smallest_3copwin_scan
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
