"""tools/bench_pairs.py without running the benchmark: seed ranges, and the
pairing and summary of compare() over a stubbed run_once, and the copy of
the working tree."""

import argparse
import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [{"name": "wall_s", "better": "lower", "bound": 0.15},
            {"name": "ops_per_s", "better": "higher", "bound": 0.15}]
META = {"python": "3.x", "nproc": 2, "cpu_model": "cpu", "other": "dropped"}


class TestParseSeeds:
    def test_range(self):
        assert bench_pairs.parse_seeds("41-50") == list(range(41, 51))
        assert bench_pairs.parse_seeds("0-1") == [0, 1]

    @pytest.mark.parametrize("text", ["41-41", "50-41", "41", "a-b", "41-", "-"])
    def test_fewer_than_two_seeds_refused(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="at least two seeds"):
            bench_pairs.parse_seeds(text)

    def test_cli_refuses_before_any_run(self, monkeypatch, tmp_path, capsys):
        def never(*args):
            raise AssertionError("ran before the seeds were checked")

        monkeypatch.setattr(bench_pairs, "export", never)
        monkeypatch.setattr(bench_pairs, "copy_worktree", never)
        monkeypatch.setattr(bench_pairs, "run_once", never)
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--out", str(out), "--seeds", "41-41"])
        assert exc.value.code == 2 and not out.exists()
        assert "at least two seeds" in capsys.readouterr().err


def _stub(monkeypatch, table):
    """run_once answering table[(side, seed)] = (wall_s, ops_per_s, digest,
    failed); returns the (side, seed) calls in order."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = {"BASE": "base", "CHANGE": "change"}[tree]
        assert workload == "corpus" and seconds == 25
        calls.append((side, seed))
        wall, ops, digest, failed = table[side, seed]
        return {"wall_s": wall, "ops_per_s": ops}, digest, failed, META

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


class TestCompare:
    def table(self):
        base = {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}
        change = {1: 9.0, 2: 21.0, 3: 27.0, 4: 36.0}
        rows = {("base", s): (w, 100.0 / w, "d%d" % s, 0) for s, w in base.items()}
        rows.update({("change", s): (w, 100.0 / w, "d%d" % s, 0)
                     for s, w in change.items()})
        return rows

    def test_summary(self, monkeypatch):
        calls = _stub(monkeypatch, self.table())
        out = bench_pairs.compare("corpus", [1, 2, 3, 4], 25, "BASE", "CHANGE", DECLARED)
        # the order flips from one seed to the next
        assert calls == [("base", 1), ("change", 1), ("change", 2), ("base", 2),
                         ("base", 3), ("change", 3), ("change", 4), ("base", 4)]
        wall = out["metrics"]["wall_s"]
        assert wall["base"] == {"median": 25.0, "q1": 17.5, "q3": 32.5,
                                "values": [10.0, 20.0, 30.0, 40.0]}
        assert wall["change"] == {"median": 24.0, "q1": 18.0, "q3": 29.25,
                                  "values": [9.0, 21.0, 27.0, 36.0]}
        assert wall["median_change"] == pytest.approx(-0.04)
        assert (wall["pair_wins"], wall["pairs"]) == (3, 4)
        assert (wall["better"], wall["bound"]) == ("lower", 0.15)
        # higher is better: the same three pairs win
        assert out["metrics"]["ops_per_s"]["pair_wins"] == 3
        assert out["seeds"] == [1, 2, 3, 4] and out["answers_equal"] is True
        assert out["failed"] == {"base": 0, "change": 0}
        assert out["machine"] == {"python": "3.x", "nproc": 2, "cpu_model": "cpu"}

    def test_answers_and_failures(self, monkeypatch):
        table = self.table()
        table["change", 3] = (27.0, 1.0, "other", 2)
        table["base", 4] = (40.0, 1.0, "d4", 1)
        _stub(monkeypatch, table)
        out = bench_pairs.compare("corpus", [1, 2, 3, 4], 25, "BASE", "CHANGE", DECLARED)
        assert out["answers_equal"] is False
        assert out["failed"] == {"base": 1, "change": 2}


def test_copy_worktree_skips_ignored_files(monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / ".gitignore").write_text("out/\n")
    (repo / "src" / "tracked.py").write_text("a = 1\n")
    (repo / "src" / "gone.py").write_text("")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    (repo / "src" / "gone.py").unlink()  # tracked, deleted in the tree
    (repo / "src" / "new.py").write_text("b = 2\n")
    (repo / "out").mkdir()
    (repo / "out" / "log.txt").write_text("ignored\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    tree = bench_pairs.copy_worktree(tmp_path / "copy")
    got = sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
    assert got == [".gitignore", "src/new.py", "src/tracked.py"]
    assert (tree / "src" / "tracked.py").read_text() == "a = 1\n"
