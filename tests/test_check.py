"""`percop.check` stands apart from the algorithms it checks: it imports
neither `solver` nor `search`, and a bag strategy and corner witnesses are
checked with both blocked."""

import json
import subprocess
import sys
from pathlib import Path

import percop
from percop import check, solver

SRC = Path(check.__file__).resolve().parent

# percop/__init__.py imports the solver, so the fresh interpreter registers
# an empty package over src/percop and refuses the two modules outright
BLOCKED = """\
import importlib.abc, json, sys, types

pkg = types.ModuleType("percop")
pkg.__path__ = [sys.argv[1]]
sys.modules["percop"] = pkg


class Blocked(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name in ("percop.solver", "percop.search"):
            raise ImportError("blocked: " + name)
        return None


sys.meta_path.insert(0, Blocked())
from percop import check
alone = sorted(m for m in sys.modules if m.startswith("percop"))
from percop import constructions, corners, periodic, treewidth

pg = constructions.q3_rotation().instance
foot = periodic.footprint(pg)
policy = treewidth.bag_strategy(pg, treewidth.smooth(treewidth.exact_treewidth(foot)[1], foot))
verdict = check.verify_policy(pg, policy)
witnesses = corners.find_k_temporal_corners(pg, 2)
print(json.dumps({
    "alone": alone,
    "wins": verdict.wins,
    "max_capture_moves": verdict.max_capture_moves,
    "states_explored": verdict.states_explored,
    "witnesses": len(witnesses),
    "valid": sum(check.validate_witness(pg, w) for w in witnesses),
}))
"""


class TestLayering:
    def test_checks_run_with_solver_and_search_blocked(self):
        proc = subprocess.run([sys.executable, "-c", BLOCKED, str(SRC)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "alone": ["percop", "percop.check", "percop.graphs", "percop.periodic"],
            "wins": True, "max_capture_moves": 3, "states_explored": 8,
            "witnesses": 48, "valid": 48,
        }

    def test_one_object_under_each_name(self):
        # the package and the solver re-export the checker's own objects
        for name in ("CopPolicy", "verify_policy"):
            assert getattr(percop, name) is getattr(check, name) is getattr(solver, name)
