"""`percop.check` stands apart from the algorithms it checks: importing it
loads neither `solver` nor `search`, and a bag strategy and corner witnesses
are checked without them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import percop
from percop import check, solver

# the percop modules that importing each module alone loads, the package's
# layering; `import percop` alone loads none
LAYERS = {
    "graphs": {"graphs"},
    "periodic": {"graphs", "periodic"},
    "check": {"check", "graphs", "periodic"},
    "corners": {"corners", "graphs", "periodic"},
    "treewidth": {"check", "graphs", "periodic", "treewidth"},
    "solver": {"check", "graphs", "periodic", "solver"},
    "census": {"census", "check", "graphs", "periodic", "solver"},
    "constructions": {"constructions", "corners", "graphs", "periodic"},
    "families": {"constructions", "corners", "families", "graphs", "periodic"},
    "instancefile": {"constructions", "corners", "graphs", "instancefile", "periodic"},
    "search": {"census", "check", "constructions", "corners", "families", "graphs",
               "instancefile", "periodic", "search", "solver"},
    "cli": {"census", "check", "cli", "constructions", "corners", "families", "graphs",
            "instancefile", "periodic", "search", "solver", "treewidth"},
}
HOMES = ["graphs", "periodic", "corners", "check", "solver", "treewidth"]

FRESH = """\
import importlib, json, sys


def alone(name):
    for m in [m for m in sys.modules if m.partition(".")[0] == "percop"]:
        del sys.modules[m]
    importlib.import_module(name)
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("percop."))


layers = {m: alone("percop." + m) for m in json.loads(sys.argv[1])}
alone("percop.check")
from percop import check, constructions, corners, periodic, treewidth

pg = constructions.q3_rotation().instance
foot = periodic.footprint(pg)
policy = treewidth.bag_strategy(pg, treewidth.smooth(treewidth.exact_treewidth(foot)[1], foot))
verdict = check.verify_policy(pg, policy)
witnesses = corners.find_k_temporal_corners(pg, 2)
loaded = sorted(m for m in sys.modules if m.startswith("percop."))
bare = alone("percop")
percop = sys.modules["percop"]
listed = dir(percop)
homes = [m for m in json.loads(sys.argv[2])
         if getattr(percop, m) is importlib.import_module("percop." + m)]
print(json.dumps({
    "layers": layers, "loaded": loaded, "bare": bare, "dir": listed, "homes": homes,
    "wins": verdict.wins,
    "max_capture_moves": verdict.max_capture_moves,
    "states_explored": verdict.states_explored,
    "witnesses": len(witnesses),
    "valid": sum(check.validate_witness(pg, w) for w in witnesses),
}))
"""


@pytest.fixture(scope="module")
def fresh():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(list(LAYERS)), json.dumps(HOMES)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLayering:
    def test_each_module_loads_its_layer(self, fresh):
        on_disk = {p.stem for p in Path(check.__file__).parent.glob("*.py")} - {"__init__"}
        assert set(LAYERS) == on_disk
        assert {m: set(found) for m, found in fresh["layers"].items()} == LAYERS

    def test_bare_package_lists_and_resolves_its_names(self, fresh):
        assert fresh["bare"] == []
        assert set(percop.__all__) | set(HOMES) <= set(fresh["dir"])
        assert fresh["homes"] == HOMES

    def test_checks_run_without_solver_or_search(self, fresh):
        used = ["check", "constructions", "corners", "graphs", "periodic", "treewidth"]
        assert fresh["loaded"] == ["percop." + m for m in used]
        assert fresh["wins"] is True
        assert (fresh["max_capture_moves"], fresh["states_explored"]) == (3, 8)
        assert fresh["witnesses"] == fresh["valid"] == 48

    def test_one_object_under_each_name(self):
        # the package and the solver re-export the checker's own objects
        for name in ("CopPolicy", "verify_policy"):
            assert getattr(percop, name) is getattr(check, name) is getattr(solver, name)
