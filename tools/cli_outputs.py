"""Run the CLI commands whose outputs are pinned, and print a digest of each file.

From the root of a checkout:

    PYTHONPATH=src python3 tools/cli_outputs.py OUTDIR > cli.sha256
    diff tests/golden/cli.sha256 cli.sha256

Each step runs in OUTDIR, which must not exist yet.  A command step runs
in-process through ``percop.cli.main`` and writes its standard output to the
file the step names; the instance, trace and witness files that its options
name land beside it.  A few steps write an input file, or a figure that no
command prints, themselves.  Then the script prints one ``sha256  name``
line per file in OUTDIR, sorted by name, as ``sha256sum`` does.

``tests/golden/cli.sha256`` is the committed manifest.  CI runs this script
under two hash seeds and compares each manifest with it, so that no output
depends on the hash seed or changes unnoticed.  A change that alters an
output on purpose rewrites the manifest and names the changed lines.  A
command that exits with a status other than the one its step lists makes
the script exit 1.  The steps after ``SLOW_FROM`` run the searches and
``verify-table`` with its search rows, or read the witnesses the searches
write; tier-1 runs the steps before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from percop import cli
from percop.constructions import GENERATORS
from percop.graphs import Graph
from percop.instancefile import serialize
from percop.periodic import PeriodicGraph
from percop.search import get_spec
from percop.solver import solve_cop_number

C4 = [[0, 1], [0, 3], [1, 2], [2, 3]]


def _wait300():
    """Ranks above 255: one cop waits 300 layers for the only edge."""
    return serialize(PeriodicGraph([Graph(2)] * 299 + [Graph(2, [(0, 1)])]))


def _finish():
    """The finishing pass, which no command runs: each generator's win count
    at its cop number, then a digest of every rank read after it."""
    lines = []
    for name in sorted(GENERATORS):
        k, res = solve_cop_number(GENERATORS[name]().instance)
        pg = res.pg
        ranks = [res.rank_of(t, c, r, side) for t in range(pg.period)
                 for c in itertools.combinations_with_replacement(range(pg.n), k)
                 for r in range(pg.n) for side in (0, 1)]
        lines.append("%s %d %d %s\n" % (name, k, res.win_count(),
                                        hashlib.sha256(repr(ranks).encode()).hexdigest()))
    return "".join(lines)


def _spec(**fields):
    return json.dumps(fields) + "\n"


def _cycle4():
    """search_321's spec with a cycle length its snapshots never have."""
    d = get_spec("search_321").as_dict()
    d["snapshot_constraint"]["cycle_length"] = 4
    return json.dumps(d) + "\n"


# (file, step, exit status): a str step is the CLI's arguments and the file
# gets its standard output; a callable step returns the file's contents
STEPS = [
    ("generate.json", "generate q3_rotation --out q3.json", 0),
    ("triple.json", "triple q3.json", 0),
    ("corners.json", "corners q3.json --k 2", 0),
    ("corners-k1.json", "corners q3.json", 0),
    ("corners-k3.json", "corners q3.json --k 3", 0),
    ("solve.json", "solve q3.json --trace trace.json", 0),
    ("treewidth.json", "treewidth q3.json", 0),
    ("tw-bound.json", "tw-bound q3.json", 0),
    ("generate-p311.json", "generate petersen_311 --out p311.json", 0),
    ("tw-bound-p311.json", "tw-bound p311.json", 0),
    ("verify-table.json", "verify-table --skip-search-rows", 0),
    ("solve-max-cops.json", "solve q3.json --max-cops 1", 0),
    ("wait300.json", _wait300, None),
    ("wait300-solve.json", "solve wait300.json --trace wait300-trace.json", 0),
    ("finish.txt", _finish, None),
    # the decision pass that stops at the first filled placement, and the
    # traces read from it, on every generator
    *[step for g in sorted(GENERATORS) for step in (
        ("%s-generate.json" % g, "generate %s --out %s.json" % (g, g), 0),
        ("%s-solve.json" % g, "solve %s.json --trace %s-trace.json" % (g, g), 0))],
    # the README's footprint question, read from a spec file
    ("c4.json", lambda: _spec(
        name="c4_copnum2", n=4, p=2, family="subgraph_assignment",
        snapshot_constraint={"kind": "subgraph_of", "edges": C4},
        footprint_constraint={"kind": "equals", "edges": C4},
        targets={"copnum": 2}), None),
    ("c4.txt", "search --spec c4.json", 0),
    # malformed inputs, each refused with exit 2 and its error JSON: strides
    # that are not ints, a retraction with no images, a girth and a cycle
    # length that the family's snapshots never have, a constraint kind that
    # girth-4 snapshots never meet, girth-4 snapshots on three vertices, a
    # hub that three Hamiltonian paths cannot join to eight others, a cycle
    # asked of Hamiltonian-path snapshots, connected girth-4 snapshots asked
    # for a disconnected footprint
    ("strides.json", lambda: _spec(
        name="bad_strides", n=11, p=5, family="hamiltonian_path",
        snapshot_constraint={"kind": "circulant", "strides": ["a"]}), None),
    ("images.json", lambda: _spec(
        name="no_images", n=4, p=2, family="subgraph_assignment",
        snapshot_constraint={"kind": "subgraph_of", "edges": C4},
        targets={"retract_premise_fails": {"removed": 0, "kept": [1, 2],
                                           "images": []}}), None),
    ("girth5.json", lambda: _spec(
        name="girth5", n=5, p=2, family="girth_snapshots",
        snapshot_constraint={"kind": "girth", "girth": 5}), None),
    ("cycle4.json", _cycle4, None),
    ("hampath.json", lambda: _spec(
        name="hampath", n=5, p=2, family="girth_snapshots",
        snapshot_constraint={"kind": "hamiltonian_path"}), None),
    ("girthn3.json", lambda: _spec(
        name="girth_n3", n=3, p=2, family="girth_snapshots",
        snapshot_constraint={"kind": "girth", "girth": 4}), None),
    ("hub.json", lambda: _spec(
        name="hub_p3", n=9, p=3, family="hamiltonian_path",
        footprint_constraint={"kind": "universal_vertex", "vertex": 8}), None),
    ("pathgirth.json", lambda: _spec(
        name="path_girth", n=5, p=2, family="hamiltonian_path",
        snapshot_constraint={"kind": "girth", "girth": 4}), None),
    ("split.json", lambda: _spec(
        name="split", n=6, p=2, family="girth_snapshots",
        footprint_constraint={"kind": "equals", "edges": [[0, 1], [1, 2]]}), None),
    *[("%s.txt" % bad, "search --spec %s.json" % bad, 2)
      for bad in ("strides", "images", "girth5", "cycle4", "hampath", "girthn3",
                  "hub", "pathgirth", "split")],
    # strides given to a construction that has none, an unknown
    # construction and a missing instance file
    ("steps.txt", "generate q3_rotation --steps 5,2,3,1,4", 2),
    ("unknown.txt", "generate mystery_graph", 2),
    ("missing.txt", "solve missing.json", 2),
    # an instance file that is not UTF-8, JSON nested past the recursion
    # limit read as an instance file and as a spec file, and an integer
    # literal too long for int()
    ("notutf8.json", lambda: b'{"version": 1, "n": "\xff"}', None),
    ("notutf8.txt", "solve notutf8.json", 2),
    ("deep.json", lambda: "[" * 10**5 + "\n", None),
    ("deepsolve.txt", "solve deep.json", 2),
    ("deep.txt", "search --spec deep.json", 2),
    ("hugeint.json", lambda: '{"version": 1, "n": %s}\n' % ("9" * 5000), None),
    ("hugeint.txt", "solve hugeint.json", 2),
]
# the first slow step: the searches, the full table and the witness reads
SLOW_FROM = len(STEPS)
STEPS += [
    ("verify-table-full.json", "verify-table", 0),
    ("verify-table.txt", "--human verify-table", 0),
    ("search.json", "search --spec thm112 --out thm112.json", 0),
    ("lem122.txt", "search --spec lem122 --out lem122.json", 0),
    ("circ.txt", "search --spec circulant_123 --out circ.json", 0),
    ("circ-corners-k3.json", "corners circ.json --k 3", 0),
    ("s321.txt", "search --spec search_321 --out s321.json", 0),
    ("prop3.txt", "search --spec prop3_retract --out prop3.json", 0),
    ("prop3-triple.json", "triple prop3.json", 0),
    # the corner scan on four searched witnesses
    *[("%s-corners-k%d.json" % (w, k), "corners %s.json --k %d" % (w, k), 0)
      for w in ("thm112", "lem122", "s321", "prop3") for k in (1, 2)],
    # the bag strategy and its policy check on three searched witnesses
    *[("%s-tw-bound.json" % w, "tw-bound %s.json" % w, 0)
      for w in ("thm112", "lem122", "prop3")],
    # the lazily built ranks: traces of the five searched witnesses
    *[("%s-solve.json" % w, "solve %s.json --trace %s-trace.json" % (w, w), 0)
      for w in ("thm112", "lem122", "circ", "s321", "prop3")],
]


def run_step(name, step, status):
    """Run one step in the current directory and write its file; an error
    string if a command exits with another status, else None."""
    if callable(step):
        data = step()
        Path(name).write_bytes(data if isinstance(data, bytes) else data.encode())
        return None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            got = cli.main(step.split())
        except SystemExit as e:  # argparse refusing the arguments
            got = e.code
    Path(name).write_text(out.getvalue(), encoding="utf-8")
    if got != status:
        return "percop %s: exit %s, expected %d" % (step, got, status)
    return None


def manifest(outdir):
    """`sha256sum` lines of every file in outdir, sorted by name."""
    return "".join("%s  %s\n" % (hashlib.sha256(p.read_bytes()).hexdigest(), p.name)
                   for p in sorted(Path(outdir).iterdir()))


def run(outdir, steps=STEPS):
    """Run steps in a new directory outdir; the errors, in step order."""
    outdir = Path(outdir)
    outdir.mkdir()
    here = os.getcwd()
    os.chdir(outdir)
    try:
        errors = [run_step(*step) for step in steps]
    finally:
        os.chdir(here)
    return [e for e in errors if e]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    errors = run(argv[0])
    sys.stdout.write(manifest(argv[0]))
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
