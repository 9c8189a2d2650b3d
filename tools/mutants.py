"""Run the recorded mutants of percop against the tests that must kill them.

From the root of a checkout:

    python3 tools/mutants.py

Each row of ``MUTANTS`` is one mutation of the library: (name, file, exact
old text, new text, the tests that must fail).  Every old text must occur
exactly once in its file of the working tree; that is checked for all rows
before any test runs, so that a refactor has to update the table rather than
drop a mutant silently.  For each row, the working tree's files (tracked or
untracked, never ignored) are copied into a fresh temporary directory, as
``tools/bench_pairs.py`` copies them, the old text is replaced by the new
there, and pytest runs the row's tests in the copy, under the per-test time
limit of ``tests/conftest.py``.  A listed test is a node id, or the prefix
of parametrized ones, and it kills the mutant when one of its cases fails or
errs.  The mutant survives when a listed test passes.  The exit status is 1
when an old text does not occur exactly once, a mutant survives, or pytest
cannot run the listed tests (a node id it cannot find, say).  Only the
standard library is used.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, copy_worktree  # noqa: E402

FAMILIES = "src/percop/families.py"
CORNERS = "src/percop/corners.py"
SOLVER = "src/percop/solver.py"
GRAPHS = "src/percop/graphs.py"
SAMPLER = "tests/test_search.py::TestGirthSampler::"
DRAWS = [SAMPLER + "test_same_draws_as_graph_first_sampler",
         SAMPLER + "test_in_place_refills_cross_blocks",
         "tests/test_search.py::TestGirthStreams::test_candidates_match_pinned_digests"]
SCAN = ["tests/test_corners.py::TestWitnessesFromTheScan::test_small_connected_instances",
        "tests/test_corners.py::TestTemporalCorners::test_witnesses_revalidate",
        "tests/test_corners.py::TestWitnessOrder::test_enumeration_is_already_sorted",
        "tests/test_corners.py::TestCompleteness::test_generators"]
KEPT = "tests/test_corners.py::TestKeptTables::"
STATIC = "tests/test_solver.py::TestStaticCore::"
CORE = "tests/test_graphs.py::TestCore::"

# (name, file, old text, new text, the tests that must fail)
MUTANTS = [
    # the girth-4 sampler: where a draw's cross coins sit, and how many
    # coins it consumes
    ("sampler-cross-coins-unshifted", FAMILIES,
     "i = base + ((w & low) >> most - m)", "i = base + ((w & low) >> most)",
     DRAWS + [SAMPLER + "test_accepted_bytes_hold_domination_numbers"]),
    ("sampler-consumes-need", FAMILIES, "at += n + m\n", "at += need\n",
     DRAWS + [SAMPLER + "test_accepted_bytes_hold_domination_numbers"]),
    ("sampler-one-sided-consumes-need", FAMILIES,
     "at += n + m\n", "at += n + m if m else need\n", DRAWS),
    # the layering: the streams never read the search module
    # (at the end, where the import closes no cycle and only the layering
    # test sees it)
    ("families-imports-search", FAMILIES,
     '        yield specimen.instance, {"steps": steps}\n',
     '        yield specimen.instance, {"steps": steps}\n\n\nfrom . import search\n',
     ["tests/test_search.py::TestFamiliesModule::test_families_import_no_search"]),
    # the corner scan: each witness's layer, and its field order
    ("corner-t-dropped", CORNERS,
     "layer_corners(snaps[t], snaps[(t + 1) % p], k, t=t)",
     "layer_corners(snaps[t], snaps[(t + 1) % p], k)",
     SCAN + ["tests/test_corners.py::TestKTemporalCorners::"
             "test_circulant_3_corner_matches_strategy"]),
    ("corner-fields-swapped", CORNERS,
     "w = slots[u] = new(CornerWitness, (t, u, ys))",
     "w = slots[u] = new(CornerWitness, (u, t, ys))",
     SCAN + ["tests/test_corners.py::TestWitnessesFromTheScan::"
             "test_each_list_carries_its_layer",
             "tests/test_corners.py::TestTemporalCorners::test_fig2_witness"]),
    # the same, in the scan of a layer whose table is not kept
    ("corner-fields-swapped-untabled", CORNERS,
     "found[u].append(new(CornerWitness, (t, u, ys)))",
     "found[u].append(new(CornerWitness, (u, t, ys)))",
     [KEPT + "test_lists_match_whatever_was_kept_first",
      KEPT + "test_long_period_stays_within_the_limit"]),
    # the kept cover tables: one per layer, and their rows' candidates lie
    # outside the cover set
    ("corner-table-keyed-without-t", CORNERS,
     "key = n, size, t", "key = n, size, 0",
     SCAN + [KEPT + "test_lists_match_whatever_was_kept_first",
             "tests/test_corners.py::TestWitnessesFromTheScan::"
             "test_each_list_carries_its_layer"]),
    ("corner-rest-keeps-cover-vertices", CORNERS,
     "table.append((ys, full & ~used, [None] * n))",
     "table.append((ys, full, [None] * n))",
     # a vertex may cover itself, but the lists stay sorted
     [KEPT + "test_lists_match_whatever_was_kept_first",
      "tests/test_corners.py::TestWitnessesFromTheScan::test_small_connected_instances",
      "tests/test_corners.py::TestTemporalCorners::test_witnesses_revalidate",
      "tests/test_corners.py::TestTemporalCorners::test_complete_graph_every_pair",
      "tests/test_corners.py::TestKTemporalCorners::test_corner_vertex_never_in_cover"]),
    # the static core: its ascent starts at two cops, and it keeps two vertices
    ("core-from-three", SOLVER,
     "total += _ascend(h, 2)[0]", "total += _ascend(h, 3)[0]",
     [STATIC + "test_every_class_to_six_vertices",
      STATIC + "test_one_cop_is_asked_once_per_component_and_never_of_a_core",
      "tests/test_solver.py::TestStaticBasics::test_cycles_need_two",
      "tests/test_solver.py::TestComponentSum::test_static_disconnected_matches_reference"]),
    ("core-length-unchecked", SOLVER, "if len(kept) < 2:", "if False:",
     [STATIC + "test_a_core_won_by_one_cop_is_a_contradiction"]),
    # a component that one cop loses joins the total by a max, not a sum
    ("static-core-max-not-sum", SOLVER,
     "total += _ascend(h, 2)[0]", "total = max(total, _ascend(h, 2)[0])",
     [STATIC + "test_shuffled_disjoint_unions",
      STATIC + "test_one_cop_is_asked_once_per_component_and_never_of_a_core"]),
    # the dismantled core: closed neighbourhoods of a survivor's neighbours,
    # each wholly covered
    ("core-open-neighbourhoods", GRAPHS,
     "        others = nu ^ low\n"
     "        while others:\n"
     "            v = others & -others\n"
     "            others ^= v\n"
     "            if nu & ~masks[v.bit_length() - 1] == 0:",
     "        others = alive ^ low\n"
     "        while others:\n"
     "            v = others & -others\n"
     "            others ^= v\n"
     "            if (nu ^ low) & ~(masks[v.bit_length() - 1] ^ v) == 0:",
     [CORE + "test_no_dominated_vertex_keeps_every_vertex",
      CORE + "test_a_path_leaves_one_vertex",
      "tests/test_graphs.py::TestDismantle::test_trees",
      STATIC + "test_every_class_to_six_vertices"]),
    ("core-one-uncovered", GRAPHS,
     "if nu & ~masks[v.bit_length() - 1] == 0:",
     "if (nu & ~masks[v.bit_length() - 1]).bit_count() <= 1:",
     [CORE + "test_no_dominated_vertex_keeps_every_vertex",
      "tests/test_graphs.py::TestDismantle::test_c4",
      "tests/test_graphs.py::TestDismantle::test_bowtie_snapshots",
      STATIC + "test_every_class_to_six_vertices"]),
    # the triple: a is the footprint's cop number, not the first snapshot's
    ("triple-footprint-is-snapshot-0", SOLVER,
     "foot = _periodic.footprint(pg)\n    a = static_cop_number(foot)",
     "foot = pg.snapshots[0]\n    a = static_cop_number(foot)",
     ["tests/test_reference_numbers.py::TestShippedNumbers::"
      "test_cheap_instances_agree_with_the_reference",
      "tests/test_solver.py::TestTriple::test_q3_footprint_and_periodic"]),
]


def stale_rows(root, rows):
    """The rows whose old text does not occur exactly once, with its count."""
    out = []
    for name, path, old, _new, _tests in rows:
        count = (Path(root) / path).read_text().count(old)
        if count != 1:
            out.append((name, path, count))
    return out


def mutate(tree, path, old, new):
    target = Path(tree) / path
    target.write_text(target.read_text().replace(old, new, 1))


def failing_ids(report):
    """The node ids of the FAILED and ERROR lines of pytest's -rfE summary."""
    ids = set()
    for line in report.splitlines():
        word, _sep, rest = line.partition(" ")
        if word in ("FAILED", "ERROR") and rest:
            ids.add(rest.split(" - ", 1)[0])
    return ids


def survivors(tests, failed):
    """The listed tests none of whose cases, nor any enclosing file or class,
    failed."""
    def killed(test):
        return any(f == test or f.startswith((test + "::", test + "["))
                   or test.startswith(f + "::") for f in failed)

    return [t for t in tests if not killed(t)]


def run_tests(tree, tests):
    """(pytest's exit code, its output) for the tests, run in tree."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    stale = stale_rows(ROOT, MUTANTS)
    for name, path, count in stale:
        print("%s: its old text occurs %d times in %s, not once" % (name, count, path))
    if stale:
        return 1
    ok = True
    for name, path, old, new, tests in MUTANTS:
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_worktree(tmp)
            mutate(tree, path, old, new)
            code, report = run_tests(tree, tests)
        if code not in (0, 1, 2):
            verdict = "pytest exited %d: %s" % (code, report[-2000:])
        else:
            alive = survivors(tests, failing_ids(report))
            verdict = "survived %s" % alive if alive else "killed"
        ok &= verdict == "killed"
        print("%s: %s (%.1f s)" % (name, verdict, time.monotonic() - t0))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
