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
CHECK = "src/percop/check.py"
TREEWIDTH = "src/percop/treewidth.py"
PERIODIC = "src/percop/periodic.py"
INIT = "src/percop/__init__.py"
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
IMPLIED = "tests/test_solver.py::TestImpliedResults::"
CORE = "tests/test_graphs.py::TestCore::"
ROWS = "tests/test_solver.py::TestMoveRows::"
SPACES = "tests/test_solver.py::TestConfigurationSpaces::"
ORACLE = "tests/test_solver.py::TestRankOracle::test_seeded_corpus"
POLICIES = "tests/test_solver.py::TestVerifyPolicyAgainstParent::"
LAYERING = "tests/test_check.py::TestLayering::test_each_module_loads_its_layer"
BUILT = "tests/test_periodic.py::TestAgainstReference::"

# (name, file, old text, new text, the tests that must fail)
MUTANTS = [
    # the one pass of PeriodicGraph: a repeated snapshot keeps its first
    # index, and every distinct snapshot's n is compared with snapshot 0's
    ("periodic-repeat-gets-new-index", PERIODIC,
     "j = idx.setdefault(g.masks, new)", "j = idx[g.masks] = new",
     [BUILT + "test_every_small_instance", BUILT + "test_seeded_repeats_and_relabellings",
      "tests/test_periodic.py::TestMaskFootprint::test_repeated_snapshots"]),
    ("periodic-vertex-counts-uncompared", PERIODIC,
     "elif g.n != n:", "elif False:",
     ["tests/test_periodic.py::TestPeriodicGraph::test_snapshots_disagreeing_on_n_refused"]),
    # a graph shares its snapshots tuple as its distinct snapshots only
    # when no snapshot repeats
    ("periodic-shares-a-repeated-layer", PERIODIC,
     "if len(uniq) == p:", "if True:",
     [BUILT + "test_every_small_instance", BUILT + "test_seeded_repeats_and_relabellings"]),
    # the footprint ORs every distinct snapshot, the last one too
    ("footprint-drops-last-snapshot", PERIODIC,
     "for g in rest:", "for g in rest[:-1]:",
     [BUILT + "test_every_small_instance", BUILT + "test_seeded_repeats_and_relabellings",
      "tests/test_periodic.py::TestMaskFootprint::test_footprint_is_the_union_of_edges"]),
    # the girth-4 sampler: which words are a draw's, how many coins it
    # consumes, and how far its judgement writes
    ("sampler-cross-coins-unshifted", FAMILIES,
     "low = most - m\n", "low = most\n",
     DRAWS + [SAMPLER + "test_accepted_bytes_hold_domination_numbers"]),
    ("sampler-consumes-need", FAMILIES, "used = n + m\n", "used = need\n",
     DRAWS + [SAMPLER + "test_accepted_bytes_hold_domination_numbers"]),
    ("sampler-one-sided-consumes-need", FAMILIES,
     "used = n + m\n", "used = n + m if m else need\n",
     DRAWS + [SAMPLER + "test_accepted_bytes_hold_domination_numbers"]),
    ("sampler-judgement-past-its-words", FAMILIES,
     "verdicts[lo:hi] = bytes((verdict,)) * (hi - lo)",
     "verdicts[lo:hi + 1] = bytes((verdict,)) * (hi + 1 - lo)",
     [SAMPLER + "test_accepted_bytes_hold_domination_numbers",
      SAMPLER + "test_each_draw_is_judged_once",
      SAMPLER + "test_tables_stay_within_512_kb"]),
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
    # implied results: only a won k - 1 implies k cops, and the implied
    # result decides on the k-cop space
    ("implied-after-a-loss", SOLVER,
     "if won is not None and won.copwin and len(tables.levels) == k:",
     "if won is not None and not won.copwin and len(tables.levels) == k:",
     [IMPLIED + "test_no_implication_after_a_loss",
      IMPLIED + "test_small_connected_instances"]),
    ("implied-level-on-fewer-cops", SOLVER,
     "lv = _Level(_space(self.pg.n, self.k), self.pg.unique_snapshots,",
     "lv = _Level(_space(self.pg.n, self.k - 1), self.pg.unique_snapshots,",
     [IMPLIED + "test_small_connected_instances",
      IMPLIED + "test_seeded_corpus"]),
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
    # the static cop number sums its components, on both paths
    ("static-max-over-all-components", SOLVER,
     "            total += 1\n"
     "            continue\n"
     "        kept = core(h.snapshots[0])\n"
     "        if len(kept) < 2:\n"
     "            raise AssertionError(\n"
     "                \"a component that one cop loses dismantles to one vertex; \"\n"
     "                \"this contradicts Nowakowski & Winkler\")\n"
     "        if len(kept) < h.n:\n"
     "            h = _periodic.induced(h, kept)[0]\n"
     "        total += _ascend(h, 2)[0]\n",
     "            total = max(total, 1)\n"
     "            continue\n"
     "        kept = core(h.snapshots[0])\n"
     "        if len(kept) < 2:\n"
     "            raise AssertionError(\n"
     "                \"a component that one cop loses dismantles to one vertex; \"\n"
     "                \"this contradicts Nowakowski & Winkler\")\n"
     "        if len(kept) < h.n:\n"
     "            h = _periodic.induced(h, kept)[0]\n"
     "        total = max(total, _ascend(h, 2)[0])\n",
     [STATIC + "test_shuffled_disjoint_unions",
      "tests/test_solver.py::TestComponentSum::test_static_disconnected_matches_reference",
      "tests/test_reference_numbers.py::TestShippedNumbers::"
      "test_cheap_instances_agree_with_the_reference"]),
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
    # a snapshot's kept lists are its closed neighbourhoods: dropping u
    # itself, the robber can no longer stay put (nor a cop at k >= 2)
    ("kept-lists-open-neighbourhoods", GRAPHS,
     "lists = self._lists = tuple(map(_bits, self._masks))",
     "lists = self._lists = tuple(_bits(m ^ 1 << u) for u, m in enumerate(self._masks))",
     ["tests/test_solver.py::TestStaticBasics::test_cycles_need_two",
      "tests/test_solver.py::TestReferenceAgreement::test_small_corpus",
      "tests/test_solver.py::TestDismantleEquivalence::test_connected_corpus",
      ORACLE]),
    # level 1 at k >= 2 reads each snapshot's own neighbour lists
    ("level-one-from-snapshot-0", SOLVER,
     "for lists in prev.nbrs:", "for lists in prev.nbrs[:1] * len(prev.nbrs):",
     ["tests/test_solver.py::TestClosedFormLevels::test_against_the_succ_driven_loop",
      "tests/test_solver.py::TestFillStop::test_level_one_closed_form", ORACLE]),
    # the move rows: a k-cop row joins its own snapshot's moves of its own
    # prefix, and a prefix's move list is made once
    ("rows-k2-prefix-from-snapshot-0", SOLVER,
     "self.rows = [_Rows(space, nbrs, nbrs if prev.rows is prev.closed else _Moves(rows))",
     "self.rows = [_Rows(space, nbrs, prev.nbrs[0] if prev.rows is prev.closed "
     "else _Moves(rows))",
     [ROWS + "test_seeded_rows", ORACLE]),
    ("rows-wrong-prefix", SOLVER,
     "moved = self._moves[prefix[ci]]", "moved = self._moves[prefix[ci - 1]]",
     [ROWS + "test_seeded_rows", ORACLE]),
    ("moves-keep-nothing", SOLVER,
     "moved = self[j] = _bits(self._rows[j])", "moved = _bits(self._rows[j])",
     [ROWS + "test_each_prefix_list_made_once"]),
    # the kept space chains: those of other n are dropped past the bound,
    # and only then, and the chain of the n being solved never is
    ("space-never-drops", SOLVER,
     "        for m in list(chains)[:-1]:\n", "        for m in []:\n",
     [SPACES + "test_chain_past_the_bound_is_freed",
      SPACES + "test_current_n_is_never_dropped"]),
    ("space-drops-current-chain", SOLVER,
     "for m in list(chains)[:-1]:", "for m in list(chains):",
     [SPACES + "test_current_n_is_never_dropped"]),
    ("space-keeps-one-n", SOLVER,
     "if total <= _KEPT_CONFIGURATIONS:", "if False:",
     [SPACES + "test_each_n_builds_each_space_once",
      SPACES + "test_chain_past_the_bound_is_freed"]),
    # the policy checker: a cop moves within its closed neighbourhood, and
    # a position's value counts the cop move made there
    ("check-cop-may-jump", CHECK,
     "if (m >> v) & 1 and (j == 0 or v != new[j - 1]):",
     "if j == 0 or v != new[j - 1]:",
     [POLICIES + "test_infeasible_policies", POLICIES + "test_matcher_agrees_with_parent"]),
    ("check-value-off-by-one", CHECK,
     "value[node] = 1 + worst", "value[node] = worst",
     [POLICIES + "test_optimal_policies", POLICIES + "test_generator_policies",
      POLICIES + "test_bag_strategies"]),
    # the layering: neither the checker, nor the bag strategy, nor the
    # package itself reads the solver (at the end of check.py and of
    # __init__.py, where the import closes no cycle)
    ("check-imports-solver", CHECK,
     "    return need <= have\n", "    return need <= have\n\n\nfrom . import solver\n",
     [LAYERING]),
    ("treewidth-imports-solver", TREEWIDTH,
     "from .check import CopPolicy", "from .solver import CopPolicy", [LAYERING]),
    ("init-imports-solver", INIT,
     "    return sorted({*globals(), *__all__, *_HOMES})\n",
     "    return sorted({*globals(), *__all__, *_HOMES})\n\n\nfrom . import solver\n",
     [LAYERING]),
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
        print("%s: its old text occurs %d times in %s, not once" % (name, count, path),
              flush=True)
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
        print("%s: %s (%.1f s)" % (name, verdict, time.monotonic() - t0), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
