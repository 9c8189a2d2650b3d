"""The benchmark's three workloads: seeded inputs, the timed loop, the checks.

Each workload stresses a different part of percop:

* ``corpus`` -- tens of thousands of tiny instances, each decided at k=1 and
  k=2 with both corner scans.  Fixed per-call cost (encoder set-up, move
  caches rebuilt per solve) dominates.  This is the traffic of the
  exhaustive scans of acceptance criteria 4 and 8.
* ``paper`` -- the paper-check pipeline (serialize, parse, triple, cop number
  with strategy, trace, corners, treewidth and the bag strategy) on the
  named constructions, the shipped witnesses and padded growth instances.
  Large solves that need ranks and strategies dominate.
* ``search`` -- the ``lem122`` reconstruction search.  Candidate generation
  and the graph layer dominate; the solver is rarely reached.

Work is fixed by the run's size, never truncated by the clock, so the op
count and solver-state total repeat exactly for a given seed and size.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

LIB_MODULES = (
    "graphs", "periodic", "corners", "solver", "treewidth",
    "constructions", "instancefile", "search",
)

# Sizes per second of --seconds, calibrated so that one run takes about that
# long on a 2-core Intel Xeon VM under Python 3.11.
CORPUS_SAMPLE_PER_S = 470
PAPER_SECONDS_PER_PASS = 3.0
SEARCH_CANDIDATES_PER_S = 1000

WITNESS_NAMES = ("thm112", "lem122", "circulant_123", "prop3_retract", "search_321")
PAD_SIZES = (12, 13, 14)
REFERENCE_CHECKS = 100


def import_library():
    """Import percop afresh, so that set-up time includes the import."""
    for name in [m for m in sys.modules if m == "percop" or m.startswith("percop.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module("percop." + m) for m in LIB_MODULES}
    )


@dataclass
class Run:
    """What one pass of the timed loop produced; op times are on the clock."""

    answers: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    outcomes: list = field(default_factory=list)

    def fail(self, op, reason):
        self.failures.setdefault(op, reason)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _instance_key(pg):
    return tuple(tuple(sorted(g.edges)) for g in pg.snapshots)


def _relabel(lib, pg, perm):
    return lib.periodic.PeriodicGraph([g.relabel(perm) for g in pg.snapshots])


# ---------------------------------------------------------------------------
# corpus


class Corpus:
    name = "corpus"

    @staticmethod
    def size(seconds):
        return {"family_max_n": 4, "sample": round(CORPUS_SAMPLE_PER_S * seconds)}

    @staticmethod
    def make_inputs(lib, seed, size, probe):
        """Every temporally connected instance with 2 <= n <= family_max_n and
        p <= 2, then a seeded sample of n=5, p in {2,3} instances whose G_0 is
        a canonical graph."""
        Graph, PeriodicGraph = lib.graphs.Graph, lib.periodic.PeriodicGraph
        connected = lib.periodic.is_temporally_connected

        def all_graphs(n):
            pairs = list(itertools.combinations(range(n), 2))
            return [
                Graph(n, [pairs[i] for i in range(len(pairs)) if (mk >> i) & 1])
                for mk in range(1 << len(pairs))
            ]

        instances = []
        for n in range(2, size["family_max_n"] + 1):
            gs = all_graphs(n)
            candidates = [PeriodicGraph([g]) for g in gs]
            candidates += [PeriodicGraph([a, b]) for a in gs for b in gs]
            instances += [pg for pg in candidates if connected(pg)]
        family = len(instances)
        gs5 = all_graphs(5)
        _pairs, reps = lib.search._canonical_graph_masks(5)
        rng = random.Random("corpus:%d" % seed)
        while len(instances) < family + size["sample"]:
            p = rng.choice((2, 3))
            snaps = [gs5[rng.choice(reps)]] + [gs5[rng.randrange(len(gs5))]
                                               for _ in range(p - 1)]
            pg = PeriodicGraph(snaps)
            if connected(pg):
                instances.append(pg)
        return SimpleNamespace(instances=instances, family=family, seed=seed)

    @staticmethod
    def inputs_digest(inputs):
        return _digest([_instance_key(pg) for pg in inputs.instances])

    @staticmethod
    def run(lib, inputs, probe):
        solver, corners, clock = lib.solver, lib.corners, probe.clock
        out = Run()
        for i, pg in enumerate(inputs.instances):
            clock.checkpoint()
            with probe.op(i):
                t0 = perf_counter()
                try:
                    w1 = solver.is_k_copwin(pg, 1).copwin
                    w2 = solver.is_k_copwin(pg, 2).copwin
                    c1 = corners.find_temporal_corners(pg)
                    c2 = corners.find_k_temporal_corners(pg, 2)
                except Exception as e:  # one failed op must not end the run
                    clock.op(t0, perf_counter())
                    out.answers.append(None)
                    out.fail(i, repr(e))
                    continue
                clock.op(t0, perf_counter())
            out.answers.append((w1, w2, len(c1), len(c2)))
            # corner necessity: k cops win only if a k-temporal corner exists
            if (w1 and not c1) or (w2 and not c2):
                out.fail(i, "copwin without a temporal corner")
            if w1 and not w2:
                out.fail(i, "1-copwin but not 2-copwin")
        return out

    @staticmethod
    def check_outside(lib, inputs, run, reference):
        """Re-decide a seeded subsample at k=2 with the naive reference solver."""
        rng = random.Random("reference:%d" % inputs.seed)
        picks = rng.sample(range(len(inputs.instances)),
                           min(REFERENCE_CHECKS, len(inputs.instances)))
        for i in sorted(picks):
            if run.answers[i] is None:
                continue
            if reference.reference_is_k_copwin(inputs.instances[i], 2) != run.answers[i][1]:
                run.fail(i, "k=2 verdict disagrees with the reference solver")
        return len(picks)


# ---------------------------------------------------------------------------
# paper


@dataclass
class PaperCase:
    name: str
    pg: object
    expected: tuple  # triple, None entries unchecked
    corner_counts: dict  # {1: count, 2: count} where a certificate records one


class Paper:
    name = "paper"

    @staticmethod
    def size(seconds):
        return {"passes": max(1, round(seconds / PAPER_SECONDS_PER_PASS)),
                "pads": PAD_SIZES}

    @staticmethod
    def make_inputs(lib, seed, size, probe):
        """Each pass relabels every base instance by a fresh seeded permutation
        and pads q3_rotation at a seeded attach vertex."""
        with probe.span("constructions.generate"):
            specimens = [gen() for gen in lib.constructions.GENERATORS.values()]
        bases = [PaperCase(s.name, s.instance, tuple(s.expected_triple), {})
                 for s in specimens]
        for name in WITNESS_NAMES:
            pg, _meta = lib.search.load_witness(name)
            cert = lib.search.load_witness_certificate(name)
            counts = {k: cert["certificates"]["corners_k%d" % k]
                      for k in (1, 2) if "corners_k%d" % k in cert["certificates"]}
            bases.append(PaperCase(name, pg, tuple(cert["triple"]), counts))
        q3 = lib.constructions.q3_rotation()
        # padding preserves the triple, so the unpadded one is the answer
        q3_triple = lib.solver.triple(q3.instance).abc
        if any(w is not None and w != g for w, g in zip(q3.expected_triple, q3_triple)):
            raise RuntimeError("q3_rotation triple %s contradicts %s"
                               % (q3_triple, q3.expected_triple))
        cases = []
        perms = []
        for pass_no in range(size["passes"]):
            rng = random.Random("paper:%d:%d" % (seed, pass_no))
            todo = list(bases)
            for n in size["pads"]:
                attach = rng.randrange(q3.instance.n)
                padded = lib.periodic.pad(q3.instance, n, attach)
                todo.append(PaperCase("pad%d@%d" % (n, attach), padded, q3_triple, {}))
            for case in todo:
                perm = list(range(case.pg.n))
                rng.shuffle(perm)
                perms.append((case.name, perm))
                cases.append(PaperCase(case.name, _relabel(lib, case.pg, perm),
                                       case.expected, case.corner_counts))
        return SimpleNamespace(cases=cases, perms=perms, seed=seed)

    @staticmethod
    def inputs_digest(inputs):
        return _digest(inputs.perms)

    @staticmethod
    def run(lib, inputs, probe):
        tw_limit = inspect.signature(lib.treewidth.exact_treewidth).parameters["limit"].default
        out = Run()
        for i, case in enumerate(inputs.cases):
            probe.clock.checkpoint()
            with probe.op(i):
                t0 = perf_counter()
                try:
                    answer, problems = Paper._pipeline(lib, case, tw_limit)
                except Exception as e:  # one failed op must not end the run
                    answer, problems = None, [repr(e)]
                probe.clock.op(t0, perf_counter())
            out.answers.append(answer)
            for problem in problems:
                out.fail(i, "%s: %s" % (case.name, problem))
        return out

    @staticmethod
    def _pipeline(lib, case, tw_limit):
        solver, corners, tw = lib.solver, lib.corners, lib.treewidth
        problems = []
        text = lib.instancefile.serialize(case.pg)
        pg, _meta = lib.instancefile.parse(text.encode())
        if pg != case.pg or lib.instancefile.serialize(pg) != text:
            problems.append("serialize/parse round trip changed the instance")
        abc = solver.triple(pg).abc
        if any(w is not None and w != g for w, g in zip(case.expected, abc)):
            problems.append("triple %s, expected %s" % (abc, case.expected))
        c, res = solver.solve_cop_number(pg)
        if c != abc[2]:
            problems.append("cop number %d but triple says %d" % (c, abc[2]))
        trace = solver.extract_trace(res)
        placement = res.initial_placement
        rank = max((res.rank_of(0, placement, r) for r in range(pg.n)
                    if r not in placement), default=0)
        if not trace["captured"] or trace["cop_moves"] > rank + 1:
            problems.append("trace took %d cop moves, rank %d" % (trace["cop_moves"], rank))
        found = {1: corners.find_temporal_corners(pg),
                 2: corners.find_k_temporal_corners(pg, 2)}
        for k, ws in found.items():
            if c <= k and not ws:
                problems.append("%d cops win without a %d-temporal corner" % (c, k))
            if k in case.corner_counts and case.corner_counts[k] != len(ws):
                problems.append("%d %d-corners, certificate says %d"
                                % (len(ws), k, case.corner_counts[k]))
        width = max_moves = None
        foot = lib.periodic.footprint(pg)
        if foot.n <= tw_limit:
            width, td = tw.exact_treewidth(foot)
            policy = tw.bag_strategy(pg, tw.smooth(td, foot))
            verdict = solver.verify_policy(pg, policy)
            max_moves = verdict.max_capture_moves
            if c > width + 1 or policy.k != width + 1 or not verdict.wins:
                problems.append("bag strategy: c=%d tw=%d cops=%d wins=%s"
                                % (c, width, policy.k, verdict.wins))
        answer = (case.name, abc, c, trace["cop_moves"], len(found[1]), len(found[2]),
                  width, max_moves)
        return answer, problems

    @staticmethod
    def check_outside(lib, inputs, run, reference):
        return 0


# ---------------------------------------------------------------------------
# search


class Search:
    name = "search"
    SPEC = "lem122"

    @staticmethod
    def size(seconds):
        return {"candidates": round(SEARCH_CANDIDATES_PER_S * seconds)}

    @staticmethod
    def spec_seed(seed, index):
        """The first search uses the workload seed; a search that finds a
        witness early is followed by one with a seed derived from it."""
        if index == 0:
            return seed
        return random.Random("search:%d:%d" % (seed, index)).getrandbits(32)

    @staticmethod
    def make_inputs(lib, seed, size, probe):
        lib.search.get_spec(Search.SPEC)  # fail in set-up if the spec is gone
        return SimpleNamespace(seed=seed, candidates=size["candidates"])

    @staticmethod
    def inputs_digest(inputs):
        return _digest((Search.SPEC, inputs.seed, inputs.candidates))

    @staticmethod
    def run(lib, inputs, probe):
        """Chain searches until exactly ``candidates`` candidates were tried.

        ``max_tries`` bounds each search and ``budget_seconds`` is out of
        reach, so the candidate count never depends on machine speed.
        """
        out = Run()
        recorded = probe.clock.ops
        remaining = inputs.candidates
        index = 0
        while remaining > 0:
            spec = lib.search.get_spec(Search.SPEC)
            spec.seed = Search.spec_seed(inputs.seed, index)
            spec.max_tries = remaining
            spec.budget_seconds = 1e12
            before = len(recorded)
            try:
                outcome = lib.search.search(spec)
            except Exception as e:  # count every candidate left as failed
                probe.end_candidate()
                for op in range(len(out.answers), len(out.answers) + remaining):
                    out.fail(op, repr(e))
                out.answers += [None] * remaining
                break
            tried = outcome.tried
            # the candidate still open is the last one tried when a witness
            # was found, and one generated past max_tries otherwise
            probe.end_candidate(keep=len(recorded) - before < tried)
            last = len(out.answers) + tried - 1
            out.answers += [None] * (tried - 1) + [(outcome.status, spec.seed, tried)]
            out.outcomes.append((spec, outcome, last))
            if outcome.status not in ("found", "budget"):
                out.fail(last, "search ended with status %s" % outcome.status)
            remaining -= tried
            index += 1
        return out

    @staticmethod
    def check_outside(lib, inputs, run, reference):
        """Re-certify every witness found, outside the timed loop."""
        checked = 0
        for spec, outcome, op in run.outcomes:
            if outcome.status != "found":
                continue
            checked += 1
            if not lib.search.certify(outcome.witness.instance, spec)["verified"]:
                run.fail(op, "found witness fails certify")
        return checked


WORKLOADS = {w.name: w for w in (Corpus, Paper, Search)}
