import gc
import hashlib
import itertools
import json
import random
import re
import sys
import threading
import time
import tracemalloc
import weakref
from collections import deque

import pytest

from percop.graphs import (
    DOMINATION_LIMIT,
    PETERSEN_EDGES,
    Graph,
    complete_graph,
    cycle_graph,
    core,
    dismantle,
    domination_number,
    hypercube_q3,
    path_graph,
    petersen_graph,
)
from percop import check, solver
from percop.census import _canonical_graph_masks
from percop.periodic import PeriodicGraph, constant, footprint, induced, pad
from percop.solver import (
    ROBBER_TO_MOVE,
    BudgetError,
    cop_number,
    cop_number_cap,
    extract_trace,
    is_k_copwin,
    solve_cop_number,
    static_cop_number,
    triple,
)
from percop.check import CopPolicy, PolicyVerification, verify_policy
from percop.constructions import GENERATORS, q3_rotation, bowtie_221, circulant_123
from percop.instancefile import dump_json
from percop.search import load_witness
from percop.treewidth import exact_treewidth
from conftest import (
    all_graphs,
    connected_instances,
    random_disjoint_union,
    random_graph,
    random_connected_graph,
    random_periodic,
    random_temporally_connected,
    shuffled_union,
)
from reference import (
    reference_cop_number,
    reference_is_k_copwin,
    reference_propagate,
    reference_ranks,
)


class TestStaticBasics:
    def test_k1_graph(self):
        assert cop_number(constant(Graph(1), 1)) == 1

    def test_trees_are_copwin(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7), 0.3)
            # prune to a spanning tree
            from percop.graphs import spanning_tree_cover

            t = spanning_tree_cover(g)[0]
            assert static_cop_number(t) == 1

    def test_cycles_need_two(self):
        for n in (4, 5, 6, 7):
            assert static_cop_number(cycle_graph(n)) == 2

    def test_petersen_is_three(self):
        assert static_cop_number(petersen_graph()) == 3

    def test_q3_is_two(self):
        assert static_cop_number(hypercube_q3()) == 2


class TestReferenceAgreement:
    def test_small_corpus(self, rng):
        """Fast solver vs the strict-rules ordered-cops reference."""
        for _ in range(60):
            n = rng.randint(2, 4)
            p = rng.randint(1, 2)
            pg = random_periodic(rng, n, p, 0.45)
            for k in (1, 2):
                got = is_k_copwin(pg, k).copwin
                want = reference_is_k_copwin(pg, k)
                assert got == want, (pg.snapshots, k)

    def test_five_vertex_spot_checks(self, rng):
        for _ in range(10):
            pg = random_periodic(rng, 5, 2, 0.4)
            for k in (1, 2):
                assert is_k_copwin(pg, k).copwin == reference_is_k_copwin(pg, k)


class TestRankOracle:
    """Every state's win bit and rank, the best cop move from each state won
    with the cops to move, and the placement, against value iteration."""

    @staticmethod
    def check(pg, k):
        ranks, placement = reference_ranks(pg, k)
        res = is_k_copwin(pg, k)
        assert res.state_count() == len(ranks)
        for (t, c, r, side), want in ranks.items():
            assert res.rank_of(t, c, r, side) == want, (t, c, r, side)
            assert res.is_cop_win(t, c, r, side) == (want is not None)
            if side == 0 and want is not None:
                # the least (robber-to-move rank, configuration) over the
                # feasible moves into a won robber state
                nbrs = [pg.snapshots[t].closed_nbrs(v) for v in c]
                moves = {tuple(sorted(m)) for m in itertools.product(*nbrs)}
                best = min((ranks[(t, m, r, 1)], m) for m in moves
                           if ranks[(t, m, r, 1)] is not None)
                assert res.optimal_cop_move(t, c, r) == best[1], (t, c, r)
        assert res.win_count() == sum(v is not None for v in ranks.values())
        assert res.initial_placement == placement
        assert res.copwin == (placement is not None)

    def test_seeded_corpus(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            pg = random_periodic(rng, n, rng.randint(1, 3), rng.choice((0.3, 0.5, 0.7)))
            for k in (1, 2):
                self.check(pg, k)

    def test_three_cops(self, rng):
        # a 3-cop move row is built from 2-cop rows, which are built from
        # the closed neighbourhoods: two joins
        built = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            pg = random_periodic(rng, n, rng.randint(1, 2), rng.choice((0.3, 0.5, 0.7)))
            self.check(pg, 3)
            built += any(is_k_copwin(pg, 3)._level.rows)
        assert built >= 10  # the reads reached rows on that many instances

    @pytest.mark.parametrize("extra", [0, 1])
    def test_a_cop_on_every_vertex(self, rng, extra):
        # with k >= n cops some placement covers every vertex: it fills at
        # level 0, where the decision pass stops
        for _ in range(8):
            n = rng.randint(1, 4)
            pg = random_periodic(rng, n, rng.randint(1, 3), rng.choice((0.3, 0.6)))
            assert is_k_copwin(pg, n + extra)._run.first[0] == 0
            self.check(pg, n + extra)

    @pytest.mark.parametrize("name", ["diagonal_222", "lem122", "prop3_retract"])
    def test_at_cop_number(self, name):
        if name in GENERATORS:
            pg = GENERATORS[name]().instance
        else:
            pg, _meta = load_witness(name)
        self.check(pg, cop_number(pg))


class TestDismantleEquivalence:
    def test_connected_corpus(self, rng):
        for _ in range(80):
            g = random_connected_graph(rng, rng.randint(2, 8), 0.35)
            assert dismantle(g) == (static_cop_number(g) == 1)

    def test_up_to_ten_vertices(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(9, 10), 0.3)
            assert dismantle(g) == (static_cop_number(g) == 1)
        assert not dismantle(petersen_graph())


def class_graphs(max_n):
    """One graph per isomorphism class on 1..max_n vertices, by least mask."""
    for n in range(1, max_n + 1):
        pairs, reps = _canonical_graph_masks(n)
        for mask in reps:
            yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def petersen_plus(rng, extra):
    """Petersen with ``extra`` added vertices, relabelled at random.  Each new
    vertex is joined either to some earlier v and part of N(v), so that v
    dominates it when it is added, or to a random set of earlier vertices."""
    nbrs = {u: {u} for u in range(10)}
    for u, v in PETERSEN_EDGES:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for x in range(10, 10 + extra):
        v = rng.randrange(x)
        if rng.random() < 0.5:
            joined = {v} | {w for w in nbrs[v] if rng.random() < 0.5}
        else:
            joined = {w for w in range(x) if rng.random() < 0.3} or {v}
        nbrs[x] = joined | {x}
        for w in joined:
            nbrs[w].add(x)
    n = 10 + extra
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(u, v) for u in nbrs for v in nbrs[u] if u < v]).relabel(perm)


class TestStaticCore:
    """static_cop_number ascends past k = 1 on each component's core; it must
    give the whole-graph ascent's number."""

    @staticmethod
    def check(g):
        want = cop_number(constant(g, 1))
        assert static_cop_number(g) == want, g.sorted_edges()
        return want

    def test_every_class_to_six_vertices(self):
        graphs = list(class_graphs(6))
        assert len(graphs) == 208
        for g in graphs:
            self.check(g)

    def test_petersen_with_added_vertices(self, rng):
        found, trimmed = set(), 0
        for _ in range(60):
            g = petersen_plus(rng, rng.randint(1, 3))
            found.add(self.check(g))
            trimmed += len(core(g)) < g.n
        assert 3 in found and trimmed >= 10

    def test_shuffled_disjoint_unions(self, rng):
        for _ in range(40):
            self.check(random_disjoint_union(rng, 9))
        for _ in range(10):
            g = shuffled_union(rng, petersen_plus(rng, 1), random_graph(rng, 4, 0.5))
            self.check(g)

    def test_core_within_budget_where_the_whole_graph_is_not(self, monkeypatch):
        # Petersen with a 10-vertex path hung at vertex 0: three cops on all
        # 20 vertices exceed the budget, three on the 10 of the core do not
        g = Graph(20, list(PETERSEN_EDGES) + [(i, i + 1) for i in range(10, 19)]
                  + [(0, 10)])
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "20000")
        assert core(g) == list(range(10))
        assert static_cop_number(g) == 3
        with pytest.raises(BudgetError):
            cop_number(constant(g, 1))

    def test_a_core_won_by_one_cop_is_a_contradiction(self, monkeypatch):
        monkeypatch.setattr(solver, "core", lambda g: [0])
        with pytest.raises(AssertionError, match="contradicts"):
            static_cop_number(cycle_graph(5))

    def test_one_cop_is_asked_once_per_component_and_never_of_a_core(self, monkeypatch, rng):
        # a component that one cop loses settles k = 1 for its core, whose
        # ascent starts at two cops
        calls = []
        inner = solver.is_k_copwin
        monkeypatch.setattr(solver, "is_k_copwin",
                            lambda pg, k: calls.append((pg, k)) or inner(pg, k))

        def asked(g):
            calls.clear()
            c = static_cop_number(g)
            return c, [(pg.n, k) for pg, k in calls]

        pendant = Graph(11, list(PETERSEN_EDGES) + [(3, 10)])
        assert asked(pendant) == (3, [(11, 1), (10, 2), (10, 3)])
        assert asked(cycle_graph(5)) == (2, [(5, 1), (5, 2)])
        for _ in range(10):
            g = shuffled_union(rng, petersen_plus(rng, 1), random_graph(rng, 4, 0.5))
            c = asked(g)[0]
            comps = [induced(constant(g, 1), comp)[0].snapshots[0]
                     for comp in g.components()]
            assert [pg.snapshots[0] for pg, k in calls if k == 1] == comps
            ks = [k for _pg, k in calls]
            assert all(k == 1 or k == prev + 1 for prev, k in zip([0] + ks, ks)), ks
            assert c == cop_number(constant(g, 1))


class TestMonotonicityAndBounds:
    def test_k_monotone(self, rng):
        for _ in range(25):
            pg = random_periodic(rng, rng.randint(2, 5), rng.randint(1, 3))
            r1 = is_k_copwin(pg, 1).copwin
            r2 = is_k_copwin(pg, 2).copwin
            if r1:
                assert r2

    def test_domination_cap(self, rng):
        for _ in range(25):
            pg = random_temporally_connected(rng, rng.randint(2, 6), rng.randint(1, 3))
            c = cop_number(pg)
            assert c <= domination_number(pg.snapshots[0])

    def test_dominating_placement_always_wins(self, rng):
        for _ in range(15):
            pg = random_temporally_connected(rng, rng.randint(2, 6), 2)
            k = domination_number(pg.snapshots[0])
            assert is_k_copwin(pg, k).copwin

    def test_treewidth_bound_spot(self, rng):
        for _ in range(10):
            pg = random_temporally_connected(rng, rng.randint(3, 7), 2)
            w, _td = exact_treewidth(footprint(pg))
            assert cop_number(pg) <= w + 1


class TestSolveResult:
    def test_determinism(self):
        pg = q3_rotation().instance
        a = is_k_copwin(pg, 3)
        b = is_k_copwin(pg, 3)
        assert a.initial_placement == b.initial_placement
        assert a.win_count() == b.win_count()

    def test_rank_decreases_along_optimal_play(self):
        pg = bowtie_221().instance
        k, res = solve_cop_number(pg)
        assert k == 1
        trace = extract_trace(res)
        assert trace["captured"]
        start = res.rank_of(0, res.initial_placement, trace["initial_robber"])
        assert trace["cop_moves"] <= start

    def test_max_cops_cuts_the_ascent_short(self):
        pg = q3_rotation().instance
        assert solve_cop_number(pg, max_cops=2) == (None, None)
        k, res = solve_cop_number(pg, max_cops=3)
        assert k == 3 and res.copwin

    @pytest.mark.parametrize("max_cops", [0, -3])
    def test_max_cops_below_one_rejected(self, max_cops):
        with pytest.raises(ValueError, match="max_cops must be >= 1: %d" % max_cops):
            solve_cop_number(bowtie_221().instance, max_cops=max_cops)

    @pytest.mark.parametrize("max_cops", [2.5, "2", True])
    def test_max_cops_must_be_an_int(self, max_cops):
        with pytest.raises(ValueError, match="max_cops must be >= 1: %r" % (max_cops,)):
            solve_cop_number(q3_rotation().instance, max_cops=max_cops)

    def test_max_cops_none_means_no_cap(self):
        pg = q3_rotation().instance
        k, res = solve_cop_number(pg, max_cops=None)
        assert k == 3 and res.copwin and res.initial_placement == (0, 0, 4)

    def test_ascent_matches_single_solves(self):
        pg = q3_rotation().instance
        k, res = solve_cop_number(pg)
        alone = is_k_copwin(pg, k)
        assert res.initial_placement == alone.initial_placement
        assert res.win_count() == alone.win_count()
        assert extract_trace(res) == extract_trace(alone)

    def test_ranks_beyond_one_byte(self):
        # the only edge appears in the last of 300 layers: the cop waits
        pg = PeriodicGraph([Graph(2)] * 299 + [Graph(2, [(0, 1)])])
        res = is_k_copwin(pg, 1)
        assert res.initial_placement == (0,)
        for t in range(300):
            assert res.rank_of(t, (0,), 1) == 300 - t

    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    @pytest.mark.parametrize("call", [
        lambda pg: is_k_copwin(pg, 1), solve_cop_number, cop_number, cop_number_cap,
        triple,
    ], ids=["is_k_copwin", "solve_cop_number", "cop_number", "cop_number_cap", "triple"])
    def test_what_is_no_periodic_graph_is_refused(self, call, bad):
        # each of these once ended in an AttributeError on its first read of pg
        with pytest.raises(ValueError, match=r"^pg must be a PeriodicGraph: %s$"
                           % re.escape(repr(bad))):
            call(bad)

    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    def test_what_is_no_result_has_no_trace(self, bad):
        with pytest.raises(ValueError, match=r"^result must be a SolveResult: %s$"
                           % re.escape(repr(bad))):
            extract_trace(bad)

    @pytest.mark.parametrize("bad", [None, 1.5, "x", True, [1], (1, 2)])
    def test_verify_policy_refuses_what_is_no_graph_or_policy(self, bad):
        res = is_k_copwin(bowtie_221().instance, 1)
        with pytest.raises(ValueError, match=r"^pg must be a PeriodicGraph: %s$"
                           % re.escape(repr(bad))):
            verify_policy(bad, res.policy())
        with pytest.raises(ValueError, match=r"^policy must be a CopPolicy: %s$"
                           % re.escape(repr(bad))):
            verify_policy(res.pg, bad)

    @pytest.mark.parametrize("k", [0, -1, 2.0, "2", True])
    def test_k_must_be_an_int(self, k):
        # bool is not an int here, as in find_k_temporal_corners
        with pytest.raises(ValueError, match=r"^k must be an int >= 1: %s$" % repr(k)):
            is_k_copwin(q3_rotation().instance, k)

    def test_no_winning_cop_move_from_a_lost_state(self):
        # one cop on C4 catches an adjacent robber and never the opposite one
        res = is_k_copwin(constant(cycle_graph(4), 1), 1)
        assert not res.copwin
        assert res.optimal_cop_move(0, (0,), 1) == (1,)
        with pytest.raises(ValueError, match="^no winning cop move from this state$"):
            res.optimal_cop_move(0, (0,), 2)

    @pytest.mark.parametrize("query", ["rank_of", "is_cop_win", "optimal_cop_move"])
    @pytest.mark.parametrize("cops, robber, bad", [
        ((0, 1, 2), 99, "robber"), ((0, 1, 2), 8, "robber"), ((0, 1, 2), -1, "robber"),
        ((0, 1), 6, "cops"), ((0, 1, 2, 3), 6, "cops"), ((0, 1, 99), 6, "cops"),
        ((-1, 0, 1), 6, "cops"),
    ])
    def test_queries_refuse_vertices_not_in_the_graph(self, query, cops, robber, bad):
        res = is_k_copwin(q3_rotation().instance, 3)
        want = {"robber": r"^robber must be a vertex of 0\.\.7: %d$" % robber,
                "cops": r"^cops must be 3 vertices of 0\.\.7: "}[bad]
        with pytest.raises(ValueError, match=want):
            getattr(res, query)(0, cops, robber)

    @pytest.mark.parametrize("query, name, k, t, cops, robber", [
        *[(query, "q3_rotation", 3, *args)
          for query in ("is_cop_win", "rank_of", "optimal_cop_move")
          for args in [(0, (0, 0, 4.0), 6), (0, (False, False, 4), 6), (0, ("0", 0, 4), 6),
                       (0, (0, 0, 4), 1.0), (0, (0, 0, 4), True),
                       (0.5, (0, 0, 4), 6), ("0", (0, 0, 4), 6), (True, (0, 0, 4), 6)]],
        ("extract_trace", "q3_rotation", 3, None, (0, 0, 4.0), None),
        ("extract_trace", "q3_rotation", 3, None, (False, False, 4), None),
        ("extract_trace", "q3_rotation", 3, None, ("0", 0, 4), None),
        # two cops on both vertices: no robber start is left to read a rank of
        ("extract_trace", "diagonal_111", 2, None, (0, 1.0), None),
    ])
    def test_queries_refuse_what_is_not_an_int(self, query, name, k, t, cops, robber):
        # a float or bool cop once passed the configuration lookup by
        # equality, and a float or str t or robber raised a TypeError
        res = is_k_copwin(GENERATORS[name]().instance, k)
        with pytest.raises(ValueError, match=r"^t, cops and robber must be ints: "):
            if query == "extract_trace":
                extract_trace(res, cops_start=cops)
            else:
                getattr(res, query)(t, cops, robber)

    @pytest.mark.parametrize("query", ["is_cop_win", "rank_of", "optimal_cop_move",
                                       "extract_trace"])
    @pytest.mark.parametrize("cops", [3, 2.5])
    def test_queries_refuse_cops_that_are_not_iterable(self, query, cops):
        # each once raised a bare TypeError
        res = is_k_copwin(q3_rotation().instance, 3)
        if query == "extract_trace":
            with pytest.raises(ValueError, match=r"^cops_start must be an iterable of "
                                                 r"ints: %s$" % re.escape(repr(cops))):
                extract_trace(res, cops_start=cops)
        else:
            with pytest.raises(ValueError, match=r"^cops must be an iterable of ints: "
                                                 r"%s$" % re.escape(repr(cops))):
                getattr(res, query)(0, cops, 6)

    @pytest.mark.parametrize("query", ["is_cop_win", "rank_of", "optimal_cop_move"])
    def test_queries_read_cops_from_an_iterator(self, query):
        # an iterator was read by the int check and then looked up empty
        res = is_k_copwin(q3_rotation().instance, 3)
        assert getattr(res, query)(0, iter((4, 0, 0)), 6) == getattr(res, query)(0, (0, 0, 4), 6)

    def test_policy_of_a_loser_is_refused(self):
        # it once returned a policy with no placement, which verify_policy
        # failed on with a TypeError
        res = is_k_copwin(q3_rotation().instance, 2)
        assert not res.copwin
        with pytest.raises(ValueError, match=r"^policy requires a copwin result$"):
            res.policy()

    @pytest.mark.parametrize("query", ["rank_of", "is_cop_win"])
    @pytest.mark.parametrize("side", [-1, 2, True, "0"])
    def test_queries_refuse_a_side_that_is_not_0_or_1(self, query, side):
        # -1 once read the robber region and the last rank entry, and 2 raised
        # a bare IndexError; bool is not an int here, as for k
        res = is_k_copwin(q3_rotation().instance, 3)
        with pytest.raises(ValueError, match=r"^side must be COPS_TO_MOVE \(0\) or "
                                             r"ROBBER_TO_MOVE \(1\): %s$" % re.escape(repr(side))):
            getattr(res, query)(0, (0, 0, 4), 6, side)

    @pytest.mark.parametrize("k", [3, 2])
    @pytest.mark.parametrize("start", [[], ()])
    def test_trace_refuses_an_empty_start(self, k, start):
        # an empty start is a start of the wrong size, not "none given"
        res = is_k_copwin(q3_rotation().instance, k)
        with pytest.raises(ValueError, match=r"^cops must be %d vertices of 0\.\.7: \(\)$" % k):
            extract_trace(res, cops_start=start)

    def test_trace_refuses_a_start_of_the_wrong_size(self):
        res = is_k_copwin(q3_rotation().instance, 3)
        with pytest.raises(ValueError, match=r"^cops must be 3 vertices of 0\.\.7: \(0, 1\)$"):
            extract_trace(res, cops_start=(0, 1))

    @pytest.mark.parametrize("n, k, placement", [(1, 1, (0,)), (2, 2, (0, 1))])
    def test_placement_full_at_level_zero(self, n, k, placement):
        # the cops cover every vertex, so the placement captures at once
        pg = constant(path_graph(n), 1)
        res = is_k_copwin(pg, k)
        assert res.copwin and res.initial_placement == placement
        assert [res.rank_of(0, placement, r) for r in range(n)] == [0] * n
        TestRankOracle.check(pg, k)

    def test_budget_error(self, monkeypatch):
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "100")
        pg = constant(complete_graph(10), 1)
        with pytest.raises(BudgetError):
            is_k_copwin(pg, 3)

    def test_each_budget_change_takes_effect_on_the_next_call(self, monkeypatch):
        # the budget is parsed once per raw value, and an invalid value is
        # refused on every call, never kept
        pg = constant(complete_graph(10), 1)  # 3 cops: 4,400 states
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "100")
        with pytest.raises(BudgetError) as err:
            is_k_copwin(pg, 3)
        assert err.value.budget == 100
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "1e9")
        for _ in range(2):
            with pytest.raises(ValueError, match="PERCOP_STATE_BUDGET must be "
                               "an int >= 1: '1e9'"):
                is_k_copwin(pg, 3)
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "200")
        with pytest.raises(BudgetError) as err:
            is_k_copwin(pg, 3)
        assert err.value.budget == 200
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "100")
        with pytest.raises(BudgetError) as err:
            is_k_copwin(pg, 3)
        assert err.value.budget == 100
        monkeypatch.delenv("PERCOP_STATE_BUDGET")
        assert is_k_copwin(pg, 3).copwin


def _counting_tables(monkeypatch):
    """Record a weak reference to every _MoveTables the solver builds."""
    built = []

    class Counting(solver._MoveTables):
        def __init__(self, pg):
            built.append(weakref.ref(self))
            super().__init__(pg)

    monkeypatch.setattr(solver, "_MoveTables", Counting)
    return built


def _answers(res):
    """Everything a solve reports: verdict, placement, every state's rank."""
    pg, cfgs = res.pg, res._level.cfgs
    ranks = [
        res.rank_of(t, c, r, side)
        for t in range(pg.period) for c in cfgs
        for r in range(pg.n) for side in (0, 1)
    ]
    trace = extract_trace(res) if res.copwin else None
    return res.copwin, res.initial_placement, res.win_count(), ranks, trace


class TestMoveTableSlot:
    """Repeated solves of one graph share its move tables; nothing else does."""

    def test_k1_then_k2_build_once(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        pg = q3_rotation().instance
        is_k_copwin(pg, 1)
        is_k_copwin(pg, 2)
        assert len(built) == 1

    def test_interleaved_solves_match_fresh_ones(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        pg1, pg2 = q3_rotation().instance, bowtie_221().instance
        got = []
        for pg in (pg1, pg2, pg1):
            for k in (1, 2, 3):
                got.append(_answers(is_k_copwin(pg, k)))
        # equal but distinct graphs never match the slot, so each builds anew
        fresh = []
        for pg in (pg1, pg2, pg1):
            for k in (1, 2, 3):
                fresh.append(_answers(is_k_copwin(PeriodicGraph(pg.snapshots), k)))
        assert got == fresh
        assert len(built) == 3 + 9

    def test_old_tables_freed(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        is_k_copwin(q3_rotation().instance, 2)
        is_k_copwin(bowtie_221().instance, 1)
        gc.collect()
        assert built[0]() is None and built[1]() is not None

    def test_threads_keep_their_own_tables(self, rng):
        instances = [q3_rotation().instance, random_periodic(rng, 6, 3, 0.4)]
        serial = [[_answers(is_k_copwin(pg, k)) for k in (1, 2)] for pg in instances]
        got = [[], []]

        def work(i):
            for _ in range(50):
                got[i].append([_answers(is_k_copwin(instances[i], k))
                               for k in (1, 2)])

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert got == [[serial[0]] * 50, [serial[1]] * 50]


def _spy_passes(monkeypatch):
    """Record the kind of every _propagate call, with the run it returns:
    "decide" for the decision pass, "finish" for a result's one whole pass
    from level 0 to the fixpoint."""
    passes = []
    inner = solver._propagate

    def spy(pg, lv, decide):
        out = inner(pg, lv, decide)
        passes.append(("decide" if decide else "finish", out))
        return out

    monkeypatch.setattr(solver, "_propagate", spy)
    return passes


def _kinds(passes):
    return [kind for kind, _out in passes]


def _region_bits(region):
    return sum(m.bit_count() for masks in region for m in masks)


def _reference_propagate(pg, k, ranked):
    """reference_propagate with its regions in the solver's layout.  The
    reference keeps one robber-vertex mask per key t * nc + ci; the solver
    keeps one configuration set per t * n + r, bit ci for configuration ci."""
    cw, rw, rank, first = reference_propagate(pg, k, ranked)
    n, nc = pg.n, len(cw) // pg.period

    def transpose(masks):
        out = [0] * (pg.period * n)
        for key, m in enumerate(masks):
            t, ci = divmod(key, nc)
            for r in range(n):
                if (m >> r) & 1:
                    out[t * n + r] |= 1 << ci
        return out

    return transpose(cw), transpose(rw), rank, first


class TestLazyRanks:
    """The decision pass writes no rank and stops at the first filled
    layer-0 configuration; a result reads ranks from the levels it kept,
    regrouped once, and only a read those levels cannot settle runs one
    whole pass from level 0, once, on the result's own tables."""

    def test_verdict_reads_build_no_ranks(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        res = is_k_copwin(q3_rotation().instance, 3)
        assert res.copwin and res.initial_placement == (0, 0, 4)
        assert res.state_count() == 3 * 120 * 8 * 2
        assert res._run.levels is None and _kinds(passes) == ["decide"]

    @pytest.mark.parametrize("first", ["rank_of", "optimal_cop_move"])
    def test_first_read_builds_once(self, monkeypatch, first):
        passes = _spy_passes(monkeypatch)
        res = is_k_copwin(bowtie_221().instance, 1)
        cops = res.initial_placement
        robber = next(r for r in range(res.pg.n) if r not in cops)
        if first == "rank_of":
            res.rank_of(0, cops, robber)
        else:
            res.optimal_cop_move(0, cops, robber)
        # the decision's levels settle the placement: nothing runs further
        assert _kinds(passes) == ["decide"]
        run = res._run
        extract_trace(res)
        built = run.levels  # regrouped once, emptying the kept levels
        assert built is not None and run.history == []
        verify_policy(res.pg, res.policy())
        res.rank_of(0, cops, robber, ROBBER_TO_MOVE)
        assert _kinds(passes) == ["decide"]
        assert res._run is run and run.levels is built

    def test_rank_pass_reaches_the_same_fixpoint(self, rng, monkeypatch):
        # a result's finishing pass ends where the reference's does, with
        # the decision's placement
        passes = _spy_passes(monkeypatch)
        for _ in range(20):
            pg = random_periodic(rng, rng.randint(1, 5), rng.randint(1, 3), 0.4)
            for k in (1, 2):
                res = is_k_copwin(pg, k)
                decided = res._run
                res.win_count()
                cw, rw, _rank, first = _reference_propagate(pg, k, True)
                assert res._run.won == (cw, rw) and res._run.first == first
                assert _kinds(passes)[-1] == ("decide" if decided.done else "finish")
                placement = res._level.cfgs[first[1]] if first else None
                assert placement == res.initial_placement

    def test_rank_pass_leaves_the_table_slot(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        pg1, pg2 = q3_rotation().instance, bowtie_221().instance
        res = is_k_copwin(pg1, 3)
        is_k_copwin(pg2, 1)
        slot = solver._LAST.tables
        trace = extract_trace(res)
        res.win_count()  # runs pg1's induction from level 0 to its fixpoint
        # reading pg1's ranks neither evicted pg2's tables nor rebuilt pg1's
        assert res._run.done
        assert solver._LAST.tables is slot and len(built) == 2
        assert trace == extract_trace(is_k_copwin(pg1, 3))

    @pytest.mark.parametrize("first", ["rank_of", "win_count"])
    def test_threads_share_one_result(self, rng, monkeypatch, first):
        passes = _spy_passes(monkeypatch)
        spy = solver._propagate

        def stalled(*args):
            time.sleep(0.05)  # hold each pass open, so every thread reaches it
            return spy(*args)

        monkeypatch.setattr(solver, "_propagate", stalled)
        pg = random_periodic(rng, 6, 3, 0.4)
        serial = _answers(is_k_copwin(PeriodicGraph(pg.snapshots), 2))
        shared = is_k_copwin(pg, 2)
        assert shared.copwin and not shared._run.done and shared._run.levels is None
        passes.clear()
        got = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def work(i):
            start.wait()
            if first == "win_count":
                shared.win_count()
            got[i] = _answers(shared)  # its first read is a rank_of

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert got == [serial] * 4
        assert _kinds(passes) == ["finish"]

    def test_winner_holds_no_region(self, monkeypatch):
        # a winner holds the decision's region and levels, but no ranks:
        # robber levels from 2 only, one entry per state they add, and none
        # of level L, whose fill test ends the pass before its robber sweep
        passes = _spy_passes(monkeypatch)
        res = is_k_copwin(q3_rotation().instance, 3)
        assert res.copwin and res.initial_placement == (0, 0, 4)
        assert res.state_count() == 3 * 120 * 8 * 2
        run = res._run
        assert run.levels is None and not run.done
        assert run.level == run.first[0] == 3
        assert len(run.history) == run.level - 2
        assert sum(len(drw) for drw in run.history) <= _region_bits(run.won)
        assert _kinds(passes) == ["decide"]

    @pytest.mark.parametrize("first", ["win_count", "is_cop_win"])
    def test_first_region_read_settles_once(self, monkeypatch, first):
        passes = _spy_passes(monkeypatch)
        res = is_k_copwin(q3_rotation().instance, 3)
        decided = res._run
        if first == "win_count":
            res.win_count()
            assert _kinds(passes) == ["decide", "finish"]
            assert res._run.won != decided.won and res._run.done
        else:
            # the decision's levels settle a placement state
            assert res.is_cop_win(0, (0, 0, 4), 6)
            assert _kinds(passes) == ["decide"] and res._run is decided
        count = res.win_count()
        settled = res._run
        assert res.is_cop_win(0, (0, 0, 4), 6)
        assert res.rank_of(0, (0, 0, 4), 6) is not None
        extract_trace(res)
        res.optimal_cop_move(0, (0, 0, 4), 6)
        verify_policy(res.pg, res.policy())
        assert res.win_count() == count == _region_bits(settled.won)
        assert res._run is settled
        assert _kinds(passes) == ["decide", "finish"]

    def test_first_rank_read_settles_the_region(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        res = is_k_copwin(bowtie_221().instance, 1)
        decided = res._run
        assert res.rank_of(0, res.initial_placement, 0) is not None
        assert _kinds(passes) == ["decide"] and res._run is decided
        res.win_count()
        assert _kinds(passes) == ["decide", "finish"]
        assert res._run.won == _reference_propagate(res.pg, 1, True)[:2]
        res.win_count()
        res.rank_of(0, res.initial_placement, 0)
        assert _kinds(passes) == ["decide", "finish"]

    def test_loser_keeps_its_region(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        pg = q3_rotation().instance
        res = is_k_copwin(pg, 2)
        assert not res.copwin and res.initial_placement is None
        assert res._run.done
        count = res.win_count()
        assert not res.is_cop_win(0, (0, 1), 6)
        assert _kinds(passes) == ["decide"] and res._run.levels is None
        full = _reference_propagate(pg, 2, True)
        assert res._run.won == full[:2] and full[3] is None
        assert count == _region_bits(full[:2])

    def test_early_stop_matches_the_full_pass(self, rng):
        early = 0
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 rng.choice((0.3, 0.5, 0.7)))
            for k in (1, 2, 3):
                res = is_k_copwin(pg, k)
                cw, rw, _rank, first = _reference_propagate(pg, k, True)
                assert res.copwin == (first is not None)
                assert res.initial_placement == (res._level.cfgs[first[1]] if first else None)
                assert res._run.first == first
                early += res._run.won != (cw, rw)
                res.win_count()
                assert res._run.won == (cw, rw)
        assert early >= 40  # the stop cut many passes short


def _implied(res):
    """Whether res is an implied result not yet decided."""
    return "_run" not in vars(res)


class TestImpliedResults:
    """Once k - 1 cops have won on a graph, is_k_copwin(pg, k) returns a
    result that holds the verdict alone, and decides the rest, once, on
    the first read that needs it; its answers are a fresh decision's."""

    @staticmethod
    def check(pg, k):
        """Ask k - 1 and then k cops of a copy of pg; where k - 1 win,
        compare the implied k-cop result with a fresh decision on another
        copy, state by state.  Returns whether k - 1 cops won."""
        pg = PeriodicGraph(pg.snapshots)
        if not is_k_copwin(pg, k - 1).copwin:
            return False
        res = is_k_copwin(pg, k)
        fresh = is_k_copwin(PeriodicGraph(pg.snapshots), k)
        assert _implied(res) and res.copwin and fresh.copwin
        assert res.state_count() == fresh.state_count() and _implied(res)
        assert res.initial_placement == fresh.initial_placement
        for t in range(pg.period):
            for c in fresh._level.cfgs:
                for r in range(pg.n):
                    for side in (0, 1):
                        rank = fresh.rank_of(t, c, r, side)
                        assert res.rank_of(t, c, r, side) == rank, (t, c, r, side)
                        assert res.is_cop_win(t, c, r, side) == (rank is not None)
                    if fresh.is_cop_win(t, c, r):
                        assert res.optimal_cop_move(t, c, r) == fresh.optimal_cop_move(t, c, r)
        assert extract_trace(res) == extract_trace(fresh)
        assert res.win_count() == fresh.win_count()
        assert verify_policy(pg, res.policy()).wins
        return True

    def test_seeded_corpus(self, rng):
        won = {2: 0, 3: 0}
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3),
                                 rng.choice((0.3, 0.5, 0.7)))
            for k in won:
                won[k] += self.check(pg, k)
        assert min(won.values()) >= 20, won

    def test_small_connected_instances(self):
        # CI checks every one on at most 4 vertices
        assert sum(self.check(pg, 2) for pg in connected_instances(3)) == 62

    def test_verdict_reads_run_no_pass(self, monkeypatch):
        pg = bowtie_221().instance
        assert is_k_copwin(pg, 1).copwin
        passes = _spy_passes(monkeypatch)
        res = is_k_copwin(pg, 2)
        assert res.copwin and res.state_count() == 6 * 28 * 7 * 2
        assert is_k_copwin(pg, 2) is res
        assert _implied(res) and passes == []
        placement = res.initial_placement
        assert _kinds(passes) == ["decide"] and not _implied(res)
        assert placement == is_k_copwin(PeriodicGraph(pg.snapshots), 2).initial_placement
        passes.clear()
        extract_trace(res)
        assert passes == []

    def test_threads_share_one_decision(self, monkeypatch):
        pg = bowtie_221().instance
        assert is_k_copwin(pg, 1).copwin
        shared = is_k_copwin(pg, 2)
        serial = _answers(is_k_copwin(PeriodicGraph(pg.snapshots), 2))
        passes = _spy_passes(monkeypatch)
        spy = solver._propagate

        def stalled(*args):
            time.sleep(0.05)  # hold the pass open, so both threads reach it
            return spy(*args)

        monkeypatch.setattr(solver, "_propagate", stalled)
        got = [None] * 2
        start = threading.Barrier(2, timeout=60)

        def work(i):
            start.wait()
            got[i] = shared.initial_placement

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert got == [serial[1]] * 2 and _kinds(passes) == ["decide"]
        assert _answers(shared) == serial

    def test_no_implication_after_a_loss(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        pg = q3_rotation().instance
        assert not is_k_copwin(pg, 1).copwin
        res = is_k_copwin(pg, 2)
        assert not _implied(res) and not res.copwin
        assert _kinds(passes) == ["decide", "decide"]

    def test_no_implication_on_another_graph(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        pg = bowtie_221().instance
        assert is_k_copwin(pg, 1).copwin
        res = is_k_copwin(PeriodicGraph(pg.snapshots), 2)
        assert not _implied(res) and res.copwin
        assert _kinds(passes) == ["decide", "decide"]

    def test_implied_result_checks_the_budget(self, monkeypatch):
        pg = bowtie_221().instance
        assert is_k_copwin(pg, 1).copwin
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "100")
        with pytest.raises(BudgetError):
            is_k_copwin(pg, 2)


def _wait_for_the_edge(p):
    """p layers on two vertices whose only edge is in the last: one cop on 0
    waits for it, so the rank at layer t is p - t."""
    return PeriodicGraph([Graph(2)] * (p - 1) + [Graph(2, [(0, 1)])])


class TestKeptLevels:
    """Ranks come from the levels the decision pass ran, in O(states) memory,
    a lookup reading the levels at which its (t, r) grew; a trace from the
    placement and a repeated decision run no level."""

    def test_three_thousand_levels(self):
        gc.collect()
        tracemalloc.start()
        try:
            pg = _wait_for_the_edge(3000)
            res = is_k_copwin(pg, 1)
            trace = extract_trace(res)
            assert [res.rank_of(t, (0,), 1) for t in range(3000)] == [3000 - t for t in range(3000)]
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace["cop_moves"] == 3000
        # graph, result and trace: 1.15 MB with one rank byte a state written
        # by a second pass, and at most twice that with the kept levels
        assert held <= 2 * 1.15 * 2**20
        # that second pass traced in 0.86 s under tracemalloc, and a lookup
        # that scans the levels in 10.8 s; untraced this takes about 0.03 s
        res = is_k_copwin(_wait_for_the_edge(3000), 1)
        start = time.perf_counter()
        assert extract_trace(res) == trace
        assert time.perf_counter() - start < 0.86

    def test_ranks_beyond_sixteen_bits(self):
        # 16-bit lanes would read 70000 - 65536 = 4464
        res = is_k_copwin(_wait_for_the_edge(70000), 1)
        assert res.rank_of(0, (0,), 1) == 70000
        assert res.rank_of(69999, (0,), 1) == 1

    def test_ranks_read_before_and_after_going_on(self):
        # a path on 10 vertices whose edges appear one a layer: the decision
        # ends at level 9, the fixpoint at 82, so the trace reads the
        # decision's kept levels and the finished run regroups its own
        pg = PeriodicGraph([Graph(10, [(i % 9, i % 9 + 1)]) for i in range(40)])
        res = is_k_copwin(pg, 1)
        assert res._run.level == 9
        extract_trace(res)
        ranks = [res.rank_of(t, c, r, side) or 0 for t in range(40)
                 for c in res._level.cfgs for r in range(10) for side in (0, 1)]
        run = res._run
        assert run.level == 82
        assert (*run.won, ranks, run.first) == _reference_propagate(pg, 1, True)

    def test_cop_move_beyond_the_decision(self, monkeypatch):
        # bowtie_221's decision ends at level 5; from a state first won at
        # level 7 no move reaches a robber state won by then, so the best
        # move runs the finishing pass, once, and drops the rank by one
        pg = bowtie_221().instance
        full = is_k_copwin(PeriodicGraph(pg.snapshots), 1)
        assert full.win_count() and full.rank_of(1, (5,), 0) == 7
        res = is_k_copwin(pg, 1)
        assert res._run.level == 5
        passes = _spy_passes(monkeypatch)
        move = res.optimal_cop_move(1, (5,), 0)
        assert _kinds(passes) == ["finish"] and res._run.done
        assert move == full.optimal_cop_move(1, (5,), 0)
        assert res.rank_of(1, move, 0, ROBBER_TO_MOVE) == 6

    @pytest.mark.parametrize("name", sorted(GENERATORS) + ["circulant_123", "lem122",
                                                           "prop3_retract", "search_321",
                                                           "thm112"])
    def test_trace_from_the_placement_runs_no_further_level(self, monkeypatch, name):
        passes = _spy_passes(monkeypatch)
        pg = GENERATORS[name]().instance if name in GENERATORS else load_witness(name)[0]
        k, res = solve_cop_number(pg)
        decided = res._run
        trace = extract_trace(res)
        assert verify_policy(pg, res.policy()).wins
        placement = res.initial_placement
        worst = max((res.rank_of(0, placement, r) for r in range(pg.n) if r not in placement),
                    default=0)
        assert trace["cop_moves"] <= worst == decided.first[0]
        assert _kinds(passes) == ["decide"] * k and res._run is decided

    def test_random_traces_run_no_further_level(self, rng, monkeypatch):
        passes = _spy_passes(monkeypatch)
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(2, 7), rng.randint(1, 4), 0.5)
            res = is_k_copwin(pg, 2)
            if res.copwin:
                passes.clear()
                extract_trace(res)
                verify_policy(pg, res.policy())
                assert passes == []

    def test_repeated_decision_runs_no_level(self, monkeypatch):
        passes = _spy_passes(monkeypatch)
        pg = q3_rotation().instance
        ascent = [is_k_copwin(pg, k) for k in (1, 2, 3)]
        assert _kinds(passes) == ["decide"] * 3
        assert all(is_k_copwin(pg, k) is ascent[k - 1] for k in (3, 1, 2))
        assert solve_cop_number(pg) == (3, ascent[2])
        assert _kinds(passes) == ["decide"] * 3
        # the budget is checked before the kept result is returned
        monkeypatch.setenv("PERCOP_STATE_BUDGET", "100")
        with pytest.raises(BudgetError):
            is_k_copwin(pg, 3)

    def test_second_ascent_costs_nothing(self, monkeypatch):
        # triple's ascent is the last the thread ran, so the pipeline's
        # solve_cop_number and trace that follow run no level
        passes = _spy_passes(monkeypatch)
        pg = bowtie_221().instance
        triple(pg)
        passes.clear()
        _k, res = solve_cop_number(pg)
        extract_trace(res)
        assert passes == []


def _spy_relations(monkeypatch):
    """Record (k, the snapshot's rows, ci) for every move row the solver
    builds."""
    built = []
    inner = solver._Rows._build

    def spy(rows, ci):
        built.append((len(rows._space.cfgs[0]), id(rows), ci))
        return inner(rows, ci)

    monkeypatch.setattr(solver._Rows, "_build", spy)
    return built


def _built_once(built):
    """The k of the rows built, once each is known to be built only once."""
    assert len(set(built)) == len(built)
    return sorted({k for k, _rows, _ci in built})


class TestClosedFormLevels:
    """Levels 0 and 1 come in closed form; a k-cop move row is built when a
    pass first reaches level 2 or a cop move is read, once per graph."""

    def test_against_the_succ_driven_loop(self, rng):
        for _ in range(60):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 rng.choice((0.2, 0.5, 0.8)))
            for k in (1, 2, 3):
                tables = solver._move_tables(pg)
                lv = tables.level(k)
                decided = solver._propagate(pg, lv, True)
                assert (*decided.won, None, decided.first) == _reference_propagate(pg, k, False)
                full = solver._propagate(pg, lv, False)
                res = is_k_copwin(pg, k)
                # every rank, in the reference's layout, and both regions
                ranks = [res.rank_of(t, c, r, side) or 0
                         for t in range(pg.period) for c in lv.cfgs
                         for r in range(pg.n) for side in (0, 1)]
                want = _reference_propagate(pg, k, True)
                assert (*res._run.won, ranks, res._run.first) == want
                assert full.won == want[:2] and full.first == want[3] and full.done

    @pytest.mark.parametrize("name, k", [("diagonal_222", 2), ("lem122", 2),
                                         ("diagonal_333", 3)])
    def test_early_fill_builds_no_relation(self, monkeypatch, name, k):
        built = _spy_relations(monkeypatch)
        passes = _spy_passes(monkeypatch)
        pg = GENERATORS[name]().instance if name in GENERATORS else load_witness(name)[0]
        res = is_k_copwin(pg, k)
        assert res.copwin and passes[-1][1].first[0] == 1 and built == []
        res.win_count()  # the finishing pass reaches level 2 and builds rows of 2 to k
        assert _built_once(built) == list(range(2, k + 1))
        extract_trace(res)
        verify_policy(pg, res.policy())
        extract_trace(is_k_copwin(pg, k))
        assert _built_once(built) == list(range(2, k + 1))

    def test_random_early_fills_build_nothing(self, rng, monkeypatch):
        built = _spy_relations(monkeypatch)
        passes = _spy_passes(monkeypatch)
        early = 0
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3), 0.6)
            for k in (2, 3):
                built.clear()
                is_k_copwin(pg, k)
                first = passes[-1][1].first
                if first is not None and first[0] <= 1:
                    early += 1
                    assert built == []
        assert early >= 20

    def test_cop_move_builds_what_the_rank_pass_did_not(self, monkeypatch):
        built = _spy_relations(monkeypatch)
        pg = GENERATORS["diagonal_333"]().instance
        res = is_k_copwin(pg, 2)
        robber = pg.snapshots[0].closed_nbrs(0)[1]
        # a loser whose pass reached its fixpoint at level 1
        assert not res.copwin and res.rank_of(0, (0, 0), robber) == 1
        assert built == []
        # the one row read, of the configuration (0, 0), index 0
        assert robber in res.optimal_cop_move(0, (0, 0), robber)
        assert [(k, ci) for k, _rows, ci in built] == [(2, 0)]
        res.optimal_cop_move(0, (0, 0), robber)
        assert [(k, ci) for k, _rows, ci in built] == [(2, 0)]

    def test_threads_build_the_relation_once(self, monkeypatch):
        built = _spy_relations(monkeypatch)
        spy = solver._Rows._build

        def stalled(rows, ci):
            time.sleep(0.05)  # hold the build open, so every thread reaches it
            return spy(rows, ci)

        monkeypatch.setattr(solver._Rows, "_build", stalled)
        pg = GENERATORS["diagonal_333"]().instance
        res = is_k_copwin(pg, 2)
        robber = pg.snapshots[0].closed_nbrs(0)[1]
        res.rank_of(0, (0, 0), robber)  # a rank read that reads no relation
        got = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def work(i):
            start.wait()
            got[i] = res.optimal_cop_move(0, (0, 0), robber)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert len(set(got)) == 1 and robber in got[0]
        assert [(k, ci) for k, _rows, ci in built] == [(2, 0)]

    def test_ascent_builds_each_level_once(self, monkeypatch):
        built = _spy_relations(monkeypatch)
        pg = q3_rotation().instance
        for _ in range(2):
            for k in (1, 2, 3):
                res = is_k_copwin(pg, k)
                res.win_count()
            extract_trace(res)
            verify_policy(pg, res.policy())
        # k = 1 moves are the neighbourhoods themselves, never built
        assert _built_once(built) == [2, 3]

    def test_dropped_result_and_slot_free_the_tables(self):
        gc.collect()
        gc.disable()
        try:
            res = is_k_copwin(q3_rotation().instance, 3)
            extract_trace(res)  # reads level-3 move rows
            tables = weakref.ref(solver._LAST.tables)
            levels = [weakref.ref(lv) for lv in solver._LAST.tables.levels[1:]]
            rows = [weakref.ref(r) for lv in solver._LAST.tables.levels[2:] for r in lv.rows]
            assert any(res._level.rows)
            del res
            solver._LAST.tables = None
            # reference counting alone frees them: nothing is a cycle
            assert tables() is None and all(ref() is None for ref in levels + rows)
        finally:
            gc.enable()


class TestMoveRows:
    """Each k-cop move row against its definition, the sorted multisets in
    the product of the cops' closed neighbourhoods in the snapshot, however
    the rows are read; a k-cop row reads its prefix's (k-1)-cop moves from a
    list made once per prefix."""

    @staticmethod
    def check(pg, k, rng):
        """Read every k-cop row of a fresh copy of pg in a shuffled order and
        compare each with the definition."""
        fresh = PeriodicGraph(pg.snapshots)  # rows of its own
        lv = solver._move_tables(fresh).level(k)
        order = [(s, ci) for s in range(len(lv.rows)) for ci in range(len(lv.cfgs))]
        rng.shuffle(order)
        for s, ci in order:
            g = fresh.unique_snapshots[s]
            want = 0
            for moved in itertools.product(*map(g.closed_nbrs, lv.cfgs[ci])):
                want |= 1 << lv.index[tuple(sorted(moved))]
            assert lv.rows[s][ci] == want, (s, lv.cfgs[ci])

    def test_seeded_rows(self, rng):
        for _ in range(30):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 rng.choice((0.2, 0.5, 0.8)))
            for k in (1, 2, 3, 4):
                self.check(pg, k, rng)

    def test_each_prefix_list_made_once(self, rng, monkeypatch):
        made, calls = [], []
        inner_missing, inner_bits = solver._Moves.__missing__, solver._bits

        def spy(moves, j):
            made.append((id(moves), j))
            return inner_missing(moves, j)

        def bits(m):
            calls.append(m)
            return inner_bits(m)

        monkeypatch.setattr(solver._Moves, "__missing__", spy)
        for _ in range(12):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3), 0.5)
            tables = solver._move_tables(pg)
            for k in (2, 3, 4):
                lv = tables.level(k)
                order = [(s, ci) for s in range(len(lv.rows)) for ci in range(len(lv.cfgs))]
                rng.shuffle(order)
                made.clear()
                calls.clear()
                monkeypatch.setattr(solver, "_bits", bits)
                for s, ci in order:  # the (k-1)-cop rows were all read at k - 1
                    lv.rows[s][ci]
                monkeypatch.setattr(solver, "_bits", inner_bits)
                if k == 2:  # level 1's neighbour lists: nothing made
                    assert made == [] and calls == []
                    assert all(rows._moves is nbrs for rows, nbrs in zip(lv.rows, lv.nbrs))
                    continue
                # one list per prefix and snapshot, each made once by one _bits
                prev = tables.level(k - 1)
                assert sorted(made) == sorted((id(rows._moves), j) for rows in lv.rows
                                              for j in range(len(prev.cfgs)))
                assert len(calls) == len(made)
                for rows, prev_rows in zip(lv.rows, prev.rows):
                    assert all(rows._moves[j] == inner_bits(prev_rows[j])
                               for j in range(len(prev.cfgs)))


def _set_bits(m):
    return [i for i in range(m.bit_length()) if (m >> i) & 1]


class TestFillStop:
    """The decision pass returns at the fill test of its level L, before
    that level's robber sweep: it holds the cops-to-move states of rank <= L
    and the robber-to-move states of rank <= L - 1, and play from the
    placement reads no other.  Level 1 comes in closed form from each
    snapshot's kept neighbour lists."""

    @staticmethod
    def check(pg, k):
        """The decision's region, level, placement and kept robber lists
        against the ranked reference_propagate."""
        cw, rw, rank, first = reference_propagate(pg, k, True)
        lv = solver._move_tables(pg).level(k)
        run = solver._propagate(pg, lv, True)
        n, p, nc = pg.n, pg.period, len(lv.cfgs)
        assert run.first == first
        top = first[0] if first else None
        want = ([0] * (p * n), [0] * (p * n))
        lists = {}  # level -> the robber-to-move states first won there
        for key in range(p * nc):
            t, ci = divmod(key, nc)
            for side, region in enumerate((cw, rw)):
                for r in _set_bits(region[key]):
                    level = rank[((key * n + r) << 1) | side]
                    if top is None or level <= top - side:
                        want[side][t * n + r] |= 1 << ci
                        if side:
                            lists.setdefault(level, set()).add((t, r, ci))
        assert run.won == want
        if top is None:  # a loser reaches the fixpoint
            assert run.done and len(run.history) == run.level - 1
        else:
            assert not run.done and run.level == top
            assert len(run.history) == max(top - 2, 0)
        kept = [{(t, r, ci) for t, r, new in drw for ci in _set_bits(new)}
                for drw in run.history]
        assert kept == [lists.get(level, set()) for level in range(2, len(kept) + 2)]

    def test_seeded_region(self, rng):
        stopped = 0
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 rng.choice((0.2, 0.4, 0.6, 0.8)))
            for k in (1, 2, 3):
                self.check(pg, k)
                stopped += is_k_copwin(pg, k)._run.level >= 2
        assert stopped >= 20  # decisions that stop at level 2 or later

    def test_rank_l_robber_read_finishes_once(self, rng, monkeypatch):
        passes = _spy_passes(monkeypatch)
        read = 0
        for _ in range(60):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3),
                                 rng.choice((0.3, 0.5, 0.7)))
            for k in (1, 2):
                ranks, _placement = reference_ranks(pg, k)
                res = is_k_copwin(pg, k)
                top = res._run.first[0] if res.copwin else 0
                robber = [s for s, v in ranks.items() if s[3] == 1 and v == top]
                if top == 0 or not robber:
                    continue
                passes.clear()
                # the states the run holds read no pass
                settled = [s for s, v in ranks.items() if v is not None and v <= top - s[3]]
                assert all(res.rank_of(*s) == ranks[s] for s in settled)
                assert passes == []
                assert res.rank_of(*robber[0]) == top
                assert _kinds(passes) == ["finish"]
                assert all(res.rank_of(*s) == top for s in robber)
                assert _kinds(passes) == ["finish"]
                read += 1
        assert read >= 40

    def test_placement_play_runs_no_finishing_pass(self, rng, monkeypatch):
        passes = _spy_passes(monkeypatch)
        played = 0
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 rng.choice((0.3, 0.5, 0.7)))
            for k in (1, 2, 3):
                _ranks, placement = reference_ranks(pg, k)
                res = is_k_copwin(pg, k)
                assert res.initial_placement == placement
                if not res.copwin:
                    continue
                passes.clear()
                trace = extract_trace(res)
                verdict = verify_policy(pg, res.policy())
                assert _kinds(passes) == []
                worst = res._run.first[0]
                assert trace["cop_moves"] == verdict.max_capture_moves == worst
                # the same play as from the finished run
                full = is_k_copwin(PeriodicGraph(pg.snapshots), k)
                full.win_count()
                assert trace == extract_trace(full)
                assert verdict == verify_policy(pg, full.policy())
                played += 1
        assert played >= 80

    def test_level_one_closed_form(self, rng):
        # cw1[s][r], the configurations with a cop in N_s[r], against
        # closed_nbrs, which reads the masks and not the kept lists; the
        # snapshots include one with an isolated vertex and a complete graph
        for n in range(1, 10):
            rest = random_graph(rng, n - 1, 0.5)  # vertex n - 1 stays isolated
            pg = PeriodicGraph([random_graph(rng, n, 0.3), random_graph(rng, n, 0.6),
                                Graph(n, rest.edges), complete_graph(n)])
            tables = solver._move_tables(pg)
            for k in (1, 2, 3):
                lv = tables.level(k)
                assert len(lv.cw1) == len(pg.unique_snapshots)
                for g, cw1 in zip(pg.unique_snapshots, lv.cw1):
                    if k == 1:
                        assert cw1 == g.masks
                    want = [0] * n
                    for r in range(n):
                        for v in g.closed_nbrs(r):
                            want[r] |= lv.space.occ[v]
                    assert list(cw1) == want


def _spy_spaces(monkeypatch):
    """Clear the thread's spaces; record the (n, k) of every configuration
    space the solver builds and of every space whose joins it builds."""
    built, joined = [], []
    inner = solver._Space._join

    class Counting(solver._Space):
        def __init__(self, n, prev):
            super().__init__(n, prev)
            built.append((n, len(self.cfgs[0])))

    def spy(space):
        joined.append((space.n, len(space.cfgs[0])))
        return inner(space)

    monkeypatch.setattr(solver, "_Space", Counting)
    monkeypatch.setattr(solver._Space, "_join", spy)
    monkeypatch.setattr(solver._LAST, "spaces", None, raising=False)
    return built, joined


class TestConfigurationSpaces:
    """The configurations of each (n, k) are built once per thread and shared
    by every graph on n vertices; a graph owns only its tables and relations.
    The thread keeps a chain of spaces per n, and drops those of other n,
    least recently used first, once they hold more than
    _KEPT_CONFIGURATIONS configurations."""

    def test_each_n_builds_each_space_once(self, rng, monkeypatch):
        built, joined = _spy_spaces(monkeypatch)
        # n alternates from one graph to the next
        instances = [random_periodic(rng, n, rng.randint(1, 3), 0.5)
                     for _ in range(4) for n in (6, 3, 5)]
        for pg in instances:
            for k in (1, 2, 3):
                res = is_k_copwin(pg, k)
                res.win_count()
                res._level.rows[0][0]  # every graph builds its own rows
        assert built == [(n, k) for n in (6, 3, 5) for k in (1, 2, 3)]
        assert sorted(joined) == [(n, k) for n in (3, 5, 6) for k in (2, 3)]
        assert list(solver._LAST.spaces) == [6, 3, 5]  # least recently used first
        assert res._level.space is solver._LAST.spaces[5][2]

    def test_chain_past_the_bound_is_freed(self, monkeypatch):
        built, _joined = _spy_spaces(monkeypatch)
        # q3_rotation's chain (n = 8, k <= 3) holds 8 + 36 + 120 configurations
        # and bowtie_221's 7 at k = 1: together at the bound, not past it
        monkeypatch.setattr(solver, "_KEPT_CONFIGURATIONS", 171)
        gc.collect()
        gc.disable()
        try:
            res = is_k_copwin(q3_rotation().instance, 3)
            extract_trace(res)  # reads the joins of the 2- and 3-cop spaces
            spaces = solver._LAST.spaces[8]
            assert res._level.space is spaces[2] and len(spaces) == 3
            refs = [weakref.ref(sp) for sp in spaces]
            del res, spaces
            is_k_copwin(bowtie_221().instance, 1)  # another n, under the bound: kept
            assert all(ref() is not None for ref in refs)
            twin = is_k_copwin(q3_rotation().instance, 2)  # n = 8 again: no build
            assert all(ref() is not None for ref in refs)
            del twin
            is_k_copwin(bowtie_221().instance, 2)  # 28 more: past the bound
            # reference counting alone frees them: nothing is a cycle
            assert all(ref() is None for ref in refs)
            assert list(solver._LAST.spaces) == [7]
        finally:
            gc.enable()
        assert built == [(8, 1), (8, 2), (8, 3), (7, 1), (7, 2)]

    def test_current_n_is_never_dropped(self, monkeypatch):
        built, _joined = _spy_spaces(monkeypatch)
        monkeypatch.setattr(solver, "_KEPT_CONFIGURATIONS", 1)
        q3, bowtie = q3_rotation().instance, bowtie_221().instance
        for k in (1, 2, 3):
            # each build is past the bound, and drops no space of n = 8
            assert is_k_copwin(q3, k)._level.space is solver._LAST.spaces[8][k - 1]
        assert is_k_copwin(PeriodicGraph(q3.snapshots), 3)._level.space \
            is solver._LAST.spaces[8][2]
        assert built == [(8, 1), (8, 2), (8, 3)]
        is_k_copwin(bowtie, 1)  # the first build of n = 7 drops n = 8
        assert list(solver._LAST.spaces) == [7]
        is_k_copwin(q3, 2)  # and its next solve builds them again
        assert list(solver._LAST.spaces) == [8]
        assert built == [(8, 1), (8, 2), (8, 3), (7, 1), (8, 1), (8, 2)]

    def test_early_decisions_build_no_neighbour_lists(self, rng, monkeypatch):
        passes = _spy_passes(monkeypatch)
        early = late = 0
        for _ in range(40):
            pg = random_periodic(rng, rng.randint(2, 6), rng.randint(1, 3), 0.6)
            for k in (1, 2, 3):
                fresh = PeriodicGraph(pg.snapshots)  # tables of its own
                is_k_copwin(fresh, k)
                first = passes[-1][1].first
                one = solver._LAST.tables.levels[1]
                # k = 1 moves are the closed neighbourhoods, never built
                assert one.rows is one.closed
                rows = solver._LAST.tables.levels[k].rows
                if first is not None and first[0] <= 1:
                    early += 1
                    assert k == 1 or not any(rows)
                elif first is not None:
                    late += 1
                    assert k == 1 or any(rows)
        assert early >= 20 and late >= 5
        # a loser whose pass reached its fixpoint at level 1
        res = is_k_copwin(GENERATORS["diagonal_333"]().instance, 2)
        assert not res.copwin and not any(res._level.rows)
        robber = res.pg.snapshots[0].closed_nbrs(0)[1]
        res.optimal_cop_move(0, (0, 0), robber)
        assert list(map(len, res._level.rows)) == [1] + [0] * (len(res._level.rows) - 1)

    @pytest.mark.parametrize("period", [1, 3])
    def test_interleaved_graphs_match_a_cleared_slot(self, rng, period):
        for sizes in ((6, 6), (6, 4)):
            pair = [random_periodic(rng, n, period, 0.4) for n in sizes]
            while pair[0] == pair[1]:
                pair[1] = random_periodic(rng, sizes[1], period, 0.4)
            got, spaces = [], []
            for pg in pair + pair:
                for k in (1, 2, 3):
                    res = is_k_copwin(pg, k)
                    got.append(_answers(res))
                    spaces.append(res._level.space)
            # the second round reads the first round's spaces, of either n
            assert all(a is b for a, b in zip(spaces[6:], spaces[:6]))
            assert (spaces[1] is spaces[4]) == (sizes[0] == sizes[1])
            fresh = []
            for pg in pair + pair:
                for k in (1, 2, 3):
                    solver._LAST.tables = solver._LAST.spaces = None
                    fresh.append(_answers(is_k_copwin(pg, k)))
            assert got == fresh

    def test_threads_build_shared_joins_once(self, monkeypatch):
        pg = GENERATORS["diagonal_222"]().instance
        serial = _answers(is_k_copwin(PeriodicGraph(pg.snapshots), 2))
        _built, joined = _spy_spaces(monkeypatch)
        spy = solver._Space._join

        def stalled(space):
            time.sleep(0.05)  # hold the build open, so both graphs reach it
            return spy(space)

        monkeypatch.setattr(solver._Space, "_join", stalled)
        # equal but distinct graphs: their own levels on one shared space,
        # decided at level 1, so no relation is built yet
        shared = [is_k_copwin(PeriodicGraph(pg.snapshots), 2) for _ in range(2)]
        assert shared[0]._level is not shared[1]._level
        assert shared[0]._level.space is shared[1]._level.space and joined == []
        got = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def work(i):
            start.wait()
            got[i] = _answers(shared[i % 2])  # the rank reads reach level 2

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(th.is_alive() for th in threads)
        assert got == [serial] * 4
        assert joined == [(4, 2)]


def _pinned_digests(pg):
    """SHA-256 of a cop-number ascent's verdicts and placements, of the trace
    of its winning result, and of that result's ranks and win region.  The
    ranks are listed at ((key * n + robber) << 1) | side, key = t * nc + ci,
    0 outside the region, under the typecode of the smallest array("B", "H",
    "I") that holds them; the region is (cw, rw), by key, at the fixpoint."""
    ascent = []
    for k in itertools.count(1):
        res = is_k_copwin(pg, k)
        placement = res.initial_placement
        ascent.append([k, res.copwin, list(placement) if placement else None])
        if res.copwin:
            break
    trace = dump_json(extract_trace(res))
    rank, region = [], ([], [])
    for t in range(pg.period):
        for c in res._level.cfgs:
            masks = [0, 0]
            for r in range(pg.n):
                for side in (0, 1):
                    rank.append(res.rank_of(t, c, r, side) or 0)
                    masks[side] |= res.is_cop_win(t, c, r, side) << r
            region[0].append(masks[0])
            region[1].append(masks[1])
    top = max(rank)
    typecode = "B" if top < 256 else "H" if top < 65536 else "I"
    parts = (
        json.dumps(ascent),
        trace,
        "%s:%s|%s" % (typecode, ",".join(map(str, rank)), region),
    )
    return [hashlib.sha256(part.encode()).hexdigest() for part in parts]


# (ascent, trace, ranks and region) digests, taken before the first two
# levels of the induction were computed in closed form
PINNED = {
    "bowtie_221": [
        "cab118fc16c22aee7402ae10db26c214d411fe8176b143586929e8cb51d3f746",
        "05bbfa0f5f6da8f126c4cd31d79ead8e767e04a18c38729f9b73ba0737b122fc",
        "37a33cef785b329e0e51945b6449feb1597e9c46169b0cdc4a34ddfbe773ad26",
    ],
    "circulant_123": [
        "0b3315a7f61eafab13660d4504bcf59fec9dfc9afbc97d179fe95315d252d0c9",
        "c5f38cfc30f48f2c80648efe96054bd56f06662c54046255cddd82356d4e22a2",
        "7f4a1c969780cc900855b05f9ad8f6986fc96835430c23438ddc78bd1971d04a",
    ],
    "diagonal_111": [
        "cab118fc16c22aee7402ae10db26c214d411fe8176b143586929e8cb51d3f746",
        "d69231a29dbc7145c34255542de3b4c0761a4cd439339bc963aa2840542dfa91",
        "fd14589464a83cb0927d8539f107059e4b0c714144e5041d9d15c320c7f57466",
    ],
    "diagonal_222": [
        "18e182fbad83579428032462dd3d1361011efc799b7b5edb729032f7a180e6fc",
        "a03923fa41ba42f92d0091e7de67469dbefc083a1f56bf36b09aec9752d57436",
        "80978b7160d95c3e5cf08ad5036ecf3389ed53960f4aa2ad643523115bb5b3c5",
    ],
    "diagonal_333": [
        "ba6ba043936742e8acbbcf676d35a53dfba939774de2279bea23c4657e809ddd",
        "3149ed3074c01769ffb8e1b6b63dc42d930b0bdb41b34544442848b2d450aab2",
        "572201552ed437488d6e7b63a67e0b9a29b675fae9e4b3e97c4a73c6c6706690",
    ],
    "lem122": [
        "69ea6edc9d4e4623465482b91c8b2ea64724efd8858a55ad6ed8c35e902d429f",
        "4acadae49eeef4eacddbf6213ccdc7e2d4c07ce730bd227a5a6dd64aab13d0c4",
        "e245b4bf5ceae26890e76bf9833575d88e18841020586b8a687ddee75a7652a6",
    ],
    "petersen_132": [
        "8f8219ce8952f076d464aa4b3a643954868dfa26d13bd599f914c2394b0c99be",
        "6fb77cde31ecd51988f01452e7e037f2716a42a0551ef9751bad7d43773633c4",
        "0389c5cfe03109d68a42d97811b51e4fa470906be71f34a827e936fdc9321a56",
    ],
    "petersen_231": [
        "cab118fc16c22aee7402ae10db26c214d411fe8176b143586929e8cb51d3f746",
        "eb86b654706f6b1d8a8131e84dfe771f0303379ffa97adb1aefc300f7cbae934",
        "dd357ba33e1c237d41d4b5cb283a72dbdefe69ff6c94cd75d5360fd5887bbb3f",
    ],
    "petersen_311": [
        "cab118fc16c22aee7402ae10db26c214d411fe8176b143586929e8cb51d3f746",
        "55c6442d267102f97dfe6d88eac50e9c43d80b38ceb28e208b7fcf90c9cee164",
        "435abce3b6522895ad4be4f9c4944246c8f8fa666ab893dfca0dc63b708034dc",
    ],
    "prop3_retract": [
        "cab118fc16c22aee7402ae10db26c214d411fe8176b143586929e8cb51d3f746",
        "f909dd0671eb77829ab348efc6bd08c91c98eb67e44d25f4164c95fe2c7646fa",
        "5b5ccaf4474e030a927f6e2f6dfcb41a09e55420621f7f61d98bd052cfc274b8",
    ],
    "q3_rotation": [
        "71545284896bf19d419767d7327ed450fde2dcd4eec992ff75bd7b9d6af29b5b",
        "dc46dbf329c801007bb27bdc375a2b698438b3e6f6218142194386cab455db3a",
        "d845582ebc402742d81b56ceab0ed81ce58f307929a843463b67f81cdb3c5d93",
    ],
    "search_321": [
        "cab118fc16c22aee7402ae10db26c214d411fe8176b143586929e8cb51d3f746",
        "cf1e4fe56fa4f2e5c13d8d8c0bd66bb5acaf1eebf60fbbad9048b3809f36f4ab",
        "33c59e898171affc6ba5d5d36c0077d6b62357b871f33a6cb39ab8ba252aa978",
    ],
    "thm112": [
        "c601f38f6705c03be640db6b9f28097de1040a151cbebfd367b02eed5265efd9",
        "ef3e91a82c110158e9df9afcb32b9d320f71ca858accfab6d9255e636ffd0bb5",
        "3f09bfe1ee9416ce86c6b32fe91ab541e8bd03e930f6d439bb5e7fdf30e78062",
    ],
}


class TestPinnedOutputs:
    """The solver's answers on every generator and shipped witness, pinned."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digests(self, name):
        if name in GENERATORS:
            pg = GENERATORS[name]().instance
        else:
            pg, _meta = load_witness(name)
        assert _pinned_digests(pg) == PINNED[name]

    def test_every_instance_is_pinned(self):
        names = set(GENERATORS) | {"circulant_123", "lem122", "prop3_retract",
                                   "search_321", "thm112"}
        assert set(PINNED) == names


class TestTriple:
    def test_bowtie(self, golden_triples):
        assert golden_triples["bowtie_221"].abc == (2, 2, 1)

    def test_constant_petersen(self):
        tr = triple(constant(petersen_graph(), 2))
        assert tr.abc == (3, 3, 3)
        assert tr.min_snapshot_copnum == 3

    def test_q3_footprint_and_periodic(self, golden_triples):
        tr = golden_triples["q3_rotation"]
        assert tr.footprint_copnum == 2
        assert tr.copnum == 3


class TestExtractTrace:
    def test_q3_known_placement_captures_in_three(self):
        pg = q3_rotation().instance
        res = is_k_copwin(pg, 3)
        # cops on 000, 010, 111
        trace = extract_trace(res, cops_start=(0, 2, 7))
        assert trace["captured"]
        assert trace["cop_moves"] <= 3

    def test_circulant_known_placement(self):
        pg = circulant_123([5, 2, 3, 1, 4]).instance
        res = is_k_copwin(pg, 3)
        trace = extract_trace(res, cops_start=(0, 3, 8))
        assert trace["captured"]
        # capture on the move made in layer 4 of the first period at latest
        assert trace["cop_moves"] <= 5
        assert trace["rounds"][-1]["t"] <= 4

    def test_trace_requires_copwin(self):
        pg = constant(cycle_graph(4), 1)
        res = is_k_copwin(pg, 1)
        assert not res.copwin
        with pytest.raises(ValueError):
            extract_trace(res)

    def test_losing_placement_rejected(self):
        pg = q3_rotation().instance
        res = is_k_copwin(pg, 2)
        assert not res.copwin
        with pytest.raises(ValueError, match="does not win"):
            extract_trace(res, cops_start=(0, 1))

    def test_capture_within_rank_on_random_corpus(self, rng):
        seen = 0
        while seen < 20:
            pg = random_periodic(rng, rng.randint(2, 5), rng.randint(1, 3), 0.45)
            k, res = None, None
            for kk in (1, 2):
                r = is_k_copwin(pg, kk)
                if r.copwin:
                    k, res = kk, r
                    break
            if res is None:
                continue
            seen += 1
            trace = extract_trace(res)
            assert trace["captured"]
            if trace["initial_robber"] is not None:
                start = res.rank_of(
                    0, res.initial_placement, trace["initial_robber"]
                )
                assert trace["cop_moves"] <= start


class TestVerifyPolicy:
    def test_optimal_policy_wins(self):
        pg = bowtie_221().instance
        _k, res = solve_cop_number(pg)
        v = verify_policy(pg, res.policy())
        assert v.wins
        assert v.max_capture_moves >= 1

    def test_stationary_cop_loses_on_c4(self):
        pg = constant(cycle_graph(4), 1)
        pol = CopPolicy(
            k=1,
            initial_cops=(0,),
            step=lambda m, t, c, r: (c, m),
            initial_memory=None,
        )
        v = verify_policy(pg, pol)
        assert not v.wins
        assert v.counterexample  # a robber cycle

    def test_infeasible_policy_caught(self):
        pg = constant(path_graph(4), 1)
        pol = CopPolicy(
            k=1,
            initial_cops=(0,),
            step=lambda m, t, c, r: ((3,), m),  # teleport
            initial_memory=None,
        )
        with pytest.raises(ValueError, match="infeasible"):
            verify_policy(pg, pol)

    @pytest.mark.parametrize("start", [(0,), (0, 1, 2)])
    def test_initial_placement_of_the_wrong_size(self, start):
        pol = CopPolicy(k=2, initial_cops=start, step=lambda m, t, c, r: (c, m))
        with pytest.raises(ValueError, match="^policy initial placement has wrong size$"):
            verify_policy(constant(path_graph(3), 2), pol)

    @pytest.mark.parametrize("cop", [99, 3, -1, 1.0, True, None])
    def test_initial_cop_must_be_a_vertex(self, cop):
        # 99 once raised a bare IndexError, -1 "negative shift count", 1.0 a
        # TypeError, and True was accepted and reported as a cop
        pol = CopPolicy(k=1, initial_cops=(cop,), step=lambda m, t, c, r: (c, m))
        with pytest.raises(ValueError, match=r"^policy initial placement: cop %s is not "
                                             r"a vertex of 0\.\.2$" % re.escape(repr(cop))):
            verify_policy(constant(path_graph(3), 2), pol)

    @pytest.mark.parametrize("cops", [3, None])
    def test_cops_must_be_iterable(self, cops):
        # both once raised a bare TypeError; CopPolicy refuses them, so they
        # reach verify_policy only when set after construction
        pol = CopPolicy(k=1, initial_cops=(0,), step=lambda m, t, c, r: (c, m))
        pol.initial_cops = cops
        with pytest.raises(ValueError, match=r"^policy initial placement is not an iterable "
                                             r"of vertices: %s$" % re.escape(repr(cops))):
            verify_policy(constant(path_graph(3), 2), pol)
        pol = CopPolicy(k=2, initial_cops=(1, 0), step=lambda m, t, c, r: (cops, m))
        with pytest.raises(ValueError, match=r"^policy move at t=0 cops=\[0, 1\] robber=2 is "
                                             r"not an iterable of vertices: %s$"
                                             % re.escape(repr(cops))):
            verify_policy(constant(path_graph(3), 2), pol)

    @pytest.mark.parametrize("cop", [-1, 3, 2.0, False])
    def test_step_cop_must_be_a_vertex(self, cop):
        # -1 once raised "negative shift count"
        pol = CopPolicy(k=2, initial_cops=(1, 0), step=lambda m, t, c, r: ((1, cop), m))
        with pytest.raises(ValueError, match=r"^policy move at t=0 cops=\[0, 1\] robber=2: "
                                             r"cop %s is not a vertex of 0\.\.2$"
                                             % re.escape(repr(cop))):
            verify_policy(constant(path_graph(3), 2), pol)

    @pytest.mark.parametrize("step", [((0, 1), [0]), None, ((0, 1),)])
    def test_step_must_return_cops_and_hashable_memory(self, step):
        # a list memory once raised "unhashable type: 'list'", None a
        # TypeError on unpacking and a 1-tuple a bare unpacking ValueError
        pol = CopPolicy(k=2, initial_cops=(1, 0), step=lambda m, t, c, r: step)
        with pytest.raises(ValueError, match=r"^policy step at t=0 cops=\[0, 1\] robber=2 is "
                                             r"not a pair \(cops, hashable memory\): %s$"
                                             % re.escape(repr(step))):
            verify_policy(constant(path_graph(3), 2), pol)


def parent_multiset_move_feasible(g, old, new):
    """The backtracking matcher verify_policy used before the depth-first
    pass, kept as an oracle."""
    remaining = list(new)

    def match(i):
        if i == len(old):
            return True
        m = g.nbr_mask(old[i])
        tried = set()
        for j, v in enumerate(remaining):
            if v is None or v in tried:
                continue
            if (m >> v) & 1:
                tried.add(v)
                remaining[j] = None
                if match(i + 1):
                    return True
                remaining[j] = v
        return False

    return match(0)


def parent_verify_policy(pg, policy):
    """The three-phase verify_policy (forward BFS, retrograde queue, cycle
    walk) that the depth-first pass replaced, kept as an oracle."""
    p, n = pg.period, pg.n
    start_cops = tuple(sorted(policy.initial_cops))
    starts = [(0, start_cops, r0, policy.initial_memory)
              for r0 in range(n) if r0 not in start_cops]
    children, capturing = {}, {}
    frontier = list(starts)
    seen = set(frontier)
    while frontier:
        nxt = []
        for node in frontier:
            t, cops, robber, memory = node
            g = pg.snapshots[t]
            new_cops, new_mem = policy.step(memory, t, cops, robber)
            new_cops = tuple(sorted(new_cops))
            if not parent_multiset_move_feasible(g, cops, new_cops):
                raise ValueError("infeasible policy move")
            if robber in new_cops:
                capturing[node] = True
                children[node] = []
                continue
            capturing[node] = False
            kids = []
            for r2 in g.closed_nbrs(robber):
                if r2 in new_cops:
                    continue
                kid = ((t + 1) % p, new_cops, r2, new_mem)
                kids.append(kid)
                if kid not in seen:
                    seen.add(kid)
                    nxt.append(kid)
            children[node] = kids
        frontier = nxt
    value, pending_max, remaining, parents = {}, {}, {}, {}
    queue = deque()
    for node, kids in children.items():
        if capturing[node]:
            value[node] = 1
            queue.append(node)
        else:
            remaining[node] = len(kids)
            pending_max[node] = 0
            for kid in kids:
                parents.setdefault(kid, []).append(node)
    while queue:
        node = queue.popleft()
        for par in parents.get(node, ()):
            if par in value:
                continue
            pending_max[par] = max(pending_max[par], value[node])
            remaining[par] -= 1
            if remaining[par] == 0:
                value[par] = 1 + pending_max[par]
                queue.append(par)
    if any(nd not in value for nd in starts):
        return PolicyVerification(wins=False, states_explored=len(children))
    return PolicyVerification(
        wins=True, max_capture_moves=max((value[nd] for nd in starts), default=0),
        states_explored=len(children))


def legal_moves(g, cops):
    """Every multiset the cops can reach in one round of g, sorted."""
    return sorted({tuple(sorted(m))
                   for m in itertools.product(*(g.closed_nbrs(c) for c in cops))})


def random_policy(pg, k, seed):
    """k memoryless cops, each position's move a seeded random legal one,
    drawn the same whatever order a verifier asks in."""
    def step(memory, t, cops, robber):
        rng = random.Random(repr((seed, t, cops, robber)))
        return rng.choice(legal_moves(pg.snapshots[t], cops)), memory

    start = tuple(sorted(random.Random(seed).choices(range(pg.n), k=k)))
    return CopPolicy(k=k, initial_cops=start, step=step)


def teleporting_policy(pg, res, rng):
    """res's optimal policy, except that at one position its play reaches a
    cop jumps outside its closed neighbourhood; None if no jump is possible."""
    optimal = res.policy().step
    cops = res.initial_placement
    robbers = [r for r in range(pg.n) if r not in cops]
    if not robbers:
        return None
    robber = rng.choice(robbers)
    t = 0
    for _ in range(rng.randint(0, res.rank_of(0, cops, robber))):
        new_cops = optimal(None, t, cops, robber)[0]
        escapes = [r for r in pg.snapshots[t].closed_nbrs(robber) if r not in new_cops]
        if robber in new_cops or not escapes:
            break
        t, cops, robber = (t + 1) % pg.period, new_cops, rng.choice(escapes)
    g = pg.snapshots[t]
    jumps = [tuple(sorted(cops[:i] + (x,) + cops[i + 1:]))
             for i in range(len(cops)) for x in range(pg.n)
             if not (g.nbr_mask(cops[i]) >> x) & 1]
    jumps = [m for m in jumps if not parent_multiset_move_feasible(g, cops, m)]
    if not jumps:
        return None
    jump, at = rng.choice(jumps), (t, cops, robber)

    def step(memory, t, cops, robber):
        if (t, cops, robber) == at:
            return jump, memory
        return optimal(memory, t, cops, robber)

    return CopPolicy(k=res.k, initial_cops=res.initial_placement, step=step)


class TestVerifyPolicyAgainstParent:
    """The depth-first verify_policy against the three-phase one it replaced:
    equal results on every winning policy, a real robber cycle on every
    losing one, and every infeasible move refused."""

    @staticmethod
    def check(pg, policy):
        want = parent_verify_policy(pg, policy)
        got = verify_policy(pg, policy)
        assert got.wins == want.wins
        if got.wins:
            assert got.max_capture_moves == want.max_capture_moves
            assert got.states_explored == want.states_explored
            assert got.counterexample is None
        else:
            assert 0 < got.states_explored <= want.states_explored
            TestVerifyPolicyAgainstParent.check_cycle(pg, policy, got.counterexample)
        return got.wins

    @staticmethod
    def check_cycle(pg, policy, cycle):
        """Each step is the policy's non-capturing move and a legal robber
        reply that avoids the cops, and the cycle closes."""
        assert policy.initial_memory is None  # memoryless: positions suffice
        assert len(cycle) >= 2 and cycle[-1] == cycle[0]
        for here, there in zip(cycle, cycle[1:]):
            t, cops, robber = here["t"], tuple(here["cops"]), here["robber"]
            new_cops = tuple(sorted(policy.step(None, t, cops, robber)[0]))
            assert robber not in new_cops
            assert there["t"] == (t + 1) % pg.period
            assert tuple(there["cops"]) == new_cops
            assert there["robber"] in pg.snapshots[t].closed_nbrs(robber)
            assert there["robber"] not in new_cops

    def test_optimal_policies(self, rng):
        wins = 0
        for _ in range(150):
            pg = random_periodic(rng, rng.randint(2, 8), rng.randint(1, 3),
                                 rng.choice((0.25, 0.35, 0.5)))
            k = solve_cop_number(pg)[0]
            for kk in (k, k + 1):
                res = is_k_copwin(pg, kk)
                if res.copwin:
                    assert self.check(pg, res.policy())
                    wins += 1
        assert wins >= 250

    def test_bag_strategies(self, rng):
        from percop.treewidth import bag_strategy, smooth

        for _ in range(60):
            pg = random_temporally_connected(rng, rng.randint(3, 9), rng.randint(1, 3),
                                             rng.choice((0.25, 0.4)))
            foot = footprint(pg)
            policy = bag_strategy(pg, smooth(exact_treewidth(foot)[1], foot))
            assert self.check(pg, policy)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generator_policies(self, name):
        pg = GENERATORS[name]().instance
        assert self.check(pg, solve_cop_number(pg)[1].policy())

    def test_random_policies(self, rng):
        outcomes = []
        while len(outcomes) < 300:
            pg = random_temporally_connected(rng, rng.randint(3, 6), rng.randint(1, 3),
                                             rng.choice((0.3, 0.5)))
            k = cop_number(pg)
            if k >= 2:
                seed = rng.randrange(1 << 30)
                outcomes.append(self.check(pg, random_policy(pg, k - 1, seed)))
                assert not outcomes[-1]  # k - 1 cops lose
            seed = rng.randrange(1 << 30)
            outcomes.append(self.check(pg, random_policy(pg, k, seed)))
        assert outcomes.count(False) >= 150 and outcomes.count(True) >= 10

    def test_infeasible_policies(self, rng):
        refused = 0
        while refused < 150:
            pg = random_periodic(rng, rng.randint(3, 6), rng.randint(1, 3), 0.4)
            _k, res = solve_cop_number(pg)
            policy = teleporting_policy(pg, res, rng)
            if policy is None:
                continue
            with pytest.raises(ValueError, match="infeasible"):
                parent_verify_policy(pg, policy)
            with pytest.raises(ValueError, match="infeasible"):
                verify_policy(pg, policy)
            refused += 1

    def test_matcher_agrees_with_parent(self, rng):
        graphs = [random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
                  for n in range(1, 9) for _ in range(20)]
        feasible = 0
        for _ in range(60_000):
            g = rng.choice(graphs)
            k = rng.randint(1, 5)
            old = tuple(sorted(rng.choices(range(g.n), k=k)))
            if rng.random() < 0.5:
                new = [rng.choice(g.closed_nbrs(c)) for c in old]  # a legal move
                if rng.random() < 0.5:
                    new[rng.randrange(k)] = rng.randrange(g.n)
            else:
                new = rng.choices(range(g.n), k=k)
            new = tuple(sorted(new))
            want = parent_multiset_move_feasible(g, old, new)
            assert check._multiset_move_feasible(g, old, new) == want, (g, old, new)
            feasible += want
        assert 10_000 < feasible < 50_000  # both answers well represented

    def test_matcher_refuses_a_changed_cop_count(self):
        g = path_graph(3)
        assert not check._multiset_move_feasible(g, (0, 1), (0, 1, 2))
        assert not check._multiset_move_feasible(g, (0, 1), (1,))


class TestDisconnectedConvention:
    def test_matching_needs_one_cop_per_edge(self):
        g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert static_cop_number(g) == 4

    def test_cap_reaches_solution_for_disconnected(self):
        g = Graph(4, [(0, 1)])
        assert cop_number_cap(constant(g, 1)) >= static_cop_number(g)


class TestCap:
    def test_cap_above_the_domination_limit(self):
        # past the limit no dominating set is computed: a cop on every vertex
        pg = constant(path_graph(DOMINATION_LIMIT + 1), 1)
        assert cop_number_cap(pg) == DOMINATION_LIMIT + 1
        assert solve_cop_number(pg)[0] == 1


class TestComponentSum:
    """cop_number sums over the footprint's components: c(G) = sum c(C_i)."""

    @staticmethod
    def disconnected(rng, n, p, p_edge, max_components):
        while True:
            pg = random_periodic(rng, n, p, p_edge)
            if 2 <= len(footprint(pg).components()) <= max_components:
                return pg

    @staticmethod
    def check(pg):
        """cop_number and the first snapshot's static_cop_number against the
        reference; a snapshot of a disconnected footprint is disconnected."""
        assert cop_number(pg) == reference_cop_number(pg), pg.snapshots
        g = pg.snapshots[0]
        assert static_cop_number(g) == reference_cop_number(constant(g, 1)), g.sorted_edges()

    def test_sums_against_the_reference(self, rng):
        # CI runs this check on 1,000 instances
        for _ in range(20):
            self.check(self.disconnected(rng, rng.randint(2, 6), rng.randint(1, 2), 0.3, 4))

    def test_static_disconnected_matches_reference(self, rng):
        for _ in range(100):
            g = self.disconnected(rng, rng.randint(2, 6), 1, 0.35, 4).snapshots[0]
            got = static_cop_number(g)
            assert got == reference_cop_number(constant(g, 1)), g.sorted_edges()
            assert got == solve_cop_number(constant(g, 1))[0]

    def test_periodic_disconnected_footprint_matches_reference(self, rng):
        for _ in range(100):
            pg = self.disconnected(rng, rng.randint(2, 5), rng.randint(1, 2), 0.25, 4)
            got = cop_number(pg)
            assert got == reference_cop_number(pg), pg.snapshots
            assert got == solve_cop_number(pg)[0]

    def test_padded_q3_snapshots_solve_per_component(self, monkeypatch):
        # each snapshot: three K2s and an 8-vertex path, each won by one cop
        calls = []
        inner = solver.is_k_copwin
        monkeypatch.setattr(solver, "is_k_copwin",
                            lambda pg, k: calls.append((pg.n, k)) or inner(pg, k))
        for attach in range(8):
            pg = pad(q3_rotation().instance, 14, attach)
            for g in pg.unique_snapshots:
                assert static_cop_number(g) == 4
        assert calls and all(k == 1 and n < 14 for n, k in calls)
