"""Exact k-copwin decision by backward induction on the configuration game.

States are C((t,c_1..c_k),(t',r)) with a side-to-move bit: the cops move first
in G_t, then the robber moves in G_t, then the layer advances.  The solver
keys the game by (t, robber vertex) and carries the cops as a bitset over
configurations, as in the Nowakowski-Winkler relation iteration (extended to
k cops by Clarke & MacGillivray): cw[t][r] holds the configurations won with
the cops to move, rw[t][r] those won with the robber to move, bit ci for
configuration ci.  Both start as occ[r], the configurations with a cop on r,
and each level applies

    cw[t][r] |= OR of row_t[c'] over the c' new in rw[t][r] at the last level
    rw[t][r] |= AND of cw[t+1][v] over v in N_t[r]

to the entries whose inputs changed: the cop step to the (t, r) the last
robber step grew, the robber step to the r next to a vertex v whose
cw[t+1][v] grew.  row_t[c'] holds the configurations one cop move from c' in
G_t; a move can be undone, so it also holds those that move to c'.  A state
first won at level i has rank i, the number of cop moves to capture under
optimal play (min over cop moves, max over robber escapes).

Levels 0 and 1 need no move row.  A robber's closed neighbourhood holds the
robber, so level 0 leaves rw[t][r] = occ[r].  Every cop move then ends on a
state won at level 0, so level 1 gives cw[t][r] = OR of occ[v] over v in
N_t[r], once per unique snapshot, read from the space's covering table with
one lookup per nibble of the mask N_t[r].  A configuration fills when it is
in cw[0][r] for every r, so the fill test is the AND of cw[0][r] over all r;
its lowest bit is the least configuration that fills.  At level 0 that is
the least configuration whose cops cover every vertex.

`is_k_copwin` runs the decision pass, which stops at the fill test of the
first level L at which some layer-0 configuration fills, before that level's
robber sweep; every configuration that fills there is stale there, so the
verdict and the placement (least worst rank, then lexicographic) come from
the fill test alone.  The run then holds the cops-to-move states of rank
<= L and the robber-to-move states of rank <= L - 1.  A losing pass never
fills and reaches the fixpoint.  Each level keeps the robber sweep's list of
(t, r, the configurations new in rw[t][r]), which its next cop step reads
anyway, so a robber-to-move state's rank is the level whose list holds it: 0
on a capture, 1 for any other state of level 1 (whose list is not kept), and
from level 2 read from the lists, regrouped on first read into one flat
tuple per (t, r) of (level, new configurations) for each level at which
rw[t][r] grew.  A cops-to-move state's rank is 0 on a capture, 1 within
level 1's closed form, and otherwise one more than the least rank of a
robber state its moves reach.  A state the levels run so far have won is
settled: every state they have not won ranks higher.  Only a read of a state
they have not won (a win count, a robber-to-move state of rank L, a trace
from another start) runs one whole pass from level 0 to the fixpoint, once
per result; a trace or policy from the placement never does, since its play
reads only cops-to-move states of rank <= L and the robber-to-move states of
rank <= L - 1 that their best moves reach.  The state count comes from the
sizes.

Cop configurations are sorted multisets; they and occ depend on n and k
alone.  At k = 1 a move row is the cop's closed neighbourhood in the
snapshot, so no row is built.  At k >= 2 a row is built on its first read,
at a cop step from level 2 or an optimal_cop_move, so a decision that ends
at level 1 builds none: a configuration moves by moving its (k-1)-prefix and
then adding a closed neighbour of its last cop, so its row joins the
(k-1)-cop row of its prefix with that neighbourhood.  The prefix's moves are
read as a list: level 1's neighbour list at k = 2, and at k >= 3 one made
from the prefix's row on first read and kept, so the rows that share a
prefix make it once.  Each thread keeps a chain of configuration spaces,
joins included, for each n it has solved, and the rows and results of the
last periodic graph it solved.  Graphs on n vertices share the first, so a
pipeline that switches n builds each space once; an ascent builds each row
once, and a repeated is_k_copwin on that graph returns its kept result.
Another graph drops the second.  Once the kept chains hold more than
_KEPT_CONFIGURATIONS configurations, those of other n are dropped, least
recently used first; the chain of the n being solved never is.  Winning is
monotone in k: if k - 1 cops win from a placement, k cops win from it plus
a cop that copies one of them, since cops may share a vertex.  So once the
kept k - 1 result has won, and the kept levels end at k - 1, the k-cop
result is created already answered, copwin with no level of its own; its
decision pass runs, once, on the first read of its placement, ranks, moves,
win count, trace or policy.

Capture convention: any co-location ends the game for the cops, including the
robber stepping onto a cop.  The stricter rule (only a cop moving onto the
robber captures) gives the same winner since a co-located cop can stand still
on its next move; the relaxation just shaves a ply off some ranks.  Cops may
share a vertex (multisets), as in the paper's game.

A graph whose footprint is disconnected is one game per component: cops
cannot leave their component, each component needs a cop, and the robber
picks the component, so its cop number is the sum of theirs.  `cop_number`
solves each component on its own and sums; `solve_cop_number` and
`is_k_copwin` solve the whole graph, since traces and policies read the ranks
of their results.  `static_cop_number` decides one cop on each component of a
static graph as it is; one that one cop loses climbs from two cops, in the
same loop, on its core (`graphs.core`), which must keep two or more vertices
(Nowakowski & Winkler: one cop wins iff the graph dismantles to one vertex).

The one resource limit is the state budget: PERCOP_STATE_BUDGET in the
environment (default 1e8 states, else an int >= 1 or a ValueError), checked
before anything is allocated.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from functools import reduce
from math import comb
from operator import or_, xor

from . import periodic as _periodic
# verify_policy stays bound here: perfbench's paper workload and criterion 6 read it
from .check import CopPolicy, verify_policy
from .graphs import DOMINATION_LIMIT, _bits, core, domination_number
from .periodic import PeriodicGraph

DEFAULT_STATE_BUDGET = 10**8

COPS_TO_MOVE = 0
ROBBER_TO_MOVE = 1


def _check_side(side):
    # bool is not an int here, as for k and max_cops
    if type(side) is not int or side not in (COPS_TO_MOVE, ROBBER_TO_MOVE):
        raise ValueError("side must be COPS_TO_MOVE (0) or ROBBER_TO_MOVE (1): %r"
                         % (side,))


class BudgetError(RuntimeError):
    def __init__(self, estimate, budget):
        if type(estimate) is not int or type(budget) is not int:
            raise ValueError("BudgetError: estimate and budget must be ints: %r, %r"
                             % (estimate, budget))
        super().__init__(
            "solver state budget exceeded: %d states > %d" % (estimate, budget)
        )
        self.estimate = estimate
        self.budget = budget


def _state_budget():
    env = os.environ.get("PERCOP_STATE_BUDGET")
    if not env:
        return DEFAULT_STATE_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError("PERCOP_STATE_BUDGET must be an int >= 1: %r" % env)
    return budget


class _Space:
    """The k-cop configurations on n vertices, built from the (k-1)-cop ones,
    with occ and its covering table hit.  Every graph on n vertices shares
    them, so nothing may mutate them."""

    def __init__(self, n, prev):
        self.n, self._prev, self._joins = n, prev, None
        self._lock = threading.Lock()
        self.cfgs, self.masks = [], []  # sorted tuples, in lexicographic order
        for d, m in zip(prev.cfgs, prev.masks) if prev else [((), 0)]:
            for x in range(d[-1] if d else 0, n):
                self.cfgs.append(d + (x,))
                self.masks.append(m | 1 << x)  # the vertices it occupies
        self.index = {c: ci for ci, c in enumerate(self.cfgs)}  # c -> position
        # occ[r]: the configurations with a cop on r, as bits
        self.occ = [0] * n
        for ci, m in enumerate(self.masks):
            for x in _bits(m):
                self.occ[x] |= 1 << ci
        # hit[j][b]: the OR of occ[4j + i] over the bits i of the nibble b,
        # so the configurations with a cop in a vertex set take one read per
        # nibble of its mask; at most four times the size of occ
        self.hit = []
        for lo in range(0, n, 4):
            h = [0]
            for b in range(1, 1 << min(4, n - lo)):
                low = b & -b
                h.append(h[b ^ low] | self.occ[lo + low.bit_length() - 1])
            self.hit.append(h)
        # the least configuration whose cops cover every vertex, if any
        full = (1 << n) - 1
        self.cover = next((ci for ci, m in enumerate(self.masks) if m == full), None)

    @property
    def joins(self):
        """(insert, prefix): insert[x][j] is configuration j of the (k-1)-cop
        space plus a cop on x; prefix[ci] is configuration ci less its last."""
        if self._joins is None:
            with self._lock:  # graphs solved on other threads share the space
                if self._joins is None:
                    self._joins = self._join()
        return self._joins

    def _join(self):
        prev, index = self._prev, self.index
        insert = [[index[tuple(sorted(d + (x,)))] for d in prev.cfgs]
                  for x in range(self.n)]
        return insert, [prev.index[c[:-1]] for c in self.cfgs]


class _Moves(dict):
    """moves[j]: the configurations one cop move from (k-1)-cop configuration
    j in one snapshot, as the ascending list _bits(rows[j]) of its (k-1)-cop
    row, made on first read and kept, so the k-cop rows that share the
    prefix j read one list.  Only the k-cop rows refer to it: kept on the
    (k-1)-cop rows, whose row it reads, it would be a cycle."""

    def __init__(self, rows):
        self._rows = rows

    def __missing__(self, j):
        moved = self[j] = _bits(self._rows[j])
        return moved


class _Rows(dict):
    """rows[ci]: the configurations one cop move from configuration ci in one
    snapshot, as bits, built on first read from the (k-1)-cop moves: ci
    moves by moving its prefix and adding a closed neighbour of its last
    cop.  A move can be undone, so a row also holds the configurations that
    move to ci.  moves[j] lists the (k-1)-cop moves of prefix j: level 1's
    neighbour lists at k = 2, a _Moves at k >= 3."""

    def __init__(self, space, nbrs, moves):
        self._space, self._nbrs, self._moves = space, nbrs, moves
        self._lock = threading.Lock()  # threads sharing a result build a row once

    def __missing__(self, ci):
        with self._lock:
            row = self.get(ci)
            if row is None:
                row = self[ci] = self._build(ci)
        return row

    def _build(self, ci):
        insert, prefix = self._space.joins
        moved = self._moves[prefix[ci]]
        row = 0
        for x in self._nbrs[self._space.cfgs[ci][-1]]:
            at = insert[x]
            for cj in moved:
                row |= 1 << at[cj]
        return row


class _Level:
    """One periodic graph's game with the configurations of a k-cop space,
    per unique snapshot: its closed neighbourhoods (masks, and nbrs as
    lists), its move rows (the closed neighbourhoods themselves at k = 1,
    else built on first read from the (k-1)-cop moves), and level 1 in
    closed form, cw1[s][r], read from the space's covering table at k >= 2.
    grown1[s] holds the vertices r with a neighbour, those where cw1[s][r]
    exceeds level 0's occ[r]."""

    def __init__(self, space, snaps, prev=None):
        self.space = space
        self.cfgs, self.index, self.masks = space.cfgs, space.index, space.masks
        if prev is None:
            self.closed = [g.masks for g in snaps]
            self.nbrs = [[_bits(m) for m in ms] for ms in self.closed]
            # occ[v] is bit v: a configuration's closed neighbourhood
            self.rows = self.cw1 = self.closed
            self.grown1 = [reduce(or_, map(xor, ms, space.masks)) for ms in self.closed]
            return
        self.closed, self.nbrs, self.grown1 = prev.closed, prev.nbrs, prev.grown1
        # the 1-cop configuration j is the vertex j, so at k = 2 a prefix's
        # moves are its neighbour list
        self.rows = [_Rows(space, nbrs, nbrs if prev.rows is prev.closed else _Moves(rows))
                     for nbrs, rows in zip(prev.nbrs, prev.rows)]
        self.cw1 = [_covered(space.hit, ms) for ms in self.closed]


def _covered(hit, masks):
    """For each vertex mask m of masks, the configurations with a cop in m,
    read from the space's covering table hit."""
    out = []
    for m in masks:
        c = 0
        for h in hit:
            c |= h[m & 15]
            m >>= 4
        out.append(c)
    return out


class _MoveTables:
    """What one periodic graph decides: its level on the thread's space of
    each k, built on first read and kept, as is each move row read, so an
    ascent builds each once; and the result of each k decided.  Levels and
    results never refer to the tables, nor spaces to levels: no cycle."""

    def __init__(self, pg):
        self.pg = pg
        self.levels = [None, _Level(_space(pg.n, 1), pg.unique_snapshots)]
        self.results = {}  # k -> SolveResult

    def level(self, k):
        while len(self.levels) <= k:
            self.levels.append(_Level(_space(self.pg.n, len(self.levels)),
                                      self.pg.unique_snapshots, self.levels[-1]))
        return self.levels[k]


# The thread's slot: the move tables of the last periodic graph it solved,
# and spaces[n], the chain of configuration spaces of each n it kept (the
# k-cop space at k - 1), least recently used first; never shared between
# threads.  Thread-local rather than a ContextVar, whose value the thread's
# context keeps alive even after this module is re-imported.
_LAST = threading.local()

# The configurations the kept chains may hold in all before those of other
# n are dropped: 2.1-3.8 MB with their occ bitsets, covering tables and
# joins, at 130-230 bytes a configuration (tracemalloc, whole chains of
# n = 4 to 30 and k up to 3 to 5).
_KEPT_CONFIGURATIONS = 1 << 14


def _space(n, k):
    """The k-cop space on n vertices, from the thread's chain for n.  A build
    then drops the least recently used chains of other n while the kept
    chains hold more than _KEPT_CONFIGURATIONS configurations; n's own is
    never dropped."""
    chains = getattr(_LAST, "spaces", None)
    if chains is None:
        chains = _LAST.spaces = {}
    chain = chains[n] = chains.pop(n, [])  # now the most recently used
    if len(chain) < k:
        while len(chain) < k:
            chain.append(_Space(n, chain[-1] if chain else None))
        total = sum(len(sp.cfgs) for c in chains.values() for sp in c)
        for m in list(chains)[:-1]:
            if total <= _KEPT_CONFIGURATIONS:
                break
            total -= sum(len(sp.cfgs) for sp in chains.pop(m))
    return chain[k - 1]


def _move_tables(pg):
    tables = getattr(_LAST, "tables", None)
    if tables is None or tables.pg is not pg:
        _LAST.tables = None  # free the old tables before building
        tables = _LAST.tables = _MoveTables(pg)
    return tables


class _Run:
    """The induction after its last level run: the win region (cw, rw) so
    far, and the robber ranks as the lists of levels 2 and up (history),
    until the first rank read regroups them by (t, r) into levels.  The
    region never changes once a result holds the run: finishing makes a new
    run."""

    __slots__ = ("won", "level", "history", "levels", "first", "done")

    def __init__(self, won, level, history, first, done):
        self.won, self.level, self.history = won, level, history
        self.levels = None  # regrouped on first read
        self.first, self.done = first, done  # done: at the fixpoint


def _regroup(run, n):
    """levels[t * n + r]: the flat tuple (level, new, level, new, ...) over
    the levels from 2 at which rw[t][r] grew, ascending, new holding the
    configurations first won there with the robber on r to move at layer t.
    Reads the history's drw lists, which it empties."""
    levels = [()] * len(run.won[1])
    history = run.history
    level = 1
    history.reverse()
    while history:  # from level 2, each freed once read
        level += 1
        for t, r, new in history.pop():
            levels[t * n + r] += (level, new)
    return levels


class SolveResult:
    """Outcome of one is_k_copwin run: the verdict and placement, and the
    decision pass's run, from which the win region and ranks are read.

    A result implied by k - 1 cops' win holds only the verdict and the
    (k-1)-cop level, below; its placement, level and run are unset until
    the first read of one decides them (see is_k_copwin)."""

    def __init__(self, pg, k, copwin, initial_placement=None, level=None, run=None,
                 below=None):
        if (type(pg) is not PeriodicGraph or type(k) is not int or k < 1
                or type(copwin) is not bool):
            raise ValueError("SolveResult: pg must be a PeriodicGraph, k an int >= 1 and "
                             "copwin a bool: %r, %r, %r" % (pg, k, copwin))
        self.pg = pg
        self.k = k
        self.copwin = copwin
        self._lock = threading.Lock()
        if below is not None:
            self._below = below
            return
        self.initial_placement = initial_placement
        self._level = level
        self._run = run

    def __getattr__(self, name):
        # only an implied result misses these; a decided one never gets here
        if name not in ("initial_placement", "_level", "_run"):
            raise AttributeError(name)
        with self._lock:  # threads sharing the result decide it once
            if "_run" not in self.__dict__:
                lv = _Level(_space(self.pg.n, self.k), self.pg.unique_snapshots,
                            self._below)
                run = _propagate(self.pg, lv, True)
                if run.first is None:
                    raise AssertionError(
                        "%d cops lose where %d win; this contradicts monotonicity"
                        % (self.k, self.k - 1))
                self.initial_placement, self._level = lv.cfgs[run.first[1]], lv
                self._run = run  # last: its presence marks the result decided
        return self.__dict__[name]

    def _finished(self):
        # Runs one whole pass from level 0 to the fixpoint on this result's
        # own level, so it never touches the thread's move-table slot; the
        # lock makes threads sharing the result run it at most once, and a
        # reader of the old run keeps a consistent region.
        run = self._run
        if not run.done:
            with self._lock:
                if not self._run.done:
                    self._run = _propagate(self.pg, self._level, False)
                run = self._run
        return run

    def _settled(self, side, key, ci):
        """A run that has won the state, or the finished run."""
        run = self._run
        if run.done or (run.won[side][key] >> ci) & 1:
            return run
        return self._finished()

    def _levels(self, run):
        levels = run.levels
        if levels is None:
            with self._lock:  # the regroup drops the history it reads
                if run.levels is None:
                    run.levels = _regroup(run, self.pg.n)
                levels = run.levels
        return levels

    def _key(self, t, cops, robber):
        """(t mod p, ci), the layer and configuration of a state."""
        lv, n = self._level, self.pg.n
        try:
            vals = (t, robber, *cops)
        except TypeError:
            raise ValueError("cops must be an iterable of ints: %r" % (cops,)) from None
        # bool is not an int here; a float cop would pass the lookup by equality
        if any(type(v) is not int for v in vals):
            raise ValueError("t, cops and robber must be ints: %r, %r, %r" % (t, cops, robber))
        ci = lv.index.get(tuple(sorted(vals[2:])))  # cops may be a one-shot iterator
        if ci is None:
            raise ValueError("cops must be %d vertices of 0..%d: %r" % (self.k, n - 1, cops))
        if not 0 <= robber < n:
            raise ValueError("robber must be a vertex of 0..%d: %r" % (n - 1, robber))
        return t % self.pg.period, ci

    def is_cop_win(self, t, cops, robber, side=COPS_TO_MOVE):
        _check_side(side)
        t, ci = self._key(t, cops, robber)
        key = t * self.pg.n + robber
        return (self._settled(side, key, ci).won[side][key] >> ci) & 1 == 1

    def rank_of(self, t, cops, robber, side=COPS_TO_MOVE):
        """Cop moves to capture from a cop-winning state; None outside the region."""
        _check_side(side)
        t, ci = self._key(t, cops, robber)
        key = t * self.pg.n + robber
        run = self._settled(side, key, ci)
        if not (run.won[side][key] >> ci) & 1:
            return None
        if side == ROBBER_TO_MOVE:
            return self._least(run, key, 1 << ci, robber)[0]
        # the cops move to the robber state of least rank: a capture (rank
        # 0) within N_t[mask(c)], the closed form of level 1, else a state
        # the run has won, since every one it has not ranks higher
        lv, us = self._level, self.pg.usnap[t]
        if (lv.cw1[us][robber] >> ci) & 1:
            return 1 - ((lv.masks[ci] >> robber) & 1)
        return 1 + self._least(run, key, lv.rows[us][ci], robber)[0]

    def _least(self, run, key, moves, robber):
        """(rank, cj) of the least-ranked robber state (t, cj, robber), key
        = t * n + robber, then the least cj (the lexicographic order of
        configurations), over the configurations cj in the bits moves whose
        state the run has won; None if it has won none."""
        won = moves & run.won[ROBBER_TO_MOVE][key]
        if not won:
            return None
        rank, hit = 0, won & self._level.space.occ[robber]  # the captures
        if not hit:
            # a won state in none of the kept levels, those from 2, is of level 1
            levels = self._levels(run)[key]
            rank, hit, i = 1, won, 0
            for bits in levels[1::2]:
                hit &= ~bits
            while not hit:
                rank, hit = levels[i], won & levels[i + 1]
                i += 2
        return rank, (hit & -hit).bit_length() - 1

    def win_count(self):
        return sum(m.bit_count() for masks in self._finished().won for m in masks)

    def state_count(self):
        n, k = self.pg.n, self.k
        return self.pg.period * comb(n + k - 1, k) * n * 2

    def optimal_cop_move(self, t, cops, robber):
        """Rank-minimizing feasible cop move, capture first, lex tie-break."""
        pg, lv = self.pg, self._level
        t, ci = self._key(t, cops, robber)
        key = t * pg.n + robber
        moves = lv.rows[pg.usnap[t]][ci]
        # a move the run has not won ranks above every move it has won
        run = self._run
        best = self._least(run, key, moves, robber)
        if best is None and not run.done:
            best = self._least(self._finished(), key, moves, robber)
        if best is None:
            raise ValueError("no winning cop move from this state")
        return lv.cfgs[best[1]]

    def policy(self):
        """Memoryless optimal policy over the win region, from the placement."""
        if not self.copwin:
            raise ValueError("policy requires a copwin result")

        def step(memory, t, cops, robber):
            return self.optimal_cop_move(t, cops, robber), memory

        return CopPolicy(
            k=self.k,
            initial_cops=self.initial_placement,
            step=step,
            initial_memory=None,
        )


def _propagate(pg, lv, decide):
    """Grow the win region of the k-cop level lv from level 0: to the first
    filled placement if decide, else to the fixpoint.

    Returns a _Run, whose region is cw[t * n + r] and rw[t * n + r], the
    configurations won with the robber on r at layer t.  Its first is the
    least (level, ci) over the configurations ci in cw[r] for every r at
    layer 0, the worst rank over the robber's starts; None if none fills.
    Each level runs its fill test before its robber sweep.  The decision
    pass returns at the fill test of the first level L at which one fills,
    short of the fixpoint: its region holds the cops-to-move states of rank
    <= L and the robber-to-move states of rank <= L - 1 (none at L = 0).  A
    pass that never fills, and a finishing one, reach the fixpoint.  The
    robber sweep of each level lists (t, r, new) for the rw bits new there,
    for the next cop step.  The run keeps the lists of levels 2 and up in
    its history (2 to L - 1 in a decision's run), which ranks every robber
    state won there with no write per state, in O(states): each entry adds
    a state.
    """
    n, p, us = pg.n, pg.period, pg.usnap
    space = lv.space
    # level 0 (see the module docstring): rw[t][r] = occ[r]
    rw = space.occ * p  # a copy: the space's occ is shared with later solves
    first = None if space.cover is None else (0, space.cover)
    if first is not None and decide:
        # filled before level 0's robber sweep, which would give rw = occ
        return _Run((rw, [0] * len(rw)), 0, [], first, False)
    # level 1: cw[t][r] = cw1[s][r]; stale[t]: the r whose cw[t][r] grew
    level, history = 1, []
    cw, stale = [], {}
    for t, s in enumerate(us):
        cw += lv.cw1[s]
        if lv.grown1[s]:
            stale[t] = lv.grown1[s]
    nbrs, closed, rows = lv.nbrs, lv.closed, lv.rows
    while True:
        if first is None and 0 in stale:  # the fill test
            filled = cw[0]
            for r in range(1, n):
                filled &= cw[r]
            if filled:
                first = (level, (filled & -filled).bit_length() - 1)
                if decide:
                    return _Run((cw, rw), level, history, first, False)
        # robber step: rw[t0][r] for the r next to a vertex whose cw[t1] grew
        drw = []
        for t1, grown in stale.items():
            t0 = t1 - 1 if t1 else p - 1
            adj, nb = nbrs[us[t0]], closed[us[t0]]
            near = 0
            for v in _bits(grown):
                near |= nb[v]
            base0, after = t0 * n, cw[t1 * n:t1 * n + n]
            for r in _bits(near):
                won = -1
                for v in adj[r]:
                    won &= after[v]
                new = won & ~rw[base0 + r]
                if new:
                    rw[base0 + r] |= new
                    drw.append((t0, r, new))
        if level > 1:  # level 1 needs no lane: its rw bits are the won non-captures
            history.append(drw)
        if not drw:
            return _Run((cw, rw), level, history, first, True)
        level += 1
        # cop step: a move into a robber state won at the last level
        stale = {}
        for t, r, bits in drw:
            row = rows[us[t]]
            moved = 0
            for c in _bits(bits):
                moved |= row[c]
            key = t * n + r
            new = moved & ~cw[key]
            if new:
                cw[key] |= new
                stale[t] = stale.get(t, 0) | 1 << r


def is_k_copwin(pg, k):
    """Decide whether k cops win on pg, returning the full SolveResult.

    copwin means: some initial cop placement beats every robber placement.
    The placement is the one whose worst robber start is captured soonest,
    the lexicographically least on ties.  The thread keeps the results of
    the last graph it solved, so asking again, within the state budget,
    returns the same result and decides nothing.  Where the kept k - 1
    result has won, k cops win too (a k-th cop copies one of them), so the
    result is created with copwin True and decided only when something
    beyond the verdict and state count is first read.
    """
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    if type(k) is not int or k < 1:
        raise ValueError("k must be an int >= 1: %r" % (k,))
    budget = _state_budget()
    n, p = pg.n, pg.period
    nc = comb(n + k - 1, k)
    estimate = p * nc * n * 2
    if estimate > budget:
        raise BudgetError(estimate, budget)

    tables = _move_tables(pg)
    res = tables.results.get(k)
    if res is None:
        won = tables.results.get(k - 1)
        if won is not None and won.copwin and len(tables.levels) == k:
            res = SolveResult(pg, k, True, below=tables.levels[k - 1])
        else:
            lv = tables.level(k)
            run = _propagate(pg, lv, True)
            placement = None if run.first is None else lv.cfgs[run.first[1]]
            res = SolveResult(pg, k, run.first is not None, placement, lv, run)
        tables.results[k] = res
    return res


def cop_number_cap(pg):
    """Safe upper bound for the ascent: cops on a dominating set of G_0 win."""
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    g0 = pg.snapshots[0]
    if g0.n <= DOMINATION_LIMIT:
        return domination_number(g0)
    return g0.n


def solve_cop_number(pg, max_cops=None):
    """(cop number, SolveResult at that k), ascending from k=1.

    (None, None) when max_cops stops the ascent below the dominating-set cap.
    max_cops is None (no cap) or an int >= 1; anything else, bools included,
    is a ValueError.
    """
    if max_cops is not None and (type(max_cops) is not int or max_cops < 1):
        raise ValueError("max_cops must be >= 1: %r" % (max_cops,))
    return _ascend(pg, 1, max_cops)


def _ascend(pg, k, max_cops=None):
    """solve_cop_number's ascent from k cops, where k - 1 cops lose."""
    cap = cop_number_cap(pg)
    stop = cap if max_cops is None else min(cap, max_cops)
    for k in range(k, stop + 1):
        res = is_k_copwin(pg, k)
        if res.copwin:
            return k, res
    if stop < cap:
        return None, None
    raise RuntimeError(
        "cop number ascent exhausted its cap %d; this contradicts the "
        "dominating-set argument" % cap
    )


def cop_number(pg):
    """Cop number of pg: the sum of its footprint components' cop numbers.

    No edge of any snapshot joins two components of the footprint, so cops
    never leave their component, each component needs a cop, and the robber
    picks the component to hide in: c(G) = sum of c(C_i) (Bonato & Nowakowski,
    The Game of Cops and Robbers on Graphs, 2011; Erlebach & Spooner, SOFSEM
    2020, for periodic graphs).  A connected footprint is one ascent on pg,
    any other one ascent per induced component.
    """
    comps = _periodic.footprint(pg).components()
    if len(comps) < 2:
        return solve_cop_number(pg)[0]
    return sum(solve_cop_number(_periodic.induced(pg, c)[0])[0] for c in comps)


def static_cop_number(g):
    """Cop number of a static graph (period-1 periodic graph), summed over
    its components.

    One cop's game is decided on each component as it is; a component that
    one cop loses climbs from two cops, in solve_cop_number's loop, on its
    core (`graphs.core`), which has the same cop number and keeps two or
    more vertices, since one cop wins a connected graph iff it dismantles to
    one vertex (Nowakowski & Winkler, Discrete Math. 43, 1983).  With u
    dominated by v, folding u onto v retracts G onto G - u, so c(G - u) <=
    c(G) (Berarducci & Intrigila, "On the cop number of a graph", Adv. Appl.
    Math. 14, 1993); cops who win on G - u chase the robber's image under
    that retraction and catch the robber one move after catching the image,
    so c(G) <= c(G - u) (the shadow strategy, Bonato & Nowakowski, The Game
    of Cops and Robbers on Graphs, 2011).
    """
    pg = _periodic.constant(g, 1)
    comps = g.components()
    total = 0
    for comp in comps:
        h = pg if len(comps) == 1 else _periodic.induced(pg, comp)[0]
        if is_k_copwin(h, 1).copwin:
            total += 1
            continue
        kept = core(h.snapshots[0])
        if len(kept) < 2:
            raise AssertionError(
                "a component that one cop loses dismantles to one vertex; "
                "this contradicts Nowakowski & Winkler")
        if len(kept) < h.n:
            h = _periodic.induced(h, kept)[0]
        total += _ascend(h, 2)[0]
    return total


@dataclass(frozen=True)
class TripleResult:
    footprint_copnum: int
    max_snapshot_copnum: int
    copnum: int
    min_snapshot_copnum: int

    @property
    def abc(self):
        return (self.footprint_copnum, self.max_snapshot_copnum, self.copnum)

    def __post_init__(self):
        if any(type(c) is not int or c < 0 for c in (
                self.footprint_copnum, self.max_snapshot_copnum, self.copnum,
                self.min_snapshot_copnum)):
            raise ValueError("TripleResult: cop numbers must be ints >= 0: %r" % (self,))

    def as_dict(self):
        return asdict(self)


def triple(pg):
    """(a,b,c): footprint cop number, max snapshot cop number, periodic cop number."""
    foot = _periodic.footprint(pg)
    a = static_cop_number(foot)
    snap_nums = [static_cop_number(g) for g in pg.unique_snapshots]
    c = cop_number(pg)
    return TripleResult(a, max(snap_nums), c, min(snap_nums))


def extract_trace(result, cops_start=None):
    """Move-by-move transcript ending in capture.

    The cops play optimal_cop_move from cops_start (default: the result's
    placement); the robber starts where the cops' rank is highest and plays
    rank-maximizing replies, the lowest vertex on ties.
    """
    if type(result) is not SolveResult:
        raise ValueError("result must be a SolveResult: %r" % (result,))
    if not result.copwin and cops_start is None:
        raise ValueError("extract_trace requires a copwin result")
    pg = result.pg
    p, n = pg.period, pg.n
    cops = result.initial_placement
    if cops_start is not None:
        try:
            cops = tuple(cops_start)
        except TypeError:
            raise ValueError("cops_start must be an iterable of ints: %r"
                             % (cops_start,)) from None
        result._key(0, cops, 0)  # checked even where the cops cover every start
        cops = tuple(sorted(cops))
    occupied = set(cops)

    # robber picks the worst start for the cops
    start_rank = -1
    robber = None
    for r in range(n):
        if r in occupied:
            continue
        rank = result.rank_of(0, cops, r)
        if rank is None:
            raise ValueError(
                "cop placement %s does not win against robber start %d"
                % (list(cops), r)
            )
        if rank > start_rank:
            start_rank = rank
            robber = r
    rounds = []
    trace = {
        "k": result.k,
        "initial_cops": list(cops),
        "initial_robber": robber,
        "rounds": rounds,
        "captured": robber is None,
        "cop_moves": 0,
    }
    if robber is None:
        return trace

    t = 0
    guard = start_rank + 1
    for _ in range(guard):
        new_cops = result.optimal_cop_move(t, cops, robber)
        trace["cop_moves"] += 1
        entry = {"t": t, "cops": list(new_cops), "robber": robber}
        rounds.append(entry)
        cops = new_cops
        if robber in cops:
            entry["captured"] = True
            trace["captured"] = True
            return trace
        entry["captured"] = False
        best = None
        t1 = (t + 1) % p
        for r2 in pg.snapshots[t].closed_nbrs(robber):
            move_rank = 0 if r2 in cops else result.rank_of(t1, cops, r2)
            key = (-move_rank, r2)
            if best is None or key < best[0]:
                best = (key, r2)
        robber = best[1]
        entry["robber_after"] = robber
        t = (t + 1) % p
    raise AssertionError("capture did not occur within the reported rank")

