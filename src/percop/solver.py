"""Exact k-copwin decision by backward induction on the configuration game.

States are C((t,c_1..c_k),(t',r)) with a side-to-move bit: the cops move first
in G_t, then the robber moves in G_t, then the layer advances.  The solver
keys the game by (t, cop configuration) and carries the robber as an n-bit
vertex mask, as in the Nowakowski-Winkler relation iteration (extended to k
cops by Clarke & MacGillivray): cw[t][c] holds the robber vertices won with
the cops to move, rw[t][c] those won with the robber to move.  Both start as
the capture set mask(c), and each level applies

    cw[t][c] |= rw[t][c'] bits new at the last level, for c' in succ_t(c)
    rw[t][c] |= V \\ N_t[V \\ cw[t+1][c]]

to the keys whose inputs changed, where N_t[Y] is the closed neighbourhood of
a vertex set, read from per-snapshot tables of 8-vertex chunks.  A state first
won at level i has rank i, the number of cop moves to capture under optimal
play (min over cop moves, max over robber escapes).

Cop configurations are sorted multisets.  The k-cop move relation of a
snapshot is built from the (k-1)-cop one: a configuration moves by moving its
(k-1)-prefix and then adding a neighbour of its last cop.  solve_cop_number
shares these relations between the k = 1, 2, ... solves of one ascent and
drops them when the ascent ends.

Capture convention: any co-location ends the game for the cops, including the
robber stepping onto a cop.  The stricter rule (only a cop moving onto the
robber captures) gives the same winner since a co-located cop can stand still
on its next move; the relaxation just shaves a ply off some ranks.  Cops may
share a vertex (multisets), as in the paper's game.

The one resource limit is the state budget: PERCOP_STATE_BUDGET in the
environment (default 1e8 states), checked before anything is allocated.
"""

from __future__ import annotations

import contextvars
import os
from array import array
from collections import deque
from dataclasses import asdict, dataclass
from math import comb
from typing import NamedTuple

from . import periodic as _periodic
from .graphs import domination_number

DEFAULT_STATE_BUDGET = 10**8

COPS_TO_MOVE = 0
ROBBER_TO_MOVE = 1


class BudgetError(RuntimeError):
    def __init__(self, estimate, budget):
        super().__init__(
            "solver state budget exceeded: %d states > %d" % (estimate, budget)
        )
        self.estimate = estimate
        self.budget = budget


def _state_budget():
    env = os.environ.get("PERCOP_STATE_BUDGET")
    if env:
        return int(env)
    return DEFAULT_STATE_BUDGET


class _Level(NamedTuple):
    """The k-cop configurations and their move relation in each snapshot."""

    cfgs: list  # sorted tuples, in lexicographic order
    index: dict  # configuration -> position in cfgs
    succ: list  # succ[unique snapshot][ci]: configurations one cop move away


class _MoveTables:
    """Move relations and neighbourhood tables of one periodic graph.

    Level k of the relation is built from level k-1 and kept, so an ascent
    over k builds each level once.
    """

    def __init__(self, pg):
        self.pg = pg
        n = pg.n
        snaps = pg.unique_snapshots
        self.nbrs = [[g.closed_nbrs(v) for v in range(n)] for g in snaps]
        # nbhd[s][j][b]: N[Y] for the vertex set Y = b << 8j in snapshot s
        self.nbhd = []
        for g in snaps:
            chunks = []
            for lo in range(0, n, 8):
                table = [0]
                for v in range(lo, min(lo + 8, n)):
                    m = g.nbr_mask(v)
                    table += [y | m for y in table]
                chunks.append(table)
            self.nbhd.append(chunks)
        # one cop moves to its closed neighbourhood
        self.levels = [None, _Level(
            [(v,) for v in range(n)], {(v,): v for v in range(n)}, self.nbrs
        )]

    def level(self, k):
        while len(self.levels) <= k:
            self.levels.append(self._extend(self.levels[-1]))
        return self.levels[k]

    def _extend(self, prev):
        n = self.pg.n
        cfgs, prefix, index = [], [], {}
        for j, d in enumerate(prev.cfgs):
            for x in range(d[-1], n):
                index[d + (x,)] = len(cfgs)
                cfgs.append(d + (x,))
                prefix.append(j)
        # insert[x][j]: configuration j of the previous level plus a cop on x
        insert = [
            [index[tuple(sorted(d + (x,)))] for d in prev.cfgs]
            for x in range(n)
        ]
        succ = []
        for nbrs, prev_succ in zip(self.nbrs, prev.succ):
            rel = []
            for c, j in zip(cfgs, prefix):
                moved = prev_succ[j]
                out = set()
                for x in nbrs[c[-1]]:
                    out.update(map(insert[x].__getitem__, moved))
                rel.append(list(out))
            succ.append(rel)
        return _Level(cfgs, index, succ)


# The move tables of the cop-number ascent in progress.  solve_cop_number
# sets it for the length of its loop, so that the is_k_copwin calls it makes
# share one _MoveTables; nothing outlives the ascent.
_ASCENT_TABLES = contextvars.ContextVar("percop_ascent_tables", default=None)


def _move_tables(pg):
    tables = _ASCENT_TABLES.get()
    if tables is None or tables.pg is not pg:
        tables = _MoveTables(pg)
    return tables


class SolveResult:
    """Outcome of one is_k_copwin run, with the full win region and ranks."""

    def __init__(self, pg, k, copwin, initial_placement, level, cw, rw, rank):
        self.pg = pg
        self.k = k
        self.copwin = copwin
        self.initial_placement = initial_placement
        self._level = level
        self._won = (cw, rw)  # indexed by side, then by key t * nc + ci
        self._rank = rank  # indexed by ((key * n + robber) << 1) | side

    def _key(self, t, cops):
        lv = self._level
        return (t % self.pg.period) * len(lv.cfgs) + lv.index[tuple(sorted(cops))]

    def is_cop_win(self, t, cops, robber, side=COPS_TO_MOVE):
        return (self._won[side][self._key(t, cops)] >> robber) & 1 == 1

    def rank_of(self, t, cops, robber, side=COPS_TO_MOVE):
        """Cop moves to capture from a cop-winning state; None outside the region."""
        key = self._key(t, cops)
        if not (self._won[side][key] >> robber) & 1:
            return None
        return self._rank[((key * self.pg.n + robber) << 1) | side]

    def win_count(self):
        return sum(m.bit_count() for masks in self._won for m in masks)

    def state_count(self):
        return len(self._rank)

    def optimal_cop_move(self, t, cops, robber):
        """Rank-minimizing feasible cop move, capture first, lex tie-break."""
        pg, lv = self.pg, self._level
        t %= pg.period
        base = t * len(lv.cfgs)
        rw = self._won[ROBBER_TO_MOVE]
        best = None
        for cj in lv.succ[pg.usnap[t]][lv.index[tuple(sorted(cops))]]:
            key = base + cj
            if (rw[key] >> robber) & 1:  # a capture is a won state of rank 0
                move = (self._rank[((key * pg.n + robber) << 1) | ROBBER_TO_MOVE],
                        lv.cfgs[cj])
                if best is None or move < best:
                    best = move
        if best is None:
            raise ValueError("no winning cop move from this state")
        return best[1]

    def policy(self):
        """Memoryless optimal policy over the win region."""
        def step(memory, t, cops, robber):
            return self.optimal_cop_move(t, cops, robber), memory

        return CopPolicy(
            k=self.k,
            initial_cops=self.initial_placement,
            step=step,
            initial_memory=None,
        )


def is_k_copwin(pg, k):
    """Decide whether k cops win on pg, returning the full SolveResult.

    copwin means: some initial cop placement beats every robber placement.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    budget = _state_budget()
    n, p = pg.n, pg.period
    nc = comb(n + k - 1, k)
    estimate = p * nc * n * 2
    if estimate > budget:
        raise BudgetError(estimate, budget)

    tables = _move_tables(pg)
    lv = tables.level(k)
    succ, nbhd, us = lv.succ, tables.nbhd, pg.usnap
    full = (1 << n) - 1
    masks = []
    for c in lv.cfgs:
        m = 0
        for v in c:
            m |= 1 << v
        masks.append(m)
    cw = masks * p
    rw = [0] * (p * nc)
    rank = array("B", bytes(estimate))

    level = 0
    # stale[key]: the layer of a key whose cw changed at this level
    stale = {t * nc + ci: t for t in range(p) for ci in range(nc)}
    while True:
        # robber step: rw[t0][c] for the layer t0 before each stale key
        drw = []
        for key1, t1 in stale.items():
            ci = key1 - t1 * nc
            t0 = t1 - 1 if t1 else p - 1
            key = t0 * nc + ci
            y = full & ~cw[key1]
            m = 0
            for table in nbhd[us[t0]]:
                m |= table[y & 255]
                y >>= 8
            new = ((full & ~m) | masks[ci]) & ~rw[key]
            if new:
                rw[key] |= new
                drw.append((t0, ci, new))
                b = key * n
                while level and new:
                    low = new & -new
                    rank[((b + low.bit_length() - 1) << 1) | 1] = level
                    new ^= low
        if not drw:
            break
        level += 1
        if level == 256:
            rank = array("H", rank)
        elif level == 65536:
            rank = array("I", rank)
        # cop step: a move into a robber state won at the last level
        stale = {}
        for t, ci, bits in drw:
            base = t * nc
            for cj in succ[us[t]][ci]:
                key = base + cj
                new = bits & ~cw[key]
                if new:
                    cw[key] |= new
                    stale[key] = t
                    b = key * n
                    while new:
                        low = new & -new
                        rank[(b + low.bit_length() - 1) << 1] = level
                        new ^= low

    best = None
    for ci, cfg in enumerate(lv.cfgs):
        if cw[ci] == full:
            b = 2 * ci * n
            worst = max(rank[b:b + 2 * n:2])  # cops-to-move ranks at layer 0
            if best is None or (worst, cfg) < best:
                best = (worst, cfg)
    placement = best[1] if best else None
    return SolveResult(pg, k, best is not None, placement, lv, cw, rw, rank)


def cop_number_cap(pg):
    """Safe upper bound for the ascent: cops on a dominating set of G_0 win."""
    g0 = pg.snapshots[0]
    if g0.n <= 20:
        return domination_number(g0)
    return g0.n


def solve_cop_number(pg, max_cops=None):
    """(cop number, SolveResult at that k), ascending from k=1.

    (None, None) when max_cops stops the ascent below the dominating-set cap.
    """
    cap = cop_number_cap(pg)
    stop = cap if max_cops is None else min(cap, max_cops)
    token = _ASCENT_TABLES.set(_MoveTables(pg))
    try:
        for k in range(1, stop + 1):
            res = is_k_copwin(pg, k)
            if res.copwin:
                return k, res
    finally:
        _ASCENT_TABLES.reset(token)
    if stop < cap:
        return None, None
    raise RuntimeError(
        "cop number ascent exhausted its cap %d; this contradicts the "
        "dominating-set argument" % cap
    )


def cop_number(pg):
    return solve_cop_number(pg)[0]


def static_cop_number(g):
    """Cop number of a static graph (period-1 periodic graph)."""
    return cop_number(_periodic.constant(g, 1))


@dataclass(frozen=True)
class TripleResult:
    footprint_copnum: int
    max_snapshot_copnum: int
    copnum: int
    min_snapshot_copnum: int

    @property
    def abc(self):
        return (self.footprint_copnum, self.max_snapshot_copnum, self.copnum)

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
    if not result.copwin and cops_start is None:
        raise ValueError("extract_trace requires a copwin result")
    pg = result.pg
    p, n = pg.period, pg.n
    cops = tuple(sorted(cops_start)) if cops_start else result.initial_placement
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
        if robber in cops:
            trace["captured"] = True
            return trace
        t = (t + 1) % p
    raise AssertionError("capture did not occur within the reported rank")



@dataclass
class CopPolicy:
    """Deterministic cop plan: step(memory, t, cops, robber) -> (cops', memory').

    The memory must be hashable; verification explores the product of game
    positions and policy memory.
    """

    k: int
    initial_cops: tuple
    step: object
    initial_memory: object = None


@dataclass
class PolicyVerification:
    wins: bool
    max_capture_moves: int | None = None
    counterexample: list | None = None
    states_explored: int = 0


def _multiset_move_feasible(g, old, new):
    """Can the cop multiset ``old`` become ``new`` in one round of g?"""
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


def verify_policy(pg, policy):
    """Explore every robber line against a fixed cop policy.

    A node is a (t, cops, robber, memory) position with the cops to move; the
    policy fixes the cop move, the robber branches.  wins=False comes with a
    cycling robber witness; wins=True reports the worst-case number of cop
    moves to capture.  Infeasible policy moves raise ValueError naming the
    state.
    """
    p, n = pg.period, pg.n
    start_cops = tuple(sorted(policy.initial_cops))
    if len(start_cops) != policy.k:
        raise ValueError("policy initial placement has wrong size")

    starts = [
        (0, start_cops, r0, policy.initial_memory)
        for r0 in range(n)
        if r0 not in start_cops
    ]

    # phase 1: forward reachability; record capture flags and robber options
    children = {}
    capturing = {}
    frontier = [nd for nd in starts]
    seen = set(frontier)
    while frontier:
        nxt = []
        for node in frontier:
            t, cops, robber, memory = node
            g = pg.snapshots[t]
            new_cops, new_mem = policy.step(memory, t, cops, robber)
            new_cops = tuple(sorted(new_cops))
            if not _multiset_move_feasible(g, cops, new_cops):
                raise ValueError(
                    "infeasible policy move at t=%d cops=%s robber=%d: %s"
                    % (t, list(cops), robber, list(new_cops))
                )
            if robber in new_cops:
                capturing[node] = True
                children[node] = []
                continue
            capturing[node] = False
            t1 = (t + 1) % p
            kids = []
            for r2 in g.closed_nbrs(robber):
                if r2 in new_cops:
                    continue  # suicide move; never optimal for the robber
                kid = (t1, new_cops, r2, new_mem)
                kids.append(kid)
                if kid not in seen:
                    seen.add(kid)
                    nxt.append(kid)
            children[node] = kids
        frontier = nxt

    # phase 2: resolve capture times bottom-up; unresolved nodes sit on or
    # ahead of a robber-safe cycle
    value = {}
    pending_max = {}
    remaining = {}
    parents = {}
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
        v = value[node]
        for par in parents.get(node, ()):
            if par in value:
                continue
            if v > pending_max[par]:
                pending_max[par] = v
            remaining[par] -= 1
            if remaining[par] == 0:
                value[par] = 1 + pending_max[par]
                queue.append(par)

    unresolved = [nd for nd in starts if nd not in value]
    if unresolved:
        # walk unresolved children until a node repeats: that is the cycle
        path = [unresolved[0]]
        on_path = {unresolved[0]: 0}
        while True:
            cur = path[-1]
            nxt = next(ch for ch in children[cur] if ch not in value)
            if nxt in on_path:
                cycle = path[on_path[nxt]:] + [nxt]
                return PolicyVerification(
                    wins=False,
                    counterexample=[
                        {"t": t, "cops": list(c), "robber": r}
                        for (t, c, r, _m) in cycle
                    ],
                    states_explored=len(children),
                )
            on_path[nxt] = len(path)
            path.append(nxt)

    worst = max((value[nd] for nd in starts), default=0)
    return PolicyVerification(
        wins=True, max_capture_moves=worst, states_explored=len(children)
    )
