"""Independent checkers: a cop policy played out, a corner witness re-read.

`verify_policy` plays a fixed cop policy against every robber line and
reports whether it captures, and within how many cop moves; `CopPolicy` is
the plan it checks, whether the solver derived it (`SolveResult.policy`) or
the tree decomposition did (`treewidth.bag_strategy`).  `validate_witness`
re-checks one corner witness of `corners.find_k_temporal_corners` against
the raw closed neighbourhoods of its two snapshots.

A checker is worth trusting only because it is small and separate from the
algorithm whose output it checks (McConnell, Mehlhorn, Naher & Schweitzer,
"Certifying algorithms", 2011).  So this module reads the game only through
`periodic` and the graphs it holds, and never imports `solver` or `search`:
a wrong solver cannot make its own policy pass, and checking a bag strategy
loads no solver.  `tests/test_check.py` imports it with those two modules
blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .periodic import PeriodicGraph


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

    def __post_init__(self):
        # types only: verify_policy checks the cops against a graph
        if type(self.k) is not int or self.k < 1:
            raise ValueError("CopPolicy: k must be an int >= 1: %r" % (self.k,))
        if type(self.initial_cops) is not tuple:
            raise ValueError("CopPolicy: initial_cops must be a tuple: %r"
                             % (self.initial_cops,))
        if not callable(self.step):
            raise ValueError("CopPolicy: step must be callable: %r" % (self.step,))
        try:
            hash(self.initial_memory)
        except TypeError:
            raise ValueError("CopPolicy: initial_memory must be hashable: %r"
                             % (self.initial_memory,)) from None


@dataclass
class PolicyVerification:
    wins: bool
    max_capture_moves: int | None = None
    counterexample: list | None = None
    states_explored: int = 0


def _multiset_move_feasible(g, old, new):
    """Can the cop multiset ``old`` become the sorted multiset ``new`` in one
    round of g?  The first cop takes each distinct value of ``new`` in its
    closed neighbourhood, and the other cops must match what is left."""
    if not old:
        return not new
    m = g.nbr_mask(old[0])
    for j, v in enumerate(new):
        if (m >> v) & 1 and (j == 0 or v != new[j - 1]):
            if _multiset_move_feasible(g, old[1:], new[:j] + new[j + 1:]):
                return True
    return False


def verify_policy(pg, policy):
    """Explore every robber line against a fixed cop policy, depth first.

    A node is a (t, cops, robber, memory) position with the cops to move; the
    policy fixes the cop move, so only the robber branches.  A node's value is
    1 when the policy's move captures, and otherwise 1 + the worst value over
    the robber's replies that do not step onto a cop.  A reply already on the
    depth-first path closes a robber-safe cycle: the pass stops there with
    wins=False, that cycle as the counterexample, and states_explored counting
    the nodes entered so far.  Otherwise wins=True reports the worst start's
    value as max_capture_moves and every reachable node as states_explored.
    Infeasible policy moves raise ValueError naming the state, as do cops,
    initial or moved to, that are not vertices of pg, and a step that does
    not return a pair (cops, memory) with a hashable memory.
    """
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    if type(policy) is not CopPolicy:
        raise ValueError("policy must be a CopPolicy: %r" % (policy,))
    p, n = pg.period, pg.n

    def vertices(cops, where, *args):
        # bool is not an int here, as in the SolveResult queries
        try:
            for v in cops:
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError("%s: cop %r is not a vertex of 0..%d"
                                     % (where % args, v, n - 1))
        except TypeError:
            raise ValueError("%s is not an iterable of vertices: %r"
                             % (where % args, cops)) from None
        return tuple(sorted(cops))

    start_cops = vertices(policy.initial_cops, "policy initial placement")
    if len(start_cops) != policy.k:
        raise ValueError("policy initial placement has wrong size")

    def replies(node):
        t, cops, robber, memory = node
        g = pg.snapshots[t]
        step = policy.step(memory, t, cops, robber)
        try:
            new_cops, new_mem = step
            hash(new_mem)
        except (TypeError, ValueError):
            raise ValueError("policy step at t=%d cops=%s robber=%d is not a pair "
                             "(cops, hashable memory): %r"
                             % (t, list(cops), robber, step)) from None
        new_cops = vertices(new_cops, "policy move at t=%d cops=%s robber=%d",
                            t, list(cops), robber)
        if not _multiset_move_feasible(g, cops, new_cops):
            raise ValueError(
                "infeasible policy move at t=%d cops=%s robber=%d: %s"
                % (t, list(cops), robber, list(new_cops))
            )
        if robber in new_cops:
            return iter(())
        t1 = (t + 1) % p
        return iter([(t1, new_cops, r2, new_mem)
                     for r2 in g.closed_nbrs(robber) if r2 not in new_cops])

    value = {}  # node -> cop moves to capture
    # the depth-first path: [node, its unexplored replies, worst explored
    # value], below a root whose replies are the robber's starts
    path = [[None, iter([(0, start_cops, r0, policy.initial_memory)
                         for r0 in range(pg.n) if r0 not in start_cops]), 0]]
    on_path = {}  # node -> its index in path
    while True:
        node = next(path[-1][1], None)
        if node is None:
            node, _rest, worst = path.pop()
            if not path:
                return PolicyVerification(
                    wins=True, max_capture_moves=worst, states_explored=len(value)
                )
            del on_path[node]
            value[node] = 1 + worst  # and falls through to its parent's worst
        if node in on_path:
            cycle = [f[0] for f in path[on_path[node]:]] + [node]
            return PolicyVerification(
                wins=False,
                counterexample=[{"t": t, "cops": list(c), "robber": r}
                                for (t, c, r, _m) in cycle],
                states_explored=len(value) + len(on_path),
            )
        if node in value:
            path[-1][2] = max(path[-1][2], value[node])
        else:
            on_path[node] = len(path)
            path.append([node, replies(node), 0])


def validate_witness(pg, w):
    """Re-check a witness against the raw snapshot neighborhoods.  False
    unless w is a 3-tuple (t, u, covers) with covers a tuple, t an int, and
    the corner vertex and its covers distinct vertices: ints in 0..n-1, bool
    excluded."""
    if type(pg) is not PeriodicGraph:
        raise ValueError("pg must be a PeriodicGraph: %r" % (pg,))
    if not isinstance(w, tuple) or len(w) != 3 or type(w[2]) is not tuple:
        return False
    t, u, covers = w
    vs = (u,) + covers
    if type(t) is not int or not all(
            type(v) is int and 0 <= v < pg.n for v in vs):
        return False
    if len(set(vs)) != len(vs):
        return False
    gt = pg.snapshots[t % pg.period]
    gn = pg.snapshots[(t + 1) % pg.period]
    need = set(gt.closed_nbrs(u))
    have = set()
    for y in covers:
        have.update(gn.closed_nbrs(y))
    return need <= have
