"""Property-directed reconstruction of instances known only by their properties.

Some target instances have no explicit edge lists, only constraints: snapshot
shape, footprint facts, corner-freeness and the solver-verified triple.  Each
search family is a stream of candidates, each (instance, witness params) or
None, and one loop in `search` drives every stream under the same
`max_tries` and deadline.  One list of target predicates, cheapest first,
decides the candidates.  `check_targets` screens a candidate in one pass: it
stops at the first failure, and for a candidate that passes it returns the
certificate, what each predicate computed.  `certify` re-evaluates the whole
list on a given instance, such as a shipped witness.  Each snapshot and
footprint constraint kind is declared once, with its fields and its test,
and each rule a spec's values obey is one row of the `_RULES` table, which
`SearchSpec` walks when it is built and `search` and `certify` walk again on
entry; a target, hint or `edge_layers` key is known exactly when it has a
row.  Only the rules that compare fields are named checks.  What each family
needs of its spec is stated once, in `_check_family`, which runs after the
rows, so `search` refuses no spec that `SearchSpec` accepts.
Witnesses ship as data files and regenerate from (spec, seed).
`verify_table` checks the paper's 27-row (a, b, c) table: each row comes from
the generator or named spec that states its triple, and a named spec's
shipped witness is checked by `certify`.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

from .graphs import (
    Graph,
    PETERSEN_EDGES,
    Retraction,
    check_retraction,
    cycle_graph,
    dismantle,  # unused here; perfbench/probes.py wraps search.dismantle
    domination_number,
    girth,
    masks_connected,
    petersen_graph,
)
from .periodic import PeriodicGraph, footprint, induced
# find_temporal_corners is unused here; perfbench/probes.py wraps it
from .corners import (
    find_k_temporal_corners,
    find_temporal_corners,
    has_k_temporal_corner,
    layer_corners,
)
from .constructions import GENERATORS, ConstructionSpecimen, circulant_123
from .instancefile import parse
# for perfbench/workloads.py (corpus), tests/test_acceptance.py (criteria 4, 8, 10)
from .census import _canonical_graph_masks, smallest_3copwin_scan
from . import solver as _solver


# the circulant strides when a spec lists none
_STRIDES = (1, 2, 3, 4, 5)
_FAMILIES = ("subgraph_assignment", "hamiltonian_path", "girth_snapshots",
             "circulant", "petersen_blocks")


def _check_constraint(what, constraint, kinds):
    if not constraint:
        return
    kind = constraint.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError("unknown %s constraint kind: %s" % (what, kind))
    need, may, _test = kinds[kind]
    given = set(constraint) - {"kind"}
    missing, unknown = need - given, given - need - may
    if missing:
        raise ValueError("%s constraint %s is missing fields: %s"
                         % (what, kind, sorted(missing)))
    if unknown:
        raise ValueError("unknown fields of %s constraint %s: %s"
                         % (what, kind, sorted(unknown)))


def _ints(value, lo=-math.inf, hi=math.inf):
    """Whether ``value`` is a list of ints in [lo, hi) (bool is not an int)."""
    return isinstance(value, (list, tuple)) and all(
        type(x) is int and lo <= x < hi for x in value)


def _is_order(value, n):
    """Whether ``value`` lists 0..n-1, each once."""
    return _ints(value, 0, n) and sorted(value) == list(range(n))


def _is_edge(value, spec):
    return _ints(value, 0, spec.n) and len(value) == 2 and value[0] != value[1]


# The spec rules, one row each: (place, key, test on (value, spec), rule).
# `SearchSpec` walks them in this order over each value given at a place and
# raises "<place> <key> must <rule>: <value>" at the first that fails;
# %(n)d, %(p)d and %(last)d in a rule stand for n, p and n - 1.  A key's
# later rows read only what its earlier ones passed.  Each edge a constraint
# lists is checked as that place's `edge`, after the constraint's own keys.
_RULES = (
    ("search spec", "name", lambda v, s: isinstance(v, str), "be a string"),
    ("search spec", "n", lambda v, s: _ints([v], 1), "be an int >= 1"),
    ("search spec", "p", lambda v, s: _ints([v], 1), "be an int >= 1"),
    ("search spec", "seed", lambda v, s: _ints([v]), "be an int"),
    ("search spec", "max_tries", lambda v, s: _ints([v], 0), "be an int >= 0"),
    ("search spec", "budget_seconds", lambda v, s: type(v) in (int, float),
     "be an int or a float"),
    # NaN never expires as a deadline; infinity means none
    ("search spec", "budget_seconds", lambda v, s: not math.isnan(v), "not be NaN"),
    *(("search spec", key, lambda v, s: isinstance(v, dict), "be an object")
      for key in ("snapshot_constraint", "footprint_constraint", "targets", "hints")),
    *(("search target", key, lambda v, s: _ints([v], 1), "be an int >= 1")
      for key in ("copnum", "footprint_copnum", "snapshot_copnums_all", "gamma_g0")),
    ("search target", "no_corner_k", lambda v, s: _ints(v, 1),
     "be a list of ints >= 1"),
    ("search target", "triple", lambda v, s: isinstance(v, (list, tuple))
     and len(v) == 3 and _ints([w for w in v if w is not None], 1),
     "be a list of three ints >= 1 or nulls"),
    ("search target", "induced_copnum", lambda v, s: isinstance(v, dict)
     and set(v) == {"vertices", "value"} and _ints(v["vertices"], 0, s.n)
     and len(v["vertices"]) > 0 and _ints([v["value"]], 1),
     "be {vertices: a non-empty list of ints in [0, %(n)d), value: an int >= 1}"),
    ("search target", "retract_premise_fails", lambda v, s: isinstance(v, dict)
     and set(v) == {"removed", "kept", "images"} and _ints([v["removed"]], 0, s.n)
     and _ints(v["kept"], 0, s.n) and _ints(v["images"], 0, s.n),
     "be {removed: an int in [0, %(n)d), kept and images: lists of ints in "
     "[0, %(n)d)}"),
    # with no image no retraction is checked, and the target always holds
    ("search target", "retract_premise_fails", lambda v, s: len(v["images"]) > 0,
     "list at least one image"),
    ("search hint", "g0_path", lambda v, s: _is_order(v, s.n),
     "be an order of 0..%(last)d"),
    ("search hint", "g1_fragments", lambda v, s: isinstance(v, (list, tuple))
     and all(isinstance(f, (list, tuple)) for f in v)
     and _is_order([u for f in v for u in f], s.n),
     "be lists that together order 0..%(last)d"),
    ("search hint", "suffix", lambda v, s: _ints(v), "be a list of ints"),
    ("search hint", "edge_layers", lambda v, s: isinstance(v, (list, tuple))
     and all(isinstance(h, dict) for h in v), "be a list of objects"),
    ("edge_layers hint", "edge", _is_edge, "be two distinct ints in [0, %(n)d)"),
    *(("edge_layers hint", key, lambda v, s: _ints(v, 0, s.p),
       "be a list of ints in [0, %(p)d)") for key in ("require", "forbid")),
    ("snapshot constraint", "edges", lambda v, s: isinstance(v, (list, tuple)),
     "be a list"),
    ("snapshot constraint", "pattern", lambda v, s: isinstance(v, (list, tuple))
     and len(v) == s.p, "be a list of length p = %(p)d"),
    # pattern entries are group keys: ints only, never lists or a mix
    ("snapshot constraint", "pattern", lambda v, s: _ints(v), "be a list of ints"),
    *(("snapshot constraint", key, lambda v, s: _ints([v], 3), "be an int >= 3")
      for key in ("girth", "cycle_length")),
    ("snapshot constraint", "strides", lambda v, s: _ints(v, 1, s.n),
     "be a list of ints in [1, %(n)d)"),
    ("snapshot constraint", "edge", _is_edge, "be two distinct ints in [0, %(n)d)"),
    ("footprint constraint", "vertex", lambda v, s: _ints([v], 0, s.n),
     "be an int in [0, %(n)d)"),
    ("footprint constraint", "edges", lambda v, s: isinstance(v, (list, tuple)),
     "be a list"),
    ("footprint constraint", "edge", _is_edge, "be two distinct ints in [0, %(n)d)"),
)
# place -> its rows as (key, test, rule), in table order
_PLACE_RULES = {place: [(k, t, r) for pl, k, t, r in _RULES if pl == place]
                for place in dict.fromkeys(pl for pl, *_ in _RULES)}
# the places whose keys are known exactly when they have a row -> what an
# unknown one is called
_KEYED = {"search target": "targets", "search hint": "hints",
          "edge_layers hint": "edge_layers keys"}


def _given(spec):
    """(place, the values given there) past the spec's own fields, in table
    order; each is read only once the rows before it passed."""
    yield "search target", spec.targets
    yield "search hint", spec.hints
    for h in spec.hints.get("edge_layers", ()):
        yield "edge_layers hint", {"edge": None, **h}  # `edge` is required
    for place, c in (("snapshot constraint", spec.snapshot_constraint),
                     ("footprint constraint", spec.footprint_constraint)):
        yield place, c
        for e in c.get("edges", ()):
            yield place, {"edge": e}


def _check_family(spec):
    """Raise ValueError at the first thing the spec's family needs: a field
    its stream reads, or values its candidates can meet (a search that could
    never meet them would only run to its budget).  Every value read here
    has passed its `_RULES` rows and the `edge_layers` checks."""
    f, n, p, c = spec.family, spec.n, spec.p, spec.snapshot_constraint
    if f == "subgraph_assignment":
        needs = [("edges" in c, "snapshot constraint field edges")]
    elif f == "hamiltonian_path":
        # a path has no cycle, and gives the hub at most two neighbours a
        # snapshot
        needs = [(c.get("kind") not in ("girth", "circulant",
                                        "spanning_subgraph_with_cycle"),
                  "a snapshot constraint kind that a path can meet: %r"
                  % c.get("kind")),
                 (spec.footprint_constraint.get("kind") != "universal_vertex"
                  or 2 * p >= n - 1, "2p >= n - 1 with a universal_vertex "
                  "footprint: n = %d, p = %d" % (n, p))]
    elif f == "girth_snapshots":
        # connected girth-4 snapshots, so at least a 4-cycle's vertices and a
        # connected footprint
        fc = spec.footprint_constraint
        needs = [(c.get("kind", "girth") == "girth",
                  "snapshot constraint kind = 'girth': %r" % c.get("kind")),
                 (c.get("girth", 4) == 4,
                  "snapshot constraint girth = 4: %r" % c.get("girth")),
                 (n >= 4, "n >= 4: %d" % n),
                 (fc.get("kind") != "equals"
                  or Graph(n, _edge_list(fc["edges"])).is_connected(),
                  "a connected footprint: equals %r" % (fc.get("edges"),))]
    elif f == "circulant":
        # circulant_123 instances: Z_11, one stride a step, an odd number of
        # strides covering 1..5 exactly, and some order with no two
        # cyclically consecutive strides equal, which exists iff no stride
        # fills more than half of the steps
        strides = c.get("strides", _STRIDES)
        needs = [((n, p) == (11, len(strides)) and len(strides) % 2 == 1
                  and set(strides) == set(_STRIDES)
                  and max(map(strides.count, _STRIDES)) <= len(strides) // 2,
                  "n = 11 and p = the number of strides, an odd number >= 5 of "
                  "strides covering 1..5, none in more than half the steps: "
                  "n = %d, p = %d, strides %r" % (n, p, strides))]
    else:  # petersen_blocks: Petersen's 5-cycles, grown to spanning subgraphs
        needs = [("pattern" in c, "snapshot constraint field pattern"),
                 (n == 10, "n = 10: %d" % n),
                 (c.get("cycle_length", 5) == 5,
                  "snapshot constraint cycle_length = 5: %r" % c.get("cycle_length"))]
    for ok, need in needs:
        if not ok:
            raise ValueError("search family %s needs %s" % (f, need))


@dataclass
class SearchSpec:
    name: str
    n: int
    p: int
    family: str                  # subgraph_assignment | hamiltonian_path | girth_snapshots | circulant | petersen_blocks
    snapshot_constraint: dict = field(default_factory=dict)
    footprint_constraint: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)
    hints: dict = field(default_factory=dict)
    seed: int = 0
    budget_seconds: float = 1800.0
    max_tries: int = 500_000

    def __post_init__(self):
        self._check("search spec", vars(self))
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ValueError("unknown search family: %s" % self.family)
        _check_constraint("snapshot", self.snapshot_constraint, _SNAPSHOT_KINDS)
        _check_constraint("footprint", self.footprint_constraint, _FOOTPRINT_KINDS)
        for place, given in _given(self):
            self._check(place, given)
        # the hints steer the layers of the snapshot constraint's edges only
        allowed = set(_edge_list(self.snapshot_constraint.get("edges", ())))
        hinted = set()
        for h in self.hints.get("edge_layers", ()):
            (e,) = _edge_list([h["edge"]])
            if e not in allowed:
                raise ValueError("edge_layers hint edge is not among the snapshot "
                                 "constraint's edges: %r" % (h["edge"],))
            if e in hinted:
                raise ValueError("edge_layers hints name one edge twice: %r"
                                 % (h["edge"],))
            hinted.add(e)
        _check_family(self)

    def _check(self, place, given):
        """Raise ValueError at the first unknown key or failing row of
        ``given``, the values at ``place``."""
        if place in _KEYED:
            unknown = set(given) - {key for key, _t, _r in _PLACE_RULES[place]}
            if unknown:
                raise ValueError("unknown search %s: %s"
                                 % (_KEYED[place], sorted(unknown)))
        for key, test, rule in _PLACE_RULES[place]:
            if key in given and not test(given[key], self):
                if "%(" in rule:  # n and p passed their rows, which name neither
                    rule %= {"n": self.n, "p": self.p, "last": self.n - 1}
                raise ValueError("%s %s must %s: %r" % (place, key, rule, given[key]))

    def as_dict(self):
        return asdict(self)


@dataclass
class SearchOutcome:
    status: str                  # found | exhausted | budget
    spec: SearchSpec
    witness: ConstructionSpecimen | None = None
    certificates: dict = field(default_factory=dict)
    tried: int = 0

    def as_dict(self):
        out = {
            "status": self.status,
            "spec": self.spec.name,
            "seed": self.spec.seed,
            "tried": self.tried,
            "certificates": self.certificates,
        }
        if self.witness is not None:
            out["witness_triple"] = list(self.witness.expected_triple)
        return out


def spec_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError("search spec must be an object, not %s" % type(d).__name__)
    unknown = set(d) - {f.name for f in fields(SearchSpec)}
    if unknown:
        raise ValueError("unknown search spec fields: %s" % sorted(unknown))
    missing = {"name", "n", "p", "family"} - set(d)
    if missing:
        raise ValueError("missing search spec fields: %s" % sorted(missing))
    return SearchSpec(**d)


# ---------------------------------------------------------------------------
# target checking


def _edge_list(edges):
    """Spec edges as Graph stores them: (min, max) pairs."""
    return [(min(u, v), max(u, v)) for u, v in edges]


def _retract_premise_fails(pg, target):
    """Every listed retraction must hold on the footprint but break on a snapshot."""
    removed = target["removed"]
    kept = target["kept"]
    foot = footprint(pg)
    for image in target["images"]:
        m = {v: v for v in range(pg.n)}
        m[removed] = image
        if not check_retraction(Retraction(foot, kept, m)):
            return False
        if all(
            check_retraction(Retraction(g, kept, m)) for g in pg.snapshots
        ):
            return False
    return True


def _is_hamiltonian_path(g):
    if len(g.edges) != g.n - 1 or not g.is_connected():
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs[0] == 1 and degs[1] == 1 and all(d == 2 for d in degs[2:])


def _subgraphs_of(pg, c):
    allowed = frozenset(_edge_list(c["edges"]))
    return all(g.edges <= allowed for g in pg.snapshots)


def _stride_cycles(pg, c):
    """Every snapshot is the stride-s cycle on Z_n for a listed stride s; a
    stride that n divides (`certify` may get another n) gives no cycle."""
    cycles = [cycle_graph(pg.n, s).edges for s in c.get("strides", _STRIDES)
              if s % pg.n]
    return all(g.edges in cycles for g in pg.unique_snapshots)


def _spanning_with_cycle(pg, c):
    base = frozenset(_edge_list(c["edges"]))
    clen = c["cycle_length"]
    for g in pg.unique_snapshots:
        if not (g.edges <= base and g.is_connected() and girth(g) == clen):
            return False
    # each snapshot equals the first one of its pattern group
    first = {}
    return all(first.setdefault(gid, g.edges) == g.edges
               for gid, g in zip(c.get("pattern", ()), pg.snapshots))


# constraint kind -> (fields it needs besides `kind`, fields it may have, its
# test on (instance, constraint)).  The tests name `girth` and `footprint` in
# their bodies, so a wrapper put on either module attribute sees every call.
_SNAPSHOT_KINDS = {
    "subgraph_of": ({"edges"}, set(), _subgraphs_of),
    "hamiltonian_path": (set(), set(), lambda pg, c: all(
        _is_hamiltonian_path(g) for g in pg.snapshots)),
    "girth": ({"girth"}, set(), lambda pg, c: all(
        g.is_connected() and girth(g) == c["girth"] for g in pg.snapshots)),
    "circulant": (set(), {"strides"}, _stride_cycles),
    "spanning_subgraph_with_cycle": ({"edges", "cycle_length"}, {"pattern"},
                                     _spanning_with_cycle),
}
_FOOTPRINT_KINDS = {
    "equals": ({"edges"}, set(), lambda pg, c:
               footprint(pg).edges == frozenset(_edge_list(c["edges"]))),
    "universal_vertex": ({"vertex"}, set(), lambda pg, c:
                         footprint(pg).degree(c["vertex"]) == pg.n - 1),
    "connected": (set(), set(), lambda pg, c: footprint(pg).is_connected()),
}


def _holds(pg, constraint, kinds):
    """Whether `pg` meets a snapshot or footprint constraint; none always holds."""
    return not constraint or kinds[constraint["kind"]][2](pg, constraint)


def _predicates(pg, spec):
    """Yield (passed, certificate entries) once per target, cheapest first.

    Nothing is computed before its predicate is reached, so a caller that
    stops at the first failure pays only for the predicates up to it.  An
    entry may be a zero-argument callable, computed only if read: a failing
    `no_corner_k` counts its corners only for `certify`, which calls it.  A
    `copnum` target needs only the periodic ascent, so it is decided before
    `triple()`, which serves every other cop-number target: most candidates
    fail it, and the few that pass ascend once more inside the triple.
    """
    t = spec.targets
    ok = _holds(pg, spec.footprint_constraint, _FOOTPRINT_KINDS)
    yield ok, {"footprint_ok": ok}
    for k in t.get("no_corner_k", ()):
        if not has_k_temporal_corner(pg, k):
            yield True, {"corners_k%d" % k: 0}
        else:
            yield False, {"corners_k%d" % k:
                          lambda k=k: len(find_k_temporal_corners(pg, k))}
    if "gamma_g0" in t:
        gamma = domination_number(pg.snapshots[0])
        yield gamma == t["gamma_g0"], {"gamma_g0": gamma}
    # after the cheap tests (girth is costly), before the far costlier triple
    ok = _holds(pg, spec.snapshot_constraint, _SNAPSHOT_KINDS)
    yield ok, {"snapshots_ok": ok}
    if "copnum" in t:
        yield _solver.cop_number(pg) == t["copnum"], {}
    tr = _solver.triple(pg)
    yield True, {"triple": list(tr.abc), "min_snapshot_copnum": tr.min_snapshot_copnum}
    if "snapshot_copnums_all" in t:
        v = t["snapshot_copnums_all"]
        yield tr.min_snapshot_copnum == v == tr.max_snapshot_copnum, {}
    if "footprint_copnum" in t:
        yield tr.footprint_copnum == t["footprint_copnum"], {}
    if "triple" in t:
        yield all(w is None or w == g for w, g in zip(t["triple"], tr.abc)), {}
    if "induced_copnum" in t:
        sub, _ = induced(pg, t["induced_copnum"]["vertices"])
        got = _solver.cop_number(sub)
        yield got == t["induced_copnum"]["value"], {"induced_copnum": got}
    if "retract_premise_fails" in t:
        ok = _retract_premise_fails(pg, t["retract_premise_fails"])
        yield ok, {"retract_premise_fails": ok}


def check_targets(pg, spec):
    """Screen cheap-first: None at the first target predicate that fails,
    else the certificate, every predicate's entries and `verified`."""
    certs = {}
    for passed, entries in _predicates(pg, spec):
        if not passed:
            return None
        certs.update(entries)
    certs["verified"] = True
    return certs


def certify(pg, spec):
    """Re-evaluate a given instance: every target predicate, what each one
    computed, and whether all passed.  The instance must have the spec's n;
    its period may differ from the spec's p."""
    spec.__post_init__()  # a field may have been assigned since construction
    if pg.n != spec.n:
        raise ValueError("certify: the instance has n=%d, spec %r has n=%d"
                         % (pg.n, spec.name, spec.n))
    certs = {}
    ok = True
    for passed, entries in _predicates(pg, spec):
        ok = ok and passed
        certs.update((key, v() if callable(v) else v) for key, v in entries.items())
    certs["verified"] = ok
    return certs


# ---------------------------------------------------------------------------
# candidate generation per family


def _path_from_perm(n, perm):
    return Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])


def _gen_hamiltonian(spec, rng):
    """Chain corner-free random paths, steering coverage of the hub vertex.

    The first snapshots follow the spec hints (a fixed opening path and a set
    of forced edges in the second snapshot) for a while, then fall back to
    fully random openings.
    """
    n, p = spec.n, spec.p
    hub = spec.footprint_constraint.get("vertex")
    g0_hint = spec.hints.get("g0_path")
    g1_frags = spec.hints.get("g1_fragments")
    hint_rounds = 10_000
    tries_per_slot = 300

    def hub_nbrs(perm):
        i = perm.index(hub)
        return {perm[j] for j in (i - 1, i + 1) if 0 <= j < n}

    round_no = 0
    while True:
        round_no += 1
        use_hint = g0_hint is not None and round_no <= hint_rounds
        if use_hint:
            perm0 = list(g0_hint)
        else:
            perm0 = list(range(n))
            rng.shuffle(perm0)
        graphs = [_path_from_perm(n, perm0)]
        cover = set() if hub is None else hub_nbrs(perm0)
        for t in range(1, p):
            for _ in range(tries_per_slot):
                if use_hint and t == 1 and g1_frags:
                    frags = [list(f) for f in g1_frags]
                    rng.shuffle(frags)
                    perm = []
                    for f in frags:
                        if rng.random() < 0.5:
                            f.reverse()
                        perm.extend(f)
                else:
                    perm = list(range(n))
                    rng.shuffle(perm)
                g = _path_from_perm(n, perm)
                if any(layer_corners(graphs[-1], g, first=True)):
                    continue
                if t == p - 1 and any(layer_corners(g, graphs[0], first=True)):
                    continue
                if hub is not None:
                    nbrs = hub_nbrs(perm)
                    missing = (n - 1) - len(cover)
                    if missing > 0 and not (nbrs - cover) and p - t <= missing + 1:
                        continue
                    cover |= nbrs
                graphs.append(g)
                break
            else:
                break
        if len(graphs) < p or hub is not None and len(cover) != n - 1:
            yield None
            continue
        yield PeriodicGraph(graphs), {}


# the largest n whose draws keep a verdict table: 2^n sides, each with one
# byte per subset of its at most 12 cross pairs, 343 KB for n <= 7 together;
# at n = 8 it would be 16 MB
_GIRTH4_TABLE_MAX_N = 7
# a draw's verdict: 0 not judged yet, 1 rejected, or 2 + gamma accepted
# with domination number gamma
_REJECTED, _ACCEPTED = 1, 2
# n -> (a `_SideRows` row per side, a verdict per draw), built on the first
# draw at that n
_GIRTH4_TABLES = {}
# a random() call's first 32-bit word's top byte -> b"1" iff random() < 0.5
_BELOW_HALF = bytes.maketrans(bytes(range(256)), b"1" * 128 + b"0" * 128)


def _coin_flips(rng, m):
    """b"1"/b"0" for each of m `rng.random() < 0.5` draws, consuming the same
    Mersenne-Twister words: random() reads two 32-bit words and is below 0.5
    exactly when the first one's top bit is clear, and getrandbits(64 m)
    packs the same 2m words least significant first."""
    return rng.getrandbits(64 * m).to_bytes(8 * m, "little")[3::8].translate(_BELOW_HALF)


# coins a refill reads ahead from the RNG, or as many as one draw needs
_COIN_BLOCK = 4096


class _SideRows(dict):
    """Side s -> (its cross pairs, their count, the verdict index of its
    first draw), built on first read; s reads vertex 0 as its top bit, as
    int(coins, 2) does.  Each side's draws take the next 2^count indices,
    and ``size`` counts them.  The two one-sided splits have no cross
    pairs and one draw each, the edgeless graph, rejected on first sight."""

    def __init__(self, n):
        self.n, self.size = n, 0

    def __missing__(self, s):
        side = format(s, "0%db" % self.n)
        # the pairs u < v that the side puts apart
        pairs = [(u, v) for u, v in itertools.combinations(range(self.n), 2)
                 if side[u] != side[v]]
        row = self[s] = (pairs, len(pairs), self.size)
        self.size += 1 << len(pairs)
        return row


def _girth4_table(n):
    """(rows, verdicts) of the draws on n vertices: a list and a bytearray
    kept across searches up to `_GIRTH4_TABLE_MAX_N`, and past it a fresh
    `_SideRows` and dict for one window of `_girth4_draws`."""
    if n > _GIRTH4_TABLE_MAX_N:
        return _SideRows(n), collections.defaultdict(int)
    table = _GIRTH4_TABLES.get(n)
    if table is None:
        rows = _SideRows(n)
        table = _GIRTH4_TABLES[n] = ([rows[s] for s in range(1 << n)],
                                     bytearray(rows.size))
    return table


def _connected_girth4(masks):
    """Graph._of(masks) if it is connected with girth 4, else None."""
    if masks_connected(masks):
        g = Graph._of(masks)
        if girth(g) == 4:
            return g
    return None


def _girth4_draws(rng, n):
    """Yield (a connected girth-4 graph on n vertices, its domination
    number) per window of at most 200 draws, or (None, None) if the
    window accepted none.

    A draw splits the vertices by one coin each and keeps each of the m
    pairs across the split by another: n + m coins of `random() < 0.5`
    calls, on which lem122's witness depends.  A one-sided split (m = 0)
    is the edgeless graph, never accepted.  The coins come from ``rng``
    through `_coin_flips` into ``buf``, and a draw parses the n + n^2/4
    coins from ``at`` as one int, which holds its side and, below it, its
    cross coins; it then moves ``at`` past the n + m it used.  One refill,
    at least `_COIN_BLOCK` coins, runs before a draw whose parse would run
    past the end, so the RNG runs ahead of the last coin used.  Only a
    draw not rejected before slices its cross coins and builds its
    closed-neighborhood masks from its kept pairs; an accepted draw is
    the Graph of those masks.

    For n <= 7 a draw is one of few: 2^n sides, each with at most 2^12
    subsets of its cross pairs (18,306 draws in all at n = 6).  A search
    samples far more draws than that (lem122's makes 555,197 at n = 6), so
    most draws repeat.  The verdict table of n, one byte per draw, is a
    cache that the loop reads before it builds a draw's masks: the
    connectivity, girth and domination tests run once per draw, a rejected
    draw seen before costs one read, and an accepted one only its masks.
    For n >= 8 the table would take 16 MB or more, so every draw is tested,
    and the domination number is None, left to a caller that needs it.
    """
    ones = [1 << v for v in range(n)]
    # a draw reads n coins for its side and m <= most = n^2/4 for its pairs;
    # w holds need = n + most coins, its side in the top n bits and its
    # pairs' coins in the next m
    most = n * n // 4
    need, low = n + most, (1 << most) - 1
    buf, at, end = b"", 0, -1
    while True:
        rows, verdicts = _girth4_table(n)
        g = gamma = None
        for _ in range(200):
            if at > end:
                buf = buf[at:] + _coin_flips(rng, max(_COIN_BLOCK, need))
                at, end = 0, len(buf) - need
            w = int(buf[at:at + need], 2)
            pairs, m, base = rows[w >> most]
            i = base + ((w & low) >> most - m)
            at += n + m
            verdict = verdicts[i]
            if verdict == _REJECTED:
                continue
            masks = ones[:]
            for (u, v), c in zip(pairs, buf[at - m:at]):
                if c == 49:  # b"1"
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            if verdict:
                g, gamma = Graph._of(masks), verdict - _ACCEPTED
                break
            g = _connected_girth4(masks)
            if g is None:
                verdicts[i] = _REJECTED
                continue
            if n <= _GIRTH4_TABLE_MAX_N:
                gamma = domination_number(g)
                verdicts[i] = _ACCEPTED + gamma
            break
        yield g, gamma


def _gen_girth(spec, rng):
    """Candidates of connected girth-4 snapshots, the windows of one
    `_girth4_draws` stream of ``rng``.  A ``gamma_g0`` target reads G_0's
    domination number from the draws, and computes it only past the
    verdict tables."""
    n, p = spec.n, spec.p
    gamma0 = spec.targets.get("gamma_g0")
    draws = _girth4_draws(rng, n)
    while True:
        for _ in range(200):
            g0, gamma = next(draws)
            # gamma is None past the verdict tables, and never 0
            if g0 is not None and (
                gamma0 is None or gamma0 == (gamma or domination_number(g0))
            ):
                break
        else:
            yield None
            continue
        rest = [next(draws)[0] for _ in range(p - 1)]
        if any(g is None for g in rest):
            yield None
            continue
        yield PeriodicGraph([g0] + rest), {}


def _petersen_five_cycles():
    """Petersen's twelve 5-cycles as sorted edge lists, in sorted order.

    Petersen has girth 5, so five vertices that span five edges form a
    5-cycle.
    """
    pet = petersen_graph()
    cycles = []
    for combo in itertools.combinations(range(10), 5):
        edges = [e for e in itertools.combinations(combo, 2) if pet.has_edge(*e)]
        if len(edges) == 5:
            cycles.append(edges)
    return sorted(cycles)


def _gen_petersen_blocks(spec, rng):
    """Unicyclic spanning subgraphs of Petersen, each repeated along a pattern."""
    cycles = _petersen_five_cycles()
    pattern = spec.snapshot_constraint["pattern"]
    groups = sorted(set(pattern))
    while True:
        want = set(PETERSEN_EDGES)
        per_group = {}
        for gid in groups:
            cyc = rng.choice(cycles)
            edges = {tuple(e) for e in cyc}
            verts = {v for e in edges for v in e}
            while len(verts) < 10:
                cands = [
                    (u, v)
                    for (u, v) in PETERSEN_EDGES
                    if (u in verts) != (v in verts)
                ]
                wanted = [e for e in cands if e in want]
                e = (
                    rng.choice(wanted)
                    if wanted and rng.random() < 0.8
                    else rng.choice(cands)
                )
                edges.add(e)
                verts.update(e)
            g = Graph(10, sorted(edges))
            want -= g.edges
            per_group[gid] = g
        if want:
            yield None
            continue
        yield PeriodicGraph([per_group[gid] for gid in pattern]), {}


def _pg_from_assignment(n, p, edges, assign):
    layer_edges = [[] for _ in range(p)]
    for e, layers in zip(edges, assign):
        for t in layers:
            layer_edges[t].append(e)
    return PeriodicGraph([Graph(n, le) for le in layer_edges])


def _iter_subgraph_assignments(spec):
    """Deterministic exhaustive order: hinted sub-space first, then the rest."""
    n, p = spec.n, spec.p
    edges = _edge_list(spec.snapshot_constraint["edges"])
    subs = [frozenset(t for t in range(p) if (s >> t) & 1) for s in range(1, 1 << p)]
    layers = spec.hints.get("edge_layers", ())
    hint = dict(zip(_edge_list(h["edge"] for h in layers), layers))

    def options(e):
        h = hint.get(e)
        if h is None:
            return subs
        req = set(h.get("require", ()))
        forb = set(h.get("forbid", ()))
        return [s for s in subs if req <= s and not (forb & s)]

    hinted = [options(e) for e in edges] if hint else None
    if hinted:
        for assign in itertools.product(*hinted):
            yield _pg_from_assignment(n, p, edges, assign), {}
    for assign in itertools.product(subs, repeat=len(edges)):
        if hinted and all(s in h for s, h in zip(assign, hinted)):
            continue  # tried in the hinted phase
        yield _pg_from_assignment(n, p, edges, assign), {}


def _local_moves(spec, rng):
    """Random walk over layer assignments: toggle one layer of one edge a step."""
    n, p = spec.n, spec.p
    edges = _edge_list(spec.snapshot_constraint["edges"])
    assign = [frozenset(rng.sample(range(p), rng.randint(1, p))) for _ in edges]
    while True:
        yield _pg_from_assignment(n, p, edges, assign), {}
        i = rng.randrange(len(edges))
        s = set(assign[i])
        s.symmetric_difference_update({rng.randrange(p)})
        if s:
            assign[i] = frozenset(s)


def _distinct_orders(items):
    """Each distinct order of ``items`` once, in lexicographic order, one at
    a time (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def _iter_circulant(spec):
    """Distinct stride orders, those ending in the hinted suffix first, each
    phase lexicographic; None where circulant_123 rejects one."""
    strides = spec.snapshot_constraint.get("strides", _STRIDES)
    suffix = tuple(spec.hints.get("suffix", ()))
    rest = list(strides)
    try:
        for s in suffix:
            rest.remove(s)
    except ValueError:
        rest = None  # no order ends in the suffix
    hinted = () if rest is None else (q + suffix for q in _distinct_orders(rest))
    unhinted = (q for q in _distinct_orders(strides)
                if q[len(q) - len(suffix):] != suffix)
    for q in itertools.chain(hinted, unhinted):
        steps = list(q)
        try:
            specimen = circulant_123(steps)
        except ValueError:
            yield None
            continue
        yield specimen.instance, {"steps": steps}


def _candidates(spec, rng):
    """The family's candidate stream: (instance, witness params) or None."""
    if spec.family == "subgraph_assignment":
        space = ((1 << spec.p) - 1) ** len(spec.snapshot_constraint["edges"])
        if space <= 10**7:
            return _iter_subgraph_assignments(spec)
        return _local_moves(spec, rng)
    if spec.family == "circulant":
        return _iter_circulant(spec)
    # looked up per call: the benchmark wraps the module-level _gen_girth
    stream = {"hamiltonian_path": _gen_hamiltonian, "girth_snapshots": _gen_girth,
              "petersen_blocks": _gen_petersen_blocks}[spec.family]
    return stream(spec, rng)


def search(spec):
    """Run a reconstruction search; (spec, seed) fully determines the outcome.

    Every family is a stream of candidates: exhaustive families a fixed
    order, randomized ones draws from random.Random(seed).  One loop counts
    each candidate drawn as a try and screens it once with `check_targets`:
    the first that passes is the witness, and the screen's dict is its
    certificate.  `max_tries` and `budget_seconds` only truncate ("budget"),
    so a found witness never depends on machine speed; a stream that runs
    out is "exhausted".  The spec's rules are checked again first, since a
    field may have been assigned since construction.
    """
    spec.__post_init__()
    rng = random.Random(spec.seed)
    deadline = time.monotonic() + spec.budget_seconds
    tried = 0
    for candidate in _candidates(spec, rng):
        if tried >= spec.max_tries or time.monotonic() > deadline:
            return SearchOutcome("budget", spec, tried=tried)
        tried += 1
        if candidate is None:
            continue
        pg, params = candidate
        certs = check_targets(pg, spec)
        if certs is None:
            continue
        witness = ConstructionSpecimen(
            name=spec.name,
            instance=pg,
            expected_triple=tuple(certs["triple"]),
            provenance="reconstruction-required",
            params={"seed": spec.seed, "tried": tried, **params},
        )
        return SearchOutcome("found", spec, witness, certs, tried)
    return SearchOutcome("exhausted", spec, tried=tried)


# ---------------------------------------------------------------------------
# named specs


def named_specs():
    return {
        "thm112": SearchSpec(
            name="thm112",
            n=9,
            p=9,
            family="hamiltonian_path",
            snapshot_constraint={"kind": "hamiltonian_path"},
            footprint_constraint={"kind": "universal_vertex", "vertex": 8},
            targets={"no_corner_k": [1], "triple": [1, 1, 2]},
            hints={
                "g0_path": [7, 0, 2, 6, 5, 3, 1, 4, 8],
                "g1_fragments": [[0, 3, 6], [1, 5], [7, 8], [2], [4]],
            },
        ),
        "lem122": SearchSpec(
            name="lem122",
            n=6,
            p=3,
            family="girth_snapshots",
            snapshot_constraint={"kind": "girth", "girth": 4},
            footprint_constraint={"kind": "connected"},
            targets={
                "no_corner_k": [1],
                "gamma_g0": 2,
                "snapshot_copnums_all": 2,
                "triple": [1, 2, 2],
            },
        ),
        "circulant_123": SearchSpec(
            name="circulant_123",
            n=11,
            p=5,
            family="circulant",
            snapshot_constraint={"kind": "circulant", "strides": [1, 2, 3, 4, 5]},
            footprint_constraint={
                "kind": "equals",
                "edges": sorted(itertools.combinations(range(11), 2)),
            },
            targets={
                "no_corner_k": [2],
                "snapshot_copnums_all": 2,
                "triple": [1, 2, 3],
            },
            hints={"suffix": [1, 4]},
        ),
        "prop3_retract": SearchSpec(
            name="prop3_retract",
            n=5,
            p=3,
            family="subgraph_assignment",
            snapshot_constraint={
                "kind": "subgraph_of",
                "edges": [[0, 1], [0, 3], [1, 2], [1, 4], [2, 3], [2, 4]],
            },
            footprint_constraint={
                "kind": "equals",
                "edges": [[0, 1], [0, 3], [1, 2], [1, 4], [2, 3], [2, 4]],
            },
            targets={
                "copnum": 1,
                "induced_copnum": {"vertices": [0, 1, 2, 3], "value": 2},
                "retract_premise_fails": {
                    "removed": 4,
                    "kept": [0, 1, 2, 3],
                    "images": [1, 2],
                },
            },
            hints={
                "edge_layers": [
                    {"edge": (1, 2), "require": [0], "forbid": [1, 2]},
                    {"edge": (1, 4), "require": [1]},
                    {"edge": (2, 4), "require": [2]},
                ]
            },
        ),
        "search_321": SearchSpec(
            name="search_321",
            n=10,
            p=20,
            family="petersen_blocks",
            snapshot_constraint={
                "kind": "spanning_subgraph_with_cycle",
                "edges": [list(e) for e in PETERSEN_EDGES],
                "cycle_length": 5,
                "pattern": [i // 4 for i in range(20)],
            },
            footprint_constraint={
                "kind": "equals",
                "edges": [list(e) for e in PETERSEN_EDGES],
            },
            targets={"snapshot_copnums_all": 2, "triple": [3, 2, 1]},
        ),
    }


def get_spec(name):
    specs = named_specs()
    if name not in specs:
        raise ValueError(
            "unknown spec %r; known: %s" % (name, sorted(specs))
        )
    return specs[name]


# ---------------------------------------------------------------------------
# the paper's (a, b, c) table

# the rows no construction settles either way: (x, 1, 3)
UNDETERMINED = ((1, 1, 3), (2, 1, 3), (3, 1, 3))


def verify_table(skip_search=False):
    """The 27 (a, b, c) rows, each checked against the one source stating it.

    A generator whose expected triple has no `None` is the source of that
    row, which passes when `triple` of its instance equals it.  A named spec
    with a `triple` target is the source of that row, which passes when
    `certify` accepts its shipped witness (`skipped` under `skip_search`,
    `missing-witness` when none ships).  A solve over the state budget makes
    the row `budget-error`.  Every other row is `UNDETERMINED` or `external`.
    """
    sources = {}
    for name, make in GENERATORS.items():
        specimen = make()
        if None not in specimen.expected_triple:
            sources[specimen.expected_triple] = (name, specimen.instance, None)
    for name, spec in named_specs().items():
        if "triple" in spec.targets:
            sources[tuple(spec.targets["triple"])] = (name, None, spec)
    rows = []
    for abc in itertools.product((1, 2, 3), repeat=3):
        row = {"a": abc[0], "b": abc[1], "c": abc[2]}
        rows.append(row)
        if abc in UNDETERMINED:
            row.update(source="undetermined", status="UNDETERMINED")
            continue
        if abc not in sources:
            row.update(source="external", status="external")
            continue
        row["source"], pg, spec = sources[abc]
        if spec is not None:
            if skip_search:
                row["status"] = "skipped"
                continue
            try:
                pg, _meta = load_witness(row["source"])
            except FileNotFoundError:
                row["status"] = "missing-witness"
                continue
        try:
            if spec is None:
                computed = list(_solver.triple(pg).abc)
                passed = computed == list(abc)
            else:
                certs = certify(pg, spec)
                computed, passed = certs["triple"], certs["verified"]
        except _solver.BudgetError as e:
            row.update(status="budget-error", detail=str(e))
            continue
        row.update(computed=computed, status="PASS" if passed else "FAIL")
    return rows


# ---------------------------------------------------------------------------
# shipped witnesses


def _read_witness(name, suffix, what):
    path = resources.files("percop").joinpath(
        "data/witnesses/%s%s" % (name, suffix)
    )
    if not path.is_file():
        raise FileNotFoundError("missing witness %s for spec %r" % (what, name))
    return path.read_bytes()


def load_witness(name):
    """Parse a shipped witness instance file: (PeriodicGraph, meta)."""
    return parse(_read_witness(name, ".json", "file"))


def load_witness_certificate(name):
    return json.loads(_read_witness(name, ".cert.json", "certificate"))
