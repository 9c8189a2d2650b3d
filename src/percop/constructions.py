"""Deterministic generators for the fully prose-specified instances.

Each generator returns a ConstructionSpecimen carrying the triple it is
expected to realize; solver-verified equality of triple(instance) with that
value is the repo's golden test.  The paper's vertex names (Petersen's a-j
with the apexes x and y, Q3's bit strings) ride on the specimen as labels
for its instance file.  Instances known only by their properties
are not guessed here; the search module reconstructs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    Graph,
    PETERSEN_EDGES,
    PETERSEN_LABELS,
    petersen_graph,
    radius,
    spanning_tree_cover,
)
from .periodic import PeriodicGraph, constant
from .corners import find_k_temporal_corners


@dataclass
class ConstructionSpecimen:
    name: str
    instance: PeriodicGraph
    expected_triple: tuple  # entries may be None when the statement leaves them open
    provenance: str         # "fully-specified" | "reconstruction-required"
    params: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)  # vertex -> name in the instance file


def q3_rotation():
    """Footprint Q3, period 3; snapshot t holds exactly the edges flipping bit t.

    Each snapshot is a perfect matching, yet three cops are needed and two
    never suffice.  The max-snapshot entry of the triple is left open: the
    snapshots are disconnected and their static game value is a solver-level
    convention.
    """
    snaps = []
    for bit in range(3):
        edges = [(u, u ^ (1 << bit)) for u in range(8) if u < (u ^ (1 << bit))]
        snaps.append(Graph(8, edges))
    return ConstructionSpecimen(
        name="q3_rotation",
        instance=PeriodicGraph(snaps),
        expected_triple=(2, None, 3),
        provenance="fully-specified",
        labels={u: format(u, "03b") for u in range(8)},
    )


def bowtie_221():
    """Two 4-cycles sharing a hub; each half-period hides one far edge.

    The lone cop guards the hub until the robber's cycle degrades to a path.
    """
    hub = 0
    cycle_a = [(0, 1), (1, 2), (2, 3), (0, 3)]
    cycle_b = [(0, 4), (4, 5), (5, 6), (0, 6)]
    all_edges = cycle_a + cycle_b
    drop_a = (1, 2)
    drop_b = (4, 5)
    g_early = Graph(7, [e for e in all_edges if e != drop_a])
    g_late = Graph(7, [e for e in all_edges if e != drop_b])
    snaps = [g_early] * 3 + [g_late] * 3
    return ConstructionSpecimen(
        name="bowtie_221",
        instance=PeriodicGraph(snaps),
        expected_triple=(2, 2, 1),
        provenance="fully-specified",
        params={"hub": hub},
    )


def petersen_132():
    """Petersen plus an apex x, period 50.

    Every fifth snapshot is the full Petersen graph with a single x edge,
    cycling all ten attachments in label order; in between sits the sparse
    connected graph H = outer cycle + spokes + the ax edge.
    """
    n = 11
    x = 10
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    h = Graph(n, outer + spokes + [(0, x)])
    snaps = []
    for t in range(50):
        if t % 5 == 0:
            w = t // 5
            snaps.append(Graph(n, list(PETERSEN_EDGES) + [(w, x)]))
        else:
            snaps.append(h)
    return ConstructionSpecimen(
        name="petersen_132",
        instance=PeriodicGraph(snaps),
        expected_triple=(1, 3, 2),
        provenance="fully-specified",
        labels={**PETERSEN_LABELS, x: "x"},
    )


def petersen_231():
    """Petersen plus x over the outer cycle and y over the inner one, period 55.

    Every eleventh snapshot is the full Petersen with one x edge and one y
    edge (attachments paired in label order); the other fifty snapshots are a
    fixed low-eccentricity spanning tree.
    """
    n = 12
    x, y = 10, 11
    # BFS tree of Petersen from vertex a, plus x hung on b and y on f
    tree = [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (3, 4), (4, 9), (5, 7), (5, 8)]
    t_snap = Graph(n, tree + [(1, x), (5, y)])
    ecc_center = min(max(t_snap.bfs_dist(u)) for u in range(n))
    if ecc_center > 4:
        raise AssertionError(
            "petersen_231 self-check failed: tree eccentricity %d > 4" % ecc_center
        )
    snaps = []
    for t in range(55):
        if t % 11 == 0:
            j = t // 11
            snaps.append(Graph(n, list(PETERSEN_EDGES) + [(j, x), (5 + j, y)]))
        else:
            snaps.append(t_snap)
    return ConstructionSpecimen(
        name="petersen_231",
        instance=PeriodicGraph(snaps),
        expected_triple=(2, 3, 1),
        provenance="fully-specified",
        labels={**PETERSEN_LABELS, x: "x", y: "y"},
    )


def petersen_311():
    """All snapshots are spanning trees of Petersen; the first block repeats a
    central BFS tree long enough for one cop to sweep it, and the tail covers
    the remaining edges."""
    pet = petersen_graph()
    cover = spanning_tree_cover(pet)
    first = cover[0]
    block = radius(first) + 1
    snaps = [first] * block + cover[1:]
    return ConstructionSpecimen(
        name="petersen_311",
        instance=PeriodicGraph(snaps),
        expected_triple=(3, 1, 1),
        provenance="fully-specified",
        params={"tree_block": block, "cover_size": len(cover)},
        labels=dict(PETERSEN_LABELS),
    )


def circulant_123(steps):
    """Snapshots are stride-s_t cycles on Z_11; footprint K11.

    Validates the construction preconditions: odd period at least 5, strides in
    1..5 covering all five values, and no two consecutive strides equal (the
    condition blocking 2-temporal corners).  The triple is expected to be
    (1,2,3), but no canonical stride order is fixed here, so the specimen is
    marked reconstruction-required until a solver run confirms it.
    """
    steps = list(steps)
    p = len(steps)
    if p < 5 or p % 2 == 0:
        raise ValueError("circulant_123 requires odd period >= 5")
    if any(not (1 <= s <= 5) for s in steps):
        raise ValueError("circulant_123 strides must lie in 1..5")
    if any(steps[t] == steps[(t + 1) % p] for t in range(p)):
        raise ValueError("circulant_123 forbids equal consecutive strides")
    if set(steps) != {1, 2, 3, 4, 5}:
        raise ValueError("circulant_123 strides must cover {1,2,3,4,5}")
    snaps = []
    for s in steps:
        edges = set()
        for u in range(11):
            v = (u + s) % 11
            edges.add((min(u, v), max(u, v)))
        snaps.append(Graph(11, sorted(edges)))
    return ConstructionSpecimen(
        name="circulant_123",
        instance=PeriodicGraph(snaps),
        expected_triple=(1, 2, 3),
        provenance="reconstruction-required",
        params={"steps": steps},
    )


def extend_odd(specimen, extra_pairs):
    """Append copies of the last two stride-cycles, keeping the period odd.

    Re-checks that no 2-temporal corner appears in the longer instance.
    """
    if "steps" not in specimen.params:
        raise ValueError("extend_odd applies to circulant_123 specimens")
    if extra_pairs < 0:
        raise ValueError("extra_pairs must be >= 0")
    if extra_pairs == 0:
        return specimen
    steps = list(specimen.params["steps"])
    steps = steps + steps[-2:] * extra_pairs
    out = circulant_123(steps)
    if find_k_temporal_corners(out.instance, 2):
        raise ValueError("extension introduced a 2-temporal corner")
    return ConstructionSpecimen(
        name="%s_ext%d" % (specimen.name, extra_pairs),
        instance=out.instance,
        expected_triple=specimen.expected_triple,
        provenance=specimen.provenance,
        params={"steps": steps},
    )


def constant_specimen(name, g, p, expected_triple):
    """Constant-sequence instance: all three cop numbers equal the static one."""
    return ConstructionSpecimen(
        name=name,
        instance=constant(g, p),
        expected_triple=expected_triple,
        provenance="fully-specified",
    )


def diagonal_111():
    return constant_specimen("diagonal_111", Graph(2, [(0, 1)]), 2, (1, 1, 1))


def diagonal_222():
    from .graphs import cycle_graph

    return constant_specimen("diagonal_222", cycle_graph(4), 2, (2, 2, 2))


def diagonal_333():
    specimen = constant_specimen("diagonal_333", petersen_graph(), 2, (3, 3, 3))
    specimen.labels = dict(PETERSEN_LABELS)
    return specimen


GENERATORS = {
    "q3_rotation": q3_rotation,
    "bowtie_221": bowtie_221,
    "petersen_132": petersen_132,
    "petersen_231": petersen_231,
    "petersen_311": petersen_311,
    "diagonal_111": diagonal_111,
    "diagonal_222": diagonal_222,
    "diagonal_333": diagonal_333,
}
