import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from percop.graphs import Graph
from percop.periodic import PeriodicGraph
from percop.solver import triple
from percop import constructions


def random_graph(rng, n, p_edge):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p_edge
    ]
    return Graph(n, edges)


def random_connected_graph(rng, n, p_edge=0.4, attempts=500):
    for _ in range(attempts):
        g = random_graph(rng, n, p_edge)
        if g.is_connected():
            return g
    raise AssertionError("could not sample a connected graph")


def shuffled_union(rng, g, h):
    """The disjoint union of g and h, relabelled by a random permutation so
    that neither part is a block of consecutive vertices."""
    perm = list(range(g.n + h.n))
    rng.shuffle(perm)
    edges = list(g.edges) + [(g.n + u, g.n + v) for u, v in h.edges]
    return Graph(g.n + h.n, edges).relabel(perm)


def random_disjoint_union(rng, n_max):
    """The shuffled union of two random graphs, n_max vertices at most in all."""
    a = rng.randint(1, n_max - 1)
    b = rng.randint(1, n_max - a)
    return shuffled_union(rng, random_graph(rng, a, rng.uniform(0.15, 0.8)),
                          random_graph(rng, b, rng.uniform(0.15, 0.8)))


def random_periodic(rng, n, p, p_edge=0.4):
    return PeriodicGraph([random_graph(rng, n, p_edge) for _ in range(p)])


def random_temporally_connected(rng, n, p, p_edge=0.4):
    """First snapshot is a connected graph, so the footprint is connected."""
    g0 = random_connected_graph(rng, n, p_edge)
    rest = [random_graph(rng, n, p_edge) for _ in range(p - 1)]
    return PeriodicGraph([g0] + rest)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    return [
        Graph(n, [pairs[i] for i in range(m) if (mk >> i) & 1])
        for mk in range(1 << m)
    ]


WITNESS_NAMES = ("thm112", "lem122", "circulant_123", "prop3_retract", "search_321")

GOLDEN_NAMES = (
    "q3_rotation",
    "bowtie_221",
    "petersen_132",
    "petersen_231",
    "petersen_311",
)


@pytest.fixture(scope="session")
def golden_specimens():
    return {name: constructions.GENERATORS[name]() for name in GOLDEN_NAMES}


@pytest.fixture(scope="session")
def golden_triples(golden_specimens):
    return {
        name: triple(spec.instance)
        for name, spec in golden_specimens.items()
    }


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
