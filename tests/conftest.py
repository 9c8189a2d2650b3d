import itertools
import random
import signal
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from percop.graphs import Graph
from percop.periodic import PeriodicGraph, footprint
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


def connected_instances(n_max):
    """Every periodic graph on 2 to n_max vertices of period 1 or 2 whose
    footprint is connected."""
    for n in range(2, n_max + 1):
        gs = all_graphs(n)
        for p in (1, 2):
            for snaps in itertools.product(gs, repeat=p):
                pg = PeriodicGraph(list(snaps))
                if footprint(pg).is_connected():
                    yield pg


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


# seconds a test may run before it fails; the slowest passing test takes
# about 5 s, so a test past this is stuck, such as a search that no
# candidate can end once a solver misreports cop numbers
TEST_TIME_LIMIT = 120


def _time_limit_exceeded(signum, frame):
    # a failure without a traceback: formatting the traceback of a frame
    # that the alarm interrupted can crash pytest itself and end the session
    pytest.fail("test ran past its time limit of %d s" % TEST_TIME_LIMIT,
                pytrace=False)


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT seconds, where a real-time
    alarm can be armed: on POSIX, in the main thread."""
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_exceeded)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
