"""A second opinion on the shipped numbers, from tests/reference.py.

For each shipped instance the CLI's ``triple``, ``corners --k 1 | 2`` and
``treewidth`` outputs are read back as JSON and checked against the naive
reference, which shares no code with the solver, the corner scan or the
treewidth DP:

- the periodic cop number c, the footprint's a and each unique snapshot's
  own number are each a win for `reference_is_k_copwin` at that number and
  a loss at one less.  Snapshots are passed as they are, disconnected ones
  included, since the reference sums no components;
- the triple's max and min snapshot numbers are those snapshots' extremes;
- the footprint, rebuilt here from the snapshots' edges, has the
  treewidth of `reference_exact_treewidth`;
- the corner counts are those of `reference_corners`.

Tier-1 checks the nine instances that take about a second together.  CI
checks all thirteen, and the periodic cop number of three pads of
``q3_rotation``, whose snapshots need four cops on 12 to 14 vertices.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from percop.cli import main as cli_main
from percop.constructions import GENERATORS
from percop.graphs import Graph
from percop.instancefile import serialize
from percop.periodic import constant, pad
from percop.search import load_witness
from percop.solver import static_cop_number

from conftest import WITNESS_NAMES
from reference import (
    reference_corners,
    reference_exact_treewidth,
    reference_is_k_copwin,
)

# the four shipped instances that take a second or more each, CI's alone
SLOW = ("petersen_132", "q3_rotation", "petersen_231", "circulant_123")
SHIPPED = tuple(GENERATORS) + WITNESS_NAMES


def shipped(name):
    """The shipped instance ``name``: a generator's, or a witness file's."""
    if name in GENERATORS:
        return GENERATORS[name]().instance
    return load_witness(name)[0]


def q3_pads():
    """``q3_rotation`` padded to 12, 13 and 14 vertices at vertex 0."""
    return [pad(shipped("q3_rotation"), n, 0) for n in (12, 13, 14)]


def _has_cop_number(pg, c, what):
    assert reference_is_k_copwin(pg, c), "%s: %d cops lose" % (what, c)
    assert not reference_is_k_copwin(pg, c - 1), "%s: %d cops win" % (what, c - 1)


def _cli_outputs(pg, *commands):
    """The JSON that ``percop command FILE options`` prints, for each
    [command, *options] in ``commands``, FILE holding ``pg``."""
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(serialize(pg))
        for command, *options in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli_main([command, str(path), *options]) == 0, (command, options)
            outs.append(json.loads(out.getvalue()))
    return outs


class TestShippedNumbers:
    @staticmethod
    def check(pg):
        tr, k1, k2, tw = _cli_outputs(pg, ["triple"], ["corners", "--k", "1"],
                                      ["corners", "--k", "2"], ["treewidth"])
        _has_cop_number(pg, tr["copnum"], "the periodic graph")
        foot = Graph(pg.n, set().union(*(g.edges for g in pg.snapshots)))
        _has_cop_number(constant(foot, 1), tr["footprint_copnum"], "the footprint")
        own = []
        for t, g in enumerate(pg.snapshots):
            if g in pg.snapshots[:t]:
                continue
            own.append(static_cop_number(g))
            _has_cop_number(constant(g, 1), own[-1], "snapshot %d" % t)
        assert (tr["max_snapshot_copnum"], tr["min_snapshot_copnum"]) == (max(own), min(own))
        assert tw["treewidth"] == reference_exact_treewidth(foot)[0]
        assert [k1["count"], k2["count"]] == [len(reference_corners(pg, k)) for k in (1, 2)]

    @staticmethod
    def check_cop_number(pg):
        """The periodic cop number alone, for instances whose snapshots need
        too many cops, or whose footprint has too many vertices, for the
        rest of `check`."""
        [out] = _cli_outputs(pg, ["solve"])
        _has_cop_number(pg, out["cop_number"], "the periodic graph")

    @pytest.mark.parametrize("name", [s for s in SHIPPED if s not in SLOW])
    def test_cheap_instances_agree_with_the_reference(self, name):
        self.check(shipped(name))
