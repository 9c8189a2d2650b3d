"""The on-disk instance format: versioned JSON, canonically serialized.

A file holds one periodic graph: vertex count, period, per-snapshot edge
lists with u < v, optional vertex labels and an optional expected block of
cop numbers.  Labels and the expected block are file metadata: `parse`
returns them beside the graph, and `serialize_specimen` writes both for a
construction or found witness.  Serialization sorts edges and keys with
fixed spacing so that parse/serialize round-trips are byte-identical on
canonical files.  A file whose snapshots would need more than
`MAX_ADJACENCY_BITS` bits of adjacency masks is refused before any graph
is built.
"""

from __future__ import annotations

import json

from .graphs import Graph, LimitError
from .periodic import PeriodicGraph

FORMAT_VERSION = 1

# the most adjacency-mask bits, period * n**2, that a file's snapshots may
# take: every instance the default state budget can solve with one cop
# (2 * period * n**2 <= 10**8 states) fits
MAX_ADJACENCY_BITS = 5 * 10**7

_TOP_FIELDS = {"version", "n", "period", "snapshots", "labels", "expected"}
# the expected block's keys, in the order of a triple (a, b, c)
_EXPECTED_FIELDS = ("footprint_copnum", "max_snapshot_copnum", "copnum")


def _is_int(x):
    """A JSON integer: bool is an int in Python and 1.0 == 1, neither counts."""
    return isinstance(x, int) and not isinstance(x, bool)


class InstanceError(ValueError):
    """Malformed instance file; ``code`` is a stable machine-readable tag."""

    def __init__(self, code, message, context=None):
        self.code = code
        self.context = context
        where = " (%s)" % context if context else ""
        super().__init__("%s: %s%s" % (code, message, where))


def parse(data):
    """Parse instance bytes/text; returns (PeriodicGraph, meta).

    meta carries 'labels' (dict vertex->str) and 'expected' (dict or None);
    the graph carries neither.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InstanceError(
                "syntax", "not UTF-8 text", "byte %d" % e.start
            ) from e
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise InstanceError(
            "syntax", "invalid JSON: %s" % e.msg, "line %d" % e.lineno
        ) from e
    except RecursionError as e:
        raise InstanceError("syntax", "JSON nested too deeply") from e
    except ValueError as e:
        # int() refuses a literal of more than sys.get_int_max_str_digits()
        # digits; its message differs between Python versions
        raise InstanceError("syntax", "invalid JSON: an integer literal is too long") from e
    if not isinstance(obj, dict):
        raise InstanceError("syntax", "top level must be an object")
    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise InstanceError("unknown-field", "unknown fields %s" % sorted(unknown))
    for req in ("version", "n", "period", "snapshots"):
        if req not in obj:
            raise InstanceError("missing-field", "missing field %r" % req)
    if not _is_int(obj["version"]) or obj["version"] != FORMAT_VERSION:
        raise InstanceError(
            "version", "unsupported version %r" % obj["version"]
        )
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise InstanceError("field-type", "n must be a positive integer")
    period = obj["period"]
    if not _is_int(period) or period < 1:
        raise InstanceError("field-type", "period must be a positive integer")
    if period * n * n > MAX_ADJACENCY_BITS:
        raise LimitError(
            "instance size limit exceeded: period * n**2 = %d > %d"
            % (period * n * n, MAX_ADJACENCY_BITS)
        )
    snapshots = obj["snapshots"]
    if not isinstance(snapshots, list) or not all(
        isinstance(s, list) for s in snapshots
    ):
        raise InstanceError("field-type", "snapshots must be a list of edge lists")
    if period != len(snapshots):
        raise InstanceError(
            "period-mismatch",
            "period %r but %d snapshots" % (period, len(snapshots)),
        )
    labels = {}
    if "labels" in obj:
        if not isinstance(obj["labels"], dict):
            raise InstanceError("field-type", "labels must be an object")
        for k, v in obj["labels"].items():
            try:
                vi = int(k)
            except ValueError:
                vi = None
            if vi is None or str(vi) != k:
                raise InstanceError(
                    "field-type", "label key %r is not a vertex" % k
                )
            if not (0 <= vi < n):
                raise InstanceError("index-range", "label %r out of range" % k)
            if not isinstance(v, str):
                raise InstanceError(
                    "field-type", "label %r must be a string" % k
                )
            labels[vi] = v
    graphs = []
    for t, snap in enumerate(snapshots):
        ctx = "snapshot %d" % t
        seen = set()
        edges = []
        for e in snap:
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(_is_int(x) for x in e)
            ):
                raise InstanceError("field-type", "edge %r malformed" % (e,), ctx)
            u, v = e
            if u == v:
                raise InstanceError(
                    "self-loop", "self-loop forbidden: [%d,%d]" % (u, v), ctx
                )
            if u > v:
                raise InstanceError(
                    "edge-order", "edges must satisfy u < v: [%d,%d]" % (u, v), ctx
                )
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(
                    "index-range", "edge [%d,%d] out of range" % (u, v), ctx
                )
            if (u, v) in seen:
                raise InstanceError(
                    "duplicate-edge", "duplicate edge [%d,%d]" % (u, v), ctx
                )
            seen.add((u, v))
            edges.append((u, v))
        graphs.append(Graph(n, edges))
    expected = None
    if "expected" in obj:
        if not isinstance(obj["expected"], dict):
            raise InstanceError("field-type", "expected must be an object")
        unknown = set(obj["expected"]).difference(_EXPECTED_FIELDS)
        if unknown:
            raise InstanceError(
                "unknown-field", "unknown expected fields %s" % sorted(unknown)
            )
        for k, v in obj["expected"].items():
            if not _is_int(v) or v < 1:
                raise InstanceError(
                    "field-type", "expected.%s must be a positive integer" % k
                )
        expected = dict(obj["expected"])
    return PeriodicGraph(graphs), {"labels": labels, "expected": expected}


# one edge [u, v] of a snapshot, as json.dumps writes it at indent 2
_EDGE = "      [\n        %d,\n        %d\n      ]"


def _block(name, items):
    """The top-level field name holding the object of the (key, value)
    items, in sort_keys order, as json.dumps writes it at indent 2."""
    return '  "%s": {\n%s\n  },\n' % (name, ",\n".join(
        "    %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(items)))


def serialize(pg, labels=None, expected=None):
    """Canonical text form: sorted edges, sorted keys, two-space indent.

    Labels and the expected block are written only when given.  The text is
    `dump_json` of the instance object, written by string formatting since
    json's indenting encoder is pure Python; label strings and expected
    values go through json.dumps for their escapes, and labels are ordered
    by their string keys, as sort_keys orders them ("10" before "2").
    """
    out = ["{\n"]
    if expected:
        out.append(_block("expected", expected.items()))
    if labels:
        out.append(_block("labels", [(str(k), v) for k, v in labels.items()]))
    snaps = ",\n".join(
        "    [\n%s\n    ]" % ",\n".join(_EDGE % e for e in edges) if edges else "    []"
        for edges in (g.sorted_edges() for g in pg.snapshots))
    out.append('  "n": %d,\n  "period": %d,\n  "snapshots": [\n%s\n  ],\n'
               '  "version": %d\n}\n' % (pg.n, pg.period, snaps, FORMAT_VERSION))
    return "".join(out)


def serialize_specimen(specimen):
    """The instance file of a construction or found witness: its instance,
    its labels and the entries of its expected triple that are not None."""
    expected = {
        k: v for k, v in zip(_EXPECTED_FIELDS, specimen.expected_triple)
        if v is not None
    }
    return serialize(specimen.instance, specimen.labels, expected)


def dump_json(obj):
    """Canonical JSON for CLI reports: sorted keys, stable spacing."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
