import json
import math
import time
import tracemalloc

import pytest

from percop.graphs import Graph, LimitError
from percop.periodic import PeriodicGraph
from percop.instancefile import (
    _EXPECTED_FIELDS,
    MAX_ADJACENCY_BITS,
    InstanceError,
    parse,
    serialize,
)
from percop.solver import DEFAULT_STATE_BUDGET
from percop.constructions import q3_rotation, petersen_132
from conftest import random_graph, random_periodic


def roundtrip(pg, **kw):
    text = serialize(pg, **kw)
    back, meta = parse(text)
    return text, back, meta


class TestRoundTrip:
    def test_q3(self):
        pg = q3_rotation().instance
        text, back, _meta = roundtrip(pg)
        assert back == pg
        assert serialize(back) == text  # byte-identical on canonical files

    def test_labels_preserved(self):
        specimen = petersen_132()
        text, back, meta = roundtrip(specimen.instance, labels=specimen.labels)
        assert meta["labels"][10] == "x"
        assert serialize(back, labels=meta["labels"]) == text

    def test_expected_block(self):
        pg = q3_rotation().instance
        text, _back, meta = roundtrip(pg, expected={"copnum": 3})
        assert meta["expected"] == {"copnum": 3}

    def test_random_instances(self, rng):
        for _ in range(15):
            pg = random_periodic(rng, rng.randint(1, 6), rng.randint(1, 4))
            text, back, _ = roundtrip(pg)
            assert back == pg
            assert serialize(back) == text

    def test_shipped_corpus_is_canonical(self):
        # every shipped witness file parses and re-serializes byte-identically
        from importlib import resources

        folder = resources.files("percop").joinpath("data/witnesses")
        names = [
            p.name for p in folder.iterdir()
            if p.name.endswith(".json") and not p.name.endswith(".cert.json")
        ]
        assert len(names) == 5
        for name in names:
            raw = folder.joinpath(name).read_text()
            pg, meta = parse(raw)
            assert serialize(pg, labels=meta["labels"],
                             expected=meta["expected"]) == raw


class TestRoundTripFuzz:
    """serialize against json.dumps at indent 2 of the instance object, and
    parse back to the same graph and meta, on seeded random instances."""

    # quotes, backslashes, control characters, non-ASCII text, an astral
    # character, a line separator and a lone surrogate
    CHARS = 'aZ7 "\\/\n\t\x00\x1f\x7fé中\U0001f600\u2028\ud800'

    def test_seeded_instances(self, rng):
        wide = empty = 0
        for _ in range(300):
            n, p = rng.randint(1, 12), rng.randint(1, 4)
            pg = PeriodicGraph([random_graph(rng, n, rng.choice((0.0, 0.2, 0.5, 0.9)))
                                for _ in range(p)])
            labels = {v: "".join(rng.choice(self.CHARS) for _ in range(rng.randint(0, 6)))
                      for v in rng.sample(range(n), rng.randint(0, n))}
            expected = {f: rng.randint(1, 12) for f in _EXPECTED_FIELDS if rng.random() < 0.5}
            obj = {
                "version": 1,
                "n": n,
                "period": p,
                "snapshots": [[list(e) for e in g.sorted_edges()] for g in pg.snapshots],
            }
            if labels:
                obj["labels"] = {str(v): s for v, s in labels.items()}
            if expected:
                obj["expected"] = expected
            text = serialize(pg, labels=labels, expected=expected)
            assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
            back, meta = parse(text)
            assert back == pg
            assert meta == {"labels": labels, "expected": expected or None}
            wide += any(v >= 10 for v in labels)
            empty += any(not g.sorted_edges() for g in pg.snapshots)
        assert wide >= 20 and empty >= 50


def base_obj():
    return {
        "version": 1,
        "n": 4,
        "period": 2,
        "snapshots": [[[0, 1], [1, 2]], [[2, 3]]],
    }


def parse_obj(obj):
    return parse(json.dumps(obj))


class TestErrors:
    def expect(self, obj, code):
        with pytest.raises(InstanceError) as err:
            parse_obj(obj)
        assert err.value.code == code

    def test_bad_json_syntax(self):
        with pytest.raises(InstanceError) as err:
            parse("{nope")
        assert err.value.code == "syntax"
        assert "line" in str(err.value)

    def test_bytes_not_utf8(self):
        with pytest.raises(InstanceError, match="not UTF-8 text") as err:
            parse(b'{"version": 1, "labels": {"0": "\xff"}}')
        assert err.value.code == "syntax"
        assert "byte 32" in str(err.value)

    @pytest.mark.parametrize("data", ["[" * 10**5, b"[" * 10**5, '{"a": ' * 10**5])
    def test_nested_deeper_than_the_recursion_limit(self, data):
        with pytest.raises(InstanceError, match="nested too deeply") as err:
            parse(data)
        assert err.value.code == "syntax"

    @pytest.mark.parametrize("data", [
        '{"version": 1, "n": ' + "9" * 5000 + "}",
        b'{"version": 1, "n": 4, "period": 1, "snapshots": [[[0, -' + b"1" * 5000 + b"]]]}",
    ])
    def test_integer_literal_too_long_for_int(self, data):
        with pytest.raises(InstanceError, match="invalid JSON") as err:
            parse(data)
        assert err.value.code == "syntax"

    def test_self_loop(self):
        obj = base_obj()
        obj["snapshots"][0].append([3, 3])
        self.expect(obj, "self-loop")

    def test_period_mismatch(self):
        obj = base_obj()
        obj["period"] = 3
        self.expect(obj, "period-mismatch")

    def test_duplicate_edge(self):
        obj = base_obj()
        obj["snapshots"][0].append([0, 1])
        self.expect(obj, "duplicate-edge")

    def test_out_of_range(self):
        obj = base_obj()
        obj["snapshots"][1].append([1, 9])
        self.expect(obj, "index-range")

    def test_edge_order(self):
        obj = base_obj()
        obj["snapshots"][1].append([3, 1])
        self.expect(obj, "edge-order")

    def test_unknown_top_field(self):
        obj = base_obj()
        obj["color"] = "blue"
        self.expect(obj, "unknown-field")

    def test_unknown_expected_field(self):
        obj = base_obj()
        obj["expected"] = {"copnum": 1, "speed": 2}
        self.expect(obj, "unknown-field")

    def test_missing_field(self):
        obj = base_obj()
        del obj["n"]
        self.expect(obj, "missing-field")

    def test_bad_version(self):
        obj = base_obj()
        obj["version"] = 2
        self.expect(obj, "version")

    def test_bad_label_key(self):
        obj = base_obj()
        obj["labels"] = {"x": "a"}
        self.expect(obj, "field-type")

    def test_label_out_of_range(self):
        obj = base_obj()
        obj["labels"] = {"7": "a"}
        self.expect(obj, "index-range")

    # bool is an int in Python and 2.0 == 2: neither is a JSON integer

    def test_bool_n(self):
        obj = base_obj()
        obj["n"] = True
        obj["snapshots"] = [[], []]
        self.expect(obj, "field-type")

    def test_float_period(self):
        obj = base_obj()
        obj["period"] = 2.0
        self.expect(obj, "field-type")

    def test_float_version(self):
        obj = base_obj()
        obj["version"] = 1.0
        self.expect(obj, "version")

    def test_bool_edge(self):
        obj = base_obj()
        obj["snapshots"][1].append([False, True])
        self.expect(obj, "field-type")

    def test_bool_expected(self):
        obj = base_obj()
        obj["expected"] = {"copnum": True}
        self.expect(obj, "field-type")

    def test_non_canonical_label_key(self):
        obj = base_obj()
        obj["labels"] = {"01": "a"}  # would re-serialize as "1"
        self.expect(obj, "field-type")

    def test_zero_period(self):
        obj = base_obj()
        obj["period"] = 0
        obj["snapshots"] = []
        self.expect(obj, "field-type")

    def test_expected_below_one(self):
        obj = base_obj()
        obj["expected"] = {"copnum": -3}
        self.expect(obj, "field-type")

    def test_non_string_label_value(self):
        obj = base_obj()
        obj["labels"] = {"0": 5}
        self.expect(obj, "field-type")

    def test_top_level_not_an_object(self):
        with pytest.raises(InstanceError, match="top level must be an object") as err:
            parse("[1, 2]")
        assert err.value.code == "syntax"

    @pytest.mark.parametrize("field, value, message", [
        ("snapshots", [[[0, 1]], 5], "snapshots must be a list of edge lists"),
        ("snapshots", {"0": []}, "snapshots must be a list of edge lists"),
        ("labels", ["a"], "labels must be an object"),
        ("expected", [3], "expected must be an object"),
    ])
    def test_wrong_container(self, field, value, message):
        obj = base_obj()
        obj[field] = value
        with pytest.raises(InstanceError, match=message) as err:
            parse_obj(obj)
        assert err.value.code == "field-type"


class TestSizeLimit:
    def test_huge_n_refused_before_allocating(self):
        data = b'{"version": 1, "n": 1000000, "period": 1, "snapshots": [[]]}'
        assert len(data) <= 64
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(LimitError, match="period \\* n\\*\\*2"):
                parse(data)
            elapsed = time.perf_counter() - start
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1 and peak < 10**6

    def test_limit_counts_every_snapshot(self):
        obj = {"version": 1, "n": 4000, "period": 4, "snapshots": [[]] * 4}
        with pytest.raises(LimitError):
            parse_obj(obj)

    def test_bound_admits_every_one_cop_budget(self):
        # the default state budget solves k = 1 while 2 * period * n**2 <= 1e8
        assert 2 * MAX_ADJACENCY_BITS >= DEFAULT_STATE_BUDGET
        n = math.isqrt(MAX_ADJACENCY_BITS)  # the largest n one snapshot may have
        assert parse_obj({"version": 1, "n": n, "period": 1,
                          "snapshots": [[]]})[0].n == n
        with pytest.raises(LimitError):
            parse_obj({"version": 1, "n": n + 1, "period": 1, "snapshots": [[]]})
