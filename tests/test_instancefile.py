import json

import pytest

from percop.graphs import Graph
from percop.periodic import PeriodicGraph
from percop.instancefile import InstanceError, parse, serialize
from percop.constructions import q3_rotation, petersen_132
from conftest import random_periodic


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
