import json
from pathlib import Path

import jsonschema
import pytest

from infgon import Arc, HalfLeft, parse_document, serialize_document
from infgon.documents import REPORT_SCHEMA, arcset_to_json
from infgon.errors import ParseError, ValidationError

EXAMPLE = Path(__file__).resolve().parent.parent / "demos" / "example_sets.json"


def test_parse_example_file():
    doc = parse_document(EXAMPLE.read_bytes())
    assert doc.params.n == 3
    assert set(doc.sets) == {"X", "Y", "Ync", "D", "P"}
    x = doc.sets["X"]
    assert x.explicit == frozenset({Arc(-4, 3), Arc(-4, 6)})
    assert doc.sets["Y"].families[0] == HalfLeft(-4)


def test_round_trip():
    doc = parse_document(EXAMPLE.read_bytes())
    again = parse_document(serialize_document(doc))
    assert again.params == doc.params
    assert again.sets == doc.sets
    assert serialize_document(again) == serialize_document(doc)


def test_parse_errors():
    with pytest.raises(ParseError, match="line"):
        parse_document(b"{not json")
    with pytest.raises(ParseError, match="UTF-8"):
        parse_document(b"\xff\xfe")
    with pytest.raises(ValidationError, match="top level"):
        parse_document(b"[1, 2]")
    with pytest.raises(ValidationError, match="n:"):
        parse_document(b'{"n": 0, "sets": {}}')
    with pytest.raises(ParseError, match="nests"):
        parse_document("[" * 100000 + "]" * 100000)



def test_integer_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="too long"):
        parse_document('{"n": 3, "sets": {"A": {"explicit": [[1, %s]]}}}' % ("9" * 5000))

def test_validation_errors_carry_locus():
    with pytest.raises(ValidationError, match=r"sets\.A\.explicit\[0\].*admissible"):
        parse_document(json.dumps({"n": 3, "sets": {"A": {"explicit": [[3, 6]]}}}))
    with pytest.raises(ValidationError, match=r"sets\.A\.explicit\[1\].*t < u"):
        parse_document(
            json.dumps({"n": 3, "sets": {"A": {"explicit": [[-4, 3], [5, 5]]}}})
        )
    with pytest.raises(ValidationError, match=r"families\[0\].*spiral"):
        parse_document(
            json.dumps({"n": 3, "sets": {"A": {"families": [{"kind": "spiral"}]}}})
        )
    for doc, locus in [
        ({"n": 3, "sets": {"A": {"explicit": [[1, "5"]]}}}, r"sets\.A\.explicit\[0\].*pair"),
        ({"n": 3, "sets": {}, "m": 1}, r"top level.*unknown fields \['m'\]"),
        ({"n": 3, "sets": [["A"]]}, r"sets: expected an object"),
        ({"n": 3, "sets": {"A": [[1, 5]]}}, r"sets\.A: expected an object"),
        ({"n": 3, "sets": {"A": {"arcs": []}}}, r"sets\.A: unknown fields \['arcs'\]"),
        ({"n": 3, "sets": {"A": {"families": [{"p": 1}]}}}, r"sets\.A\.families\[0\].*'kind'"),
        ({"n": 3, "sets": {"A": {"explicit": 5}}}, r"sets\.A\.explicit: expected a list"),
        ({"n": 3, "sets": {"A": {"families": None}}}, r"sets\.A\.families: expected a list"),
    ]:
        with pytest.raises(ValidationError, match=locus):
            parse_document(json.dumps(doc))
    doc = parse_document(json.dumps({"n": 3, "sets": {}}))
    with pytest.raises(ValidationError, match="no set named"):
        doc.require("missing")


def test_arcset_json_is_sorted():
    doc = parse_document(EXAMPLE.read_bytes())
    out = arcset_to_json(doc.sets["P"])
    assert out["explicit"] == [[-4, 0], [-4, 3], [-1, 3]]


def test_report_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    sample = {
        "command": "check-pair",
        "inputs": {"x": "X", "y": "Y"},
        "verdict": False,
        "witnesses": [-4, [-1, 3], "note"],
        "timing_ms": 1.25,
        "details": {},
    }
    jsonschema.validate(sample, REPORT_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"command": "x"}, REPORT_SCHEMA)
