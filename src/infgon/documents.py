"""JSON interchange: named arc sets in, structured reports out.

Input schema (one JSON object per file)::

    {
      "n": 3,
      "sets": {
        "X": {"explicit": [[-4, 3], [-4, 6]], "families": []},
        "Y": {"explicit": [],
              "families": [{"kind": "half_left", "p": -4},
                            {"kind": "band", "k_max": -5, "l_min": 6}]}
      }
    }

Family kinds are ``left_fan(p, s_max)``, ``right_fan(p, u_min)``,
``band(k_max, l_min)``, ``half_left(p)``, ``half_right(q)``.  Every explicit
arc is admissibility-checked against ``n`` at parse time.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from . import _EXPORTS
from .arcs import Arc, ModelParams, is_admissible
from .arcsets import ArcSet
from .errors import ParseError, ValidationError
from .families import family_from_json, family_to_json

__all__ = [*_EXPORTS["documents"], "REPORT_SCHEMA", "arcset_to_json"]


class Document(NamedTuple):
    params: ModelParams
    sets: dict[str, ArcSet]

    def require(self, name: str) -> ArcSet:
        if name not in self.sets:
            raise ValidationError(
                f"no set named {name!r}; document defines {sorted(self.sets)}"
            )
        return self.sets[name]


def _int_pair(v: object, locus: str) -> tuple[int, int]:
    if not isinstance(v, list) or len(v) != 2 or not all(type(x) is int for x in v):
        raise ValidationError(f"{locus}: expected a pair of integers, got {v!r}")
    return v[0], v[1]


def parse_document(data: bytes | str, n: int | None = None) -> Document:
    """Parse and validate a document; errors carry the offending locus.

    A given ``n`` replaces the document's modulus before validation.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}")
    except ValueError:  # an integer of more digits than the interpreter converts
        raise ParseError("input holds an integer too long to read") from None
    except RecursionError:  # arrays or objects nested deeper than the parser recurses
        raise ParseError("input nests arrays or objects too deeply") from None
    if not isinstance(obj, dict):
        raise ValidationError("top level: expected an object")
    unknown = set(obj) - {"n", "sets"}
    if unknown:
        raise ValidationError(f"top level: unknown fields {sorted(unknown)}")
    if n is None:
        n = obj.get("n")
    if type(n) is not int or n < 1:  # bool included
        raise ValidationError(f"n: expected a positive integer, got {n!r}")
    params = ModelParams(n)
    raw_sets = obj.get("sets", {})
    if not isinstance(raw_sets, dict):
        raise ValidationError("sets: expected an object of named arc sets")
    sets = {}
    for name, desc in raw_sets.items():
        locus = f"sets.{name}"
        if not isinstance(desc, dict):
            raise ValidationError(f"{locus}: expected an object")
        unknown = set(desc) - {"explicit", "families"}
        if unknown:
            raise ValidationError(f"{locus}: unknown fields {sorted(unknown)}")
        for field in ("explicit", "families"):
            if not isinstance(desc.get(field, []), list):
                raise ValidationError(f"{locus}.{field}: expected a list")
        explicit = []
        for i, pair in enumerate(desc.get("explicit", [])):
            t, u = _int_pair(pair, f"{locus}.explicit[{i}]")
            if t >= u:
                raise ValidationError(
                    f"{locus}.explicit[{i}]: endpoints must satisfy t < u, got [{t}, {u}]"
                )
            arc = Arc(t, u)
            if not is_admissible(arc, params):
                raise ValidationError(
                    f"{locus}.explicit[{i}]: arc {arc} is not admissible for n={n}"
                )
            explicit.append(arc)
        families = [
            family_from_json(f, f"{locus}.families[{i}]")
            for i, f in enumerate(desc.get("families", []))
        ]
        sets[name] = ArcSet.of(params, explicit, families)
    return Document(params, sets)


def arcset_to_json(s: ArcSet) -> dict:
    return {
        "explicit": [[a.t, a.u] for a in sorted(s.explicit)],
        "families": [family_to_json(f) for f in s.families],
    }


def serialize_document(doc: Document) -> str:
    payload = {
        "n": doc.params.n,
        "sets": {name: arcset_to_json(s) for name, s in sorted(doc.sets.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Published schema for every CLI report (jsonschema draft 2020-12 subset).
REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "verdict", "witnesses", "timing_ms"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "verdict": {"type": ["boolean", "null"]},
        "witnesses": {
            "type": "array",
            "items": {
                "anyOf": [
                    {"type": "integer"},
                    {"type": "string"},
                    {
                        "type": "array",
                        "items": {"type": "integer"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                ]
            },
        },
        "timing_ms": {"type": "number", "minimum": 0},
        "result": {},
        "details": {"type": "object"},
    },
    "additionalProperties": False,
}
