"""The representation of ``rotate_set``'s result, pinned by digest.

The member tests compare rotated sets arc by arc, so they would not notice a
change in how a result is written down: which arcs stay explicit, which
families carry the rest, and in what order.  Here every result is serialised
with ``arcset_to_json`` and the SHA-256 of the stream is compared with a
stored fixture, one digest per corpus:

* ``random``: seeded ``random_family_rotation_case`` sets (n = 1..4);
* ``empty_divider``: the same sets rotated by the empty divider set;
* ``demo_orbit``: the demo pair (X, Ync) rotated six times by each of the
  divider choices {(-4,3)}, {(-4,6)} and {(-4,3), (-4,6)}.

Rewrite the fixture only for an intended change of representation::

    PYTHONPATH=src python tests/test_rotation_repr.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from infgon import Arc, DividerSet, parse_document, rotate_set
from infgon.documents import arcset_to_json
from infgon.oracles import random_family_rotation_case

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "rotation_repr.json"
SEED, CASES, ORBIT_STEPS = 20260, 300, 6
DIVIDER_CHOICES = ([(-4, 3)], [(-4, 6)], [(-4, 3), (-4, 6)])


def _random_cases():
    rng = random.Random(SEED)
    return [random_family_rotation_case(rng) for _ in range(CASES)]


def _digest(results) -> str:
    h = hashlib.sha256()
    for s in results:
        h.update(json.dumps(arcset_to_json(s)).encode())
        h.update(b"\n")
    return h.hexdigest()


def digests() -> dict[str, str]:
    cases = _random_cases()
    doc = parse_document((ROOT / "demos" / "example_sets.json").read_bytes())

    def orbit():
        for choice in DIVIDER_CHOICES:
            d = DividerSet.of(doc.params, [Arc(t, u) for t, u in choice])
            x, y = doc.sets["X"], doc.sets["Ync"]
            for _ in range(ORBIT_STEPS):
                x, y = rotate_set(x, d), rotate_set(y, d)
                yield x
                yield y

    return {
        "random": _digest(rotate_set(x, d) for _, x, d in cases),
        "empty_divider": _digest(rotate_set(x, DividerSet.of(p, [])) for p, x, _ in cases),
        "demo_orbit": _digest(orbit()),
    }


def test_rotation_representation_matches_fixture():
    assert digests() == json.loads(FIXTURE.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
