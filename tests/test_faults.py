"""The fault catalogue (``tests/faults.py``) stays in step with the tree:
each fault applies to exactly one place, still compiles, and names tests
that exist.  ``scripts/faults.py`` runs the catalogue; this only reads it."""

import re
from pathlib import Path

import pytest

from faults import EQUIVALENT, FAULTS

ROOT = Path(__file__).resolve().parent.parent


def assert_applies_once(fault) -> None:
    text = (ROOT / fault.file).read_text()
    assert text.count(fault.old) == 1, fault.note
    mutant = text.replace(fault.old, fault.new)
    assert mutant != text
    compile(mutant, fault.file, "exec")


@pytest.mark.parametrize("fault", FAULTS, ids=[f"{i:02d}" for i in range(len(FAULTS))])
def test_fault_applies_once_and_names_existing_tests(fault):
    assert_applies_once(fault)
    for node in fault.select.split():
        path, name = node.split("::")
        test = name.partition("[")[0]  # a parametrized id names its function's case
        assert re.search(rf"^def {test}\(", (ROOT / path).read_text(), re.M), node


@pytest.mark.parametrize("fault", EQUIVALENT, ids=[f"{i:02d}" for i in range(len(EQUIVALENT))])
def test_equivalent_mutant_applies_once_and_selects_nothing(fault):
    assert_applies_once(fault)
    assert fault.select == "" and fault.note
