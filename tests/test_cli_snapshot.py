"""Every CLI command, in text and JSON, against a stored snapshot.

Each case pins the exit code, the stdout bytes and the stderr of one
invocation on ``demos/example_sets.json``; JSON reports are compared without
their ``timing_ms`` line.  Rewrite the snapshot only for an intended output
change::

    PYTHONPATH=src python tests/test_cli_snapshot.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from infgon.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = str(ROOT / "demos" / "example_sets.json")
SNAPSHOT = Path(__file__).resolve().parent / "fixtures" / "cli_snapshot.json"
_TIMING = re.compile(r'^  "timing_ms": .*\n', re.MULTILINE)

E = "{example}"  # replaced by the demo document's path
BAD = "{bad}"  # replaced by the path of a file holding malformed JSON
ARCS = "(2,9) (-1,6)"

_BOTH_FORMATS = {
    "ext --n": ["ext", "--n", "3", "--arcs", ARCS, "--degree", "1"],
    "ext --input": ["ext", "--input", E, "--arcs", ARCS, "--degree", "1"],
    "hom": ["hom", "--n", "3", "--arcs", "(-4,3) (-4,3)"],
    "cross": ["cross", "--arcs", "(-4,3) (-1,6)"],
    "nc": ["nc", "--input", E, "--set", "X", "--window", "-8..10"],
    "fountains Y": ["fountains", "--input", E, "--set", "Y"],
    "fountains Ync": ["fountains", "--input", E, "--set", "Ync"],
    "frame": ["frame", "--input", E, "--set", "X", "--window", "-8..10"],
    "ptolemy pass": ["ptolemy", "--input", E, "--set", "P", "--window", "-20..20"],
    "ptolemy fail": ["ptolemy", "--input", E, "--set", "Y", "--window", "-9..9"],
    "check-pair pass": ["check-pair", "--input", E, "--x", "X", "--y", "Ync", "--window", "-20..20"],
    "check-pair fail": ["check-pair", "--input", E, "--x", "X", "--y", "Y", "--window", "-20..20"],
    "core": ["core", "--input", E, "--x", "X", "--y", "Ync", "--window", "-20..20"],
    "mutate pass": ["mutate", "--input", E, "--x", "X", "--y", "Ync", "--d", "D", "--window", "-20..20"],
    "mutate force fail": [
        "mutate", "--input", E, "--x", "X", "--y", "Y", "--d", "D", "--window", "-20..20", "--force",
    ],
    "mutate refused": ["mutate", "--input", E, "--x", "X", "--y", "Y", "--d", "D", "--window", "-20..20"],
    "oracle": ["oracle", "--n", "2", "--window", "-6..6", "--fuzz-cases", "20", "--seed", "3"],
    "render svg": [
        "render", "--input", E, "--sets", "X", "--highlight", "D", "--window", "-8..10", "--style", "svg",
    ],
    "render text": ["render", "--input", E, "--sets", "Ync", "--window", "-9..15", "--style", "text"],
}

CASES = {
    **{f"{label} [{fmt}]": [*argv, "--format", fmt]
       for label, argv in _BOTH_FORMATS.items() for fmt in ("text", "json")},
    "reversed window": ["nc", "--input", E, "--set", "X", "--window", "5..1"],
    "modulus 0": ["ext", "--n", "0", "--arcs", ARCS, "--degree", "1"],
    "malformed input, --n": ["nc", "--n", "3", "--input", BAD, "--set", "X", "--window", "-5..5"],
    "malformed input, ext": ["ext", "--input", BAD, "--arcs", ARCS, "--degree", "1"],
    "no --input": ["nc", "--set", "X", "--window", "-5..5"],
    "no --n or --input": ["ext", "--arcs", ARCS, "--degree", "1"],
    "unknown set": ["nc", "--input", E, "--set", "NOPE", "--window", "-5..5"],
}


def run_case(argv: list[str], bad: str) -> dict:
    """Run ``main`` in this process; return exit code, stdout and stderr."""
    argv = [bad if a == BAD else EXAMPLE if a == E else a for a in argv]
    buf, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
        out.flush()
    stdout = buf.getvalue().decode("utf-8")
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        stdout = _TIMING.sub("", stdout)
    return {"code": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_every_case(snapshot):
    assert sorted(snapshot) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_output_matches_snapshot(label, snapshot, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_case(CASES[label], str(bad)) == snapshot[label]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text("{broken")
        result = {label: run_case(argv, str(bad)) for label, argv in sorted(CASES.items())}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
