"""Every demo script runs, reproduces the committed pictures and prints what
``tests/fixtures/demo_stdout.json`` holds.  Rewrite that fixture only for an
intended output change::

    PYTHONPATH=src python tests/test_demos.py --write
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
STDOUT = Path(__file__).resolve().parent / "fixtures" / "demo_stdout.json"
PICTURES = ("rotation_before.svg", "rotation_after.svg")


def run_demos(work: Path) -> dict[str, str]:
    """Copy the demos into ``work`` without their pictures, run each script
    there and return its stdout by script name."""
    shutil.copytree(DEMOS, work)
    for svg in PICTURES:
        (work / svg).unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    scripts = sorted(work.glob("0*.py"))
    assert len(scripts) == 5
    stdout = {}
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, script.name],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"{script.name}:\n{proc.stderr}"
        stdout[script.name] = proc.stdout
    return stdout


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    work = tmp_path_factory.mktemp("run") / "demos"
    return work, run_demos(work)


def test_demos_run_and_reproduce_the_committed_pictures(demo_run):
    work, _ = demo_run
    for svg in PICTURES:
        assert (work / svg).read_bytes() == (DEMOS / svg).read_bytes(), svg


def test_demo_stdout_matches_fixture(demo_run):
    _, stdout = demo_run
    assert stdout == json.loads(STDOUT.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        result = run_demos(Path(tmp) / "demos")
    STDOUT.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
