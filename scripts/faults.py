"""Plant each catalogued fault in a copy of the tree and run the tests that must catch it.

    python scripts/faults.py

The catalogue is ``FAULTS`` in ``tests/faults.py`` (its ``EQUIVALENT``
mutants are not run).  For each entry the script copies the
repository (without ``.git`` and caches) to a temporary directory, replaces
the entry's old text by its new text, and runs the entry's selector there
with ``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0``, so
that a catch is deterministic.  The child runs under an address-space limit
(``resource.setrlimit`` in the child, which acts on that process only) and a
timeout, so a fault that makes a test build a huge answer reads as a
survivor instead of exhausting the machine.  A fault is caught when pytest
exits 1: a selected test failed.

Exit code 0 when every fault is caught; 1, naming each survivor, otherwise.
"""

from __future__ import annotations

import importlib.util
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1536 * 2**20  # bytes per child
TIMEOUT = 120  # seconds per child
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                "*.egg-info", ".perfbench-work")


def catalogue() -> list:
    spec = importlib.util.spec_from_file_location("fault_catalogue", ROOT / "tests" / "faults.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FAULTS


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(fault, scratch: Path) -> str:
    """``caught``, or why the fault survived."""
    tree = scratch / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    path = tree / fault.file
    text = path.read_text()
    if text.count(fault.old) != 1:
        return f"old text occurs {text.count(fault.old)} times"
    path.write_text(text.replace(fault.old, fault.new))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", *fault.select.split(),
           "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return f"no failure within {TIMEOUT} s"
    if proc.returncode == 1:
        return "caught"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"pytest exited {proc.returncode}: {' '.join(tail)}"


def main() -> int:
    survivors = []
    for i, fault in enumerate(catalogue()):
        t = time.perf_counter()
        with tempfile.TemporaryDirectory() as scratch:
            outcome = run(fault, Path(scratch))
        print(f"{i:2d} {outcome:8s} {time.perf_counter() - t:5.1f} s  {fault.file}: {fault.note}")
        if outcome != "caught":
            survivors.append(f"{i}: {fault.note} ({outcome})")
    for line in survivors:
        print(f"SURVIVED {line}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
