import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_demos_run_and_reproduce_the_committed_pictures(tmp_path):
    work = tmp_path / "demos"
    shutil.copytree(DEMOS, work)
    for svg in ("rotation_before.svg", "rotation_after.svg"):
        (work / svg).unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    scripts = sorted(work.glob("0*.py"))
    assert len(scripts) == 5
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
    for svg in ("rotation_before.svg", "rotation_after.svg"):
        assert (work / svg).read_bytes() == (DEMOS / svg).read_bytes(), svg
