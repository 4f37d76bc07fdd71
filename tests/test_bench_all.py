"""``scripts/bench_all.py`` without starting a benchmark process: the
per-metric status that ``--baseline`` reports, fed synthetic run records, and
how each run is prepared (the bytecode clean-up and the child environment)."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_all.py"
spec = importlib.util.spec_from_file_location("bench_all", SCRIPT)
bench_all = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_all)

NAMES = [m["name"] for m in bench_all.end_to_end()]


def runs(name: str, values: list[float]) -> list[dict]:
    """One run record per value of ``name``; every other metric reads 1."""
    return [{"seed": i, "correct": True, "metrics": {**dict.fromkeys(NAMES, 1.0), name: v}}
            for i, v in enumerate(values)]


@pytest.mark.parametrize("name,change,parent,want", [
    # tight parent: only the median shift against the bound (25 %) counts
    ("ops_per_s", [70] * 5, [100] * 5, "worse"),
    ("ops_per_s", [80] * 5, [100] * 5, "ok"),
    ("op_p50_ms", [130] * 5, [100] * 5, "worse"),
    ("op_p50_ms", [120] * 5, [100] * 5, "ok"),
    ("op_p50_ms", [50] * 5, [100] * 5, "ok"),
    # ops_ok_frac has a 5 % bound: one more failed op in 13 is worse
    ("ops_ok_frac", [11 / 13] * 5, [12 / 13] * 5, "worse"),
    ("ops_ok_frac", [12 / 13] * 5, [12 / 13] * 5, "ok"),
    # parent quartiles 70..130 around 100: wider than the bound
    ("ops_per_s", [90, 100, 110, 120, 130], [60, 80, 100, 120, 140], "unresolved"),
    ("setup_s", [0.09, 0.1, 0.11], [0.06, 0.1, 0.14], "unresolved"),
    # ... unless every change run beats every parent run
    ("ops_per_s", [150, 160, 170, 180, 190], [60, 80, 100, 120, 140], "ok"),
    ("setup_s", [0.03, 0.04, 0.05], [0.06, 0.1, 0.14], "ok"),
    # a median worse by more than the bound is worse, whatever the spread
    ("ops_per_s", [40, 50, 60, 70, 80], [60, 80, 100, 120, 140], "worse"),
])
def test_status_per_metric(name, change, parent, want):
    got = bench_all.status(runs(name, change), runs(name, parent))
    assert got[name] == want
    assert set(got) == set(NAMES)
    assert all(got[m] == "ok" for m in NAMES if m != name)


def test_status_without_results_is_unresolved():
    failed = [{"seed": 1, "correct": False, "error": "boom"}]
    assert set(bench_all.status(failed, runs("ops_per_s", [1.0])).values()) == {"unresolved"}


def test_clear_bytecode_removes_only_caches_under_src(tmp_path):
    kept = ["src/infgon/cli.py", "src/infgon/notes/__pycache__", "tests/__pycache__/t.pyc",
            "perfbench/__pycache__/run.pyc"]
    removed = ["src/__pycache__/x.pyc", "src/infgon/__pycache__/cli.cpython-311.pyc",
               "src/infgon/sub/__pycache__/y.pyc"]
    for rel in kept + removed:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("")
    bench_all.clear_bytecode(tmp_path)
    assert all((tmp_path / rel).is_file() for rel in kept)
    assert not any((tmp_path / rel).parent.exists() for rel in removed)
    assert (tmp_path / "src/infgon/sub").is_dir()


def test_runs_write_no_bytecode(monkeypatch, tmp_path):
    seen = {}

    def fake_run(cmd, cwd, env, **kw):
        seen.update(env)
        return subprocess.CompletedProcess(cmd, 1, "", "boom")

    monkeypatch.setattr(bench_all.subprocess, "run", fake_run)
    assert bench_all.bench(tmp_path, "cli", 1, 1.0) == {"seed": 1, "correct": False,
                                                         "error": "boom"}
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"


@pytest.mark.parametrize("change,parent,want", [
    ({"ops": 10, "calls": 7831}, {"ops": 10, "calls": 7662}, "more"),
    ({"ops": 10, "calls": 7662}, {"ops": 10, "calls": 7662}, "same"),
    ({"ops": 13, "calls": 73103}, {"ops": 13, "calls": 87005}, "less"),
    ({"error": "boom"}, {"ops": 13, "calls": 87005}, "unknown"),
    ({"ops": 13, "calls": 87005}, {"error": "boom"}, "unknown"),
])
def test_work_status_compares_calls_per_unit(change, parent, want):
    assert bench_all.work_status(change, parent) == want


def test_work_counts_run_with_fixed_hashes_and_no_bytecode(monkeypatch, tmp_path):
    seen = {}

    def fake_run(cmd, cwd, env, **kw):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        return subprocess.CompletedProcess(cmd, 0, 'noise\n{"ops": 8, "calls": 5}\n', "")

    monkeypatch.setattr(bench_all.subprocess, "run", fake_run)
    assert bench_all.work(tmp_path, "cli", 3) == {"ops": 8, "calls": 5}
    assert seen["cmd"][-2:] == ["cli", "3"] and seen["cwd"] == tmp_path
    assert seen["env"]["PYTHONHASHSEED"] == "0"
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    monkeypatch.setattr(bench_all.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, 1, "", "boom"))
    assert bench_all.work(tmp_path, "cli", 3) == {"error": "boom"}


def test_work_counts_one_verify_unit_of_this_checkout():
    """The child really runs against ``perfbench/workloads.py``: ten ops, and
    a build that makes calls of its own.  The modules child lists what
    ``import infgon.cli`` loads, sorted."""
    got = bench_all.work(SCRIPT.parent.parent, "verify", 1)
    assert got["ops"] == 10 and got["calls"] > 1000 and got["setup_calls"] > 100, got
    mods = bench_all.setup_modules(SCRIPT.parent.parent)
    assert "infgon.cli" in mods and mods == sorted(mods), mods
    assert all(m.startswith("infgon.") for m in mods), mods
