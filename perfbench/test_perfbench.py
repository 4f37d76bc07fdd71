"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Tiny sizes keep each workload to one short unit; the full sizes are what
``run.py`` uses.  ``verify`` keeps its full window widths, since golden.json
holds references for those only.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "verify": dict(max_translate=3, pool=1),
    "mutate": dict(half_width=16, max_translate=3, rounds=1),
    "oracle": dict(window=(-4, 4), fuzz_cases=5),
    "cli": dict(max_translate=3),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 3, **over):
    return workloads.WORKLOADS[name](seed, **{**TINY[name], **over})


def one_unit(wl, tracer=None, in_process=False) -> harness.RunStats:
    try:
        return harness.run_units(wl.units(in_process=in_process), 0.0, tracer)
    finally:
        if hasattr(wl, "close"):
            wl.close()


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_of_every_workload(name):
    st = one_unit(tiny(name))
    assert st.units == 1
    assert st.attempted >= 1
    assert st.wrong == 0, st.wrong_examples
    # the only raise today's code may produce is the mutation orbit's end
    assert set(st.errors) <= {"WindowTooSmall"}


def test_mutate_orbit_ends_in_a_counted_failure():
    st = one_unit(tiny("mutate"))
    assert st.errors["WindowTooSmall"] == 1
    assert st.failed == 1 and st.wrong == 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_tiny_run_reports_every_layer_metric_and_restores_names(name):
    import infgon.arcsets
    from infgon import arcs, families

    new_before = arcs.Arc.__dict__["__new__"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        st = one_unit(tiny(name), tracer, in_process=True)
    finally:
        tracer.uninstall()
    assert st.wrong == 0, st.wrong_examples
    metrics = tracer.metrics(st.attempted, 0.5, 80.0)
    assert [(m, metrics[m]["unit"]) for m in metrics] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    assert tracer.span_summary()["root_spans"] == st.attempted
    assert infgon.arcsets.cross is arcs.cross
    assert arcs.Arc.__dict__["__new__"] is new_before
    assert "crossed_by" in families.Band.__dict__ and not hasattr(
        families.Band.__dict__["crossed_by"], "__wrapped__"
    )


def test_self_time_excludes_child_spans():
    tracer = layertrace.Tracer()
    inner = tracer._timed("inner", lambda: sum(range(20000)), keep=True)
    outer = tracer._timed("outer", lambda: [inner() for _ in range(3)], keep=True)
    tracer.root("probe", outer)
    spans = {name: (sid, parent) for sid, parent, name, _, _ in tracer.spans}
    assert spans["outer"][1] == spans["op.probe"][0]
    assert all(parent == spans["outer"][0] for _, parent, name, _, _ in tracer.spans if name == "inner")
    assert tracer.calls["inner"] == 3
    total_outer = next(t1 - t0 for _, _, n, t0, t1 in tracer.spans if n == "outer")
    total_inner = sum(t1 - t0 for _, _, n, t0, t1 in tracer.spans if n == "inner")
    assert tracer.self_s["outer"] == pytest.approx(total_outer - total_inner, abs=1e-9)


def test_wrong_expected_output_is_counted_as_a_failed_op():
    wl = tiny("verify")
    wl.cases["pass@80"].expect_verdict = False  # the demo pair does pass
    st = one_unit(wl)
    assert st.attempted == 10
    assert st.wrong == 2 and st.failed == 2  # both pass@80 ops of the cycle
    assert len(st.ok_latencies_s) == 8
    assert all("verdict True" in w for w in st.wrong_examples)


def test_wrong_golden_reference_is_counted_as_a_failed_op():
    wl = tiny("verify")
    case = wl.cases["random.n2@80"]
    case.ref = {**case.ref, "sha256": "0" * 64}
    st = one_unit(wl)
    assert st.wrong == 1 and st.failed == 1
    assert "differ from golden.json" in st.wrong_examples[0]


def test_wrong_cli_reference_is_counted_as_a_failed_op():
    wl = tiny("cli")
    label = next(label for label in wl.expected if label.startswith("render@"))
    wl.expected[label] = b"<svg/>\n"
    st = one_unit(wl, in_process=True)
    assert st.wrong == 1 and st.failed == 1
    assert "SVG differs" in st.wrong_examples[0]


def test_golden_outputs_move_with_the_translate():
    from infgon import arcsets

    case = tiny("verify").cases["fail@80"]
    out = workloads.verify_call(case.x, case.y, case.w)
    assert workloads.verify_digest(out, 0) == case.ref
    x, y, w = (workloads.shift_set(case.x, 7), workloads.shift_set(case.y, 7),
               arcsets.Window(case.w.lo + 7, case.w.hi + 7))
    assert workloads.verify_digest(workloads.verify_call(x, y, w), 7) == case.ref
    assert workloads.verify_digest(out, 1) != case.ref
    assert workloads.moved({"n": 3, "window": [-2, 2], "ok": True}, 5) == {
        "n": 3, "window": [3, 7], "ok": True}
    assert workloads.moved_svg('<text x="30">-8</text>', 3) == '<text x="30">-5</text>'


def test_cli_reads_its_inputs_from_any_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    st = one_unit(tiny("cli"), in_process=True)
    assert st.attempted == 8 and st.failed == 0, st.wrong_examples


def test_rotation_check_catches_a_missing_arc():
    p, x, d = workloads.stratified_rotation_cases(random.Random(5), (3,))[0]
    from infgon import arcsets, mutation

    good = mutation.rotate_set(x, d)
    assert workloads.rotation_mismatch(x, d, good) is None
    extra = next(a for a in arcsets.admissible_arcs_in(arcsets.Window(40, 60), p))
    bad = arcsets.ArcSet.of(p, good.explicit | {extra}, good.families)
    assert workloads.rotation_mismatch(x, d, bad) is not None


def test_end_to_end_metrics_match_the_spec(capsys):
    assert run.main(["--workload", "cli", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert not (ROOT / ".perfbench-work").exists()
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_same_seed_gives_the_same_inputs():
    a, b = tiny("verify", seed=9), tiny("verify", seed=9)
    assert [[(c.label, k) for c, k in cyc] for cyc in a.cycles] == [
        [(c.label, k) for c, k in cyc] for cyc in b.cycles
    ]
    assert a.inputs() == b.inputs()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
