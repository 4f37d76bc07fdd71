"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with ``pytest -v`` (one PASSED/FAILED line per criterion) or ``-s`` for
the explicit PASS lines.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from infgon import (
    Arc,
    ArcSet,
    Band,
    DividerSet,
    HalfLeft,
    HalfRight,
    ModelParams,
    RightFan,
    Window,
    check_pair,
    core,
    double_nc_extras,
    frame,
    in_nc_nc,
    is_ptolemy_window,
    mutate_pair,
    rigidity_check,
    rotate_arc,
    rotate_set,
)
from infgon.documents import REPORT_SCHEMA
from infgon.oracles import (
    cross_ext_mismatches,
    hom_serre_mismatches,
    random_finite_arcs,
    run_mutation_fuzz,
    serre_duality_mismatches,
)

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = str(ROOT / "demos" / "example_sets.json")

P3 = ModelParams(3)
W20 = Window(-20, 20)
FUZZ_SEED = 20260811

X = ArcSet.of(P3, [Arc(-4, 3), Arc(-4, 6)])
Y_CLOSURE = ArcSet.of(
    P3,
    [Arc(-3, 1), Arc(-2, 2), Arc(-1, 3)],
    [RightFan(-4, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
)
Y_LITERAL = ArcSet.of(
    P3, [Arc(-4, 3), Arc(-4, 6)], [HalfLeft(-4), HalfRight(6), Band(-5, 7)]
)
D = DividerSet.of(P3, [Arc(-4, 6)])


def _ok(msg: str) -> None:
    print(f"PASS: {msg}")


@pytest.fixture(scope="module")
def fuzz_corpus():
    # criteria 4-6 are all statements about the same randomized corpus
    return run_mutation_fuzz(1000, seed=FUZZ_SEED)


def test_criterion_01_rotation_regression():
    t0 = time.perf_counter()
    assert rotate_arc(Arc(-4, 3), D) == Arc(2, 6)
    assert rotate_arc(Arc(-4, 9), D) == Arc(-5, 8)
    assert rotate_arc(Arc(-7, 6), D) == Arc(-8, -4)
    rotated = rotate_set(X, D)
    assert set(rotated.explicit) == {Arc(2, 6), Arc(-4, 6)} and not rotated.families
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(f"criterion 1, divider rotation regression ({elapsed * 1000:.0f} ms)")


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_criterion_02_crossing_iff_ext(n):
    t0 = time.perf_counter()
    mismatches = cross_ext_mismatches(ModelParams(n), -24, 24)
    elapsed = time.perf_counter() - t0
    assert mismatches == []
    assert elapsed < 10.0
    _ok(
        f"criterion 2, crossing iff nonzero Ext, n={n}, all pairs in [-24, 24] "
        f"({elapsed:.1f} s)"
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_criterion_03_serre_duality(n):
    p = ModelParams(n)
    assert serre_duality_mismatches(p, -24, 24) == []
    assert hom_serre_mismatches(p, -24, 24) == []
    _ok(f"criterion 3, dimension dualities under the Serre action, n={n}")


def test_criterion_04_involution(fuzz_corpus):
    assert fuzz_corpus.cases == 1000
    assert fuzz_corpus.involution_failures == []
    assert fuzz_corpus.image_failures == []
    _ok("criterion 4, rotation involution and image validity, 1000 cases")


def test_criterion_05_cellwalk_agreement(fuzz_corpus):
    assert fuzz_corpus.cellwalk_failures == []
    _ok("criterion 5, step rules match the explicit cell walk, 1000 cases")


def test_criterion_06_triangle_agreement(fuzz_corpus):
    assert fuzz_corpus.triangle_failures == []
    _ok("criterion 6, extension-triangle route certifies every rotation")


def test_criterion_07_ptolemy_example():
    x0 = ArcSet.of(P3, [Arc(-4, 0), Arc(-4, 3), Arc(-1, 3)])
    assert is_ptolemy_window(x0, W20).ok
    extras = double_nc_extras(x0, W20)
    assert extras == [Arc(-3, 1), Arc(-2, 2)]  # pinned from the bounded search
    for a in extras:
        assert in_nc_nc(a, x0)
    _ok("criterion 7, Ptolemy diagram that is not double-closure closed")


def test_criterion_08_closure_implies_ptolemy():
    rng = random.Random(FUZZ_SEED)
    closed_cases = 0
    for _ in range(200):
        base = rng.randint(-10, -1)
        arcs = random_finite_arcs(rng, P3, 6, base, base + 20)
        s = ArcSet.of(P3, arcs)
        pts = [e for a in arcs for e in a]
        w = Window(min(pts) - 5, max(pts) + 5)
        if double_nc_extras(s, w):
            continue  # not closed on the window; no claim to check
        closed_cases += 1
        assert is_ptolemy_window(s, w).ok, arcs
    assert closed_cases >= 20  # the sweep must not be vacuous
    _ok(
        "criterion 8, double-closure-closed implies Ptolemy, 200 random sets "
        f"({closed_cases} closed)"
    )


def test_criterion_09_pair_harness():
    rep = check_pair(X, Y_CLOSURE, W20)
    assert rep.verdict, rep
    x2, y2, rep2 = mutate_pair(X, Y_CLOSURE, D, W20)
    assert rep2.verdict, rep2
    assert set(x2.explicit) == {Arc(2, 6), Arc(-4, 6)}

    lit = check_pair(X, Y_LITERAL, W20)
    assert not lit.verdict
    assert not lit.y_covariant.ok and lit.y_covariant.witnesses == (-4,)
    assert not lit.x_equals_nc_y.ok and Arc(-1, 3) in lit.x_equals_nc_y.witnesses
    _ok(
        "criterion 9, derived closure pair passes and mutates; the literal "
        "set-builder encoding fails with witnesses -4 and (-1,3)"
    )


def test_criterion_10_core_frame_agreement():
    pairs = [(X, Y_CLOSURE, W20)]
    x2, y2, rep2 = mutate_pair(X, Y_CLOSURE, D, W20)
    pairs.append((x2, y2, W20.shrink(D.span() + 1)))
    for x, y, w in pairs:
        assert check_pair(x, y, w, enforce_margin=False).verdict
        c = core(x, y, w)
        assert c == frame(x, w)
        assert rigidity_check(c, P3).ok
    _ok("criterion 10, core equals frame and is rigid, original and mutated")


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "infgon", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_11_cli_contract(tmp_path):
    # the three documented invocations
    code, out, _ = _cli(
        "check-pair", "--input", EXAMPLE, "--x", "X", "--y", "Y",
        "--window", "-20..20", "--format", "json",
    )
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code == 1 and report["verdict"] is False and -4 in report["witnesses"]

    code, out, _ = _cli(
        "mutate", "--input", EXAMPLE, "--x", "X", "--y", "Ync", "--d", "D",
        "--window", "-20..20", "--format", "json",
    )
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code == 0 and report["verdict"] is True
    assert report["result"]["rotated_x"]["explicit"] == [[-4, 6], [2, 6]]

    code, out, _ = _cli(
        "ext", "--n", "3", "--arcs", "(2,9) (-1,6)", "--degree", "1",
        "--format", "json",
    )
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code == 0 and report["result"] == 1

    # byte-identical SVG across two runs
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = _cli(
            "render", "--input", EXAMPLE, "--sets", "X", "--highlight", "D",
            "--window", "-8..10", "--style", "svg", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    _ok("criterion 11, CLI exit codes, schema-valid JSON, deterministic SVG")
