"""The oracles still catch planted faults in the code they check."""

import hashlib
import random
from types import SimpleNamespace

import pytest

from infgon import (
    Arc,
    ModelParams,
    Window,
    admissible_arcs_in,
    cross,
    ext_dim,
    hom_dim,
    mutation,
    oracles,
    serre,
)
from infgon.families import family_scalars

P2 = ModelParams(2)
LO, HI = -6, 6
# Both admissible for n = 2, inside the window, not crossing: every Ext^i and
# Hom between them is zero in either order.
X, Y = Arc(-4, -1), Arc(0, 3)


def _flipped(fn, *key):
    """``fn`` with its answer flipped on the arguments ``key`` only."""

    def wrapped(*args):
        value = fn(*args)
        return 1 - value if args[: len(key)] == key else value

    return wrapped


def test_sweeps_report_a_flipped_case(monkeypatch):
    assert not cross(X, Y) and [ext_dim(X, Y, i, P2) for i in (1, 2)] == [0, 0]
    # One Ext^1 case flipped as the sweeps see it: degree 1 through ext_dim,
    # and Hom(X, Y) = Ext^1(X, shift(Y, -1)) through hom_dim.
    monkeypatch.setattr(oracles, "ext_dim", _flipped(ext_dim, X, Y, 1))
    monkeypatch.setattr(oracles, "hom_dim", _flipped(hom_dim, X, Y))
    assert oracles.cross_ext_mismatches(P2, LO, HI) == [(X, Y)]
    assert oracles.serre_duality_mismatches(P2, LO, HI) == [(X, Y, 1)]
    assert (X, Y) in oracles.hom_serre_mismatches(P2, LO, HI)


def test_fuzz_reports_a_broken_step(monkeypatch):
    # ``_pred`` answers for the arc's other endpoint.  The rotation kernel
    # sorts the two answers, so images, inverses and triangles are unchanged;
    # only the cell-walk comparison can see the fault.
    pred = mutation._pred
    monkeypatch.setattr(mutation, "_pred", lambda v, other, d: pred(other, v, d))
    rep = oracles.run_mutation_fuzz(200, 7)
    assert rep.cellwalk_failures and not rep.ok
    assert rep.failures == rep.cellwalk_failures
    assert {kind for *_, kind, _ in rep.cellwalk_failures} == {"pred"}
    assert not (rep.image_failures or rep.involution_failures or rep.triangle_failures)


def test_hom_sweep_matches_the_pairwise_claim(monkeypatch):
    # With one Hom value flipped, the sweep's table must give the list the
    # claim gives pair by pair: (X, Y) itself, and the pair whose right-hand
    # side Hom(X, serre(x)) reads the flipped value.
    monkeypatch.setattr(oracles, "hom_dim", _flipped(hom_dim, X, Y))
    arcs = list(admissible_arcs_in(Window(LO, HI), P2))
    want = [(x, y) for x in arcs for y in arcs
            if oracles.hom_dim(x, y, P2) != oracles.hom_dim(y, serre(x, P2), P2)]
    assert want == [(X, Y), (Arc(3, 6), X)]
    assert oracles.hom_serre_mismatches(P2, LO, HI) == want


def test_fuzz_compares_the_steps_at_both_endpoints(monkeypatch):
    # The cell walk answers one too high at each arc's head, and only there:
    # a fuzz comparing the step rules at the foot alone would pass.
    walk = oracles.cell_boundary

    def off_at_the_head(arc, dividers):
        cell = walk(arc, dividers)
        return SimpleNamespace(predecessor=lambda v: cell.predecessor(v) + (v == arc.u),
                               successor=cell.successor)

    monkeypatch.setattr(oracles, "cell_boundary", off_at_the_head)
    rep = oracles.run_mutation_fuzz(50, 7)
    # every case compares two arcs: the one drawn and its image
    assert len(rep.failures) == len(rep.cellwalk_failures) == 2 * 50
    assert all(kind == "pred" and v == arc.u for _, _, arc, kind, v in rep.cellwalk_failures)


def test_fuzz_refuses_a_negative_count():
    with pytest.raises(ValueError, match="-3"):
        oracles.run_mutation_fuzz(-3, 1)
    assert oracles.run_mutation_fuzz(0, 1) == oracles.FuzzReport(0, [], [], [], [])


def _arcs(arcs) -> tuple:
    return tuple(sorted((a.t, a.u) for a in arcs))


def test_corpora_draw_the_same_cases():
    # The first draws of each corpus for fixed seeds, as sorted integer
    # tuples; the digest was taken before the draws moved from randint to
    # randrange, so a rewrite that shifts any stream fails here.
    rows = []
    rng = random.Random(11)
    for _ in range(400):
        p, d, a = oracles.random_divider_case(rng)
        rows.append((p.n, _arcs(d.arcs), (a.t, a.u)))
    rng = random.Random(5)
    for _ in range(100):
        p, x, d = oracles.random_family_rotation_case(rng)
        fams = tuple(sorted((f.kind, *family_scalars(f)) for f in x.families))
        rows.append((p.n, _arcs(x.explicit), fams, _arcs(d.arcs)))
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            rows.append((n, _arcs(oracles.random_finite_arcs(rng, ModelParams(n), 8, -15, 15))))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "343ab8fd512ae8b04ae469242bdbe1deaaab6680e7182c6ff471d7f1c9f2f47d"
