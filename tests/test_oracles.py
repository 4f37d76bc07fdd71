"""The oracles still catch planted faults in the code they check."""

from infgon import Arc, ModelParams, cross, ext_dim, hom_dim, mutation, oracles

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
