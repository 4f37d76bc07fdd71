import pytest

from infgon import (
    Arc,
    ArcSet,
    Band,
    Condition,
    DividerSet,
    HalfLeft,
    HalfRight,
    ModelParams,
    RightFan,
    Window,
    check_pair,
    contains,
    core,
    ext1_case,
    ext_triangle,
    frame,
    members_in_window,
    mutate_pair,
    rigidity_check,
)
from infgon.errors import WindowTooSmall

from conftest import demo, orbit

P3 = ModelParams(3)
W = Window(-20, 20)

X = ArcSet.of(P3, [Arc(-4, 3), Arc(-4, 6)])

# Exact non-crossing closure of X, derived from the nc_window output pattern:
# everything hanging off -4, everything fully left of -4 or right of 6, the
# band spanning the pair, and three short arcs trapped under (-4,6).
Y_CLOSURE = ArcSet.of(
    P3,
    [Arc(-3, 1), Arc(-2, 2), Arc(-1, 3)],
    [RightFan(-4, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
)

# The set-builder companion encoded literally (strict band bounds, no fan).
Y_LITERAL = ArcSet.of(
    P3, [Arc(-4, 3), Arc(-4, 6)], [HalfLeft(-4), HalfRight(6), Band(-5, 7)]
)


def test_closure_pair_passes():
    rep = check_pair(X, Y_CLOSURE, W)
    assert rep.verdict
    assert all(c.ok for c in rep.conditions().values())
    assert rep.x_equals_nc_y.mode == "windowed"
    assert rep.x_contravariant.mode == "exact"


def test_literal_pair_fails_with_documented_witnesses():
    rep = check_pair(X, Y_LITERAL, W)
    assert not rep.verdict
    assert not rep.y_covariant.ok
    assert rep.y_covariant.witnesses == (-4,)
    assert not rep.x_equals_nc_y.ok
    assert Arc(-1, 3) in rep.x_equals_nc_y.witnesses
    assert not rep.y_equals_nc_x.ok
    assert Arc(-4, 0) in rep.y_equals_nc_x.witnesses
    assert Arc(-7, 6) in rep.y_equals_nc_x.witnesses
    assert rep.x_contravariant.ok


def test_empty_pair_fails():
    empty = ArcSet.of(P3)
    rep = check_pair(empty, empty, W)
    assert not rep.x_equals_nc_y.ok  # the closure of nothing is everything
    assert rep.x_equals_nc_y.witnesses  # every window arc is a witness


def test_half_line_pair_passes():
    left, right = ArcSet.of(P3, families=[HalfLeft(0)]), ArcSet.of(
        P3, families=[HalfRight(0)]
    )
    assert check_pair(left, right, W).verdict
    # swap is NOT a pair: the fountain conditions are direction-specific
    swapped = check_pair(right, left, W)
    assert swapped.x_equals_nc_y.ok and swapped.y_equals_nc_x.ok
    assert not swapped.verdict


def test_swap_exchanges_the_equality_conditions():
    fwd = check_pair(X, Y_LITERAL, W)
    bwd = check_pair(Y_LITERAL, X, W)
    assert fwd.x_equals_nc_y.ok == bwd.y_equals_nc_x.ok
    assert fwd.y_equals_nc_x.ok == bwd.x_equals_nc_y.ok
    assert set(fwd.x_equals_nc_y.witnesses) == set(bwd.y_equals_nc_x.witnesses)


def test_window_margin_enforced():
    with pytest.raises(WindowTooSmall):
        check_pair(X, Y_CLOSURE, Window(-8, 8))  # needs endpoints +- (n+2)
    with pytest.raises(WindowTooSmall):
        check_pair(X, Y_CLOSURE, Window(-9, 11))  # and the band's k_max = -5 too
    assert check_pair(X, Y_CLOSURE, Window(-10, 11)).verdict


def test_params_must_match():
    with pytest.raises(ValueError):
        check_pair(X, ArcSet.of(ModelParams(2)), W)


def test_core_examples():
    assert core(X, Y_CLOSURE, W) == [Arc(-4, 3), Arc(-4, 6)]
    assert core(X, ArcSet.of(P3, families=[HalfRight(30)]), W) == []
    assert core(X, X, W) == sorted(X.explicit)


def test_core_of_sets_on_two_moduli_raises():
    with pytest.raises(ValueError, match="modulus"):
        core(X, ArcSet.of(ModelParams(2)), W)


def test_core_equals_frame_for_passing_pair():
    assert core(X, Y_CLOSURE, W) == frame(X, W)
    assert rigidity_check(core(X, Y_CLOSURE, W), P3).ok


def test_pairing_with_own_closure_detects_non_closed_sets():
    # X0 is not equal to its double closure, so pairing it with (a windowed
    # stand-in for) its closure fails exactly on the double-closure extras.
    from infgon import nc_window

    x0 = ArcSet.of(P3, [Arc(-4, 0), Arc(-4, 3), Arc(-1, 3)])
    y_fin = ArcSet.of(P3, nc_window(x0, Window(-26, 26)))
    rep = check_pair(x0, y_fin, W, enforce_margin=False)
    assert not rep.x_equals_nc_y.ok
    assert set(rep.x_equals_nc_y.witnesses) == {Arc(-3, 1), Arc(-2, 2)}


def test_rigidity_examples():
    assert rigidity_check([Arc(-4, 3), Arc(-4, 6)], P3) == Condition(True, "exact", ())
    rep = rigidity_check([Arc(-4, 0), Arc(-1, 3)], P3)
    assert not rep
    assert rep.mode == "exact" and set(rep.witnesses) == {Arc(-4, 0), Arc(-1, 3)}
    assert rigidity_check([Arc(-4, 3)], P3)
    assert rigidity_check([], P3)


def extension_failure(s: ArcSet, w: Window):
    """The first ``(a, b, middle)``: members a, b of ``w`` with Ext^1(a, b)
    nonzero and a middle of their extension triangle outside ``s``; or None."""
    p = s.params
    members = members_in_window(s, w)
    for a in members:
        for b in members:
            if ext1_case(a, b, p).nonzero:
                for m in ext_triangle(a, b, p).middles():
                    if not contains(s, m):
                        return a, b, m
    return None


def test_every_passing_set_is_closed_under_extensions():
    """X = ⊥Y and Y = X⊥ make both sets of a pair closed under extensions.
    This reads the middles off ``homs``' triangles, with neither ``cross``
    nor the closure kernels behind the verdict."""
    doc = demo()
    x, y, w = doc.sets["X"], doc.sets["Ync"], Window(-20, 20)
    x2, y2, rep = mutate_pair(x, y, DividerSet(doc.params, doc.sets["D"].explicit), w)
    assert check_pair(x, y, w).verdict and rep.verdict
    cases = [(x, w), (y, w), (x2, rep.window), (y2, rep.window)]
    cases += [(s, Window(-12, 12)) for pair in orbit() for s in pair]
    assert [extension_failure(s, v) for s, v in cases] == [None] * len(cases)
    # negative control: the literal Y, which fails its pair check, is not closed
    assert extension_failure(doc.sets["Y"], Window(-9, 9)) == (Arc(-8, -4), Arc(-7, 9),
                                                                Arc(-4, 9))
