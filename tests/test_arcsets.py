import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcSet,
    Band,
    Condition,
    DividerSet,
    HalfLeft,
    HalfRight,
    IntRegion,
    LeftFan,
    ModelParams,
    RightFan,
    Window,
    admissible_arcs_in,
    contains,
    cross,
    crosses_set,
    double_nc_extras,
    finiteness_check,
    fountain_loci,
    frame,
    in_nc_nc,
    is_admissible,
    is_ptolemy_window,
    members_in_window,
    mutate_pair,
    nc_window,
    parse_document,
    rotate_set,
)
from infgon import arcsets
from infgon.arcsets import member_runs, nc_runs
from infgon.errors import NonAdmissible, UnsupportedFamilies
from infgon.families import family_scalars
from infgon.oracles import (
    members_in_window_brute,
    nc_window_brute,
    random_family_rotation_case,
    random_finite_arcs,
)

from conftest import admissible_arcs

P3 = ModelParams(3)

# the worked example: two arcs sharing a left endpoint
X = ArcSet.of(P3, [Arc(-4, 3), Arc(-4, 6)])
# its set-builder companion, encoded literally (strict band bounds)
Y_LITERAL = ArcSet.of(
    P3, [Arc(-4, 3), Arc(-4, 6)], [HalfLeft(-4), HalfRight(6), Band(-5, 7)]
)


def test_window_validation():
    # an empty window, then ends that are not integers (bool included)
    for lo, hi in [(3, 3), (0.5, 3.5), (-20.5, 20), (-20, 20.0), (False, 5), (0, True), ("0", 5)]:
        with pytest.raises(ValueError):
            Window(lo, hi)
        with pytest.raises(ValueError):
            Window(lo=lo, hi=hi)
    assert Window(-2, 5).shrink(2) == Window(0, 3)
    w = Window(lo=0, hi=5)
    assert repr(w) == "Window(lo=0, hi=5)" and (w.lo, w.hi) == (0, 5)
    with pytest.raises(AttributeError):
        w.hi = 9


def test_arcset_validates_explicit():
    with pytest.raises(NonAdmissible):
        ArcSet.of(P3, [Arc(3, 6)])
    with pytest.raises(NonAdmissible):
        ArcSet(params=P3, explicit=frozenset({Arc(3, 6)}))
    s = ArcSet(P3, [Arc(0, 4)], [RightFan(2, 9)])
    assert s == ArcSet.of(P3, [Arc(0, 4)], [RightFan(2, 9)]) and hash(s) == hash(ArcSet.of(
        P3, [Arc(0, 4)], [RightFan(2, 9)]))
    assert (type(s.explicit), type(s.families)) == (frozenset, tuple)
    assert repr(s) == ("ArcSet(params=ModelParams(n=3), explicit=frozenset({(0,4)}), "
                       "families=(RightFan(p=2, u_min=9),))")
    with pytest.raises(AttributeError):
        s.explicit = frozenset()


@pytest.mark.parametrize("make,item", [
    (lambda: ArcSet.of(P3, [(0, 4)]), "(0, 4)"),
    (lambda: ArcSet(P3, [Arc(0, 4), [1, 5]]), "[1, 5]"),
    (lambda: ArcSet.of(P3, [Arc(0, 4)], [(1, 2)]), "(1, 2)"),
    (lambda: ArcSet(P3, families=[RightFan(2, 9), "band"]), "'band'"),
    (lambda: DividerSet.of(P3, [(0, 4)]), "(0, 4)"),
    (lambda: DividerSet(P3, [Arc(0, 4), (1, 5)]), "(1, 5)"),
    # a modulus equal to ModelParams(3) as a tuple is still not a ModelParams
    (lambda: ArcSet(3), "ModelParams, got 3"),
    (lambda: ArcSet(3, [Arc(0, 4)]), "ModelParams, got 3"),
    (lambda: ArcSet.of((3,), [Arc(0, 4)]), "ModelParams, got (3,)"),
    (lambda: DividerSet.of(3, [Arc(0, 4)]), "ModelParams, got 3"),
], ids=["set-tuple", "set-list", "family-tuple", "family-str", "dividers-tuple",
        "dividers-list", "modulus-int", "modulus-int-arcs", "modulus-tuple",
        "dividers-modulus-int"])
def test_constructors_name_an_item_that_is_not_an_arc_or_a_family(make, item):
    with pytest.raises(TypeError) as exc:
        make()
    assert item in str(exc.value)


def admissibility_checks(monkeypatch) -> list[Arc]:
    """The arcs ``require_admissible`` is called on in ``arcsets`` from now on."""
    seen, real = [], arcsets.require_admissible
    monkeypatch.setattr(arcsets, "require_admissible", lambda a, p: seen.append(a) or real(a, p))
    return seen


def test_rotate_set_checks_no_image_again(monkeypatch):
    """The rotation kernel checks every image, so the rotated set is built
    without ``ArcSet``'s checks: the checks left are the dividers', whatever
    the size of the set."""
    d = DividerSet(P3, [Arc(0, 4)])
    sets = [ArcSet(P3, [Arc(0, 4), *(Arc(10 + 5 * k, 14 + 5 * k) for k in range(size - 1))])
            for size in (10, 500)]
    seen = admissibility_checks(monkeypatch)
    counts = []
    for s in sets:
        seen.clear()
        assert len(rotate_set(s, d).explicit) == len(s.explicit)
        counts.append(len(seen))
    assert counts[0] == counts[1]


def test_in_nc_nc_checks_only_its_probe(monkeypatch):
    """The listing of ``nc s`` it sweeps is built unchecked, too."""
    seen = admissibility_checks(monkeypatch)
    assert not in_nc_nc(Arc(-8, 11), X)
    assert seen == [Arc(-8, 11)]
    with pytest.raises(NonAdmissible):
        in_nc_nc(Arc(-8, 10), X)


def test_divider_set_freezes_its_arcs():
    d = DividerSet(P3, [Arc(-4, 6), Arc(-4, 3)])
    assert d.arcs == frozenset({Arc(-4, 6), Arc(-4, 3)}) and hash(d) == hash(
        DividerSet.of(P3, {Arc(-4, 3), Arc(-4, 6)}))


def test_admissible_arcs_in_window():
    arcs = list(admissible_arcs_in(Window(-3, 5), P3))
    assert arcs == sorted(arcs)
    assert Arc(-3, 1) in arcs and Arc(0, 4) in arcs
    assert all(is_admissible(a, P3) and -3 <= a.t and a.u <= 5 for a in arcs)
    # n=1: every span >= 2 occurs
    assert len(list(admissible_arcs_in(Window(0, 4), ModelParams(1)))) == 6


def test_contains_examples():
    assert contains(Y_LITERAL, Arc(-8, -4))
    assert not contains(Y_LITERAL, Arc(-1, 3))
    assert not contains(ArcSet.of(P3), Arc(-1, 3))


def test_crosses_set_examples():
    s = ArcSet.of(P3, [Arc(-4, 3), Arc(-4, 6)])
    assert not crosses_set(Arc(-1, 3), s)
    assert crosses_set(Arc(-6, -2), s)
    fan = ArcSet.of(P3, families=[LeftFan(2, -5)])
    assert crosses_set(Arc(0, 4), fan)


def test_crosses_set_agrees_with_member_loop():
    w = Window(-9, 9)
    for a in admissible_arcs_in(w, P3):
        direct = any(cross(a, m) for m in X.explicit)
        assert crosses_set(a, X) == direct


def test_nc_window_examples():
    out = nc_window(X, Window(-8, 10))
    assert Arc(-4, 9) in out
    assert Arc(-1, 3) in out
    assert Arc(-6, -2) not in out


def test_members_in_window_merges_families_and_explicit():
    got = members_in_window(Y_LITERAL, Window(-9, 9))
    assert Arc(-4, 3) in got and Arc(-8, -4) in got
    assert got == sorted(set(got))


def test_fountain_loci_examples():
    left, right = fountain_loci(ArcSet.of(P3, families=[RightFan(0, 5)]))
    assert left == IntRegion.of() and right.points == frozenset({0})

    left, right = fountain_loci(Y_LITERAL)
    assert -4 in left and 7 in left  # half-left ray, band heads
    assert 6 in right and -5 in right  # half-right ray, band feet
    assert fountain_loci(X) == (IntRegion.of(), IntRegion.of())


def test_finiteness_examples():
    passed = Condition(True, "exact", ())
    assert finiteness_check(X) == finiteness_check(ArcSet.of(P3)) == (passed, passed)  # vacuous
    contra, co = finiteness_check(ArcSet.of(P3, families=[RightFan(0, 5)]))
    assert (contra, co) == (Condition(False, "exact", (0,)), passed)
    assert not contra and co
    contra, co = finiteness_check(Y_LITERAL)
    assert co == Condition(False, "exact", (-4,))


def test_frame_examples():
    assert frame(X, Window(-10, 10)) == [Arc(-4, 3), Arc(-4, 6)]
    crossing = ArcSet.of(P3, [Arc(-4, 0), Arc(-1, 3)])
    assert frame(crossing, Window(-10, 10)) == []
    assert frame(ArcSet.of(P3), Window(-10, 10)) == []


def test_frame_uses_full_symbolic_set():
    # member visible in the window, crossed only by family members outside it:
    # the fan arcs (0,7), (-3,7), ... all stick out past hi=5
    s = ArcSet.of(P3, [Arc(-1, 3)], [LeftFan(7, 0)])
    assert members_in_window(s, Window(-3, 5)) == [Arc(-1, 3)]
    assert frame(s, Window(-3, 5)) == []


def test_ptolemy_examples():
    good = ArcSet.of(P3, [Arc(-4, 0), Arc(-4, 3), Arc(-1, 3)])
    assert is_ptolemy_window(good, Window(-20, 20)) == Condition(True, "windowed", ())
    bad = ArcSet.of(P3, [Arc(-4, 0), Arc(-1, 3)])
    rep = is_ptolemy_window(bad, Window(-20, 20))
    assert not rep
    assert rep == Condition(False, "windowed", (Arc(-4, 0), Arc(-1, 3), Arc(-4, 3)))
    assert is_ptolemy_window(X, Window(-20, 20))  # no crossing pairs


def test_in_nc_nc_examples():
    assert in_nc_nc(Arc(-4, 3), ArcSet.of(P3, [Arc(-4, 3)]))
    assert not in_nc_nc(Arc(0, 4), ArcSet.of(P3))
    with pytest.raises(UnsupportedFamilies):
        in_nc_nc(Arc(-4, 3), Y_LITERAL)


def test_double_closure_of_ptolemy_example():
    x0 = ArcSet.of(P3, [Arc(-4, 0), Arc(-4, 3), Arc(-1, 3)])
    assert double_nc_extras(x0, Window(-20, 20)) == [Arc(-3, 1), Arc(-2, 2)]


@given(
    st.lists(admissible_arcs(3, -10, 10, 4), min_size=1, max_size=5),
    admissible_arcs(3, -12, 12, 4),
)
@settings(max_examples=60, deadline=None)
def test_in_nc_nc_extensive_and_matches_sweep(arcs, probe):
    s = ArcSet.of(P3, arcs)
    for a in arcs:
        assert in_nc_nc(a, s)
    pts = [e for a in arcs for e in a] + [probe.t, probe.u]
    w = Window(min(pts) - 6, max(pts) + 6)
    extras = double_nc_extras(s, w)
    assert in_nc_nc(probe, s) == (probe in extras or probe in s.explicit)


@given(st.lists(admissible_arcs(3, -10, 10, 4), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_nc_window_antitone(arcs):
    small = ArcSet.of(P3, arcs[:1])
    big = ArcSet.of(P3, arcs)
    w = Window(-16, 16)
    assert set(nc_window(big, w)) <= set(nc_window(small, w))


@given(st.lists(admissible_arcs(3, -10, 10, 4), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_frame_is_pairwise_non_crossing(arcs):
    fr = frame(ArcSet.of(P3, arcs), Window(-16, 16))
    for i, a in enumerate(fr):
        for b in fr[i + 1 :]:
            assert not cross(a, b)


# --- the per-foot sweep against the frozen brute-force references -----------

windows = st.tuples(st.integers(-30, 25), st.integers(1, 45)).map(
    lambda lw: Window(lw[0], lw[0] + lw[1])
)


def covering(s: ArcSet) -> Window:
    """A window holding every explicit endpoint and family scalar of ``s``."""
    pts = [e for a in s.explicit for e in a]
    for f in s.families:
        pts += family_scalars(f)
    pad = s.params.n + 2
    return Window(min(pts) - pad, max(pts) + pad)


def assert_canonical(runs: dict, n: int) -> None:
    """Each foot's runs are aligned, sorted and neither overlap nor abut, so
    equal head sets give equal runs."""
    for t, rs in runs.items():
        assert rs
        for (a, b), after in zip(rs, rs[1:] + [(None, None)]):
            assert t + n + 1 <= a < b and (a - t - 1) % n == 0 and (b - t - 1) % n == 0
            assert after[0] is None or b < after[0]


def assert_sweep_matches_brute(s: ArcSet, w: Window) -> None:
    assert nc_window(s, w) == nc_window_brute(s, w)
    assert members_in_window(s, w) == members_in_window_brute(s, w)
    assert_canonical(nc_runs(s, w), s.params.n)
    assert_canonical(member_runs(s, w), s.params.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(seed=st.integers(0, 2**32 - 1), w=windows)
@settings(max_examples=25, deadline=None)
def test_sweep_matches_brute_on_family_sets(n, seed, w):
    rng = random.Random(seed)
    while True:
        p, s, _ = random_family_rotation_case(rng)
        if p.n == n:
            break
    assert_sweep_matches_brute(s, w)
    assert_sweep_matches_brute(s, covering(s))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), w=windows)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_brute_on_finite_sets(seed, n, w):
    p = ModelParams(n)
    s = ArcSet.of(p, random_finite_arcs(random.Random(seed), p, 10, -15, 15))
    assert_sweep_matches_brute(s, w)
    assert_sweep_matches_brute(s, covering(s))


family_lists = st.lists(
    st.one_of(
        st.builds(LeftFan, st.integers(-15, 15), st.integers(-17, 13)),
        st.builds(RightFan, st.integers(-15, 15), st.integers(-13, 17)),
        st.builds(Band, st.integers(-15, 15), st.integers(-15, 15)),
        st.builds(HalfLeft, st.integers(-15, 15)),
        st.builds(HalfRight, st.integers(-15, 15)),
    ),
    min_size=1,
    max_size=6,
)


@given(n=st.integers(1, 4), fams=family_lists, w=windows, data=st.data())
@settings(max_examples=150, deadline=None)
def test_nc_runs_ignores_family_order(n, fams, w, data):
    """``nc_runs`` stops a foot once some family caps it, fans last; the
    closure must not depend on the order the families come in."""
    p = ModelParams(n)
    arcs = data.draw(st.lists(admissible_arcs(n, -15, 15, 6), max_size=4))
    s = ArcSet.of(p, arcs, fams)
    runs = nc_runs(s, w)
    assert nc_window(s, w) == nc_window_brute(s, w)
    order = data.draw(st.permutations(fams))
    assert nc_runs(ArcSet.of(p, arcs, order), w) == runs


@pytest.fixture(scope="module")
def mutated_demo_pair():
    """The demo pair after three rotation steps: hundreds of explicit arcs."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "example_sets.json"
    doc = parse_document(demo.read_bytes())
    d = DividerSet(doc.params, doc.sets["D"].explicit)
    x, y, w = doc.sets["X"], doc.sets["Ync"], Window(-80, 80)
    for _ in range(3):
        x, y, rep = mutate_pair(x, y, d, w)
        assert rep.verdict
        w = w.shrink(d.span() + 1)
    return x, y


def test_sweep_matches_brute_on_mutated_demo_pair(mutated_demo_pair):
    x, y = mutated_demo_pair
    assert len(y.explicit) >= 100
    for s in (x, y):
        for w in (covering(s), Window(-80, 80), Window(-75, -40), Window(20, 90)):
            assert_sweep_matches_brute(s, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_members_in_window_at_family_edges(n):
    """Windows ending on or near a family's defining integers, where the
    sweep clips each family's foot interval to the window."""
    fams = [RightFan(0, 2), LeftFan(0, -2), Band(1, 3), HalfLeft(1), HalfRight(-1)]
    for f in fams:
        s = ArcSet.of(ModelParams(n), families=[f])
        for v in family_scalars(f):
            for lo in range(v - 4, v + 3):
                for hi in range(max(lo + 1, v - 3), v + 5):
                    w = Window(lo, hi)
                    assert members_in_window(s, w) == members_in_window_brute(s, w), (f, w)


@pytest.fixture(scope="module")
def ten_step_demo_y():
    """Y of the demo pair after ten rotation steps on a fixed window: 623
    explicit arcs and 42 families, most of them fans."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "example_sets.json"
    doc = parse_document(demo.read_bytes())
    d = DividerSet(doc.params, doc.sets["D"].explicit)
    x, y, w = doc.sets["X"], doc.sets["Ync"], Window(-80, 80)
    for _ in range(10):
        x, y, rep = mutate_pair(x, y, d, w)
        assert rep.verdict
    return y


def test_members_in_window_matches_brute_after_ten_steps(ten_step_demo_y):
    y = ten_step_demo_y
    assert (len(y.explicit), len(y.families)) == (623, 42)
    for w in (Window(-80, 80), Window(-30, 45)):
        assert members_in_window(y, w) == members_in_window_brute(y, w)
