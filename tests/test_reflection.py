"""Reflection duality of the infinity-gon.

The reflection rho(t, u) = (-u, -t) keeps u - t, so it keeps admissibility.
It maps each family kind to a kind (``LeftFan`` <-> ``RightFan``,
``HalfLeft`` <-> ``HalfRight``, ``Band`` to ``Band``) and reverses Hom and
Ext.  So (X, Y) is an n-cotorsion pair iff (rho Y, rho X) is, with the two
finiteness conditions swapped, and rotation and its inverse are conjugate
under rho.  Each test below checks one of these consequences for n = 1..4;
the mirrored sets put every kind through the box rules with its feet and
heads exchanged.
"""

import random

import pytest

from infgon import (
    Arc,
    ArcSet,
    Band,
    DividerSet,
    HalfLeft,
    HalfRight,
    LeftFan,
    ModelParams,
    RightFan,
    Window,
    admissible_arcs_in,
    check_pair,
    cross,
    ext_dim,
    finiteness_check,
    fountain_loci,
    hom_dim,
    members_in_window,
    nc_window,
    rotate_arc,
    rotate_arc_inverse,
    rotate_set,
)
from infgon.arcsets import features
from infgon.oracles import random_divider_case, random_family_rotation_case

from conftest import demo


def reflect(obj):
    """rho on an arc, a family, an arc set, a divider set or a window."""
    if isinstance(obj, Arc):
        return Arc(-obj.u, -obj.t)
    if isinstance(obj, LeftFan):
        return RightFan(-obj.p, -obj.s_max)
    if isinstance(obj, RightFan):
        return LeftFan(-obj.p, -obj.u_min)
    if isinstance(obj, Band):
        return Band(-obj.l_min, -obj.k_max)
    if isinstance(obj, HalfLeft):
        return HalfRight(-obj.p)
    if isinstance(obj, HalfRight):
        return HalfLeft(-obj.q)
    if isinstance(obj, ArcSet):
        return ArcSet(obj.params, map(reflect, obj.explicit), map(reflect, obj.families))
    if isinstance(obj, DividerSet):
        return DividerSet(obj.params, map(reflect, obj.arcs))
    if isinstance(obj, Window):
        return Window(-obj.hi, -obj.lo)
    raise TypeError(obj)


def reflected(arcs):
    return sorted(map(reflect, arcs))


def family_sets(count=200, seed=3):
    rng = random.Random(seed)
    return [random_family_rotation_case(rng)[1] for _ in range(count)]


@pytest.mark.parametrize("kind", [LeftFan(2, -3), RightFan(-2, 3), Band(-4, 5), HalfLeft(1),
                                  HalfRight(-1)])
def test_reflection_maps_each_kind_to_its_mirror(kind):
    p, w = ModelParams(3), Window(-12, 12)
    members = [a for a in admissible_arcs_in(w, p) if kind.is_member(a, p)]
    assert members and reflected(members) == [
        a for a in admissible_arcs_in(w, p) if reflect(kind).is_member(a, p)]
    assert reflect(reflect(kind)) == kind


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crossing_is_invariant_and_hom_ext_reverse(n):
    p = ModelParams(n)
    arcs = list(admissible_arcs_in(Window(-7, 7), p))
    for a in arcs:
        ra = reflect(a)
        for b in arcs:
            rb = reflect(b)
            assert cross(ra, rb) == cross(a, b), (a, b)
            assert hom_dim(ra, rb, p) == hom_dim(b, a, p), (a, b)
            for i in range(1, n + 1):
                assert ext_dim(ra, rb, i, p) == ext_dim(b, a, i, p), (a, b, i)


def test_closures_commute_with_reflection_and_finiteness_swaps():
    sets = family_sets()
    assert {s.params.n for s in sets} == {1, 2, 3, 4}
    w = Window(-30, 30)
    for s in sets:
        rs = reflect(s)
        assert members_in_window(rs, w) == reflected(members_in_window(s, w)), s
        assert nc_window(rs, w) == reflected(nc_window(s, w)), s
        (contra, co), (rcontra, rco) = finiteness_check(s), finiteness_check(rs)
        assert (rcontra.ok, rco.ok) == (co.ok, contra.ok), s
        left, right = fountain_loci(s)
        for v in rcontra.witnesses:  # in rho's right locus, not its left
            assert -v in left and -v not in right
        for v in rco.witnesses:
            assert -v in right and -v not in left


def test_inverse_rotation_is_rotation_conjugated_by_reflection():
    rng = random.Random(1)
    seen = set()
    for _ in range(300):
        p, d, a = random_divider_case(rng)
        seen.add(p.n)
        rd = reflect(d)
        assert rotate_arc_inverse(reflect(a), rd) == reflect(rotate_arc(a, d)), (d, a)
        assert rotate_arc(reflect(a), rd) == reflect(rotate_arc_inverse(a, d)), (d, a)
    assert seen >= {1, 2, 3, 4}


def test_reflected_rotation_undoes_rotate_set():
    """rho mu_{rho D} rho inverts mu_D = ``rotate_set(., D)`` on sets: the
    round trip gives back every member on the hull of the set +- 30, though
    not its representation, which grows."""
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        p, x, d = random_family_rotation_case(rng)
        seen.add(p.n)
        back = reflect(rotate_set(reflect(rotate_set(x, d)), reflect(d)))
        pts = features(x)
        w = Window(min(pts) - 30, max(pts) + 30)
        assert members_in_window(back, w) == members_in_window(x, w), (x, d)
    assert seen == {1, 2, 3, 4}


def summary(conds):
    """Each condition's verdict, mode, and set witnesses or fountain witness
    count (a fountain witness is any point of a difference of loci)."""
    return [(c.ok, c.mode, c.witnesses if i < 2 else len(c.witnesses))
            for i, c in enumerate(conds)]


def swapped(rep):
    """The conditions of ``check_pair(x, y)`` as ``check_pair(rho y, rho x)``
    states them: 1 <-> 2 and 3 <-> 4, set witnesses reflected."""
    c1, c2, c3, c4 = rep[:4]
    return summary([c2._replace(witnesses=tuple(reflected(c2.witnesses))),
                    c1._replace(witnesses=tuple(reflected(c1.witnesses))), c4, c3])


@pytest.mark.parametrize("ys,verdict", [("Ync", True), ("Y", False)])
def test_check_pair_swaps_conditions_under_reflection(ys, verdict):
    x, y, w = demo().sets["X"], demo().sets[ys], Window(-20, 20)
    rep = check_pair(x, y, w)
    assert rep.verdict is verdict
    assert summary(check_pair(reflect(y), reflect(x), reflect(w))[:4]) == swapped(rep)


def test_self_pairs_swap_conditions_under_reflection():
    w = Window(-40, 40)  # family scalars lie in [-25, 25]
    for s in family_sets(seed=5):
        rs = reflect(s)
        assert summary(check_pair(rs, rs, w)[:4]) == swapped(check_pair(s, s, w)), s
