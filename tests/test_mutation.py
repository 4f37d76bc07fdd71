import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    contains,
    cross,
    crosses_set,
    frame,
    is_admissible,
    members_in_window,
    mutate_pair,
    mutation_via_triangle,
    predecessor,
    rotate_arc,
    rotate_arc_inverse,
    rotate_set,
    shift,
    successor,
)
from infgon.arcs import normalize
from infgon.cellwalk import walk_predecessor, walk_successor
from infgon.errors import (
    DNotInCore,
    DNotInFrame,
    IncompatibleArc,
    NonAdmissible,
    PairCheckFailed,
    WindowTooSmall,
)
from infgon.families import _first_from
from infgon.mutation import _pred, _rotate_all, _rotate_family, _shifted, _succ
from infgon.oracles import (
    random_divider_case,
    random_family_rotation_case,
    rotation_mismatches,
    run_mutation_fuzz,
)

from conftest import demo, orbit

P1, P3 = ModelParams(1), ModelParams(3)
D1 = DividerSet.of(P3, [Arc(-4, 6)])


def test_divider_validation():
    with pytest.raises(IncompatibleArc):
        DividerSet.of(P3, [Arc(-4, 3), Arc(-1, 6)])  # crossing
    d = DividerSet.of(P3, [Arc(-4, 6), Arc(-4, 3)])  # shared endpoint is fine
    assert d.span() == 10
    assert d.endpoints() == [-4, 3, 6]


@pytest.mark.parametrize(
    "v,a,expected",
    [
        (-4, Arc(-4, 3), 6),  # wrap along the enclosing divider
        (6, Arc(-7, 6), -4),  # jump along the divider the arc sits outside of
        (9, Arc(-4, 9), 8),  # plain step
    ],
)
def test_predecessor_examples(v, a, expected):
    assert predecessor(v, a, D1) == expected


@pytest.mark.parametrize(
    "v,a,expected",
    [
        (6, Arc(2, 6), -4),
        (2, Arc(2, 6), 3),
        (9, Arc(9, 13), 10),  # bare line to the right
    ],
)
def test_successor_examples(v, a, expected):
    assert successor(v, a, D1) == expected


def test_step_preconditions():
    with pytest.raises(IncompatibleArc):
        predecessor(0, Arc(-4, 3), D1)  # not an endpoint
    with pytest.raises(IncompatibleArc):
        predecessor(-4, Arc(-4, 6), D1)  # divider arc itself
    with pytest.raises(IncompatibleArc):
        predecessor(-1, Arc(-1, 9), D1)  # crosses the divider


def test_nested_divider_ties():
    # all spans admissible for n=1
    inside = DividerSet.of(P1, [Arc(0, 4), Arc(0, 8)])
    assert predecessor(0, Arc(0, 2), inside) == 4  # innermost enclosing arc
    assert predecessor(0, Arc(0, 6), inside) == 8  # between the two
    outside = DividerSet.of(P1, [Arc(-4, 0), Arc(-8, 0)])
    assert predecessor(0, Arc(0, 2), outside) == -8  # outermost jump
    assert successor(-8, Arc(-8, -6), outside) == -7
    mixed = DividerSet.of(P1, [Arc(-4, 0), Arc(0, 4)])
    assert predecessor(0, Arc(0, 6), mixed) == -4
    assert predecessor(0, Arc(0, 2), mixed) == 4
    assert successor(4, Arc(2, 4), mixed) == 0


def test_rotate_arc_regression():
    assert rotate_arc(Arc(-4, 3), D1) == Arc(2, 6)
    assert rotate_arc(Arc(-4, 9), D1) == Arc(-5, 8)
    assert rotate_arc(Arc(-7, 6), D1) == Arc(-8, -4)


def test_rotate_arc_inverse_regression():
    assert rotate_arc_inverse(Arc(2, 6), D1) == Arc(-4, 3)
    assert rotate_arc_inverse(Arc(-5, 8), D1) == Arc(-4, 9)
    with pytest.raises(IncompatibleArc):
        rotate_arc_inverse(Arc(-4, 6), D1)


def test_rotation_fuzz_small():
    rep = run_mutation_fuzz(200, seed=7)
    assert rep.ok, rep


def test_cellwalk_matches_rules_spot():
    rng = random.Random(3)
    for _ in range(80):
        p, d, a = random_divider_case(rng, max_arcs=6, span=40)
        for v in a:
            assert predecessor(v, a, d) == walk_predecessor(v, a, d.arcs)
            assert successor(v, a, d) == walk_successor(v, a, d.arcs)


def assert_kernel_matches_cellwalk(arcs: list[Arc], d: DividerSet) -> None:
    """The batch kernel, both ways, against the explicit boundary walk."""
    back = [
        normalize(walk_predecessor(a.t, a, d.arcs), walk_predecessor(a.u, a, d.arcs))
        for a in arcs
    ]
    fwd = [
        normalize(walk_successor(a.t, a, d.arcs), walk_successor(a.u, a, d.arcs)) for a in arcs
    ]
    assert _rotate_all(arcs, d, _pred) == back
    assert _rotate_all(arcs, d, _succ) == fwd
    assert [rotate_arc(a, d) for a in arcs] == back
    assert [rotate_arc_inverse(a, d) for a in arcs] == fwd


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rotation_kernel_matches_cellwalk_on_divider_cases(n):
    rng = random.Random(100 + n)
    cases = 0
    while cases < 25:
        p, d, a = random_divider_case(rng, max_arcs=6, span=40)
        if p.n != n:
            continue
        cases += 1
        pts = d.endpoints() + list(a)
        w = Window(min(pts) - n - 3, max(pts) + n + 3)
        arcs = [
            b
            for b in admissible_arcs_in(w, p)
            if b not in d.arcs and not any(cross(b, e) for e in d.arcs)
        ]
        assert a in arcs
        assert_kernel_matches_cellwalk(arcs, d)


def test_rotation_kernel_matches_cellwalk_on_family_sets():
    rng = random.Random(17)
    for _ in range(40):
        p, x, d = random_family_rotation_case(rng)
        pts = d.endpoints()
        w = Window(min(pts) - 25, max(pts) + 25)
        arcs = [m for m in members_in_window(x, w) if m not in d.arcs]
        assert arcs
        assert_kernel_matches_cellwalk(arcs, d)


@pytest.mark.parametrize(
    "bad,error,message",
    [
        (Arc(-4, 6), IncompatibleArc, "(-4,6) is a divider arc; dividers are fixed, not rotated"),
        (Arc(-1, 9), IncompatibleArc, "(-1,9) crosses divider arc (-4,6)"),
        (Arc(-6, 1), IncompatibleArc, "(-6,1) crosses divider arc (-4,6)"),
        (Arc(-4, 5), NonAdmissible, "(-4,5) is not admissible for n=3"),
    ],
)
def test_rotation_kernel_error_parity(bad, error, message):
    good = [Arc(-4, 3), Arc(-7, 6)]
    for call in (
        lambda: rotate_arc(bad, D1),
        lambda: rotate_arc_inverse(bad, D1),
        lambda: _rotate_all(good + [bad], D1, _pred),
        lambda: _rotate_all(good + [bad], D1, _succ),
    ):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_rotate_set_regression():
    x = ArcSet.of(P3, [Arc(-4, 3), Arc(-4, 6)])
    out = rotate_set(x, D1)
    assert set(out.explicit) == {Arc(2, 6), Arc(-4, 6)}
    assert not out.families


def test_rotate_set_empty_divider_is_global_shift():
    d0 = DividerSet.of(P3, [])
    x = ArcSet.of(
        P3,
        [Arc(-4, 3)],
        [RightFan(-4, 0), LeftFan(5, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
    )
    out = rotate_set(x, d0)
    w = Window(-25, 25)
    expected = sorted(shift(m, 1) for m in members_in_window(x, Window(-24, 26)))
    got = members_in_window(out, w)
    assert [a for a in expected if w.lo <= a.t and a.u <= w.hi] == got


def test_rotate_set_requires_frame_membership():
    x = ArcSet.of(P3, [Arc(-4, 3)])
    with pytest.raises(DNotInFrame):
        rotate_set(x, D1)  # divider not a member
    y = ArcSet.of(P3, [Arc(-4, 6), Arc(-1, 9)])
    with pytest.raises(DNotInFrame):
        rotate_set(y, D1)  # divider crossed by a member


def test_rotate_set_families_match_pointwise():
    y = ArcSet.of(
        P3,
        [Arc(-3, 1), Arc(-2, 2), Arc(-1, 3)],
        [RightFan(-4, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
    )
    out = rotate_set(y, D1)
    assert rotation_mismatches(y, D1, out) == []
    assert contains(out, Arc(-5, 8)) and contains(out, Arc(-8, -4))


def test_rotate_set_of_literal_encoding():
    # The strict set-builder encoding is rotatable mechanically, but it lacks
    # the members (-4,9) and (-7,6), so their pictured images cannot appear;
    # those arise only from the derived closure encoding (tested above).
    y_literal = ArcSet.of(
        P3, [Arc(-4, 3), Arc(-4, 6)], [HalfLeft(-4), HalfRight(6), Band(-5, 7)]
    )
    assert not contains(y_literal, Arc(-4, 9))
    assert not contains(y_literal, Arc(-7, 6))
    out = rotate_set(y_literal, D1)
    assert contains(out, Arc(2, 6))
    assert not contains(out, Arc(-5, 8))
    assert not contains(out, Arc(-8, -4))


def test_rotated_image_always_compatible():
    rng = random.Random(11)
    for _ in range(150):
        p, d, a = random_divider_case(rng, max_arcs=8, span=50)
        img = rotate_arc(a, d)
        assert is_admissible(img, p)
        assert all(not cross(img, b) for b in d.arcs)
        assert img != a
        assert cross(img, a)  # rotation strictly interleaves with its source


GOOD_X = ArcSet.of(P3, [Arc(-4, 3), Arc(-4, 6)])
GOOD_Y = ArcSet.of(
    P3,
    [Arc(-3, 1), Arc(-2, 2), Arc(-1, 3)],
    [RightFan(-4, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
)
W = Window(-20, 20)


def test_mutate_pair_passes_on_shrunk_window():
    x2, y2, rep = mutate_pair(GOOD_X, GOOD_Y, D1, W)
    assert rep.verdict
    assert set(x2.explicit) == {Arc(2, 6), Arc(-4, 6)}
    assert contains(y2, Arc(-5, 8)) and contains(y2, Arc(-8, -4))
    # frame of the mutated set is the rotated frame
    shrunk = W.shrink(D1.span() + 1)
    assert frame(x2, shrunk) == sorted(x2.explicit)


def test_mutate_pair_window_too_small_to_survive_the_shrink():
    # check_pair admits [-10, 11], but the shrink by span(D1) + 1 = 11 empties it
    with pytest.raises(WindowTooSmall, match="shrink"):
        mutate_pair(GOOD_X, GOOD_Y, D1, Window(-10, 11))


def test_mutate_pair_reports_the_window_it_decided_on():
    _, _, rep = mutate_pair(GOOD_X, GOOD_Y, D1, W)
    assert rep.window == W.shrink(D1.span() + 1)
    assert check_pair(GOOD_X, GOOD_Y, W).window == W


def test_mutate_pair_rejects_divider_outside_core():
    stray = DividerSet.of(P3, [Arc(-7, 6)])
    with pytest.raises(DNotInCore):
        mutate_pair(GOOD_X, GOOD_Y, stray, W)
    # a member of both sets, but beyond the window
    far = ArcSet.of(P3, [Arc(-4, 3)], [HalfRight(14)])
    with pytest.raises(DNotInCore):
        mutate_pair(far, far, DividerSet.of(P3, [Arc(40, 44)]), W, force=True)


@pytest.mark.parametrize("arc", [Arc(0, 2), Arc(-4, -1), Arc(-4, 6)])
def test_mutate_pair_names_a_divider_set_of_another_modulus(arc):
    # (-4, 6) is admissible for n = 3 and a core member, (-4, -1) and (0, 2) are not:
    # the error is the same either way
    with pytest.raises(ValueError, match="disagree on the modulus n"):
        mutate_pair(GOOD_X, GOOD_Y, DividerSet.of(P1, [arc]), W)


def test_mutate_pair_force_path():
    broken_y = ArcSet.of(
        P3,
        [Arc(-2, 2), Arc(-1, 3)],  # dropped (-3,1)
        [RightFan(-4, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
    )
    with pytest.raises(PairCheckFailed):
        mutate_pair(GOOD_X, broken_y, D1, W)
    x2, y2, rep = mutate_pair(GOOD_X, broken_y, D1, W, force=True)
    assert not rep.verdict
    assert set(x2.explicit) == {Arc(2, 6), Arc(-4, 6)}


def test_mutate_pair_empty_divider():
    d0 = DividerSet.of(P3, [])
    x2, y2, rep = mutate_pair(GOOD_X, GOOD_Y, d0, W)
    assert rep.verdict
    assert set(x2.explicit) == {Arc(-5, 2), Arc(-5, 5)}


def test_mutation_via_triangle_examples():
    res = mutation_via_triangle(Arc(-4, 3), D1, P3)
    assert res.image == Arc(2, 6)
    assert res.via_triangle.middles() == (Arc(-4, 6),)
    res = mutation_via_triangle(Arc(-4, 9), D1, P3)
    assert res.image == Arc(-5, 8)
    assert res.via_triangle.middles() == ()  # both template corners degenerate
    with pytest.raises(IncompatibleArc):
        mutation_via_triangle(Arc(-1, 9), D1, P3)


def test_mutation_via_triangle_middles_stay_in_divider():
    rng = random.Random(5)
    for _ in range(100):
        p, d, a = random_divider_case(rng)
        res = mutation_via_triangle(a, d, p)
        assert all(m in d.arcs for m in res.via_triangle.middles())
        assert res.via_triangle.left == a
        assert res.via_triangle.right == res.image


def test_rotation_with_a_far_family_scalar_is_cheap():
    """Rotating a fan a million feet away from the divider stays cheap: only
    the feet that carry members cost anything."""
    p, far = ModelParams(3), -1_000_000
    x = ArcSet.of(p, [Arc(-4, 6)], [RightFan(far, 6)])
    d = DividerSet.of(p, [Arc(-4, 6)])
    tracemalloc.start()
    try:
        got = rotate_set(x, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.explicit == {Arc(far - 1, -4), Arc(far - 1, 8), Arc(-4, 6)}
    assert got.families == (RightFan(far - 1, 11),)
    assert peak < 8 * 2**20


def hugging_divider(rng: random.Random, x: ArcSet, d: DividerSet) -> Arc | None:
    """A random arc sharing an endpoint with a divider, not yet a divider and
    crossing nothing in ``x``: added to both, it keeps the pair rotatable."""
    cands = [Arc(*sorted((e, v))) for e in d.endpoints() for v in range(e - 12, e + 13)
             if abs(e - v) >= 2]
    cands = [b for b in cands if is_admissible(b, d.params) and b not in d.arcs
             and not crosses_set(b, x)]
    return rng.choice(cands) if cands else None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(seed=st.integers(0, 2**32 - 1), hug=st.booleans(), rotated=st.booleans())
@settings(max_examples=60, deadline=None)
def test_rotate_set_matches_pointwise_rotation(n, seed, hug, rotated):
    """``rotate_set`` must equal ``rotate_arc`` on every member.  ``hug``
    adds a divider sharing an endpoint with another, so members at divider
    endpoints meet ordinary ones; ``rotated`` starts from a rotated set,
    whose families are the fans and leftovers of a split."""
    rng = random.Random(seed)
    while True:
        p, x, d = random_family_rotation_case(rng)
        if p.n == n:
            break
    b = hugging_divider(rng, x, d) if hug else None
    if b is not None:
        x = ArcSet.of(p, x.explicit | {b}, x.families)
        d = DividerSet.of(p, d.arcs | {b})
    if rotated:
        x = rotate_set(x, d)
    assert rotation_mismatches(x, d, rotate_set(x, d)) == []


def test_rotate_set_matches_pointwise_rotation_along_the_demo_orbit():
    """Both sets of every orbit step, rotated by the demo's D."""
    doc = demo()
    d = DividerSet(doc.params, doc.sets["D"].explicit)
    for x, y in orbit():
        for s in (x, y):
            assert rotation_mismatches(s, d, rotate_set(s, d)) == []


# Frozen reference: the family split as each kind once stated it by hand, in
# a table keyed by ``kind``, before it was read off the family's box.


def ref_split_band(f: Band, lo: int, hi: int):
    k_rest = min(f.k_max, lo - 1)
    return (
        [(k, f.l_min) for k in range(lo, f.k_max + 1)],
        [(l, k_rest) for l in range(f.l_min, hi + 1)],
        [Band(k_rest, max(f.l_min, hi + 1))],
    )


REF_SPLITS = {
    "right_fan": lambda f, lo, hi: ([(f.p, f.u_min)], [], []),
    "left_fan": lambda f, lo, hi: ([], [(f.p, f.s_max)], []),
    "band": ref_split_band,
    "half_left": lambda f, lo, hi: (
        [], [(h, h - 2) for h in range(lo, f.p + 1)], [HalfLeft(lo - 1)]),
    "half_right": lambda f, lo, hi: (
        [(q, q + 2) for q in range(f.q, hi + 1)], [], [HalfRight(hi + 1)]),
}


def ref_rotate_family(f, d: DividerSet):
    pts = d.endpoints()
    if (not pts or f.kind == "half_left" and f.p < pts[0]
            or f.kind == "half_right" and f.q > pts[-1]):
        return [], [_shifted(f)]
    n, lo, hi = d.params.n, pts[0], pts[-1]
    rights, lefts, rest = REF_SPLITS[f.kind](f, lo - n - 2, hi + n + 2)
    members = []
    fams = [_shifted(g) for g in rest]
    for p, u_min in rights:
        first = _first_from(max(u_min, p + 2), p + 1, n)
        top = max(hi, first - 1) + n + 2
        members += [(p, u) for u in range(first, top + 1, n)]
        fams.append(RightFan(_pred(p, top, d), top))
    for p, s_max in lefts:
        last = _first_from(min(s_max, p - 2) - n + 1, p - 1, n)
        bottom = min(lo, last + 1) - n - 2
        members += [(s, p) for s in range(_first_from(bottom, p - 1, n), last + 1, n)]
        fams.append(LeftFan(_pred(p, bottom, d), bottom - 2))
    return members, fams


@given(seed=st.integers(0, 2**32 - 1), empty=st.integers(0, 19).map(lambda i: i == 0),
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_family_split_matches_the_frozen_per_kind_rules(seed, empty, data):
    """Every kind, with scalars near the divider hull so that the half-kinds
    are split too, against the per-kind split it replaced."""
    p, d, _ = random_divider_case(random.Random(seed))
    if empty:
        d = DividerSet.of(p, [])
    pts = d.endpoints() or [0]
    near = st.integers(pts[0] - 20, pts[-1] + 20)
    f = data.draw(st.one_of(st.builds(LeftFan, near, near), st.builds(RightFan, near, near),
                            st.builds(Band, near, near), st.builds(HalfLeft, near),
                            st.builds(HalfRight, near)))
    members, fams = _rotate_family(f, d)
    ref_members, ref_fams = ref_rotate_family(f, d)
    assert set(members) == set(ref_members)
    assert Counter(fams) == Counter(ref_fams)
