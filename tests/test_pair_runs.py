"""``check_pair`` and ``core`` compare closures as per-foot head runs; here
they are held against the frozen brute-force listings, compared as plain
sets of arcs."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcSet,
    Window,
    check_pair,
    contains,
    core,
    finiteness_check,
    rotate_set,
)
from infgon.arcsets import features
from infgon.errors import WindowTooSmall
from infgon.families import Band, HalfLeft, HalfRight, LeftFan, RightFan, family_scalars
from infgon.oracles import members_in_window_brute, nc_window_brute, random_family_rotation_case

from conftest import demo, orbit


def shifted(s: ArcSet, k: int) -> ArcSet:
    fams = [type(f)(*(v + k for v in family_scalars(f))) for f in s.families]
    return ArcSet.of(s.params, [Arc(t + k, u + k) for t, u in s.explicit], fams)


@st.composite
def pairs(draw, n: int):
    """Random family sets at modulus ``n`` against themselves or their
    rotation; at n = 3 also translates of the demo pairs and orbit states."""
    kinds = ["family", "rotated"] + (["demo", "orbit"] if n == 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("family", "rotated"):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        while True:
            p, s, d = random_family_rotation_case(rng)
            if p.n == n:
                break
        x, y = s, (s if kind == "family" else rotate_set(s, d))
    elif kind == "demo":
        doc, k = demo(), draw(st.integers(-40, 40))
        names = draw(st.sampled_from([("X", "Ync"), ("X", "Y"), ("Y", "Ync")]))
        x, y = (shifted(doc.sets[name], k) for name in names)
    else:
        x, y = orbit()[draw(st.integers(0, 10))]
    if draw(st.booleans()):
        x, y = y, x
    # one end of the window on or next to a defining integer of either set
    end = draw(st.sampled_from([0, *features(x, y)])) + draw(st.integers(-2, 2))
    width = draw(st.integers(6, 30))
    w = Window(end, end + width) if draw(st.booleans()) else Window(end - width, end)
    return x, y, w


def reference(x: ArcSet, y: ArcSet, w: Window):
    def equality(lhs, rhs):
        left, right = set(lhs), set(rhs)
        return (True, "windowed", ()) if left == right else (
            False, "windowed", tuple(sorted(left ^ right)))

    conditions = [
        equality(members_in_window_brute(x, w), nc_window_brute(y, w)),
        equality(members_in_window_brute(y, w), nc_window_brute(x, w)),
        finiteness_check(x)[0],
        finiteness_check(y)[1],
    ]
    return conditions, [a for a in members_in_window_brute(x, w) if contains(y, a)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_run_comparison_matches_brute_sets(n, data):
    x, y, w = data.draw(pairs(n))
    rep = check_pair(x, y, w, enforce_margin=False)
    got = [(c.ok, c.mode, c.witnesses) for c in rep.conditions().values()]
    want, want_core = reference(x, y, w)
    assert got == want
    assert core(x, y, w) == want_core


@st.composite
def perturbed_demo_pairs(draw):
    """The demo pair X / Ync (n = 3), translated, with one explicit arc or
    family, its integers in [-60, 60], added to one of the two sets."""
    doc, k = demo(), draw(st.integers(-20, 20))
    x, y = shifted(doc.sets["X"], k), shifted(doc.sets["Ync"], k)
    if draw(st.booleans()):
        t = draw(st.integers(-60, 56))
        extra = ArcSet.of(x.params, [Arc(t, draw(st.sampled_from(range(t + 4, 61, 3))))])
    else:
        kind = draw(st.sampled_from([LeftFan, RightFan, Band, HalfLeft, HalfRight]))
        scalars = [draw(st.integers(-60, 60)) for _ in dataclasses.fields(kind)]
        extra = ArcSet.of(x.params, families=[kind(*scalars)])
    if draw(st.booleans()):
        x, y = y, x
    return ArcSet.of(x.params, x.explicit | extra.explicit, x.families + extra.families), y


@given(pair=perturbed_demo_pairs(), grow=st.tuples(st.integers(0, 40), st.integers(0, 40)))
@settings(max_examples=300, deadline=None)
def test_verdict_on_the_narrowest_guarded_window_holds_on_wider_ones(pair, grow):
    """``check_pair`` claims its verdict for every window it admits, so the
    narrowest one (the features' hull, widened evenly until the guard lets
    it through) must agree with any wider one."""
    x, y = pair
    pts = features(x, y)
    for m in range(2 * x.params.n + 5):
        w = Window(min(pts) - m, max(pts) + m)
        try:
            narrow = check_pair(x, y, w)
            break
        except WindowTooSmall:
            continue
    else:
        pytest.fail(f"the guard admits no window up to margin {m} around {pts}")
    wide = check_pair(x, y, Window(w.lo - grow[0], w.hi + grow[1]))
    assert [c.ok for c in narrow.conditions().values()] == [
        c.ok for c in wide.conditions().values()]
