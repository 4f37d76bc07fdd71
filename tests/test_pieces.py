"""Closures as pieces: every expansion from the pieces' sample rows must
equal the per-foot kernel applied on every foot of the window, and the cost
of a verdict must not depend on the window's width."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcSet,
    DividerSet,
    ModelParams,
    Window,
    check_pair,
    core,
    crosses_set,
    frame,
    rotate_set,
)
from infgon.arcsets import (_member_rows, _nc_rows, _piece_runs, _Pieces, features, member_runs,
                            nc_runs)
from infgon.errors import NonAffinePiece
from infgon.families import Band, HalfLeft, HalfRight, LeftFan, RightFan
from infgon.oracles import random_finite_arcs

from conftest import demo, orbit

KINDS = (LeftFan, RightFan, Band, HalfLeft, HalfRight)


def family_set(rng: random.Random, n: int, spread: int) -> ArcSet:
    """Up to four explicit arcs and one to three families of any kind, their
    integers within ``spread`` of 0."""
    p = ModelParams(n)
    kinds = [rng.choice(KINDS) for _ in range(rng.randint(1, 3))]
    fams = [k(*(rng.randint(-spread, spread) for _ in fields(k))) for k in kinds]
    return ArcSet.of(p, random_finite_arcs(rng, p, 4, -spread, spread), fams)


def rotated(s: ArcSet) -> ArcSet:
    """``s`` rotated by its explicit arcs that cross nothing in it."""
    d = DividerSet.of(s.params, [a for a in s.explicit if not crosses_set(a, s)])
    return rotate_set(s, d)


@st.composite
def pairs(draw, n: int):
    """A random family set against itself or its rotation, or two of them;
    at n = 3 also the demo pairs and the orbit states.  One end of the
    window lies on or next to an anchor of either set."""
    kinds = ["same", "rotated", "two"] + (["demo", "orbit"] if n == 3 else [])
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([15, 40]))
    if kind in ("same", "rotated", "two"):
        x = family_set(rng, n, spread)
        y = {"same": x, "rotated": rotated(x), "two": family_set(rng, n, spread)}[kind]
    elif kind == "demo":
        names = draw(st.sampled_from([("X", "Ync"), ("X", "Y"), ("Y", "Ync")]))
        x, y = (demo().sets[name] for name in names)
    else:
        x, y = orbit()[draw(st.integers(0, 10))]
    if draw(st.booleans()):
        x, y = y, x
    end = draw(st.sampled_from([0, *features(x, y)])) + draw(st.integers(-2, 2))
    width = draw(st.integers(6, 120))
    w = Window(end, end + width) if draw(st.booleans()) else Window(end - width, end)
    return x, y, w


def every_foot(w: Window) -> list[range]:
    return [range(w.lo, w.hi - 1)]


def arcs_of(runs, n: int) -> set[Arc]:
    return {Arc(t, u) for t, rs in runs.items() for a, b in rs for u in range(a, b, n)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_pieces_expand_to_the_kernel_on_every_foot(n, data):
    x, y, w = data.draw(pairs(n))
    full = every_foot(w)
    mx, my = _member_rows(x, w, full), _member_rows(y, w, full)
    ncx, ncy = _nc_rows(x, w, full), _nc_rows(y, w, full)
    assert member_runs(x, w) == mx
    assert nc_runs(y, w) == ncy
    assert list(member_runs(x, w)) == list(mx)  # feet in order
    rep = check_pair(x, y, w, enforce_margin=False)
    assert rep.x_equals_nc_y.witnesses == tuple(sorted(arcs_of(mx, n) ^ arcs_of(ncy, n)))
    assert rep.y_equals_nc_x.witnesses == tuple(sorted(arcs_of(my, n) ^ arcs_of(ncx, n)))
    assert core(x, y, w) == sorted(arcs_of(mx, n) & arcs_of(my, n))
    assert frame(x, w) == sorted(arcs_of(mx, n) & arcs_of(ncx, n))
    plan = _Pieces.of(w, x, y)
    assert plan.expand(plan.closure(x)) == ncx
    assert [t for a, _, b in plan.spans for t in range(a, b + 1)] == list(range(w.lo, w.hi - 1))


class KernelCalls:
    """Counts the families' ``member_heads`` and ``crossed_heads`` calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for cls in KINDS:
            for name in ("member_heads", "crossed_heads"):
                monkeypatch.setattr(cls, name, self.counted(getattr(cls, name)))

    def counted(self, method):
        def wrapper(*args):
            self.calls += 1
            return method(*args)
        return wrapper

    def run(self, fn, *args):
        before = self.calls
        out = fn(*args)
        return out, self.calls - before


def test_verdict_and_core_cost_no_more_on_a_wider_window(monkeypatch):
    x, y = demo().sets["X"], demo().sets["Ync"]
    kernel = KernelCalls(monkeypatch)
    results = []
    for half in (100, 100_000):
        w = Window(-half, half)
        rep, pair_calls = kernel.run(check_pair, x, y, w)
        arcs, core_calls = kernel.run(core, x, y, w)
        conds = [(c.ok, c.mode, c.witnesses) for c in rep.conditions().values()]
        results.append((conds, arcs, pair_calls, core_calls))
    assert results[0] == results[1]
    assert results[0][2] > 0


def test_far_fans_give_the_same_pieces_at_any_distance():
    p = ModelParams(3)

    def far(dist: int) -> _Pieces:
        s = ArcSet.of(p, [Arc(0, 4)],
                      [HalfLeft(-3), RightFan(-dist, dist), LeftFan(dist, -dist)])
        return _Pieces.of(Window(-dist - 10, dist + 10), s)

    assert len(far(30).spans) == len(far(30_000).spans)


def test_family_feet_cover_every_foot_with_a_member():
    for n in (1, 2, 3, 4):
        for fam in (LeftFan(7, 2), LeftFan(3, 9), RightFan(-2, 5), Band(1, 6),
                    HalfLeft(4), HalfRight(-3)):
            feet = fam.feet_in(-20, 20, n)
            carrying = [t for t in range(-20, 21) if fam.member_heads(t, n)]
            assert set(carrying) <= set(feet), (fam, n)
            if isinstance(fam, LeftFan):
                assert list(feet) == carrying, (fam, n)


@pytest.mark.parametrize("rows", [
    {0: [(2, 3)], 1: [(3, 4), (6, 7)]},  # one run, then two, on n = 1's one residue
    {1: [(3, 4)]},  # no runs, then one
])
def test_an_expansion_raises_on_sample_rows_of_unequal_length(rows):
    with pytest.raises(NonAffinePiece):
        _piece_runs(rows, 0, 2, 5, 1)
