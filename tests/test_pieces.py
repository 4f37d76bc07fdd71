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
from infgon import arcsets
from infgon.arcsets import (_member_rows, _nc_rows, _piece_runs, _Pieces, _union, _xor,
                            features, member_runs, nc_runs, runs_of)
from infgon.errors import NonAffinePiece
from infgon.families import Band, HalfLeft, HalfRight, LeftFan, RightFan
from infgon.oracles import members_in_window_brute, nc_window_brute, random_finite_arcs

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


def assert_brute(rep, x, y, w, arcs=None):
    """The verdict's witnesses (and the core) on ``w`` are the brute
    listings' symmetric differences (and intersection).  The brute
    references run no kernel, so a kernel fault fails here, on the narrow
    window, before the wide run lists a wrong answer quadratic in its width."""
    mx, my = (set(members_in_window_brute(s, w)) for s in (x, y))
    ncx, ncy = (set(nc_window_brute(s, w)) for s in (x, y))
    assert list(rep.x_equals_nc_y.witnesses) == sorted(mx ^ ncy)
    assert list(rep.y_equals_nc_x.witnesses) == sorted(my ^ ncx)
    assert arcs is None or arcs == sorted(mx & my)


def test_verdict_and_core_cost_no_more_on_a_wider_window(monkeypatch):
    x, y = demo().sets["X"], demo().sets["Ync"]
    kernel = KernelCalls(monkeypatch)
    results = []
    for half in (100, 100_000):
        w = Window(-half, half)
        rep, pair_calls = kernel.run(check_pair, x, y, w)
        arcs, core_calls = kernel.run(core, x, y, w)
        if half == 100:
            assert_brute(rep, x, y, w, arcs)
        conds = [(c.ok, c.mode, c.witnesses) for c in rep.conditions().values()]
        results.append((conds, arcs, pair_calls, core_calls))
    assert results[0] == results[1]
    assert results[0][2] > 0


def test_failing_verdict_costs_no_more_on_a_wider_window(monkeypatch):
    """A failing verdict XORs the rows only on the sample feet, and a
    self-pair runs each kernel once."""
    xors = 0

    def counted_xor(p, q):
        nonlocal xors
        xors += 1
        return xor(p, q)

    xor = arcsets._xor
    monkeypatch.setattr(arcsets, "_xor", counted_xor)
    x, y = demo().sets["X"], demo().sets["Y"]
    kernel = KernelCalls(monkeypatch)
    counts = []
    for half in (100, 100_000):
        xors = 0
        rep, calls = kernel.run(check_pair, x, y, Window(-half, half))
        assert not rep.verdict
        if half == 100:
            assert_brute(rep, x, y, Window(-half, half))
        counts.append((xors, calls))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0

    rows = {"_member_rows": 0, "_nc_rows": 0}
    for name in rows:
        def once(*args, name=name, kernel=getattr(arcsets, name)):
            rows[name] += 1
            return kernel(*args)
        monkeypatch.setattr(arcsets, name, once)
    s = demo().sets["Ync"]
    check_pair(s, s, Window(-20, 20))
    assert rows == {"_member_rows": 1, "_nc_rows": 1}
    core(s, s, Window(-20, 20))
    assert rows == {"_member_rows": 2, "_nc_rows": 1}


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


intervals = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)).map(sorted), max_size=4)


@given(n=st.integers(1, 4), p=intervals, q=intervals)
def test_xor_gives_the_heads_in_exactly_one_as_runs(n, p, q):
    """The rows a failing verdict expands are runs, each with first < stop."""
    def foot(heads):
        return runs_of({0: list(map(tuple, heads))}, Window(0, 40), n).get(0, [])

    def listed(runs):
        return {u for a, b in runs for u in range(a, b, n)}

    got = _xor(foot(p), foot(q))
    assert all(a < b for a, b in got)
    assert listed(got) == listed(foot(p)) ^ listed(foot(q))


# Closed intervals in either order (a > b is empty, as ``crossed_heads`` may
# give), ending past the cap or not; in a range this narrow many touch.
closed = st.tuples(st.integers(-2, 26), st.integers(-2, 26))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(t=st.integers(-3, 3), hi=st.integers(0, 22), heads=st.lists(closed, max_size=6))
def test_union_gives_the_covered_heads_as_canonical_runs(n, t, hi, heads):
    """The one merge both kernels share: the heads ``u = t + 1 (mod n)``
    from ``t + n + 1`` to ``hi`` that some interval covers, as canonical runs."""
    got = _union(t, list(heads), hi, n)
    want = [u for u in range(t + n + 1, hi + 1, n) if any(a <= u <= b for a, b in heads)]
    assert [u for a, b in got for u in range(a, b, n)] == want
    assert all(a < b and (a - t - 1) % n == (b - t - 1) % n == 0 for a, b in got)
    assert all(stop < first for (_, stop), (first, _) in zip(got, got[1:]))


@pytest.mark.parametrize("rows", [
    {0: [(2, 3)], 1: [(3, 4), (6, 7)]},  # one run, then two, on n = 1's one residue
    {1: [(3, 4)]},  # no runs, then one
])
def test_an_expansion_raises_on_sample_rows_of_unequal_length(rows):
    with pytest.raises(NonAffinePiece):
        _piece_runs(rows, 0, 2, 5, 1)
