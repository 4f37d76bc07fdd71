"""The closure queries ``double_nc_extras``, ``in_nc_nc`` and ``frame`` read
the run sweeps; here they are held against closures built only from the
frozen brute-force listings, :func:`admissible_arcs_in` and :func:`cross`."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcSet,
    ModelParams,
    Window,
    admissible_arcs_in,
    cross,
    double_nc_extras,
    frame,
    in_nc_nc,
    rotate_set,
)
from infgon.families import family_scalars
from infgon.oracles import (
    members_in_window_brute,
    nc_window_brute,
    random_family_rotation_case,
    random_finite_arcs,
)


def double_closure_brute(s: ArcSet, w: Window) -> list[Arc]:
    """``nc nc s`` on ``w``: the arcs of ``w`` crossing nothing in ``nc s``,
    with ``nc s`` listed on twice the margin the library uses."""
    n = s.params.n
    pts = [w.lo, w.hi, *(e for a in s.explicit for e in a)]
    pad = 2 * (n + 2)
    nc = nc_window_brute(s, Window(min(pts) - pad, max(pts) + pad))
    nc = [b for b in nc if w.lo < b.t < w.hi or w.lo < b.u < w.hi]  # the rest cross no arc of w
    return [a for a in admissible_arcs_in(w, s.params) if not any(cross(a, b) for b in nc)]


def near_hull(arcs, scalars, ends: tuple[int, int]) -> Window:
    """The hull of the arcs' endpoints and the scalars with its ends moved by
    ``ends``: a window inside, across or around it."""
    pts = [e for a in arcs for e in a] + scalars
    lo, hi = sorted((min(pts) + ends[0], max(pts) + ends[1]))
    return Window(lo, hi + (lo == hi))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@given(seed=st.integers(0, 2**32 - 1), ends=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
       past=st.one_of(st.just(0), st.integers(-40, -20), st.integers(20, 40)))
@settings(max_examples=100, deadline=None)
def test_double_closure_matches_brute(n, seed, ends, past):
    rng = random.Random(seed)
    p = ModelParams(n)
    s = ArcSet.of(p, random_finite_arcs(rng, p, 5, -8, 8))
    w = near_hull(s.explicit, [], ends)
    if past:  # as wide, but ``past`` beyond the hull's nearer end
        pts = [e for a in s.explicit for e in a]
        lo = max(pts) + past if past > 0 else min(pts) + past - (w.hi - w.lo)
        w = Window(lo, lo + w.hi - w.lo)
    closure = double_closure_brute(s, w)
    assert double_nc_extras(s, w) == [a for a in closure if a not in s.explicit]
    arcs = list(admissible_arcs_in(w, p))
    probes = set(rng.sample(arcs, min(8, len(arcs)))) | set(closure[:8])
    for a in sorted(probes):
        assert in_nc_nc(a, s) == (a in closure), a


def test_double_closure_memory_does_not_grow_with_the_distance():
    """The listing holds only the arcs that can cross the probe; all of
    ``nc s`` on the hull would take some 29 MB at this distance."""
    s = ArcSet.of(ModelParams(3), [Arc(0, 4)])
    tracemalloc.start()
    try:
        assert not in_nc_nc(Arc(800, 804), s)  # (798, 802) crosses it, not s
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


@given(seed=st.integers(0, 2**32 - 1), rotated=st.booleans(),
       ends=st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
@settings(max_examples=80, deadline=None)
def test_frame_matches_brute(seed, rotated, ends):
    _, s, d = random_family_rotation_case(random.Random(seed))
    if rotated:
        s = rotate_set(s, d)
    w = near_hull(s.explicit, [v for f in s.families for v in family_scalars(f)], ends)
    nc = set(nc_window_brute(s, w))
    assert frame(s, w) == [a for a in members_in_window_brute(s, w) if a in nc]
