import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ExtKind,
    ModelParams,
    Window,
    admissible_arcs_in,
    cross,
    ext1_case,
    ext_dim,
    ext_profile,
    ext_triangle,
    hom_dim,
    serre,
    shift,
)
from infgon.errors import InfgonError, InvalidDegree, NoExtension, NonAdmissible

from conftest import admissible_arcs

P3 = ModelParams(3)


@pytest.mark.parametrize(
    "x,y,kind",
    [
        (Arc(2, 9), Arc(-1, 6), ExtKind.SAME_COMPONENT),
        (Arc(-4, 3), Arc(-4, 6), ExtKind.ZERO),
        (Arc(0, 4), Arc(-3, 1), ExtKind.SAME_COMPONENT),  # y is the translate of x
        (Arc(-1, 6), Arc(0, 7), ExtKind.NEXT_COMPONENT),
    ],
)
def test_ext1_case_values(x, y, kind):
    got = ext1_case(x, y, P3)
    assert got is kind and got.nonzero is (kind is not ExtKind.ZERO)


def test_ext1_case_rejects_non_admissible():
    with pytest.raises(NonAdmissible):
        ext1_case(Arc(3, 6), Arc(-4, 3), P3)
    with pytest.raises(NonAdmissible):
        ext1_case(Arc(-4, 3), Arc(3, 6), P3)


def test_ext_dim_values():
    assert ext_dim(Arc(-1, 6), Arc(2, 9), 3, P3) == 1
    for i in (1, 2, 3):
        assert ext_dim(Arc(-4, 3), Arc(-4, 6), i, P3) == 0
    assert ext_dim(Arc(2, 9), Arc(-1, 6), 1, P3) == 1
    with pytest.raises(InvalidDegree):
        ext_dim(Arc(2, 9), Arc(-1, 6), 0, P3)


def test_hom_dim_values():
    for a in (Arc(-4, 3), Arc(0, 4), Arc(2, 9)):
        assert hom_dim(a, a, P3) == 1
    # reduction to the degree-one classification
    assert hom_dim(Arc(-4, 0), Arc(2, 15), P3) == (
        1 if ext1_case(Arc(-4, 0), Arc(3, 16), P3).nonzero else 0
    )
    assert hom_dim(Arc(-4, 0), Arc(-4, 3), P3) == 1
    assert hom_dim(Arc(-4, 3), Arc(-4, 0), P3) == 0


def test_ext_profile_values():
    assert ext_profile(Arc(2, 9), Arc(-1, 6), P3) == [1, 0, 0]
    assert ext_profile(Arc(-4, 3), Arc(-4, 6), P3) == [0, 0, 0]
    assert ext_profile(Arc(-1, 6), Arc(2, 9), P3) == [0, 0, 1]


def test_ext_triangle_same_component():
    tri = ext_triangle(Arc(2, 9), Arc(-1, 6), P3)
    assert (tri.left, tri.mid1, tri.mid2, tri.right) == (
        Arc(-1, 6),
        Arc(-1, 9),
        Arc(2, 6),
        Arc(2, 9),
    )


def test_ext_triangle_drops_zero_summand():
    tri = ext_triangle(Arc(0, 4), Arc(-3, 1), P3)
    assert (tri.left, tri.mid1, tri.mid2, tri.right) == (
        Arc(-3, 1),
        Arc(-3, 4),
        None,
        Arc(0, 4),
    )
    assert tri.middles() == (Arc(-3, 4),)


def test_ext_triangle_requires_extension():
    with pytest.raises(NoExtension):
        ext_triangle(Arc(-4, 3), Arc(-4, 6), P3)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), admissible_arcs(n), admissible_arcs(n))
    )
)
def test_case_split_is_exclusive_and_dims_bounded(case):
    n, x, y = case
    p = ModelParams(n)
    for i in range(1, n + 1):
        assert ext_dim(x, y, i, p) in (0, 1)
    assert hom_dim(x, y, p) in (0, 1)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), admissible_arcs(n, -10, 10, 6), admissible_arcs(n, -10, 10, 6)
        )
    )
)
@settings(max_examples=300)
def test_same_and_next_component_conditions_never_overlap(case):
    # The two Ext^1 conditions as the paper states them: their t-inequalities
    # (t <= r - n against t >= r + 1) can never hold together.
    n, (r, s), (t, u) = case
    same = (u - s) % n == 0 and t <= r - n and r + 1 <= u <= s - n
    nxt = (u - s - 1) % n == 0 and r + 1 <= t <= s - n and s + 1 <= u
    assert not (same and nxt)
    kind = ext1_case(Arc(r, s), Arc(t, u), ModelParams(n))
    assert (kind is ExtKind.SAME_COMPONENT) == same
    assert (kind is ExtKind.NEXT_COMPONENT) == nxt


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), admissible_arcs(n, -30, 30), admissible_arcs(n, -30, 30))
    )
)
@settings(max_examples=200)
def test_crossing_matches_ext_and_serre_duality(case):
    n, x, y = case
    p = ModelParams(n)
    prof_xy = ext_profile(x, y, p)
    prof_yx = ext_profile(y, x, p)
    assert (1 in prof_xy) == cross(x, y)
    assert (1 in prof_yx) == cross(x, y)
    for i in range(1, n + 1):
        assert prof_xy[i - 1] == prof_yx[n - i]
    assert hom_dim(x, y, p) == hom_dim(y, serre(x, p), p)
    for i in range(1, n + 1):
        # Ext^i(x, y) is Hom(x, y suspended i times)
        assert hom_dim(x, shift(y, i), p) == ext_dim(x, y, i, p)


def test_triangle_middles_geometry():
    # On a window: middle terms never cross each other, and never cross an
    # arc that crosses neither endpoint of the triangle.
    w = Window(-8, 8)
    arcs = list(admissible_arcs_in(w, P3))
    bystanders = arcs[::7]
    checked = 0
    for x in arcs:
        for y in arcs:
            if not ext1_case(x, y, P3).nonzero:
                continue
            tri = ext_triangle(x, y, P3)
            mids = tri.middles()
            if len(mids) == 2:
                assert not cross(mids[0], mids[1])
            for b in bystanders:
                if not cross(b, x) and not cross(b, y):
                    for m in mids:
                        assert not cross(b, m)
            checked += 1
    assert checked > 50


def _ref_ext1(x, y, n):
    """Frozen reference: the module docstring's two conditions on plain
    integers, or the error type and message an inadmissible arc raises."""
    for a, b in (x, y):
        if b - a < 2 or (b - a) % n != 1 % n:
            return NonAdmissible, f"({a},{b}) is not admissible for n={n}"
    (r, s), (t, u) = x, y
    if (u - s) % n == 0 and t <= r - n and r + 1 <= u <= s - n:
        return ExtKind.SAME_COMPONENT
    if (u - s - 1) % n == 0 and r + 1 <= t <= s - n and s + 1 <= u:
        return ExtKind.NEXT_COMPONENT
    return ExtKind.ZERO


def _ref_dim(x, y, k, n):
    """dim Ext^1(x, y shifted k times), computed on the shifted arc."""
    res = _ref_ext1(x, (y[0] - k, y[1] - k), n)
    return res if isinstance(res, tuple) else int(res is not ExtKind.ZERO)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfgonError as exc:
        return type(exc), str(exc)


def _arcs_in(n, lo=-15, hi=15):
    """Any arc with endpoints in [lo, hi], half the draws admissible."""
    d0 = 2 if n == 1 else n + 1
    any_arc = st.integers(lo, hi - 1).flatmap(
        lambda t: st.integers(t + 1, hi).map(lambda u: Arc(t, u))
    )
    admissible = st.integers(lo, hi - d0).flatmap(
        lambda t: st.integers(0, (hi - t - d0) // n).map(lambda j: Arc(t, t + d0 + j * n))
    )
    return st.one_of(any_arc, admissible)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), _arcs_in(n), _arcs_in(n), st.integers(0, n + 1))
    )
)
@settings(max_examples=400)
def test_kernel_matches_shifted_reference(case):
    n, x, y, i = case
    p = ModelParams(n)
    case1 = _ref_ext1(x, y, n)
    assert _outcome(ext1_case, x, y, p) == case1
    assert _outcome(hom_dim, x, y, p) == _ref_dim(x, y, -1, n)
    if i < 1:
        assert _outcome(ext_dim, x, y, i, p) == (
            InvalidDegree, f"extension degree must be >= 1, got {i}"
        )
    else:
        assert _outcome(ext_dim, x, y, i, p) == _ref_dim(x, y, i - 1, n)
    profile = [_ref_dim(x, y, k, n) for k in range(n)]
    errors = [d for d in profile if isinstance(d, tuple)]
    assert _outcome(ext_profile, x, y, p) == (errors[0] if errors else profile)
