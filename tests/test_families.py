import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    Band,
    HalfLeft,
    HalfRight,
    IntRegion,
    LeftFan,
    ModelParams,
    RightFan,
    Window,
    admissible_arcs_in,
    cross,
    is_admissible,
)
from infgon.errors import ValidationError
from infgon.families import family_from_json, family_to_json

from conftest import admissible_arcs

P3 = ModelParams(3)

# Enumeration bound: family crossing witnesses live within one residue period
# of the probe arc's span, so enumerating members over probe span +- margin
# decides the predicate by brute force.
MARGIN = 30


def brute_crossed_by(fam, a: Arc, p: ModelParams) -> bool:
    lo, hi = a.t - MARGIN, a.u + MARGIN
    return any(cross(a, m) for m in fam.members_in(lo, hi, p))


families = st.one_of(
    st.builds(LeftFan, st.integers(-12, 12), st.integers(-14, 10)),
    st.builds(RightFan, st.integers(-12, 12), st.integers(-10, 14)),
    st.builds(Band, st.integers(-12, 12), st.integers(-12, 12)),
    st.builds(HalfLeft, st.integers(-12, 12)),
    st.builds(HalfRight, st.integers(-12, 12)),
)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), families, admissible_arcs(n, -14, 14, 6))
    )
)
@settings(max_examples=400)
def test_crossed_by_matches_enumeration(case):
    n, fam, a = case
    p = ModelParams(n)
    assert fam.crossed_by(a, p) == brute_crossed_by(fam, a, p)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), families, admissible_arcs(n, -14, 14, 6))
    )
)
@settings(max_examples=400)
def test_membership_matches_enumeration(case):
    n, fam, a = case
    p = ModelParams(n)
    enumerated = set(fam.members_in(a.t - 1, a.u + 1, p))
    assert fam.is_member(a, p) == (a in enumerated)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), families)))
@settings(max_examples=200)
def test_member_heads_match_is_member_filtering(case):
    n, fam = case
    p = ModelParams(n)
    w = Window(-20, 20)
    arcs = list(admissible_arcs_in(w, p))
    for t in range(w.lo, w.hi - 1):
        heads = fam.member_heads(t, n)
        got = [
            u
            for u in range(t + n + 1, w.hi + 1, n)
            if any(a <= u and (b is None or u <= b) for a, b in heads)
        ]
        assert got == [a.u for a in arcs if a.t == t and fam.is_member(a, p)]


# Frozen references: the per-kind methods as each kind once stated them by
# hand, before they were derived from its box.


def ref_is_member(fam, a: Arc) -> bool:
    t, u = a
    if isinstance(fam, LeftFan):
        return u == fam.p and t <= fam.s_max
    if isinstance(fam, RightFan):
        return t == fam.p and u >= fam.u_min
    if isinstance(fam, Band):
        return t <= fam.k_max and u >= fam.l_min
    if isinstance(fam, HalfLeft):
        return u <= fam.p
    return t >= fam.q


def ref_member_feet(fam):
    """The closed foot interval outside which a kind has no member heads."""
    if isinstance(fam, RightFan):
        return fam.p, fam.p
    if isinstance(fam, LeftFan):
        return None, min(fam.s_max, fam.p - 2)
    if isinstance(fam, Band):
        return None, fam.k_max
    if isinstance(fam, HalfLeft):
        return None, fam.p - 2
    return fam.q, None


def ref_feet_in(fam, lo: int, hi: int, n: int) -> range:
    if isinstance(fam, LeftFan):
        return range(lo + (fam.p - 1 - lo) % n, min(fam.s_max, fam.p - 2, hi) + 1, n)
    first, last = ref_member_feet(fam)
    return range(lo if first is None else max(first, lo),
                 (hi if last is None else min(last, hi)) + 1)


def ref_member_heads(fam, t: int, n: int):
    if isinstance(fam, LeftFan):
        if t <= min(fam.s_max, fam.p - 2) and (fam.p - 1 - t) % n == 0:
            return ((fam.p, fam.p),)
        return ()
    if isinstance(fam, RightFan):
        return ((max(fam.u_min, t + 2), None),) if t == fam.p else ()
    if isinstance(fam, Band):
        return ((max(fam.l_min, t + 2), None),) if t <= fam.k_max else ()
    if isinstance(fam, HalfLeft):
        return ((t + 2, fam.p),) if t + 2 <= fam.p else ()
    return ((t + 2, None),) if t >= fam.q else ()


def ref_loci(fam) -> tuple[IntRegion, IntRegion]:
    """(left locus, right locus)."""
    empty = IntRegion.empty()
    if isinstance(fam, LeftFan):
        return IntRegion.of(points=[fam.p]), empty
    if isinstance(fam, RightFan):
        return empty, IntRegion.of(points=[fam.p])
    if isinstance(fam, Band):
        return IntRegion.of(right_rays=[fam.l_min]), IntRegion.of(left_rays=[fam.k_max])
    if isinstance(fam, HalfLeft):
        return IntRegion.of(left_rays=[fam.p]), empty
    return empty, IntRegion.of(right_rays=[fam.q])


scalar = st.integers(-15, 15)
any_kind = st.one_of(
    st.builds(LeftFan, scalar, scalar),
    st.builds(RightFan, scalar, scalar),
    st.builds(Band, scalar, scalar),
    st.builds(HalfLeft, scalar),
    st.builds(HalfRight, scalar),
)


@given(st.integers(1, 5), any_kind,
       st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(sorted))
@settings(max_examples=300)
def test_derived_methods_match_frozen_references(n, fam, ends):
    lo, hi = ends
    assert list(fam.feet_in(lo, hi, n)) == list(ref_feet_in(fam, lo, hi, n))
    for t in range(-40, 41):
        assert fam.member_heads(t, n) == ref_member_heads(fam, t, n), t
    for t in range(lo, hi):
        for u in range(t + 1, hi + 1):
            assert fam.is_member(Arc(t, u), ModelParams(n)) == ref_is_member(fam, Arc(t, u))
    assert (fam.left_locus(), fam.right_locus()) == ref_loci(fam)


@given(st.integers(1, 4), families)
@settings(max_examples=300)
def test_member_heads_empty_outside_foot_interval(n, fam):
    lo, hi = ref_member_feet(fam)
    for t in range(-40, 41):
        if (lo is not None and t < lo) or (hi is not None and t > hi):
            assert fam.member_heads(t, n) == (), (fam, n, t)


def test_members_are_admissible_and_in_window():
    for fam in (LeftFan(0, -3), RightFan(0, 4), Band(-2, 3), HalfLeft(1), HalfRight(-1)):
        members = list(fam.members_in(-15, 15, P3))
        assert members, fam
        for m in members:
            assert is_admissible(m, P3)
            assert -15 <= m.t and m.u <= 15
            assert fam.is_member(m, P3)


def test_specific_crossings():
    # fan reached from inside the probe's span
    assert LeftFan(2, -5).crossed_by(Arc(0, 4), P3)
    # members of a left fan never cross arcs right of the anchor
    assert not LeftFan(-4, -6).crossed_by(Arc(-4, 6), P3)
    assert not Band(-5, 7).crossed_by(Arc(-4, 3), P3)
    assert Band(-5, 7).crossed_by(Arc(-1, 12), P3)
    assert not HalfRight(6).crossed_by(Arc(2, 6), P3)
    assert HalfRight(6).crossed_by(Arc(5, 9), P3)
    assert HalfLeft(-4).crossed_by(Arc(-8, -4), P3)


def test_loci():
    assert LeftFan(3, 0).left_locus().points == frozenset({3})
    assert LeftFan(3, 0).right_locus().is_empty()
    assert RightFan(0, 5).right_locus().points == frozenset({0})
    assert Band(-5, 7).right_locus().left_max == -5
    assert Band(-5, 7).left_locus().right_min == 7
    assert HalfLeft(-4).left_locus().left_max == -4
    assert HalfRight(6).right_locus().right_min == 6


@given(families)
def test_json_round_trip(fam):
    assert family_from_json(family_to_json(fam)) == fam


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        family_from_json({"kind": "spiral"})
    with pytest.raises(ValidationError):
        family_from_json({"kind": "band", "k_max": 1})
    with pytest.raises(ValidationError):
        family_from_json({"kind": "band", "k_max": 1, "l_min": "x"})
    with pytest.raises(ValidationError):
        family_from_json({"kind": "half_left", "p": 0, "weird": 3})
