import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    Band,
    HalfLeft,
    HalfRight,
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


def stated_feet(fam):
    """Each kind's foot interval, as the families module states it."""
    if isinstance(fam, RightFan):
        return fam.p, fam.p
    if isinstance(fam, LeftFan):
        return None, min(fam.s_max, fam.p - 2)
    if isinstance(fam, Band):
        return None, fam.k_max
    if isinstance(fam, HalfLeft):
        return None, fam.p - 2
    return fam.q, None


@given(st.integers(1, 4), families)
@settings(max_examples=300)
def test_member_heads_empty_outside_foot_interval(n, fam):
    assert fam.member_feet() == stated_feet(fam)
    lo, hi = stated_feet(fam)
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
