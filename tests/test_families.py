import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcSet,
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
    fountain_loci,
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


def loci(n: int, *fams) -> tuple[IntRegion, IntRegion]:
    """The fountain loci of the set of the families ``fams``."""
    return fountain_loci(ArcSet(ModelParams(n), families=fams))


def ref_loci(fam) -> tuple[IntRegion, IntRegion]:
    """(left locus, right locus)."""
    empty = IntRegion.of()
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
    assert loci(n, fam) == ref_loci(fam)


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


@pytest.mark.parametrize("build", [
    lambda: LeftFan(0.5, 3), lambda: RightFan(0, 4.0), lambda: Band(True, 3),
    lambda: HalfLeft(False), lambda: HalfRight("1"),
], ids=["left_fan", "right_fan", "band", "half_left", "half_right"])
def test_kinds_refuse_non_integer_fields(build):
    with pytest.raises(ValueError, match="expected an integer"):
        build()


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
    assert loci(3, LeftFan(3, 0))[0].points == frozenset({3})
    assert loci(3, LeftFan(3, 0))[1] == IntRegion.of()
    assert loci(3, RightFan(0, 5))[1].points == frozenset({0})
    assert loci(3, Band(-5, 7))[1].left_max == -5
    assert loci(3, Band(-5, 7))[0].right_min == 7
    assert loci(3, HalfLeft(-4))[0].left_max == -4
    assert loci(3, HalfRight(6))[1].right_min == 6


@given(st.integers(1, 4), st.lists(any_kind, max_size=5))
@settings(max_examples=300)
def test_loci_of_a_set_gather_every_family(n, fams):
    """Each side of ``fountain_loci`` is the union of the families' loci:
    compared point by point on [-60, 60] (the scalars lie in [-15, 15]) and
    ray by ray, not through ``IntRegion.of``, which ``fountain_loci`` calls."""
    refs = [ref_loci(f) for f in fams]
    for side, got in enumerate(loci(n, *fams)):
        regs = [r[side] for r in refs]
        for x in range(-60, 61):
            assert (x in got) == any(x in r for r in regs), (side, x)
        for ray in ("left_max", "right_min"):
            has = any(getattr(r, ray) is not None for r in regs)
            assert (getattr(got, ray) is not None) == has, (side, ray)


@given(families)
def test_json_round_trip(fam):
    assert family_from_json(family_to_json(fam)) == fam


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        family_from_json({"kind": "spiral"})
    with pytest.raises(ValidationError):
        family_from_json({"kind": "band", "k_max": 1})
    with pytest.raises(ValidationError, match=r"^f\.l_min: expected an integer, got 'x'$"):
        family_from_json({"kind": "band", "k_max": 1, "l_min": "x"}, "f")
    with pytest.raises(ValidationError, match=r"^f\.p: expected an integer, got True$"):
        family_from_json({"kind": "half_left", "p": True}, "f")
    with pytest.raises(ValidationError):
        family_from_json({"kind": "half_left", "p": 0, "weird": 3})


def every_kind(scalars):
    for a in scalars:
        yield HalfLeft(a)
        yield HalfRight(a)
        for b in scalars:
            yield from (LeftFan(a, b), RightFan(a, b), Band(a, b))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crossed_heads_match_enumeration_on_a_small_world(n):
    """Every kind with scalars in [-5, 5], every foot t in [-8, 8] and every
    admissible head up to 20, against the members on [-16, 28]: far enough
    out that a crossing member, if any, has a representative there."""
    p, top = ModelParams(n), 20
    for fam in every_kind(range(-5, 6)):
        members = list(fam.members_in(-16, 28, p))
        for t in range(-8, 9):
            heads = range(t + (2 if n == 1 else n + 1), top + 1, n)
            # a member (a, b) crosses (t, u) iff t < a < u < b or a < t < b < u
            inside = [(a, b) for a, b in members if t < a < top]
            over = min((b for a, b in members if a < t < b), default=None)
            for u in heads:
                brute = (over is not None and over < u) or any(a < u < b for a, b in inside)
                assert fam.crossed_by(Arc(t, u), p) == brute, (fam, t, u)
