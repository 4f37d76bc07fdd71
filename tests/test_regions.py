import pytest
from hypothesis import given
from hypothesis import strategies as st

from infgon import ArcSet, IntRegion, ModelParams, finiteness_check
from infgon.families import Band, HalfLeft, HalfRight

# Brute-force comparisons only need a range generously wider than the data.
SPAN = 60

small_ints = st.integers(-20, 20)
regions = st.builds(
    IntRegion.of,
    st.lists(small_ints, max_size=4),
    st.lists(small_ints, max_size=2),
    st.lists(small_ints, max_size=2),
)


def points_of(r: IntRegion) -> set[int]:
    return {x for x in range(-SPAN, SPAN + 1) if x in r}


def test_canonicalization():
    r = IntRegion.of(points=[3, -10, 0], left_rays=[-8, -5], right_rays=[7, 9])
    assert r.left_max == -5
    assert r.right_min == 7
    assert r.points == frozenset({0, 3})  # -10 absorbed left, 9 absorbed right


def test_membership_basics():
    r = IntRegion.of(points=[0], left_rays=[-4], right_rays=[6])
    assert -4 in r and -100 in r and 6 in r and 100 in r and 0 in r
    assert -3 not in r and 5 not in r
    assert IntRegion.empty().is_empty()


@given(regions, regions)
def test_subset_witness_against_enumeration(a, b):
    w = a.uncovered_witness(b)
    covered = all(x in b for x in points_of(a))
    # Rays extend beyond the enumeration range symmetrically, so enumeration
    # over [-SPAN, SPAN] decides ray coverage too: a ray escapes iff its
    # extreme in-range points escape.
    if w is None:
        assert covered
        assert a.issubset(b)
    else:
        assert w in a and w not in b


@given(regions, regions)
def test_union_is_pointwise(a, b):
    u = a.union(b)
    assert points_of(u) == points_of(a) | points_of(b)
    # ray bookkeeping beyond the enumeration range
    assert (u.left_max is not None) == (a.left_max is not None or b.left_max is not None)
    assert (u.right_min is not None) == (
        a.right_min is not None or b.right_min is not None
    )


FAR = 10**12


@pytest.mark.parametrize(
    "families, side, witness",
    [
        ((HalfLeft(FAR), Band(0, 50), HalfRight(5)), "covariant", 4),
        ((HalfRight(-FAR), HalfLeft(0), Band(-60, 50)), "contravariant", 1),
    ],
    ids=["left ray", "right ray"],
)
def test_witness_skips_the_other_sides_ray(monkeypatch, families, side, witness):
    # Each region has both rays, one scalar 10**12 away: the walk must jump
    # past the other region's ray instead of testing every integer before it.
    calls = 0
    contains = IntRegion.__contains__

    def counted(self, x):
        nonlocal calls
        calls += 1
        assert calls <= 100, "the witness search walks integer by integer"
        return contains(self, x)

    monkeypatch.setattr(IntRegion, "__contains__", counted)
    rep = finiteness_check(ArcSet.of(ModelParams(3), families=families))
    assert getattr(rep, f"{side}_ok") is False
    assert getattr(rep, f"{side}_witness") == witness
