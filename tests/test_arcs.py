import re
from enum import IntEnum

import pytest
from hypothesis import given
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
    component,
    cross,
    is_admissible,
    normalize,
    parse_document,
    serre,
    shift,
    tau,
)
from infgon.errors import DegeneratePair, NonAdmissible, ValidationError

from conftest import admissible_arcs

P1, P3 = ModelParams(1), ModelParams(3)

ints = st.integers(-200, 200)


def arcs(lo=-200, hi=200):
    return (
        st.tuples(st.integers(lo, hi - 1), st.integers(lo, hi - 1))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: normalize(*p))
    )


def test_arc_requires_order():
    with pytest.raises(DegeneratePair):
        Arc(5, 5)
    with pytest.raises(ValueError):
        Arc(6, 2)


@pytest.mark.parametrize("t,u", [(0.5, 4.5), (0.0, 4.0), (True, 4), (0, True), ("0", 4)])
def test_arc_refuses_non_integer_endpoints(t, u):
    with pytest.raises(ValueError, match="must be integers"):
        Arc(t, u)


class K(IntEnum):
    THREE = 3


@pytest.mark.parametrize("bad", [True, K.THREE], ids=["bool", "IntEnum"])
@pytest.mark.parametrize("build,message", [
    (lambda v: Arc(v, 7), "arc endpoints must be integers, got ({v!r}, 7)"),
    (lambda v: ModelParams(v), "modulus must be a positive integer, got {v!r}"),
    (lambda v: Window(v, 9), "window ends must be integers, got [{v!r}, 9]"),
    (lambda v: LeftFan(v, 0), "p: expected an integer, got {v!r}"),
    (lambda v: RightFan(0, v), "u_min: expected an integer, got {v!r}"),
    (lambda v: Band(v, 5), "k_max: expected an integer, got {v!r}"),
    (lambda v: HalfLeft(v), "p: expected an integer, got {v!r}"),
    (lambda v: HalfRight(v), "q: expected an integer, got {v!r}"),
    (lambda v: parse_document('{"sets": {}}', n=v), "n: expected a positive integer, got {v!r}"),
], ids=["Arc", "ModelParams", "Window", "LeftFan", "RightFan", "Band", "HalfLeft", "HalfRight",
        "parse_document"])
def test_constructors_take_only_plain_ints(build, message, bad):
    """Every public constructor tests ``type(v) is int``: a ``bool`` and an
    ``IntEnum`` member are refused alike, with the constructor's message."""
    with pytest.raises((ValueError, ValidationError),
                       match=f"^{re.escape(message.format(v=bad))}$"):
        build(bad)


def test_normalize():
    assert normalize(6, 2) == Arc(2, 6)
    assert normalize(2, 6) == Arc(2, 6)
    with pytest.raises(DegeneratePair):
        normalize(5, 5)


def test_model_params_validation():
    for bad in ({"n": 0}, {"n": -3}, {"n": True}, {"n": 2.0}):
        with pytest.raises(ValueError):
            ModelParams(**bad)
    with pytest.raises(ValueError):
        ModelParams(0)
    p = ModelParams(n=3)
    assert repr(p) == "ModelParams(n=3)" and p == P3 and hash(p) == hash(P3)
    with pytest.raises(AttributeError):
        p.n = 4


@pytest.mark.parametrize(
    "arc,n,expected",
    [
        (Arc(-4, 3), 3, True),
        (Arc(3, 6), 3, False),
        (Arc(0, 2), 3, False),  # span below 2 is unbuildable; (0,2) has wrong residue
        (Arc(0, 2), 1, True),
        (Arc(-5, 5), 3, True),
        (Arc(1, 8), 3, True),
    ],
)
def test_is_admissible(arc, n, expected):
    assert is_admissible(arc, ModelParams(n)) is expected


def test_functor_values():
    assert shift(Arc(1, 8), 1) == Arc(0, 7)
    assert shift(Arc(2, 6), 0) == Arc(2, 6)
    assert shift(Arc(2, 6), -1) == Arc(3, 7)
    assert serre(Arc(0, 7), P3) == Arc(-4, 3)
    assert serre(Arc(2, 6), P1) == Arc(0, 4)
    assert tau(Arc(2, 6), P3) == Arc(-1, 3)
    assert tau(Arc(2, 6), P1) == shift(Arc(2, 6), 1)


@given(arcs(), st.integers(-50, 50))
def test_shift_bijection_and_admissibility(a, k):
    assert shift(shift(a, k), -k) == a
    for n in (1, 2, 3, 5):
        p = ModelParams(n)
        assert is_admissible(shift(a, k), p) == is_admissible(a, p)


@given(arcs(), st.integers(1, 6))
def test_serre_tau_are_shifts(a, n):
    p = ModelParams(n)
    assert serre(a, p) == shift(a, n + 1)
    assert tau(a, p) == shift(a, n)


@pytest.mark.parametrize(
    "arc,n,expected",
    [
        (Arc(-4, 0), 3, 0),  # component of the base copy
        (Arc(1, 8), 3, 2),  # first shifted copy
        (Arc(0, 7), 3, 1),  # second shifted copy
        (Arc(-6, -2), 1, 0),
    ],
)
def test_component_values(arc, n, expected):
    assert component(arc, ModelParams(n)) == expected


def test_component_rejects_non_admissible():
    with pytest.raises(NonAdmissible):
        component(Arc(3, 6), P3)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), admissible_arcs(n))))
def test_component_cycles_under_shift(case):
    n, a = case
    p = ModelParams(n)
    assert component(tau(a, p), p) == component(a, p)
    assert component(shift(a, 1), p) == (component(a, p) - 1) % n
    seen = {component(shift(a, k), p) for k in range(n)}
    assert seen == set(range(n))


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (Arc(-4, 3), Arc(-1, 6), True),
        (Arc(-4, 3), Arc(-4, 6), False),  # shared endpoint
        (Arc(-4, 6), Arc(-1, 3), False),  # nested
        (Arc(0, 2), Arc(4, 9), False),  # disjoint
        (Arc(0, 4), Arc(1, 5), True),
    ],
)
def test_cross_cases(a, b, expected):
    assert cross(a, b) is expected
    assert cross(b, a) is expected


@given(arcs(), arcs())
def test_cross_symmetry(a, b):
    assert cross(a, b) == cross(b, a)
    if a.t in b or a.u in b:
        assert not cross(a, b)


@given(arcs(), arcs(), st.integers(-30, 30))
def test_cross_shift_invariant(a, b, k):
    assert cross(shift(a, k), shift(b, k)) == cross(a, b)
