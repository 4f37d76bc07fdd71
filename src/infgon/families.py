"""Symbolic descriptors for the infinite arc families used in closures.

Each of the five kinds declares one *box* ``(t0, t1, u0, u1)``: its members
are the admissible ``(t, u)`` with foot in ``[t0, t1]`` and head in
``[u0, u1]``, ``None`` being an unbounded end.

* ``LeftFan(p, s_max)``   -- ``(None, s_max, p, p)``;
* ``RightFan(p, u_min)``  -- ``(p, p, u_min, None)``;
* ``Band(k_max, l_min)``  -- ``(None, k_max, l_min, None)``;
* ``HalfLeft(p)``         -- ``(None, p, None, p)``: both endpoints ``<= p``;
* ``HalfRight(q)``        -- ``(q, None, q, None)``: both endpoints ``>= q``.

The kinds hold only data (fields, ``kind``, ``box_fields``); :class:`_Boxed`
reads every predicate off the box.  ``is_member`` tests membership.
``member_heads(t, n)`` gives the member heads on foot t as closed intervals
``(a, b)``, ``b = None`` for ``[a, inf)``; the caller imposes admissibility
by stepping through ``u = t + 1 (mod n)``, and a single head ``u0 = u1`` has
members only on the feet ``t = u1 - 1 (mod n)``.  ``feet_in(lo, hi, n)`` is
the range of feet in ``[lo, hi]`` that carry a member.  Feet reaching
``-inf`` put a left fountain at each head (``left_locus``), heads reaching
``+inf`` a right fountain at each foot (``right_locus``).

``crossed_heads(t, n)`` gives, in the same form, the heads of the arcs
``(t, u)`` that some member crosses.  A member crosses in one of two ways:

* its foot lies in ``(t, u)``.  Take x, the least member foot past t:
  ``max(t + 1, t0)``, stepped onto the residue ``u1 - 1`` for a single head.
  If ``x <= t1``, the member ``(x, v)`` with v as far right as the box allows
  gives the heads ``x + 1 .. u1 - 1`` (all from ``x + 1`` if ``u1`` is None);
* its head lies in ``(t, u)``, which needs ``t0 < t < u1``.  Take y, the
  least member head past t: ``max(t + 1, u0)``, stepped onto the residue
  ``t0 + 1`` for a single foot.  The member ``(w, y)`` with w as far left as
  the box allows gives every head from ``y + 1`` on.

This is exact where the far endpoint may take any residue.  Two boxes bound
it without fixing it, and each over-reports only heads the other case gives
anyway: ``HalfLeft``'s first case (its second gives all heads from ``t + 2``)
and ``HalfRight``'s second for ``q <= t < q + n`` (its first does).  An
interval may be empty (``a > b``, e.g. a ``LeftFan`` at ``t >= p - 1``):
``crossed_by`` tests ``a <= u <= b``, and the sweep in :mod:`infgon.arcsets`
at most splits a run there, which ``_add_run`` merges back.
:func:`_first_from` is the package's one residue rule.  Every predicate is
pinned against brute enumeration in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Union, get_args

from . import _EXPORTS
from .arcs import Arc, ModelParams
from .errors import ValidationError
from .regions import IntRegion

__all__ = [*_EXPORTS["families"], "family_from_json", "family_scalars", "family_to_json"]

# closed head intervals (a, b) for one foot; b is None for [a, inf)
Heads = tuple[tuple[int, int | None], ...]
# (first foot, last foot, first head, last head); None is unbounded
Box = tuple[int | None, int | None, int | None, int | None]


def _first_from(lo: int, target: int, n: int) -> int:
    """Least x >= lo with x = target (mod n)."""
    return lo + (target - lo) % n


def _crossed_by(self, a: Arc, params: ModelParams) -> bool:
    """Does some member cross the admissible arc ``a``?"""
    u = a.u
    return any(
        lo <= u and (hi is None or u <= hi) for lo, hi in self.crossed_heads(a.t, params.n)
    )


def _members_in(self, lo: int, hi: int, params: ModelParams) -> Iterator[Arc]:
    """Members with both endpoints in ``[lo, hi]``, sorted."""
    n = params.n
    for t in range(lo, hi - 1):
        for a, b in self.member_heads(t, n):
            top = hi if b is None else min(b, hi)
            for u in range(_first_from(max(a, t + n + 1), t + 1, n), top + 1, n):
                yield Arc(t, u)


def _region(lo: int | None, hi: int | None) -> IntRegion:
    """The interval ``[lo, hi]`` (not both ends ``None``) as a region."""
    if lo is None:
        return IntRegion.of(left_rays=[hi])
    if hi is None:
        return IntRegion.of(right_rays=[lo])
    return IntRegion.of(points=range(lo, hi + 1))


class _Boxed:
    """Every family predicate, read off the kind's ``box``: a
    ``cached_property``, so equality, hashing, ``repr`` and the JSON never
    see it, built once per instance.  Each kind declares ``box_fields``, the
    field bounding each side (``None`` unbounded)."""

    box_fields: tuple[str | None, str | None, str | None, str | None]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # bound in each kind's own class, where the traced wrappers find them
        cls.crossed_by = _crossed_by
        cls.members_in = _members_in

    def __post_init__(self) -> None:
        for name in _FIELDS[self.kind]:
            if type(v := getattr(self, name)) is not int:  # bool included
                raise ValueError(f"{name}: expected an integer, got {v!r}")

    @cached_property
    def box(self) -> Box:
        return tuple(k and getattr(self, k) for k in self.box_fields)

    def is_member(self, a: Arc, params: ModelParams) -> bool:
        t0, t1, u0, u1 = self.box
        t, u = a
        return ((t0 is None or t0 <= t) and (t1 is None or t <= t1)
                and (u0 is None or u0 <= u) and (u1 is None or u <= u1))

    def member_heads(self, t: int, n: int) -> Heads:
        t0, t1, u0, u1 = self.box
        if (t0 is not None and t < t0) or (t1 is not None and t > t1):
            return ()
        u = t + 2 if u0 is None or u0 < t + 2 else u0
        if u1 is not None and (u > u1 or (u0 == u1 and (u1 - 1 - t) % n)):
            return ()
        return ((u, u1),)

    def crossed_heads(self, t: int, n: int) -> Heads:
        t0, t1, u0, u1 = self.box
        out: Heads = ()
        # a member (x, v) with t < x < u < v: x is the least member foot past t
        x = t + 1 if t0 is None or t0 <= t else t0
        if u0 == u1:
            x = _first_from(x, u1 - 1, n)
        if t1 is None or x <= t1:
            out = ((x + 1, None if u1 is None else u1 - 1),)
        # a member (w, y) with w < t < y < u: y is the least member head past t
        if (t0 is None or t0 < t) and (u1 is None or t < u1):
            y = t + 1 if u0 is None or u0 <= t else u0
            if t0 == t1:
                y = _first_from(y, t0 + 1, n)
            out += ((y + 1, None),)
        return out

    def feet_in(self, lo: int, hi: int, n: int) -> range:
        t0, t1, u0, u1 = self.box
        if t0 is not None:
            lo = max(t0, lo)
        if t1 is not None:
            hi = min(t1, hi)
        if u1 is None:
            return range(lo, hi + 1)
        hi = min(hi, u1 - 2)  # a member's head lies at least two past its foot
        return range(_first_from(lo, u1 - 1, n), hi + 1, n) if u0 == u1 else range(lo, hi + 1)

    def left_locus(self) -> IntRegion:
        t0, _, u0, u1 = self.box
        return _region(u0, u1) if t0 is None else IntRegion.empty()

    def right_locus(self) -> IntRegion:
        t0, t1, _, u1 = self.box
        return _region(t0, t1) if u1 is None else IntRegion.empty()


@dataclass(frozen=True)
class LeftFan(_Boxed):
    """All admissible arcs ending at ``p`` with foot at most ``s_max``."""

    p: int
    s_max: int

    kind = "left_fan"
    box_fields = (None, "s_max", "p", "p")


@dataclass(frozen=True)
class RightFan(_Boxed):
    """All admissible arcs starting at ``p`` with head at least ``u_min``."""

    p: int
    u_min: int

    kind = "right_fan"
    box_fields = ("p", "p", "u_min", None)


@dataclass(frozen=True)
class Band(_Boxed):
    """All admissible arcs reaching from ``(-inf, k_max]`` to ``[l_min, inf)``."""

    k_max: int
    l_min: int

    kind = "band"
    box_fields = (None, "k_max", "l_min", None)


@dataclass(frozen=True)
class HalfLeft(_Boxed):
    """All admissible arcs with both endpoints at most ``p``."""

    p: int

    kind = "half_left"
    box_fields = (None, "p", None, "p")


@dataclass(frozen=True)
class HalfRight(_Boxed):
    """All admissible arcs with both endpoints at least ``q``."""

    q: int

    kind = "half_right"
    box_fields = ("q", None, "q", None)


Family = Union[LeftFan, RightFan, Band, HalfLeft, HalfRight]

_KINDS = {cls.kind: cls for cls in get_args(Family)}
_FIELDS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in _KINDS.items()}


def family_scalars(f: Family) -> list[int]:
    """The integers defining ``f``, in field order."""
    return [getattr(f, name) for name in _FIELDS[f.kind]]


def family_to_json(f: Family) -> dict:
    return {"kind": f.kind, **{name: getattr(f, name) for name in _FIELDS[f.kind]}}


def family_from_json(d: dict, locus: str = "family") -> Family:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValidationError(f"{locus}: expected an object with a 'kind' field")
    kind = d["kind"]
    if kind not in _KINDS:
        raise ValidationError(f"{locus}: unknown family kind {kind!r}")
    names = _FIELDS[kind]
    extra = set(d) - set(names) - {"kind"}
    if extra:
        raise ValidationError(f"{locus}: unexpected fields {sorted(extra)}")
    missing = [name for name in names if name not in d]
    if missing:
        raise ValidationError(f"{locus}: missing field {missing[0]!r}")
    try:
        return _KINDS[kind](*(d[name] for name in names))
    except ValueError as exc:  # a field that is not an integer
        raise ValidationError(f"{locus}.{exc}") from None
