"""Symbolic descriptors for the infinite arc families used in closures.

Each of the five kinds declares one *box* ``(t0, t1, u0, u1)``: its members
are the admissible ``(t, u)`` with foot in ``[t0, t1]`` and head in
``[u0, u1]``, ``None`` being an unbounded end.

* ``LeftFan(p, s_max)``   -- ``(None, s_max, p, p)``;
* ``RightFan(p, u_min)``  -- ``(p, p, u_min, None)``;
* ``Band(k_max, l_min)``  -- ``(None, k_max, l_min, None)``;
* ``HalfLeft(p)``         -- ``(None, p, None, p)``: both endpoints ``<= p``;
* ``HalfRight(q)``        -- ``(q, None, q, None)``: both endpoints ``>= q``.

:class:`_Boxed` derives the rest of membership once from the box.
``is_member`` tests it, so the brute-force references in
:mod:`infgon.oracles` read nothing per foot.  ``member_heads(t, n)`` gives
the heads of the members ``(t, u)`` as closed intervals ``(a, b)``, with
``b = None`` for ``[a, inf)``.  It ignores admissibility, which the caller
imposes by stepping through the heads ``u = t + 1 (mod n)`` from
``t + n + 1`` on, except that a single head ``u0 = u1`` has members only on
the feet ``t = u1 - 1 (mod n)``.  ``feet_in(lo, hi, n)`` is the range of
feet in ``[lo, hi]`` that can carry a member, stepping by n for a single
head.  A box whose feet reach ``-inf`` has a left fountain at each of its
heads (``left_locus``), and one whose heads reach ``+inf`` a right fountain
at each of its feet (``right_locus``).

``crossed_heads(t, n)``, the heads of the arcs ``(t, u)`` that some member
crosses, stays with each kind.  It is the one derivation with residue
cases: which member crosses first depends on the side of the box the foot
lies on and on residues mod n, so one rule over the box would be longer
than the five it replaces.  ``crossed_by`` and ``members_in`` wrap the
per-foot methods; ``_Boxed.__init_subclass__`` binds them in each kind's
own class.  The closure sweeps in :mod:`infgon.arcsets` read the per-foot
methods directly.
:func:`_first_from` is the package's one residue rule, shared by the sweeps
and the family rotation in :mod:`infgon.mutation`, which splits a family by
its box too.  Every predicate is pinned against brute enumeration in the
test suite.
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
    """Membership, member heads, member feet and fountain loci, read off
    each kind's ``box``.  A box is a ``cached_property``: not a dataclass
    field, so equality, hashing, ``repr`` and the JSON never see it, and
    built once per instance, so the derived methods on the closure sweeps'
    hot path cost what the hand-written ones did.  Each kind declares its box
    as ``box_fields``, the field bounding each side (``None`` unbounded)."""

    box_fields: tuple[str | None, str | None, str | None, str | None]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # bound in each kind's own class, where the traced wrappers find them
        cls.crossed_by = _crossed_by
        cls.members_in = _members_in

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

    def crossed_heads(self, t: int, n: int) -> Heads:
        # Heads beyond p cross the members with feet far left of t; heads short
        # of p cross the members whose foot x0 lies between t and the head.
        p = self.p
        if t >= p:
            return ()
        x0 = _first_from(t + 1, p - 1, n)
        if x0 <= self.s_max:
            return ((x0 + 1, p - 1), (p + 1, None))
        return ((p + 1, None),)


@dataclass(frozen=True)
class RightFan(_Boxed):
    """All admissible arcs starting at ``p`` with head at least ``u_min``."""

    p: int
    u_min: int

    kind = "right_fan"
    box_fields = ("p", "p", "u_min", None)

    def crossed_heads(self, t: int, n: int) -> Heads:
        # Left of p, heads beyond p cross the members with far heads; right of
        # p, heads beyond the first member head y0 past t cross (p, y0).
        p = self.p
        if t < p:
            return ((p + 1, None),)
        if t > p:
            y0 = _first_from(max(t + 1, self.u_min), p + 1, n)
            return ((y0 + 1, None),)
        return ()


@dataclass(frozen=True)
class Band(_Boxed):
    """All admissible arcs reaching from ``(-inf, k_max]`` to ``[l_min, inf)``."""

    k_max: int
    l_min: int

    kind = "band"
    box_fields = (None, "k_max", "l_min", None)

    def crossed_heads(self, t: int, n: int) -> Heads:
        # Either a member pierces (t, u) from the left (its head lands in the
        # open interval, feet are free) or from the right (its foot lands in
        # the interval, heads are free).  Residues never obstruct: the free
        # endpoint absorbs the congruence.
        if t < self.k_max:
            return ((t + 1, None),)
        return ((self.l_min + 1, None),)


@dataclass(frozen=True)
class HalfLeft(_Boxed):
    """All admissible arcs with both endpoints at most ``p``."""

    p: int

    kind = "half_left"
    box_fields = (None, "p", None, "p")

    def crossed_heads(self, t: int, n: int) -> Heads:
        # Any arc whose left endpoint lies below p is pierced by a member
        # ending just inside it; everything else sits fully to the right.
        return ((t + 1, None),) if t < self.p else ()


@dataclass(frozen=True)
class HalfRight(_Boxed):
    """All admissible arcs with both endpoints at least ``q``."""

    q: int

    kind = "half_right"
    box_fields = ("q", None, "q", None)

    def crossed_heads(self, t: int, n: int) -> Heads:
        return ((self.q + 1, None),)


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
    args = []
    for name in names:
        if name not in d:
            raise ValidationError(f"{locus}: missing field {name!r}")
        v = d[name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{locus}.{name}: expected an integer, got {v!r}")
        args.append(v)
    return _KINDS[kind](*args)
