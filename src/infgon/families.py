"""Symbolic descriptors for the infinite arc families used in closures.

Five closed-form kinds suffice for every infinite set this package needs:

* ``LeftFan(p, s_max)``   -- all admissible ``(s, p)`` with ``s <= s_max``;
* ``RightFan(p, u_min)``  -- all admissible ``(p, u)`` with ``u >= u_min``;
* ``Band(k_max, l_min)``  -- all admissible ``(k, l)`` with ``k <= k_max`` and
  ``l >= l_min``;
* ``HalfLeft(p)``         -- all admissible arcs with both endpoints ``<= p``;
* ``HalfRight(q)``        -- dually, both endpoints ``>= q``.

Each kind states its geometry once, per foot.  For a fixed left endpoint
``t``, ``member_heads(t, n)`` gives the heads ``u`` of its members
``(t, u)`` and ``crossed_heads(t, n)`` the heads of the arcs ``(t, u)`` that
some member crosses.  Both are tuples of closed intervals ``(a, b)``, with
``b = None`` for ``[a, inf)``; they ignore admissibility, which the caller
imposes by stepping through the heads ``u = t + 1 (mod n)`` from ``t + n + 1``
on.  ``member_feet()`` gives the closed interval of feet outside which
``member_heads`` is empty (``None`` for an unbounded end):

* ``RightFan``: ``[p, p]``;
* ``LeftFan``: ``(-inf, min(s_max, p - 2)]``;
* ``Band``: ``(-inf, k_max]``;
* ``HalfLeft``: ``(-inf, p - 2]``;
* ``HalfRight``: ``[q, inf)``.

``feet_in(lo, hi, n)`` clips it to ``[lo, hi]``; a ``LeftFan``'s steps by n.

``crossed_by`` and ``members_in`` are thin wrappers over the per-foot
methods, and the closure sweeps in :mod:`infgon.arcsets` read them directly.
:func:`_first_from` is the package's one residue rule, shared by the sweeps
and the family rotation in :mod:`infgon.mutation`, which keys each kind's
rotation rule by ``kind``.
``is_member`` stays a direct test, so the brute-force references in
:mod:`infgon.oracles` do not depend on the per-foot methods.  Each kind also
gives its fountain-locus contribution, and every predicate is pinned against
brute enumeration in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Union

from .arcs import Arc, ModelParams
from .errors import ValidationError
from .regions import IntRegion

__all__ = [
    "Band",
    "Family",
    "HalfLeft",
    "HalfRight",
    "LeftFan",
    "RightFan",
    "family_from_json",
    "family_scalars",
    "family_to_json",
]

# closed head intervals (a, b) for one foot; b is None for [a, inf)
Heads = tuple[tuple[int, int | None], ...]
# closed foot interval (a, b) outside which member_heads is empty; None is unbounded
Feet = tuple[int | None, int | None]


def _first_from(lo: int, target: int, n: int) -> int:
    """Least x >= lo with x = target (mod n)."""
    return lo + (target - lo) % n


def _crossed_by(self, a: Arc, params: ModelParams) -> bool:
    """Does some member cross the admissible arc ``a``?"""
    u = a.u
    return any(
        lo <= u and (hi is None or u <= hi) for lo, hi in self.crossed_heads(a.t, params.n)
    )


def _feet_in(self, lo: int, hi: int, n: int) -> range:
    first, last = self.member_feet()
    return range(lo if first is None else max(first, lo),
                 (hi if last is None else min(last, hi)) + 1)


def _members_in(self, lo: int, hi: int, params: ModelParams) -> Iterator[Arc]:
    """Members with both endpoints in ``[lo, hi]``, sorted."""
    n = params.n
    for t in range(lo, hi - 1):
        for a, b in self.member_heads(t, n):
            top = hi if b is None else min(b, hi)
            for u in range(_first_from(max(a, t + n + 1), t + 1, n), top + 1, n):
                yield Arc(t, u)


@dataclass(frozen=True)
class LeftFan:
    """All admissible arcs ending at ``p`` with foot at most ``s_max``."""

    p: int
    s_max: int

    kind = "left_fan"
    crossed_by = _crossed_by
    members_in = _members_in

    def is_member(self, a: Arc, params: ModelParams) -> bool:
        return a.u == self.p and a.t <= self.s_max

    def member_feet(self) -> Feet:
        return None, min(self.s_max, self.p - 2)

    def feet_in(self, lo: int, hi: int, n: int) -> range:
        return range(_first_from(lo, self.p - 1, n), min(self.s_max, self.p - 2, hi) + 1, n)

    def member_heads(self, t: int, n: int) -> Heads:
        if t <= min(self.s_max, self.p - 2) and (self.p - 1 - t) % n == 0:
            return ((self.p, self.p),)
        return ()

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

    def left_locus(self) -> IntRegion:
        return IntRegion.of(points=[self.p])

    def right_locus(self) -> IntRegion:
        return IntRegion.empty()


@dataclass(frozen=True)
class RightFan:
    """All admissible arcs starting at ``p`` with head at least ``u_min``."""

    p: int
    u_min: int

    kind = "right_fan"
    crossed_by = _crossed_by
    members_in = _members_in
    feet_in = _feet_in

    def is_member(self, a: Arc, params: ModelParams) -> bool:
        return a.t == self.p and a.u >= self.u_min

    def member_feet(self) -> Feet:
        return self.p, self.p

    def member_heads(self, t: int, n: int) -> Heads:
        return ((max(self.u_min, t + 2), None),) if t == self.p else ()

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

    def left_locus(self) -> IntRegion:
        return IntRegion.empty()

    def right_locus(self) -> IntRegion:
        return IntRegion.of(points=[self.p])


@dataclass(frozen=True)
class Band:
    """All admissible arcs reaching from ``(-inf, k_max]`` to ``[l_min, inf)``."""

    k_max: int
    l_min: int

    kind = "band"
    crossed_by = _crossed_by
    members_in = _members_in
    feet_in = _feet_in

    def is_member(self, a: Arc, params: ModelParams) -> bool:
        return a.t <= self.k_max and a.u >= self.l_min

    def member_feet(self) -> Feet:
        return None, self.k_max

    def member_heads(self, t: int, n: int) -> Heads:
        return ((max(self.l_min, t + 2), None),) if t <= self.k_max else ()

    def crossed_heads(self, t: int, n: int) -> Heads:
        # Either a member pierces (t, u) from the left (its head lands in the
        # open interval, feet are free) or from the right (its foot lands in
        # the interval, heads are free).  Residues never obstruct: the free
        # endpoint absorbs the congruence.
        if t < self.k_max:
            return ((t + 1, None),)
        return ((self.l_min + 1, None),)

    def left_locus(self) -> IntRegion:
        return IntRegion.of(right_rays=[self.l_min])

    def right_locus(self) -> IntRegion:
        return IntRegion.of(left_rays=[self.k_max])


@dataclass(frozen=True)
class HalfLeft:
    """All admissible arcs with both endpoints at most ``p``."""

    p: int

    kind = "half_left"
    crossed_by = _crossed_by
    members_in = _members_in
    feet_in = _feet_in

    def is_member(self, a: Arc, params: ModelParams) -> bool:
        return a.u <= self.p

    def member_feet(self) -> Feet:
        return None, self.p - 2

    def member_heads(self, t: int, n: int) -> Heads:
        return ((t + 2, self.p),) if t + 2 <= self.p else ()

    def crossed_heads(self, t: int, n: int) -> Heads:
        # Any arc whose left endpoint lies below p is pierced by a member
        # ending just inside it; everything else sits fully to the right.
        return ((t + 1, None),) if t < self.p else ()

    def left_locus(self) -> IntRegion:
        return IntRegion.of(left_rays=[self.p])

    def right_locus(self) -> IntRegion:
        return IntRegion.empty()


@dataclass(frozen=True)
class HalfRight:
    """All admissible arcs with both endpoints at least ``q``."""

    q: int

    kind = "half_right"
    crossed_by = _crossed_by
    members_in = _members_in
    feet_in = _feet_in

    def is_member(self, a: Arc, params: ModelParams) -> bool:
        return a.t >= self.q

    def member_feet(self) -> Feet:
        return self.q, None

    def member_heads(self, t: int, n: int) -> Heads:
        return ((t + 2, None),) if t >= self.q else ()

    def crossed_heads(self, t: int, n: int) -> Heads:
        return ((self.q + 1, None),)

    def left_locus(self) -> IntRegion:
        return IntRegion.empty()

    def right_locus(self) -> IntRegion:
        return IntRegion.of(right_rays=[self.q])


Family = Union[LeftFan, RightFan, Band, HalfLeft, HalfRight]

_KINDS = {cls.kind: cls for cls in (LeftFan, RightFan, Band, HalfLeft, HalfRight)}
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
