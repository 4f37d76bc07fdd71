"""Hom and Ext dimensions between admissible arcs, and extension triangles.

Every Hom space between indecomposables has dimension 0 or 1.  The whole
calculus reduces to one classification: ``Ext^1(x, y)`` with ``x = (r, s)``
and ``y = (t, u)`` is nonzero in exactly two situations,

* same component:  ``u = s (mod n)``, ``t <= r - n``, ``r + 1 <= u <= s - n``;
* next component:  ``u = s + 1 (mod n)``, ``r + 1 <= t <= s - n``, ``s + 1 <= u``.

Higher degrees and plain Hom reduce to this via ``Ext^i(x, y) =
Ext^1(x, shift(y, i - 1))`` and ``Hom(x, y) = Ext^1(x, shift(y, -1))``.
The two condition sets are mutually exclusive for every n >= 1: the first
needs ``t <= r - n`` and the second ``t >= r + 1``.  The test suite checks
this directly.

``ext1_case``, ``ext_dim`` and ``hom_dim`` share one private integer kernel,
:func:`_ext1`, which applies the degree shift to the endpoints of y and tests
admissibility inline, so no arc is built per call.  Errors keep one rule:
``InvalidDegree`` comes first, then ``NonAdmissible`` for x, then for y,
raised by ``require_admissible`` on the failure path only; for ``ext_dim``
and ``hom_dim`` the message names the shifted y.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from . import _EXPORTS
from .arcs import Arc, ModelParams, is_admissible, require_admissible, shift
from .errors import InvalidDegree, NoExtension

__all__ = [*_EXPORTS["homs"]]


class ExtKind(enum.Enum):
    SAME_COMPONENT = "same_component"
    NEXT_COMPONENT = "next_component"
    ZERO = "zero"


class ExtCase(NamedTuple):
    kind: ExtKind

    @property
    def nonzero(self) -> bool:
        return self.kind is not ExtKind.ZERO


_ZERO = ExtCase(ExtKind.ZERO)
_SAME = ExtCase(ExtKind.SAME_COMPONENT)
_NEXT = ExtCase(ExtKind.NEXT_COMPONENT)


def _ext1(x: Arc, y: Arc, k: int, p: ModelParams) -> ExtCase:
    """Classify ``Ext^1(x, shift(y, k))`` on the integers x=(r,s), y-k=(t,u)."""
    n = p.n
    r, s = x
    t, u = y
    t -= k
    u -= k
    if s - r < 2 or (s - r) % n != 1 % n:
        require_admissible(x, p)
    if u - t < 2 or (u - t) % n != 1 % n:
        require_admissible(shift(y, k), p)
    if (u - s) % n == 0 and t <= r - n and r + 1 <= u <= s - n:
        return _SAME
    if (u - s - 1) % n == 0 and r + 1 <= t <= s - n and s + 1 <= u:
        return _NEXT
    return _ZERO


def ext1_case(x: Arc, y: Arc, p: ModelParams) -> ExtCase:
    """Classify ``Ext^1(x, y)`` for admissible arcs x=(r,s), y=(t,u)."""
    return _ext1(x, y, 0, p)


def ext_dim(x: Arc, y: Arc, i: int, p: ModelParams) -> int:
    """dim Ext^i(x, y), always 0 or 1."""
    if i < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {i}")
    return 0 if _ext1(x, y, i - 1, p) is _ZERO else 1


def hom_dim(x: Arc, y: Arc, p: ModelParams) -> int:
    """dim Hom(x, y), always 0 or 1."""
    return 0 if _ext1(x, y, -1, p) is _ZERO else 1


def ext_profile(x: Arc, y: Arc, p: ModelParams) -> list[int]:
    """[dim Ext^1(x,y), ..., dim Ext^n(x,y)]."""
    return [ext_dim(x, y, i, p) for i in range(1, p.n + 1)]


class ExtTriangle(NamedTuple):
    """Triangle ``left -> mid1 (+) mid2 -> right`` realizing Ext^1(right, left).

    A middle slot is None exactly when the template pair is not admissible
    (a zero summand), so callers can tell a dropped summand from a missing
    one.
    """

    left: Arc
    mid1: Arc | None
    mid2: Arc | None
    right: Arc

    def middles(self) -> tuple[Arc, ...]:
        return tuple(m for m in (self.mid1, self.mid2) if m is not None)


def _maybe(t: int, u: int, p: ModelParams) -> Arc | None:
    a = Arc(t, u)
    return a if is_admissible(a, p) else None


def ext_triangle(x: Arc, y: Arc, p: ModelParams) -> ExtTriangle:
    """The extension triangle for a nonzero ``Ext^1(x, y)``.

    Same-component case (t < r < u < s):  (t,u) -> (t,s) + (r,u) -> (r,s).
    Next-component case (r < t < s < u):  (t,u) -> (s,u) + (r,t) -> (r,s).
    """
    case = ext1_case(x, y, p)
    r, s = x
    t, u = y
    if case.kind is ExtKind.SAME_COMPONENT:
        return ExtTriangle(y, _maybe(t, s, p), _maybe(r, u, p), x)
    if case.kind is ExtKind.NEXT_COMPONENT:
        return ExtTriangle(y, _maybe(s, u, p), _maybe(r, t, p), x)
    raise NoExtension(f"Ext^1({x}, {y}) = 0 for n={p.n}")
