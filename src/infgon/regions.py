"""Exact subsets of the integers built from points and half-infinite rays.

Fountain loci are always of this shape: finitely many isolated points plus
at most one ray ``(-inf, left_max]`` and at most one ray ``[right_min, inf)``.
Regions are canonical on construction (rays merged per side, points absorbed
into rays), so membership and subset tests are exact and cheap.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import _EXPORTS

__all__ = [*_EXPORTS["regions"]]


class IntRegion(NamedTuple):
    points: frozenset[int]
    left_max: int | None  # the ray (-inf, left_max], if any
    right_min: int | None  # the ray [right_min, inf), if any

    @staticmethod
    def of(points: Iterable[int] = (), left_rays: Iterable[int] = (),
           right_rays: Iterable[int] = ()) -> "IntRegion":
        lmax = max(left_rays, default=None)
        rmin = min(right_rays, default=None)
        pts = {
            x
            for x in points
            if not (lmax is not None and x <= lmax)
            and not (rmin is not None and x >= rmin)
        }
        return IntRegion(frozenset(pts), lmax, rmin)

    @staticmethod
    def empty() -> "IntRegion":
        return IntRegion.of()

    def __contains__(self, x: int) -> bool:
        if x in self.points:
            return True
        lmax = self.left_max
        if lmax is not None and x <= lmax:
            return True
        rmin = self.right_min
        return rmin is not None and x >= rmin

    def is_empty(self) -> bool:
        return not self.points and self.left_max is None and self.right_min is None

    def union(self, *others: "IntRegion") -> "IntRegion":
        regs = (self, *others)
        return IntRegion.of(
            [x for r in regs for x in r.points],
            [r.left_max for r in regs if r.left_max is not None],
            [r.right_min for r in regs if r.right_min is not None],
        )

    def uncovered_witness(self, other: "IntRegion") -> int | None:
        """Some integer in ``self`` but not in ``other``, or None if subset."""
        for x in sorted(self.points):
            if x not in other:
                return x
        if self.left_max is not None:  # walk down our left ray
            x, floor = self.left_max, other.left_max
            if other.right_min is not None:  # other's right ray covers the rest
                x = min(x, other.right_min - 1)
            while floor is None or x > floor:  # no floor: other has finitely many points
                if x not in other:
                    return x
                x -= 1
        if self.right_min is not None:  # walk up our right ray
            x, ceil = self.right_min, other.right_min
            if other.left_max is not None:
                x = max(x, other.left_max + 1)
            while ceil is None or x < ceil:
                if x not in other:
                    return x
                x += 1
        return None

    def issubset(self, other: "IntRegion") -> bool:
        return self.uncovered_witness(other) is None
