"""Exact subsets of the integers built from points and half-infinite rays.

Fountain loci are always of this shape: finitely many isolated points plus
at most one ray ``(-inf, left_max]`` and at most one ray ``[right_min, inf)``.
Regions are canonical on construction (rays merged per side, points absorbed
into rays), so membership and the inclusion witness are exact and cheap.
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

    def __contains__(self, x: int) -> bool:
        if x in self.points:
            return True
        lmax = self.left_max
        if lmax is not None and x <= lmax:
            return True
        rmin = self.right_min
        return rmin is not None and x >= rmin

    def uncovered_witness(self, other: "IntRegion") -> int | None:
        """Some integer in ``self`` but not in ``other``, or None if subset."""
        for x in sorted(self.points):
            if x not in other:
                return x
        lo, hi = other.left_max, other.right_min  # other's rays (-inf, lo] and [hi, inf)
        if self.left_max is not None:  # walk down our left ray from below hi, past other's points
            x = self.left_max if hi is None else min(self.left_max, hi - 1)
            while x in other.points:
                x -= 1
            if lo is None or x > lo:
                return x
        if self.right_min is not None:  # walk up our right ray from above lo
            x = self.right_min if lo is None else max(self.right_min, lo + 1)
            while x in other.points:
                x += 1
            if hi is None or x < hi:
                return x
        return None
