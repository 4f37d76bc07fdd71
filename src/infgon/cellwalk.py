"""Explicit cell-boundary walk: the independent oracle for rotation steps.

A non-crossing divider set cuts the line into cells.  This module locates
the cell containing a given arc by nesting analysis (innermost enclosing
divider arc = ceiling, maximal divider arcs properly inside it = floor
edges) and walks its boundary cycle one step.  It shares no code with the
closed-form predecessor/successor rules in :mod:`infgon.mutation`; the two
are required to agree everywhere.
"""

from __future__ import annotations

from typing import NamedTuple

from .arcs import Arc

__all__ = ["CellBoundary", "cell_boundary", "walk_predecessor", "walk_successor"]


class CellBoundary(NamedTuple):
    """Boundary structure of one cell: optional ceiling plus floor arcs.

    The boundary cycle, walked in increasing direction, goes up the line,
    skipping over each floor arc (from its left endpoint straight to its
    right endpoint), and for a bounded cell finally returns from the
    ceiling's right endpoint to its left endpoint along the ceiling.
    """

    ceiling: Arc | None
    floors: tuple[Arc, ...]

    def predecessor(self, v: int) -> int:
        if self.ceiling is not None and v == self.ceiling.t:
            return self.ceiling.u
        for f in self.floors:
            if v == f.u:
                return f.t
        return v - 1

    def successor(self, v: int) -> int:
        if self.ceiling is not None and v == self.ceiling.u:
            return self.ceiling.t
        for f in self.floors:
            if v == f.t:
                return f.u
        return v + 1


def cell_boundary(a: Arc, dividers: frozenset[Arc] | set[Arc]) -> CellBoundary:
    """Boundary of the cell containing ``a``.

    Assumes ``a`` is not a divider arc and crosses none of them, so it sits
    inside exactly one cell: under the innermost divider arc enclosing it
    (or in the unbounded outer cell), above the divider arcs maximal there.
    """
    t, u = a
    enclosing = [d for d in dividers if d.t <= t and u <= d.u and d != a]
    ceiling = max(enclosing, key=lambda d: (d.t, -d.u)) if enclosing else None
    if ceiling is None:
        pool = dividers
    else:
        q, r = ceiling
        pool = [d for d in dividers if q <= d.t and d.u <= r and d != ceiling]
    # by foot, then head: an arc is enclosed by another iff an earlier arc
    # reaches as far, or a later one starts at the same foot
    floors: list[Arc] = []
    for d in sorted(pool):
        if floors and d.t == floors[-1].t:
            floors[-1] = d
        elif not floors or d.u > floors[-1].u:
            floors.append(d)
    return CellBoundary(ceiling, tuple(floors))


def walk_predecessor(v: int, a: Arc, dividers: frozenset[Arc] | set[Arc]) -> int:
    return cell_boundary(a, dividers).predecessor(v)


def walk_successor(v: int, a: Arc, dividers: frozenset[Arc] | set[Arc]) -> int:
    return cell_boundary(a, dividers).successor(v)
