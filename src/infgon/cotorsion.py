"""Verification of the four-condition characterization of n-cotorsion pairs.

A pair of arc sets (X, Y) is an n-cotorsion pair exactly when X is the
non-crossing closure of Y, Y is the non-crossing closure of X, every
right-fountain of X is a left-fountain of X, and every left-fountain of Y is
a right-fountain of Y.  The two set equalities are verified on a window (the
sets are infinite) that covers the integers defining both sets with margin
n + 2; the two fountain conditions are decided exactly from the family
descriptors.  Reports always carry witnesses.

The set equalities XOR, and :func:`core` intersects, the two closures' rows
on the sample feet of one piece plan (``arcsets._Pieces``), then expand the
result to list the witnesses and the core: O(anchors * n * (m + f)) for m
explicit arcs and f families whatever the window's width, plus the output.
So a passing verdict costs the same on every window, and a failing one pays
per witness arc.  A self-pair (``x == y``) runs each kernel and each check
once.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from . import _EXPORTS
from .arcs import Arc, ModelParams, cross, require_admissible
from .arcsets import ArcSet, Condition, Window, _Pieces, features, finiteness_check
from .errors import WindowTooSmall

__all__ = [*_EXPORTS["cotorsion"]]


class PairReport(NamedTuple):
    x_equals_nc_y: Condition
    y_equals_nc_x: Condition
    x_contravariant: Condition
    y_covariant: Condition
    window: Window  # the window the two set equalities were decided on

    @property
    def verdict(self) -> bool:
        return all(c.ok for c in self[:4])

    def conditions(self) -> dict[str, Condition]:
        """The four conditions by field name, in field order."""
        return dict(zip(self._fields[:4], self[:4]))


def check_pair(
    x: ArcSet, y: ArcSet, w: Window, *, enforce_margin: bool = True
) -> PairReport:
    """Window-certified verdict on the four pair conditions, with witnesses.

    Set-equality witnesses are symmetric-difference arcs on the window;
    fountain witnesses are single integers and are exact, not windowed.
    The window must cover every explicit endpoint and family scalar of both
    sets (:func:`~infgon.arcsets.features`) with margin n + 2, or
    ``WindowTooSmall`` is raised; ``enforce_margin=False`` decides on the
    window as given.
    """
    if x.params != y.params:
        raise ValueError("pair members disagree on the modulus n")
    n = x.params.n
    pts = features(x, y) if enforce_margin else []
    if pts and (w.lo > min(pts) - n - 2 or w.hi < max(pts) + n + 2):
        raise WindowTooSmall(
            f"window [{w.lo}, {w.hi}] must cover the explicit endpoints and family "
            f"scalars [{min(pts)}, {max(pts)}] with margin {n + 2}"
        )
    plan, same = _Pieces.of(w, x, y), x == y  # a self-pair decides each check once
    d1 = plan.difference(plan.members(x), plan.closure(y))
    d2 = d1 if same else plan.difference(plan.members(y), plan.closure(x))
    cond1 = Condition(not d1, "windowed", tuple(d1))
    cond2 = cond1 if same else Condition(not d2, "windowed", tuple(d2))
    fx = finiteness_check(x)  # (contravariant, covariant)
    fy = fx if same else finiteness_check(y)
    return PairReport(cond1, cond2, fx[0], fy[1], w)


def core(x: ArcSet, y: ArcSet, w: Window) -> list[Arc]:
    """Arcs of the window belonging to both sets (the pair's core), exact on
    any window: it lists members, which need no view past the window."""
    if x.params != y.params:
        raise ValueError("pair members disagree on the modulus n")
    plan = _Pieces.of(w, x, y)
    mx = plan.members(x)
    return plan.meet(mx, mx if x == y else plan.members(y))


def rigidity_check(arcs: Iterable[Arc], p: ModelParams) -> Condition:
    """All extension degrees 1..n vanish within the collection; a witness is
    a crossing pair.

    Decided by pairwise crossing: two admissible arcs have some nonzero
    ``Ext^i`` exactly when they cross, an equivalence that
    :func:`infgon.oracles.cross_ext_mismatches` checks exhaustively.
    """
    items: Sequence[Arc] = sorted(set(arcs))
    for a in items:
        require_admissible(a, p)
    for a in items:
        for b in items:
            if cross(a, b):
                return Condition(False, "exact", (a, b))
    return Condition(True, "exact")
