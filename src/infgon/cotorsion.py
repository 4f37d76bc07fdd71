"""Verification of the four-condition characterization of n-cotorsion pairs.

A pair of arc sets (X, Y) is an n-cotorsion pair exactly when X is the
non-crossing closure of Y, Y is the non-crossing closure of X, every
right-fountain of X is a left-fountain of X, and every left-fountain of Y is
a right-fountain of Y.  The two set equalities are verified on a window (the
sets are infinite) that covers the integers defining both sets with margin
n + 2; the two fountain conditions are decided exactly from the family
descriptors.  Reports always carry witnesses.

The set equalities and :func:`core` compare (or intersect) the closures
piece by piece (``arcsets._Pieces``) and build arcs only for
the witnesses and the core: O(anchors * n * (m + f)) for m explicit arcs
and f families, plus the output, whatever the window's width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .arcs import Arc, ModelParams, cross, require_admissible
from .arcsets import ArcSet, Window, _Pieces, features, finiteness_check
from .errors import WindowTooSmall

__all__ = [
    "Condition",
    "PairReport",
    "RigidityReport",
    "check_pair",
    "core",
    "rigidity_check",
]


@dataclass(frozen=True)
class Condition:
    ok: bool
    mode: str  # "windowed" or "exact"
    witnesses: tuple = ()


@dataclass(frozen=True)
class PairReport:
    x_equals_nc_y: Condition
    y_equals_nc_x: Condition
    x_contravariant: Condition
    y_covariant: Condition
    window: Window  # the window the two set equalities were decided on

    @property
    def verdict(self) -> bool:
        return (
            self.x_equals_nc_y.ok
            and self.y_equals_nc_x.ok
            and self.x_contravariant.ok
            and self.y_covariant.ok
        )

    def conditions(self) -> dict[str, Condition]:
        return {
            "x_equals_nc_y": self.x_equals_nc_y,
            "y_equals_nc_x": self.y_equals_nc_x,
            "x_contravariant": self.x_contravariant,
            "y_covariant": self.y_covariant,
        }


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
    plan = _Pieces.of(w, x, y)
    d1 = plan.difference(plan.members(x), plan.closure(y))
    d2 = plan.difference(plan.members(y), plan.closure(x))
    cond1 = Condition(not d1, "windowed", tuple(d1))
    cond2 = Condition(not d2, "windowed", tuple(d2))
    fx = finiteness_check(x)
    fy = finiteness_check(y)
    cond3 = Condition(
        fx.contravariant_ok,
        "exact",
        () if fx.contravariant_ok else (fx.contravariant_witness,),
    )
    cond4 = Condition(
        fy.covariant_ok,
        "exact",
        () if fy.covariant_ok else (fy.covariant_witness,),
    )
    return PairReport(cond1, cond2, cond3, cond4, w)


def core(x: ArcSet, y: ArcSet, w: Window) -> list[Arc]:
    """Arcs of the window belonging to both sets (the pair's core), exact on
    any window: it lists members, which need no view past the window."""
    if x.params != y.params:
        raise ValueError("pair members disagree on the modulus n")
    plan = _Pieces.of(w, x, y)
    return plan.meet(plan.members(x), plan.members(y))


@dataclass(frozen=True)
class RigidityReport:
    ok: bool
    witness: tuple[Arc, Arc] | None = None

    def __bool__(self) -> bool:
        return self.ok


def rigidity_check(arcs: Iterable[Arc], p: ModelParams) -> RigidityReport:
    """All extension degrees 1..n vanish within the collection.

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
                return RigidityReport(False, (a, b))
    return RigidityReport(True)
