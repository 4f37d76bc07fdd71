"""Verification of the four-condition characterization of n-cotorsion pairs.

A pair of arc sets (X, Y) is an n-cotorsion pair exactly when X is the
non-crossing closure of Y, Y is the non-crossing closure of X, every
right-fountain of X is a left-fountain of X, and every left-fountain of Y is
a right-fountain of Y.  The two set equalities are verified on a window (the
sets are infinite); the two fountain conditions are decided exactly from the
family descriptors.  Reports always carry witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .arcs import Arc, ModelParams, cross, require_admissible
from .arcsets import ArcSet, Window, contains, finiteness_check, members_in_window, nc_window
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


def _require_margin(x: ArcSet, y: ArcSet, w: Window) -> None:
    margin = x.params.n + 2
    pts = [e for a in (x.explicit | y.explicit) for e in a]
    if not pts:
        return
    if w.lo > min(pts) - margin or w.hi < max(pts) + margin:
        raise WindowTooSmall(
            f"window [{w.lo}, {w.hi}] must cover explicit endpoints "
            f"[{min(pts)}, {max(pts)}] with margin {margin}"
        )


def _equality(lhs: list[Arc], rhs: list[Arc]) -> Condition:
    left, right = set(lhs), set(rhs)
    if left == right:
        return Condition(True, "windowed")
    return Condition(False, "windowed", tuple(sorted(left ^ right)))


def check_pair(
    x: ArcSet, y: ArcSet, w: Window, *, enforce_margin: bool = True
) -> PairReport:
    """Window-certified verdict on the four pair conditions, with witnesses.

    Set-equality witnesses are symmetric-difference arcs on the window;
    fountain witnesses are single integers and are exact, not windowed.
    """
    if x.params != y.params:
        raise ValueError("pair members disagree on the modulus n")
    if enforce_margin:
        _require_margin(x, y, w)
    cond1 = _equality(members_in_window(x, w), nc_window(y, w))
    cond2 = _equality(members_in_window(y, w), nc_window(x, w))
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
    return PairReport(cond1, cond2, cond3, cond4)


def core(x: ArcSet, y: ArcSet, w: Window, *, enforce_margin: bool = True) -> list[Arc]:
    """Arcs of the window belonging to both sets (the pair's core)."""
    if x.params != y.params:
        raise ValueError("pair members disagree on the modulus n")
    if enforce_margin:
        _require_margin(x, y, w)
    return [a for a in members_in_window(x, w) if contains(y, a)]


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
