"""Rotation of arcs and arc sets inside the cells cut out by a divider set.

A finite set D of pairwise non-crossing admissible arcs divides the line
into cells.  Rotating an arc moves each endpoint one step backward along the
boundary cycle of the cell containing the arc.  The closed-form step rule
for an endpoint ``v`` of arc ``a`` is:

1. if some divider arc ``(v, r)`` starts at ``v`` and encloses ``a``, the
   walk wraps along the innermost such arc: return the least ``r``;
2. else if some divider arc ``(q, v)`` ends at ``v`` with ``a`` outside it
   (other endpoint ``<= q`` or ``>= v``), the walk jumps along the outermost
   such arc: return the least ``q``;
3. else return ``v - 1``.

The forward step (successor) mirrors this.  Both rules are verified against
the explicit boundary-walk oracle in :mod:`infgon.cellwalk`.  Rotation
provably preserves admissibility and divider compatibility; violations are
internal errors, never recoverable conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .arcs import Arc, ModelParams, cross, is_admissible, normalize, require_admissible
from .arcsets import ArcSet, Window, contains, crosses_set, members_in_window
from .cotorsion import PairReport, check_pair, core
from .errors import (
    DNotInCore,
    DNotInFrame,
    IncompatibleArc,
    NoExtension,
    NonAdmissibleImage,
    PairCheckFailed,
    TriangleMismatch,
    UnsupportedFamilyGeometry,
    WindowTooSmall,
)
from .families import Band, Family, HalfLeft, HalfRight, LeftFan, RightFan, family_scalars
from .homs import ExtTriangle, ext_triangle

__all__ = [
    "DividerSet",
    "RotationResult",
    "mutate_pair",
    "mutation_via_triangle",
    "predecessor",
    "rotate_arc",
    "rotate_arc_inverse",
    "rotate_set",
    "successor",
]


@dataclass(frozen=True)
class DividerSet:
    """Finite set of pairwise non-crossing admissible arcs."""

    params: ModelParams
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        for a in self.arcs:
            require_admissible(a, self.params)
        items = sorted(self.arcs)
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                if cross(a, b):
                    raise IncompatibleArc(f"divider arcs {a} and {b} cross")

    @staticmethod
    def of(params: ModelParams, arcs: Iterable[Arc]) -> "DividerSet":
        return DividerSet(params, frozenset(arcs))

    def endpoints(self) -> list[int]:
        return sorted({e for a in self.arcs for e in a})

    def span(self) -> int:
        pts = self.endpoints()
        return pts[-1] - pts[0] if pts else 0

    def starts_at(self, v: int) -> list[int]:
        return sorted(a.u for a in self.arcs if a.t == v)

    def ends_at(self, v: int) -> list[int]:
        return sorted(a.t for a in self.arcs if a.u == v)


def _check_compatible(a: Arc, d: DividerSet) -> None:
    require_admissible(a, d.params)
    if a in d.arcs:
        raise IncompatibleArc(f"{a} is a divider arc; dividers are fixed, not rotated")
    for b in d.arcs:
        if cross(a, b):
            raise IncompatibleArc(f"{a} crosses divider arc {b}")


def _pred(v: int, other: int, d: DividerSet) -> int:
    if other > v:
        wraps = [r for r in d.starts_at(v) if other <= r]
        if wraps:
            return min(wraps)
    jumps = [q for q in d.ends_at(v) if other <= q or other >= v]
    if jumps:
        return min(jumps)
    return v - 1


def _succ(v: int, other: int, d: DividerSet) -> int:
    if other < v:
        wraps = [q for q in d.ends_at(v) if q <= other]
        if wraps:
            return max(wraps)
    jumps = [r for r in d.starts_at(v) if other >= r or other <= v]
    if jumps:
        return max(jumps)
    return v + 1


def predecessor(v: int, a: Arc, d: DividerSet) -> int:
    """One step backward along the boundary of the cell holding ``a``."""
    if v not in a:
        raise IncompatibleArc(f"{v} is not an endpoint of {a}")
    _check_compatible(a, d)
    return _pred(v, a.u if v == a.t else a.t, d)


def successor(v: int, a: Arc, d: DividerSet) -> int:
    """One step forward along the boundary of the cell holding ``a``."""
    if v not in a:
        raise IncompatibleArc(f"{v} is not an endpoint of {a}")
    _check_compatible(a, d)
    return _succ(v, a.u if v == a.t else a.t, d)


def _finish(a: Arc, d: DividerSet, et: int, eu: int) -> Arc:
    image = normalize(et, eu)
    if not is_admissible(image, d.params):
        raise NonAdmissibleImage(f"rotation rule bug: {a} -> {image} for n={d.params.n}")
    for b in d.arcs:
        if cross(image, b):
            raise NonAdmissibleImage(f"rotation rule bug: image {image} crosses {b}")
    return image


def rotate_arc(a: Arc, d: DividerSet) -> Arc:
    """Backward rotation of ``a`` in its cell."""
    _check_compatible(a, d)
    return _finish(a, d, _pred(a.t, a.u, d), _pred(a.u, a.t, d))


def rotate_arc_inverse(a: Arc, d: DividerSet) -> Arc:
    """Forward rotation; inverse of :func:`rotate_arc` on compatible arcs."""
    _check_compatible(a, d)
    return _finish(a, d, _succ(a.t, a.u, d), _succ(a.u, a.t, d))


# --- symbolic family rotation -------------------------------------------------
#
# An endpoint not incident to any divider arc always steps to v - 1, so a
# family only misbehaves where a ranging endpoint meets divider endpoints.
# Each kind is split into finitely many explicit arcs near the dividers plus
# residual families whose members rotate uniformly; the split is exact and is
# additionally checked against pointwise rotation on a validation window.


def _stable_pred(anchor: int, d: DividerSet) -> int:
    """Predecessor of a fan anchor once the ranging endpoint is beyond D."""
    ends = d.ends_at(anchor)
    return min(ends) if ends else anchor - 1


def _fan_values(first: int, last: int, n: int) -> range:
    """Integers in [first, last] stepping by n (empty when first > last)."""
    return range(first, last + 1, n)


def _rotate_right_fan(
    p: int, u_min: int, d: DividerSet
) -> tuple[list[Arc], list[Family]]:
    n = d.params.n
    eff = max(u_min, p + 2) + (p + 1 - max(u_min, p + 2)) % n  # first member head
    pts = d.endpoints()
    if not pts:
        return [], [RightFan(p - 1, u_min - 1)]
    top = max(max(pts), eff - 1) + n + 2
    images = []
    for u in _fan_values(eff, top, n):
        arc = Arc(p, u)
        if arc not in d.arcs:
            images.append(rotate_arc(arc, d))
    return images, [RightFan(_stable_pred(p, d), top)]


def _rotate_left_fan(
    p: int, s_max: int, d: DividerSet
) -> tuple[list[Arc], list[Family]]:
    n = d.params.n
    eff = min(s_max, p - 2) - (min(s_max, p - 2) - (p - 1)) % n  # last member foot
    pts = d.endpoints()
    if not pts:
        return [], [LeftFan(p - 1, s_max - 1)]
    bottom = min(min(pts), eff + 1) - n - 2
    images = []
    for s in _fan_values(bottom + (eff - bottom) % n, eff, n):
        arc = Arc(s, p)
        if arc not in d.arcs:
            images.append(rotate_arc(arc, d))
    return images, [LeftFan(_stable_pred(p, d), bottom - 2)]


def _rotate_family(fam: Family, d: DividerSet) -> tuple[list[Arc], list[Family]]:
    pts = d.endpoints()
    guard = d.params.n + 2
    if isinstance(fam, RightFan):
        return _rotate_right_fan(fam.p, fam.u_min, d)
    if isinstance(fam, LeftFan):
        return _rotate_left_fan(fam.p, fam.s_max, d)
    if isinstance(fam, Band):
        if not pts:
            return [], [Band(fam.k_max - 1, fam.l_min - 1)]
        lo_cut = min(pts) - guard
        hi_cut = max(pts) + guard
        images: list[Arc] = []
        fams: list[Family] = []
        for k in range(lo_cut, fam.k_max + 1):
            ims, fs = _rotate_right_fan(k, fam.l_min, d)
            images += ims
            fams += fs
        k_rest = min(fam.k_max, lo_cut - 1)
        for l in range(fam.l_min, hi_cut + 1):
            ims, fs = _rotate_left_fan(l, k_rest, d)
            images += ims
            fams += fs
        fams.append(Band(k_rest - 1, max(fam.l_min, hi_cut + 1) - 1))
        return images, fams
    if isinstance(fam, HalfLeft):
        if not pts or min(pts) > fam.p:
            return [], [HalfLeft(fam.p - 1)]
        lo_cut = min(pts) - guard
        images, fams = [], []
        for head in range(lo_cut, fam.p + 1):
            ims, fs = _rotate_left_fan(head, head - 2, d)
            images += ims
            fams += fs
        fams.append(HalfLeft(lo_cut - 2))
        return images, fams
    if isinstance(fam, HalfRight):
        if not pts or max(pts) < fam.q:
            return [], [HalfRight(fam.q - 1)]
        hi_cut = max(pts) + guard
        images, fams = [], []
        for foot in range(fam.q, hi_cut + 1):
            ims, fs = _rotate_right_fan(foot, foot + 2, d)
            images += ims
            fams += fs
        fams.append(HalfRight(hi_cut))
        return images, fams
    raise UnsupportedFamilyGeometry(f"no rotation rule for family {fam!r}")


def _validate_rotation(x: ArcSet, d: DividerSet, result: ArcSet) -> None:
    """Compare the symbolic result with pointwise rotation on a window."""
    feats = d.endpoints() + [e for a in x.explicit for e in a]
    for fam in x.families:
        feats += family_scalars(fam)
    for fam in result.families:
        feats += family_scalars(fam)
    if not feats:
        return
    pad = d.span() + 2 * (d.params.n + 2) + 4
    outer = Window(min(feats) - pad, max(feats) + pad)
    inner = outer.shrink(d.span() + 2)
    expected = {
        rotate_arc(m, d) for m in members_in_window(x, outer) if m not in d.arcs
    } | d.arcs
    expected_in = sorted(a for a in expected if inner.lo <= a.t and a.u <= inner.hi)
    actual_in = members_in_window(result, inner)
    if expected_in != actual_in:
        diff = sorted(set(expected_in) ^ set(actual_in))
        raise UnsupportedFamilyGeometry(
            f"family rotation mismatch on window [{inner.lo}, {inner.hi}]: {diff[:8]}"
        )


def rotate_set(x: ArcSet, d: DividerSet) -> ArcSet:
    """Rotate every member of ``x`` except the dividers; keep the dividers.

    Requires each divider arc to belong to ``x`` and to cross nothing in it
    (the divider must sit inside the frame of the set).
    """
    if x.params != d.params:
        raise ValueError("arc set and divider set disagree on the modulus n")
    for b in sorted(d.arcs):
        if not contains(x, b):
            raise DNotInFrame(f"divider arc {b} is not a member of the set")
        if crosses_set(b, x):
            raise DNotInFrame(f"divider arc {b} crosses a member of the set")
    images = {rotate_arc(a, d) for a in x.explicit if a not in d.arcs}
    fams: list[Family] = []
    for fam in x.families:
        ims, fs = _rotate_family(fam, d)
        images.update(ims)
        fams += fs
    result = ArcSet(
        x.params,
        frozenset(images) | d.arcs,
        tuple(sorted(set(fams), key=lambda f: (f.kind, family_scalars(f)))),
    )
    if x.families:
        _validate_rotation(x, d, result)
    return result


def mutate_pair(
    x: ArcSet, y: ArcSet, d: DividerSet, w: Window, *, force: bool = False
) -> tuple[ArcSet, ArcSet, PairReport]:
    """Rotate a verified pair and re-verify it on the shrunk window.

    The window shrinks by span(D) + 1 on each side, the maximum distance a
    rotated endpoint can travel; the explicit-endpoint margin rule is not
    re-imposed on the shrunk window (the shrink already keeps it inside the
    certified region).
    """
    rep = check_pair(x, y, w)
    if not rep.verdict and not force:
        raise PairCheckFailed(
            "pair fails its verification report; pass force=True to mutate anyway"
        )
    core_arcs = set(core(x, y, w))
    stray = sorted(b for b in d.arcs if b not in core_arcs)
    if stray:
        raise DNotInCore(f"divider arcs outside the pair core: {stray}")
    x2 = rotate_set(x, d)
    y2 = rotate_set(y, d)
    try:
        shrunk = w.shrink(d.span() + 1)
    except ValueError as exc:
        raise WindowTooSmall(f"window too small to survive the shrink: {exc}") from exc
    rep2 = check_pair(x2, y2, shrunk, enforce_margin=False)
    return x2, y2, rep2


@dataclass(frozen=True)
class RotationResult:
    image: Arc
    via_triangle: ExtTriangle


def mutation_via_triangle(a: Arc, d: DividerSet, p: ModelParams) -> RotationResult:
    """Rotate ``a`` and certify the move through its extension triangle.

    The triangle realizing Ext^1(image, a) must have every nonzero middle
    summand inside the divider set (non-admissible template corners are zero
    summands and are dropped).  Any disagreement between the triangle route
    and the rotation route raises, never passes silently.
    """
    if p != d.params:
        raise ValueError("model parameters disagree with the divider set")
    image = rotate_arc(a, d)
    try:
        tri = ext_triangle(image, a, p)
    except NoExtension as exc:
        raise TriangleMismatch(
            f"rotation image {image} of {a} admits no extension back onto it"
        ) from exc
    stray = [m for m in tri.middles() if m not in d.arcs]
    if stray:
        raise TriangleMismatch(
            f"triangle middles {stray} for {a} -> {image} are not divider arcs"
        )
    return RotationResult(image, tri)
