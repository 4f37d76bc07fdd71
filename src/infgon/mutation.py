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
the explicit boundary-walk oracle in :mod:`infgon.cellwalk`.

The steps read an index that :class:`DividerSet` builds once, at
construction: the sorted heads of the divider arcs starting at each divider
endpoint and the sorted feet of those ending there.  Rules 1 and 2 are then
one bisection each, and an endpoint outside the index takes rule 3 at once.

Every rotation goes through one kernel, :func:`_rotate_all`, which works on
``(t, u)`` integer pairs: :func:`rotate_arc` and :func:`rotate_arc_inverse`
call it with one arc, :func:`rotate_set` once with the explicit arcs and the
family members near the dividers, and the validation of the family rotation
with the members at divider endpoints: it rotates head runs
(:func:`~infgon.arcsets.member_runs`), and a run off the divider endpoints
moves back by one as a whole, so it costs O(W) per divider on a window of
width W.  Which family members are near is read off the family's box.

For each arc the kernel checks that the preimage is admissible
(``NonAdmissible``), is not a divider and crosses no divider
(``IncompatibleArc``), and that the image is admissible and crosses no
divider (``NonAdmissibleImage``).  Rotation provably preserves admissibility
and divider compatibility, so the image checks guard against internal
errors, never recoverable conditions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .arcs import Arc, ModelParams, cross, is_admissible, require_admissible
from .arcsets import (ArcSet, Runs, Window, _make, contains, crosses_set, features, member_runs,
                      runs_of, runs_symmetric_difference)
from .cotorsion import PairReport, check_pair
from .errors import (
    DegeneratePair,
    DNotInCore,
    DNotInFrame,
    IncompatibleArc,
    NoExtension,
    NonAdmissible,
    NonAdmissibleImage,
    PairCheckFailed,
    TriangleMismatch,
    UnsupportedFamilyGeometry,
    WindowTooSmall,
)
from .families import Family, LeftFan, RightFan, _first_from, family_scalars
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
    """Finite set of pairwise non-crossing admissible arcs.

    Construction also builds the index the rotation steps read: for each
    divider endpoint v, the sorted heads of the arcs starting at v and the
    sorted feet of the arcs ending at v.  The index is derived from ``arcs``
    and takes no part in equality, hashing or ``repr``.
    """

    params: ModelParams
    arcs: frozenset[Arc]
    _starts: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _ends: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for a in self.arcs:
            require_admissible(a, self.params)
        items = sorted(self.arcs)
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                if cross(a, b):
                    raise IncompatibleArc(f"divider arcs {a} and {b} cross")
        starts: dict[int, list[int]] = {}
        ends: dict[int, list[int]] = {}
        for t, u in items:  # sorted, so every list below is sorted too
            starts.setdefault(t, []).append(u)
            ends.setdefault(u, []).append(t)
        object.__setattr__(self, "_starts", {v: tuple(us) for v, us in starts.items()})
        object.__setattr__(self, "_ends", {v: tuple(ts) for v, ts in ends.items()})

    @staticmethod
    def of(params: ModelParams, arcs: Iterable[Arc]) -> "DividerSet":
        return DividerSet(params, frozenset(arcs))

    def endpoints(self) -> list[int]:
        return sorted(self._starts.keys() | self._ends.keys())

    def span(self) -> int:
        pts = self.endpoints()
        return pts[-1] - pts[0] if pts else 0


def _pred(v: int, other: int, d: DividerSet) -> int:
    if other > v:
        heads = d._starts.get(v)
        if heads:  # innermost divider (v, r) enclosing the arc: least r >= other
            i = bisect_left(heads, other)
            if i < len(heads):
                return heads[i]
    feet = d._ends.get(v)
    if feet:  # outermost divider (q, v) the arc is outside of: least such q
        i = 0 if other > v else bisect_left(feet, other)
        if i < len(feet):
            return feet[i]
    return v - 1


def _succ(v: int, other: int, d: DividerSet) -> int:
    if other < v:
        feet = d._ends.get(v)
        if feet:  # innermost divider (q, v) enclosing the arc: greatest q <= other
            i = bisect_right(feet, other)
            if i:
                return feet[i - 1]
    heads = d._starts.get(v)
    if heads:  # outermost divider (v, r) the arc is outside of: greatest such r
        i = len(heads) if other < v else bisect_right(heads, other)
        if i:
            return heads[i - 1]
    return v + 1


def _rotate_all(
    arcs: Iterable[tuple[int, int]], d: DividerSet, step: Callable[[int, int, DividerSet], int]
) -> list[Arc]:
    """Rotate each arc ``(t, u)`` one step along its cell: the rotation kernel.

    ``step`` is :func:`_pred` (backward) or :func:`_succ` (forward).  Every
    preimage is checked to be admissible, not a divider and crossing no
    divider; every image to be admissible and crossing no divider.  The
    images are built with ``tuple.__new__`` once those checks pass.
    """
    n = d.params.n
    r1 = 1 % n
    divs = d.arcs
    out = []
    for t, u in arcs:
        if u - t < 2 or (u - t) % n != r1:
            raise NonAdmissible(f"({t},{u}) is not admissible for n={n}")
        if (t, u) in divs:
            raise IncompatibleArc(f"({t},{u}) is a divider arc; dividers are fixed, not rotated")
        for b in divs:
            q, r = b
            if q < t < r < u or t < q < u < r:
                raise IncompatibleArc(f"({t},{u}) crosses divider arc {b}")
        et, eu = step(t, u, d), step(u, t, d)
        if et > eu:
            et, eu = eu, et
        elif et == eu:
            raise DegeneratePair(f"degenerate pair ({et}, {eu})")
        if eu - et < 2 or (eu - et) % n != r1:
            raise NonAdmissibleImage(f"rotation rule bug: ({t},{u}) -> ({et},{eu}) for n={n}")
        for b in divs:
            q, r = b
            if q < et < r < eu or et < q < eu < r:
                raise NonAdmissibleImage(f"rotation rule bug: image ({et},{eu}) crosses {b}")
        out.append(_make(Arc, (et, eu)))
    return out


def _step(v: int, a: Arc, d: DividerSet, step: Callable[[int, int, DividerSet], int]) -> int:
    if v not in a:
        raise IncompatibleArc(f"{v} is not an endpoint of {a}")
    _rotate_all((a,), d, step)  # the kernel's checks on ``a`` and its image
    return step(v, a.u if v == a.t else a.t, d)


def predecessor(v: int, a: Arc, d: DividerSet) -> int:
    """One step backward along the boundary of the cell holding ``a``."""
    return _step(v, a, d, _pred)


def successor(v: int, a: Arc, d: DividerSet) -> int:
    """One step forward along the boundary of the cell holding ``a``."""
    return _step(v, a, d, _succ)


def rotate_arc(a: Arc, d: DividerSet) -> Arc:
    """Backward rotation of ``a`` in its cell."""
    return _rotate_all((a,), d, _pred)[0]


def rotate_arc_inverse(a: Arc, d: DividerSet) -> Arc:
    """Forward rotation; inverse of :func:`rotate_arc` on compatible arcs."""
    return _rotate_all((a,), d, _succ)[0]


# --- symbolic family rotation -------------------------------------------------
#
# An endpoint not incident to any divider arc always steps to v - 1, so a
# family only misbehaves where a ranging endpoint meets divider endpoints.
# One rule over the box (t0, t1, u0, u1) splits every family, where [a, b]
# is the divider hull widened by n + 2 and a missing bound reads as a or b:
# * heads unbounded: a right fan (p, u0) on each foot p in [t0, t1];
# * feet unbounded: a left fan (p, t1) on each head p in [u0, u1], with t1
#   capped at a - 1 when the right fans took the feet from a up;
# * open on a foot side and a head side: one leftover family, the box with
#   upper bounds capped at a - 1 and lower bounds raised to b + 1.
# The leftover, and a family none of whose members meets a divider, step
# back by one.  Each fan's members near the dividers are rotated as explicit
# arcs and the rest stay one fan.  The split is exact and is additionally
# checked against pointwise rotation on a validation window.


def _shifted(f: Family) -> Family:
    """``f`` with every member one step back: every defining integer - 1."""
    return type(f)(*(v - 1 for v in family_scalars(f)))


def _rotate_family(f: Family, d: DividerSet) -> tuple[list[tuple[int, int]], list[Family]]:
    """The members of ``f`` to rotate one by one, and the families holding
    the images of all the others."""
    pts = d.endpoints()
    t0, t1, u0, u1 = f.box
    if (not pts or u0 is None and u1 < pts[0]
            or t1 is None and t0 > pts[-1]):  # no member meets a divider
        return [], [_shifted(f)]
    n, lo, hi = d.params.n, pts[0], pts[-1]
    a, b = lo - n - 2, hi + n + 2
    members: list[tuple[int, int]] = []
    fams: list[Family] = []
    if None in (t0, t1) and None in (u0, u1):  # the leftover; t1 and u1 are upper bounds
        rest = [v if v is None else min(v, a - 1) if i % 2 else max(v, b + 1)
                for i, v in enumerate(f.box)]
        fams.append(_shifted(type(f)(**{k: v for k, v in zip(f.box_fields, rest) if k})))
    if u1 is None:
        for p in range(a if t0 is None else t0, (b if t1 is None else t1) + 1):
            first = _first_from(max(u0, p + 2), p + 1, n)  # first member head
            top = max(hi, first - 1) + n + 2
            members += [(p, u) for u in range(first, top + 1, n)]
            # beyond top, every member's anchor steps as the anchor of (p, top) does
            fams.append(RightFan(_pred(p, top, d), top))
    if t0 is None:
        s_max = t1 if u1 is not None else min(t1, a - 1)
        for p in range(a if u0 is None else u0, (b if u1 is None else u1) + 1):
            last = _first_from(min(s_max, p - 2) - n + 1, p - 1, n)  # last member foot
            bottom = min(lo, last + 1) - n - 2
            members += [(s, p) for s in range(_first_from(bottom, p - 1, n), last + 1, n)]
            # below bottom, every member's anchor steps as the anchor of (bottom, p) does
            fams.append(LeftFan(_pred(p, bottom, d), bottom - 2))
    return members, fams


def _crosses_run(t: int, a: int, b: int, n: int, d: DividerSet) -> bool:
    """Does an arc ``(t, u)``, ``u`` in the run ``[a, b)``, cross a divider
    ``(q, r)``: ``u > r`` with ``q < t < r``, or ``q < u < r`` with ``t < q``?"""
    return any(q < t < r and _first_from(max(a, r + 1), t + 1, n) < b
               or t < q and _first_from(max(a, q + 1), t + 1, n) < min(b, r)
               for q, r in d.arcs)


def _rotate_runs(runs: Runs, d: DividerSet, w: Window) -> Runs:
    """The backward rotation of the non-divider arcs in ``runs``, plus the
    dividers, as runs on ``w``.  A run off the divider endpoints moves to foot
    ``t - 1`` with every head - 1 (rule 3 at both ends), checked like the
    kernel's images; heads at a divider endpoint, runs on a divider-endpoint
    foot and runs crossing a divider go through the kernel arc by arc."""
    n, pts = d.params.n, d.endpoints()
    ends, r1 = set(pts), 1 % n
    heads: dict[int, list[tuple[int, int]]] = {}
    single: list[tuple[int, int]] = []
    for t, foot_runs in runs.items():
        for a, b in foot_runs:
            if t in ends or _crosses_run(t, a, b, n, d):
                single += [(t, u) for u in range(a, b, n)]
                continue
            cuts = [e for e in pts[bisect_left(pts, a) : bisect_left(pts, b)]
                    if (e - t - 1) % n == 0]  # heads at a divider endpoint
            single += [(t, e) for e in cuts]
            for e in cuts + [b]:
                if a < e:  # the sub-run [a, e) moves to [a - 1, e - 1) on foot t - 1
                    if a - t < 2 or (a - t) % n != r1 or _crosses_run(t - 1, a - 1, e - 1, n, d):
                        raise NonAdmissibleImage(f"rotation rule bug: run ({t}, [{a}, {e})) "
                                                 f"-> ({t - 1}, [{a - 1}, {e - 1}))")
                    heads.setdefault(t - 1, []).append((a - 1, e - 1 - n))
                a = e + n
    for et, eu in [*_rotate_all((m for m in single if m not in d.arcs), d, _pred), *d.arcs]:
        heads.setdefault(et, []).append((eu, eu))
    return runs_of(heads, w, n)


def _validate_rotation(x: ArcSet, d: DividerSet, result: ArcSet) -> None:
    """Compare the symbolic result with pointwise rotation on a window
    around the dividers, the features of ``x`` and the result's family
    scalars (``x`` has a family, so there is at least one)."""
    feats = d.endpoints() + features(x) + [v for f in result.families for v in family_scalars(f)]
    pad = d.span() + 2 * (d.params.n + 2) + 4
    outer = Window(min(feats) - pad, max(feats) + pad)
    inner = outer.shrink(d.span() + 2)
    expected = _rotate_runs(member_runs(x, outer), d, inner)
    actual = member_runs(result, inner)
    if expected != actual:
        diff = runs_symmetric_difference(expected, actual, d.params.n)
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
    members: list[tuple[int, int]] = list(x.explicit)
    fams: list[Family] = []
    for fam in x.families:
        ms, fs = _rotate_family(fam, d)
        members += ms
        fams += fs
    images = _rotate_all((m for m in members if m not in d.arcs), d, _pred)
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
    rotated endpoint can travel.  The re-verification is windowed: it
    decides the equalities on the shrunk window as given, without
    ``check_pair``'s margin, which the rotated sets need not meet there (the
    demo's rotated ``Ync``, on [-9, 9], has explicit endpoints -17 to 17).
    """
    rep = check_pair(x, y, w)
    if not rep.verdict and not force:
        raise PairCheckFailed(
            "pair fails its verification report; pass force=True to mutate anyway"
        )
    # check_pair matched the moduli: a divider is in the core exactly when it
    # lies in w, is admissible and is in both sets
    stray = sorted(b for b in d.arcs if not (w.lo <= b.t and b.u <= w.hi and
                   is_admissible(b, x.params) and contains(x, b) and contains(y, b)))
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
