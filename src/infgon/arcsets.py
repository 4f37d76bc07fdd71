"""Finite-plus-symbolic arc collections and the non-crossing calculus.

An :class:`ArcSet` holds finitely many explicit arcs plus any number of
symbolic families, so membership, "does this arc cross the set", fountain
loci and window enumerations are all decided exactly; only *listings* are
truncated to a :class:`Window`.

The two listings, :func:`nc_window` and :func:`members_in_window`, are one
sweep over the feet ``t`` of the window.  For a fixed foot every constraint
is an interval of heads ``u``: an explicit arc ``(r, v)`` blocks ``u > v``
when ``r < t < v`` and ``r < u < v`` when ``t < r``, and each family states
its blocked and member heads per foot (see :mod:`infgon.families`).
``members_in_window`` visits each family only on its foot interval
(``member_feet``): a right fan costs one foot, not the whole window.  Merging
the intervals and stepping through the admissible heads costs
O(W * (m + f) + output) for window width W, m explicit arcs and f families,
against O(W^2 / n * (m + f)) for testing every candidate arc.  The
candidate-filter versions are kept, frozen, as the brute-force references
``nc_window_brute`` and ``members_in_window_brute`` in :mod:`infgon.oracles`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator

from .arcs import Arc, ModelParams, cross, is_admissible, require_admissible
from .errors import UnsupportedFamilies
from .families import Family, _first_from
from .regions import IntRegion

__all__ = [
    "ArcSet",
    "FinitenessReport",
    "PtolemyReport",
    "Window",
    "admissible_arcs_in",
    "contains",
    "crosses_set",
    "double_nc_extras",
    "finiteness_check",
    "fountain_loci",
    "frame",
    "in_nc_nc",
    "is_ptolemy_window",
    "members_in_window",
    "nc_window",
]


@dataclass(frozen=True)
class Window:
    """Inclusive integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"window needs lo < hi, got [{self.lo}, {self.hi}]")

    def shrink(self, margin: int) -> "Window":
        return Window(self.lo + margin, self.hi - margin)


@dataclass(frozen=True)
class ArcSet:
    """Arc collection closed under nothing in particular: data, not a closure."""

    params: ModelParams
    explicit: frozenset[Arc] = frozenset()
    families: tuple[Family, ...] = ()

    def __post_init__(self) -> None:
        for a in self.explicit:
            require_admissible(a, self.params)

    @staticmethod
    def of(
        params: ModelParams,
        explicit: Iterable[Arc] = (),
        families: Iterable[Family] = (),
    ) -> "ArcSet":
        return ArcSet(params, frozenset(explicit), tuple(families))


def admissible_arcs_in(w: Window, p: ModelParams) -> Iterator[Arc]:
    """All admissible arcs with both endpoints in the window, sorted."""
    n = p.n
    for t in range(w.lo, w.hi - 1):
        # least admissible span is 2 when n = 1 and n + 1 otherwise; both are t+n+1
        for u in range(t + n + 1, w.hi + 1, n):
            yield Arc(t, u)


def contains(s: ArcSet, a: Arc) -> bool:
    """Exact membership, families included."""
    require_admissible(a, s.params)
    if a in s.explicit:
        return True
    return any(f.is_member(a, s.params) for f in s.families)


def crosses_set(a: Arc, s: ArcSet) -> bool:
    """Does any member of ``s`` (explicit or family-generated) cross ``a``?"""
    require_admissible(a, s.params)
    if any(cross(a, e) for e in s.explicit):
        return True
    return any(f.crossed_by(a, s.params) for f in s.families)


# The sweeps build their output arcs with tuple.__new__: t < u and the
# residue hold by construction, so Arc's checks would only repeat them.
_make = tuple.__new__


def members_in_window(s: ArcSet, w: Window) -> list[Arc]:
    """Members of ``s`` with both endpoints in ``w``, sorted, deduplicated."""
    n, lo, hi = s.params.n, w.lo, w.hi
    last = hi - 2  # the last foot with a head in the window
    per_foot: list[list[tuple[int, int]]] = [[] for _ in range(lo, last + 1)]
    for r, v in s.explicit:
        if lo <= r and v <= hi:
            per_foot[r - lo].append((v, v))
    for f in s.families:  # each family visits only the feet it has members on
        first, stop = f.member_feet()
        first = lo if first is None else max(first, lo)
        stop = last if stop is None else min(stop, last)
        for t in range(first, stop + 1):
            for a, b in f.member_heads(t, n):
                per_foot[t - lo].append((a, hi if b is None or b > hi else b))
    out: list[Arc] = []
    for t, heads in enumerate(per_foot, lo):
        if not heads:
            continue
        heads.sort()
        u = t + n + 1
        for a, b in heads:
            if a > u:
                u = _first_from(a, t + 1, n)
            if u <= b:
                out += [_make(Arc, (t, x)) for x in range(u, b + 1, n)]
                u = _first_from(b + 1, t + 1, n)
    return out


def nc_window(s: ArcSet, w: Window) -> list[Arc]:
    """The non-crossing closure of ``s`` restricted to the window.

    Pointwise decisions are exact (tested against the full symbolic set);
    only the enumeration is truncated.
    """
    n, hi, fams = s.params.n, w.hi, s.families
    arcs = sorted(s.explicit)
    feet = [r for r, _ in arcs]
    inside = [(r + 1, v - 1) for r, v in arcs]  # heads blocked by (r, v) when t < r
    spanning: list[int] = []  # min-heap of heads v of the arcs (r, v) with r < t
    entered = 0
    out: list[Arc] = []
    for t in range(w.lo, hi - 1):
        while entered < len(arcs) and feet[entered] < t:
            heappush(spanning, arcs[entered][1])
            entered += 1
        while spanning and spanning[0] <= t:
            heappop(spanning)
        top = min(hi, spanning[0]) if spanning else hi  # last head not capped
        blocked = inside[bisect_right(feet, t) :]
        for f in fams:
            for a, b in f.crossed_heads(t, n):
                if b is None:
                    top = min(top, a - 1)
                else:
                    blocked.append((a, b))
        u = t + n + 1
        if u > top:
            continue
        blocked.sort()
        for a, b in blocked:
            if a > top:
                break
            if a > u:
                out += [_make(Arc, (t, x)) for x in range(u, a, n)]
                u = _first_from(a, t + 1, n)
            if b >= u:
                u = _first_from(b + 1, t + 1, n)
        out += [_make(Arc, (t, x)) for x in range(u, top + 1, n)]
    return out


def fountain_loci(s: ArcSet) -> tuple[IntRegion, IntRegion]:
    """(left-fountain region, right-fountain region) of the set.

    Finite data contributes nothing; each family kind contributes its
    closed-form locus.
    """
    left = IntRegion.empty()
    right = IntRegion.empty()
    for f in s.families:
        left = left.union(f.left_locus())
        right = right.union(f.right_locus())
    return left, right


@dataclass(frozen=True)
class FinitenessReport:
    contravariant_ok: bool
    covariant_ok: bool
    contravariant_witness: int | None = None
    covariant_witness: int | None = None


def finiteness_check(s: ArcSet) -> FinitenessReport:
    """Fountain inclusions: right in left (contravariant), left in right (covariant)."""
    left, right = fountain_loci(s)
    rw = right.uncovered_witness(left)
    lw = left.uncovered_witness(right)
    return FinitenessReport(rw is None, lw is None, rw, lw)


def frame(s: ArcSet, w: Window) -> list[Arc]:
    """Members of ``s`` inside ``w`` crossing nothing in the full set."""
    return [a for a in members_in_window(s, w) if not crosses_set(a, s)]


@dataclass(frozen=True)
class PtolemyReport:
    ok: bool
    pair: tuple[Arc, Arc] | None = None
    missing: Arc | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_ptolemy_window(s: ArcSet, w: Window) -> PtolemyReport:
    """For every crossing pair in the window, all admissible corner arcs must
    belong to the set (full symbolic membership, not windowed)."""
    p = s.params
    members = members_in_window(s, w)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not cross(a, b):
                continue
            (r, sx), (t, u) = sorted((a, b))  # crossing forces r < t < sx < u
            for corner in (Arc(r, t), Arc(r, u), Arc(t, sx), Arc(sx, u)):
                if is_admissible(corner, p) and not contains(s, corner):
                    return PtolemyReport(False, (a, b), corner)
    return PtolemyReport(True)


def in_nc_nc(a: Arc, s: ArcSet) -> bool:
    """Is ``a`` in the double non-crossing closure of a finite set?

    Equivalently: does every arc crossing ``a`` cross some member of ``s``?
    The witness search is bounded to endpoints in ``[m - (n+2), M + (n+2)]``
    where m, M are the extreme endpoints of ``s`` and ``a``: a witness with
    an endpoint beyond every relevant endpoint can be retracted into the
    margin without changing any crossing predicate (one period suffices to
    fix the residue, plus two for the minimum arc length).
    """
    if s.families:
        raise UnsupportedFamilies("in_nc_nc supports finite arc sets only")
    require_admissible(a, s.params)
    pts = [a.t, a.u]
    for e in s.explicit:
        pts.extend((e.t, e.u))
    margin = s.params.n + 2
    bound = Window(min(pts) - margin, max(pts) + margin)
    return not any(cross(a, b) for b in nc_window(s, bound))


def double_nc_extras(s: ArcSet, w: Window) -> list[Arc]:
    """Arcs in the window that lie in the double closure but not in ``s``.

    Window-sweep companion to :func:`in_nc_nc`: it computes the non-crossing
    set once on the margin-extended window instead of once per candidate.
    Empty result means ``s`` equals its double closure on this window.
    """
    if s.families:
        raise UnsupportedFamilies("double_nc_extras supports finite arc sets only")
    margin = s.params.n + 2
    nc = nc_window(s, Window(w.lo - margin, w.hi + margin))
    extras = []
    for a in admissible_arcs_in(w, s.params):
        if a in s.explicit:
            continue
        if not any(cross(a, b) for b in nc):
            extras.append(a)
    return extras
