"""Finite-plus-symbolic arc collections and the non-crossing calculus.

An :class:`ArcSet` holds finitely many explicit arcs plus any number of
symbolic families, so membership, "does this arc cross the set", fountain
loci and window enumerations are all decided exactly; only *listings* are
truncated to a :class:`Window`.

Each closure of a window is one sweep over its feet ``t``, :func:`member_runs`
or :func:`nc_runs`.  For a fixed foot every constraint is an interval of
heads ``u``: an explicit arc ``(r, v)`` blocks ``u > v`` when ``r < t < v``
and ``r < u < v`` when ``t < r``, and each family states its blocked and
member heads per foot (see :mod:`infgon.families`).  ``member_runs`` visits
each family only on its foot interval (``member_feet``) and keeps only the
feet that carry a head; ``nc_runs`` leaves a foot as soon as its heads are
capped below ``t + n + 1``, reading the fans last, since a band or a
half-plane empties whole feet.  Merging the intervals (:func:`runs_of`)
gives each foot's heads as canonical runs (:data:`Runs`), the sweeps' only
output, in O(W * (m + f)) for window width W, m explicit arcs and f
families, whatever the closure's size.  Closures are compared and intersected run by run at that cost
(:func:`runs_symmetric_difference`, :func:`runs_intersection`); the listings
:func:`members_in_window` and :func:`nc_window` expand the runs, O(output)
more; :func:`frame` intersects a set's runs with its closure's, and the
double closure sweeps one bounded listing of ``nc s`` (:func:`double_nc_extras`).
Testing every candidate arc costs O(W^2 / n * (m + f)); those candidate-filter
versions are kept, frozen, as the brute-force references ``nc_window_brute``
and ``members_in_window_brute`` in :mod:`infgon.oracles`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import repeat
from typing import Iterable, Iterator

from .arcs import Arc, ModelParams, cross, is_admissible, require_admissible
from .errors import UnsupportedFamilies
from .families import Family, _first_from, family_scalars
from .regions import IntRegion

__all__ = [
    "ArcSet",
    "FinitenessReport",
    "PtolemyReport",
    "Runs",
    "Window",
    "admissible_arcs_in",
    "contains",
    "crosses_set",
    "double_nc_extras",
    "features",
    "finiteness_check",
    "fountain_loci",
    "frame",
    "in_nc_nc",
    "is_ptolemy_window",
    "member_runs",
    "members_in_window",
    "nc_runs",
    "nc_window",
    "runs_intersection",
    "runs_of",
    "runs_symmetric_difference",
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


def features(*sets: ArcSet) -> list[int]:
    """The integers that define the sets: every explicit endpoint and every
    family scalar.  Their hull widened by n + 2 bounds each search that must
    see all of a set (``check_pair``'s window, :func:`double_nc_extras`)."""
    return [v for s in sets for a in s.explicit for v in a] + [
        v for s in sets for f in s.families for v in family_scalars(f)]


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


# The canonical head runs of a foot t: sorted ``(first, stop)`` pairs, each
# the heads first, first + n, ... below stop, with first < stop both on the
# progression u = t + 1 (mod n), and every stop below the next run's first.
# Two feet hold the same heads exactly when their runs are equal.  ``Runs``
# maps each foot that has a head to its runs.
Runs = dict[int, list[tuple[int, int]]]


def _add_run(runs: list[tuple[int, int]], first: int, stop: int) -> None:
    """Append the run [first, stop), merged into a run that stops at first."""
    if runs and runs[-1][1] == first:
        runs[-1] = (runs[-1][0], stop)
    else:
        runs.append((first, stop))


def runs_of(per_foot: dict[int, list[tuple[int, int]]], w: Window, n: int) -> Runs:
    """Canonical runs of closed head intervals ``(a, b)`` per foot (sorted in
    place), clipped to ``w``: feet from ``w.lo``, heads up to ``w.hi``."""
    lo, hi = w.lo, w.hi
    out: Runs = {}
    for t in sorted(per_foot):
        if t < lo:
            continue
        heads = per_foot[t]
        heads.sort()
        runs: list[tuple[int, int]] = []
        u = t + n + 1
        for a, b in heads:
            if a > u:
                u = _first_from(a, t + 1, n)
            if b > hi:
                b = hi
            if u <= b:
                stop = _first_from(b + 1, t + 1, n)
                _add_run(runs, u, stop)
                u = stop
        if runs:
            out[t] = runs
    return out


def member_runs(s: ArcSet, w: Window) -> Runs:
    """The heads of the members of ``s`` inside ``w``, as runs on the feet
    that carry one: a family far from the members costs nothing per foot."""
    n, lo, hi = s.params.n, w.lo, w.hi
    last = hi - 2  # the last foot with a head in the window
    per_foot: dict[int, list[tuple[int, int]]] = {}
    for r, v in s.explicit:
        per_foot.setdefault(r, []).append((v, v))
    for f in s.families:  # each family visits only the feet it has members on
        first, stop = f.member_feet()
        first = lo if first is None else max(first, lo)
        stop = last if stop is None else min(stop, last)
        for t in range(first, stop + 1):
            for a, b in f.member_heads(t, n):
                per_foot.setdefault(t, []).append((a, hi if b is None else b))
    return runs_of(per_foot, w, n)


def nc_runs(s: ArcSet, w: Window) -> Runs:
    """The heads of the non-crossing closure of ``s`` inside ``w``, as runs
    per foot.  Pointwise decisions are exact (tested against the full
    symbolic set); only the window truncates."""
    n, hi = s.params.n, w.hi
    fams = sorted(s.families, key=lambda f: f.kind in ("left_fan", "right_fan"))  # fans last
    arcs = sorted(s.explicit)
    feet = [r for r, _ in arcs]
    inside = [(r + 1, v - 1) for r, v in arcs]  # heads blocked by (r, v) when t < r
    spanning: list[int] = []  # min-heap of heads v of the arcs (r, v) with r < t
    entered = 0
    out: Runs = {}
    for t in range(w.lo, hi - 1):
        while entered < len(arcs) and feet[entered] < t:
            heappush(spanning, arcs[entered][1])
            entered += 1
        while spanning and spanning[0] <= t:
            heappop(spanning)
        top = min(hi, spanning[0]) if spanning else hi  # last head not capped
        u = t + n + 1
        if u > top:
            continue
        blocked = inside[bisect_right(feet, t) :]
        for f in fams:
            for a, b in f.crossed_heads(t, n):
                if b is None:
                    top = min(top, a - 1)
                else:
                    blocked.append((a, b))
            if u > top:
                break
        if u > top:
            continue
        blocked.sort()
        runs: list[tuple[int, int]] = []
        for a, b in blocked:
            if a > top:
                break
            if a > u:
                stop = _first_from(a, t + 1, n)
                _add_run(runs, u, stop)
                u = stop
            if b >= u:
                u = _first_from(b + 1, t + 1, n)
        if u <= top:
            _add_run(runs, u, _first_from(top + 1, t + 1, n))
        if runs:
            out[t] = runs
    return out


def _arcs(runs: Iterable[tuple[int, list[tuple[int, int]]]], n: int) -> list[Arc]:
    """The arcs of ``(foot, runs)`` pairs, in the order given."""
    out: list[Arc] = []
    for t, foot_runs in runs:
        feet = repeat(t)
        for a, b in foot_runs:
            out += map(_make, repeat(Arc), zip(feet, range(a, b, n)))
    return out


def _xor(p: list[tuple[int, int]], q: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The heads in exactly one of two runs of a foot, as runs: a head is in
    the difference when an odd number of the runs' ends lie at or below it."""
    cuts = sorted(x for run in p + q for x in run)
    return [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]


def _meet(p: list[tuple[int, int]], q: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The heads in both runs of a foot, as runs."""
    out, i, j = [], 0, 0
    while i < len(p) and j < len(q):
        a, b = max(p[i][0], q[j][0]), min(p[i][1], q[j][1])
        if a < b:
            out.append((a, b))
        i, j = (i + 1, j) if p[i][1] < q[j][1] else (i, j + 1)
    return out


def runs_symmetric_difference(lhs: Runs, rhs: Runs, n: int) -> list[Arc]:
    """The arcs in exactly one of two run maps, sorted.  Arcs are built only
    on the feet whose runs differ."""
    if lhs == rhs:
        return []
    feet = sorted(t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t))
    return _arcs(((t, _xor(lhs.get(t, []), rhs.get(t, []))) for t in feet), n)


def runs_intersection(lhs: Runs, rhs: Runs, n: int) -> list[Arc]:
    """The arcs in both run maps, sorted."""
    return _arcs(((t, _meet(r, rhs[t])) for t, r in lhs.items() if t in rhs), n)


def members_in_window(s: ArcSet, w: Window) -> list[Arc]:
    """Members of ``s`` with both endpoints in ``w``, sorted, deduplicated."""
    return _arcs(member_runs(s, w).items(), s.params.n)


def nc_window(s: ArcSet, w: Window) -> list[Arc]:
    """The non-crossing closure of ``s`` restricted to the window, sorted."""
    return _arcs(nc_runs(s, w).items(), s.params.n)


def fountain_loci(s: ArcSet) -> tuple[IntRegion, IntRegion]:
    """(left-fountain region, right-fountain region) of the set.

    Finite data contributes nothing; each family kind contributes its
    closed-form locus.
    """
    empty, fams = IntRegion.empty(), s.families
    return (empty.union(*(f.left_locus() for f in fams)),
            empty.union(*(f.right_locus() for f in fams)))


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
    """Members of ``s`` inside ``w`` crossing nothing in ``s``: those in ``nc s``."""
    return runs_intersection(member_runs(s, w), nc_runs(s, w), s.params.n)


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


def double_nc_extras(s: ArcSet, w: Window) -> list[Arc]:
    """Arcs of ``w`` in the double closure ``nc nc s`` but not in ``s``,
    sorted; empty means ``s`` equals its double closure on ``w``.

    The one bounded search behind the double closure.  An arc ``a`` of ``w``
    is in ``nc nc s`` when no arc of ``nc s`` crosses it.  Let ``[m, M]`` be
    the hull of ``w`` and ``s``.  A crossing arc ``(p, q)`` of ``nc s`` with
    ``q > M`` may take instead the head in ``(M, M + n]`` with ``q``'s
    residue: the span stays admissible (``p < M``) and no crossing with ``a``
    or ``s`` changes, since none of their endpoints lies past ``M``; feet
    mirror this.  So the closure of ``nc s`` restricted to
    ``[m - (n + 2), M + (n + 2)]``, swept over ``w`` once, is ``nc nc s`` on
    ``w``; as ``s`` lies in ``nc nc s``, its runs differ from those of ``s``
    exactly at the extras.  A margin around ``w`` alone misses witnesses
    when ``s`` reaches past ``w``.
    """
    if s.families:
        raise UnsupportedFamilies("the double closure supports finite arc sets only")
    n = s.params.n
    pts = [w.lo, w.hi, *features(s)]
    bound = Window(min(pts) - (n + 2), max(pts) + (n + 2))
    nc = ArcSet(s.params, frozenset(nc_window(s, bound)))
    return runs_symmetric_difference(nc_runs(nc, w), member_runs(s, w), n)


def in_nc_nc(a: Arc, s: ArcSet) -> bool:
    """Is ``a`` in the double closure of a finite set (does every arc crossing
    ``a`` cross a member of ``s``)?  One :func:`double_nc_extras` on ``a``."""
    extras = double_nc_extras(s, Window(a.t, a.u))  # raises on a family first
    require_admissible(a, s.params)
    return a in s.explicit or a in extras
