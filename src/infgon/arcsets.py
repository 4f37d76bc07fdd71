"""Finite-plus-symbolic arc collections and the non-crossing calculus.

An :class:`ArcSet` holds finitely many explicit arcs plus any number of
symbolic families, so membership, "does this arc cross the set", fountain
loci and window enumerations are all decided exactly; only *listings* are
truncated to a :class:`Window`.

Each closure of a window is read off per foot ``t`` by a kernel, one for
the members of a set and one for its non-crossing closure.  For a fixed
foot every constraint is an interval of heads ``u``: an explicit arc
``(r, v)`` blocks ``u > v`` when ``r < t < v`` and ``r < u < v`` when
``t < r``, and each family states its blocked and member heads per foot
(see :mod:`infgon.families`).  One merge, ``_union``, turns a foot's
intervals into canonical runs (:data:`Runs`) in O(m + f), for m explicit
arcs and f families: the member row is the union of the member intervals,
the closure row the complement of the blocked union.

The kernels run only on the feet that a plan of *pieces* picks.  The
*anchors* are the sets' :func:`features` in the window and ``w.hi``; every
foot of an anchor's exact span ``[a - n, a]`` is run, and a *far stretch*
of more than 2n feet between exact spans only on its first 2n feet, two per
residue class mod n.  Why n: at foot t the heads are the
``u = t + 1 (mod n)`` from ``t + n + 1`` on in intervals whose ends are
anchors moved by at most one or lie in ``(t, t + n + 1]`` (cutting only
the first head), chosen by comparing t with anchors (``r < t``,
``x0 <= s_max`` for ``x0`` in ``[t + 1, t + n]``, ...).  Each such
change, and the first head meeting an end ``a`` (at ``t = a - n - 1``,
where both readings agree), first alters the heads at a foot in
``[a - n, a + 1]``.  So between exact spans each
run end is, per residue class, a constant or ``t + c``, and
``R(t) = 2 R(t - n) - R(t - 2n)`` continues a stretch from its samples.
The bound is tight: exact spans ``[a - n + 1, a]`` or ``[a - n, a - 1]``
break the expansion (``tests/test_pieces.py``), and sample rows of unequal
run counts raise ``NonAffinePiece``, never a truncated row.

A closure thus costs O(anchors * n * (m + f)) on any window, plus its
output: :func:`member_runs`, :func:`nc_runs` and the listings expand every
piece that has sample runs.  Two closures on one plan (anchored on both
sets' features) are combined on the samples: ``core`` and :func:`frame`
expand the meet of their rows, ``check_pair`` and :func:`double_nc_extras`
the XOR of the rows that differ, so a passing verdict expands nothing.
This is exact: on a far stretch each end of either side is, per residue, a
constant anchor or ``t + c``, and a constant ``a`` meets the first head only
at ``t = a - n - 1``, the stretch's last foot, past its samples.  So no two
ends change order on the samples, the meet's and the XOR's ends are
constants or ``t + c`` too, and the same recurrence continues them.  The
double closure sweeps one bounded listing of ``nc s``.  Testing every
candidate arc costs O(W^2 / n * (m + f)) on a window of width W;
those candidate-filter versions are kept, frozen, as the brute-force
references ``nc_window_brute`` and ``members_in_window_brute`` in
:mod:`infgon.oracles`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple

from . import _EXPORTS
from .arcs import Arc, ModelParams, cross, is_admissible, require_admissible
from .errors import NonAffinePiece, UnsupportedFamilies
from .families import Family, _first_from, family_scalars
from .regions import IntRegion

__all__ = [*_EXPORTS["arcsets"], "Runs", "features", "member_runs", "nc_runs"]


class _WindowBase(NamedTuple):
    lo: int
    hi: int


class Window(_WindowBase):
    """Inclusive integer interval [lo, hi]."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> "Window":
        if type(lo) is not int or type(hi) is not int:  # bool included
            raise ValueError(f"window ends must be integers, got [{lo!r}, {hi!r}]")
        if lo >= hi:
            raise ValueError(f"window needs lo < hi, got [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    def shrink(self, margin: int) -> "Window":
        return Window(self.lo + margin, self.hi - margin)


def _checked_arcs(arcs: Iterable[Arc], p: ModelParams) -> frozenset[Arc]:
    """``arcs`` as a frozenset, once ``p`` is a ModelParams and each arc an admissible Arc."""
    if not isinstance(p, ModelParams):
        raise TypeError(f"expected ModelParams, got {p!r}")
    items = arcs if isinstance(arcs, frozenset) else list(arcs)
    for a in items:
        if not isinstance(a, Arc):
            raise TypeError(f"expected an Arc, got {a!r}")
        require_admissible(a, p)
    return frozenset(items)


class _ArcSetBase(NamedTuple):
    params: ModelParams
    explicit: frozenset[Arc]
    families: tuple[Family, ...]


class ArcSet(_ArcSetBase):
    """Arc collection closed under nothing in particular: data, not a closure.
    Building one (or ``ArcSet.of``) freezes both collections and checks each item."""

    __slots__ = ()

    def __new__(cls, params: ModelParams, explicit: Iterable[Arc] = (),
                families: Iterable[Family] = ()) -> "ArcSet":
        explicit, families = _checked_arcs(explicit, params), tuple(families)
        for f in families:
            if not isinstance(f, Family):
                raise TypeError(f"expected a family, got {f!r}")
        return tuple.__new__(cls, (params, explicit, families))

    @staticmethod
    def of(params: ModelParams, explicit: Iterable[Arc] = (),
           families: Iterable[Family] = ()) -> "ArcSet":
        return ArcSet(params, explicit, families)


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
    p = s.params
    require_admissible(a, p)
    if a in s.explicit:
        return True
    return any(f.is_member(a, p) for f in s.families)


def crosses_set(a: Arc, s: ArcSet) -> bool:
    """Does any member of ``s`` (explicit or family-generated) cross ``a``?"""
    p = s.params
    require_admissible(a, p)
    if any(cross(a, e) for e in s.explicit):
        return True
    return any(f.crossed_by(a, p) for f in s.families)


# Arcs the sweeps list and sets the library builds are made with tuple.__new__:
# t < u and the residue hold by construction, as Arc's and ArcSet's checks ask.
_make = tuple.__new__


# The canonical head runs of a foot t: sorted ``(first, stop)`` pairs, each
# the heads first, first + n, ... below stop, with first < stop both on the
# progression u = t + 1 (mod n), and every stop below the next run's first.
# Two feet hold the same heads exactly when their runs are equal.  ``Runs``
# maps each foot that has a head to its runs.
Runs = dict[int, list[tuple[int, int]]]


def _union(t: int, heads: list[tuple[int, int]], hi: int, n: int) -> list[tuple[int, int]]:
    """The canonical runs of the heads of foot ``t`` up to ``hi`` that lie in
    some closed interval ``(a, b)`` of ``heads`` (sorted in place; ``a > b``
    covers nothing).  Both kernels turn intervals into runs here only."""
    heads.sort()
    runs: list[tuple[int, int]] = []
    first = u = t + n + 1  # the open run [first, u); u is the least head undecided
    for a, b in heads:
        if a > hi:
            break
        if a > u:  # no interval covers u: close the open run, start one at a
            if first < u:
                runs.append((first, u))
            first = u = _first_from(a, t + 1, n)
        if b > hi:
            b = hi
        if u <= b:
            u = _first_from(b + 1, t + 1, n)
    if first < u:
        runs.append((first, u))
    return runs


def _member_rows(s: ArcSet, w: Window, feet: Iterable[range]) -> Runs:
    """The member kernel: the runs of the members of ``s`` on the given feet
    (increasing ranges in ``w``); a family visits only its ``feet_in``."""
    n, hi = s.params.n, w.hi
    kept = set(chain.from_iterable(feet))
    per_foot: dict[int, list[tuple[int, int]]] = {}
    for r, v in s.explicit:
        if r in kept:
            per_foot.setdefault(r, []).append((v, v))
    for span in feet:
        for f in s.families:
            for t in f.feet_in(span.start, span.stop - 1, n):
                for a, b in f.member_heads(t, n):
                    per_foot.setdefault(t, []).append((a, hi if b is None else b))
    out: Runs = {}
    for t in sorted(per_foot):
        if t >= w.lo and (runs := _union(t, per_foot[t], hi, n)):
            out[t] = runs
    return out


def _nc_rows(s: ArcSet, w: Window, feet: Iterable[range]) -> Runs:
    """The closure kernel: the runs of ``nc s`` on the given feet (increasing
    ranges in ``w``), each decided exactly against the full symbolic set.  A
    foot's row is its heads up to the first cap less the ``_union`` of the
    heads its crossing intervals block."""
    n, hi = s.params.n, w.hi
    # fans, the boxes with a single foot or a single head, last
    fams = sorted(s.families, key=lambda f: f.box[0] == f.box[1] or f.box[2] == f.box[3])
    arcs = sorted(s.explicit)
    feet_of = [r for r, _ in arcs]
    inside = [(r + 1, v - 1) for r, v in arcs]  # heads blocked by (r, v) when t < r
    spanning: list[int] = []  # min-heap of heads v of the arcs (r, v) with r < t
    entered = 0
    out: Runs = {}
    for t in chain.from_iterable(feet):
        while entered < len(arcs) and feet_of[entered] < t:
            heappush(spanning, arcs[entered][1])
            entered += 1
        while spanning and spanning[0] <= t:
            heappop(spanning)
        top = min(hi, spanning[0]) if spanning else hi  # last head not capped
        u = t + n + 1
        if u > top:
            continue
        blocked = inside[bisect_right(feet_of, t) :]
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
        # the union's runs lie in [u, stop) and are not adjacent: gaps are runs
        runs, stop = [], _first_from(top + 1, t + 1, n)
        for a, b in [*_union(t, blocked, top, n), (stop, stop)]:
            if u < a:
                runs.append((u, a))
            u = b
        if runs:
            out[t] = runs
    return out


def _piece_runs(rows: Runs, first: int, cut: int, last: int, n: int) -> Runs:
    """The runs on the feet ``first..last`` from the rows before ``cut``,
    each later foot by R(t) = 2 R(t - n) - R(t - 2n); no rows, no loop."""
    out: Runs = {t: rows[t] for t in range(first, cut) if t in rows}
    if not out:
        return out
    for t in range(cut, last + 1):
        p, q = out.get(t - n), out.get(t - 2 * n)
        if p is None and q is None:
            continue
        if p is None or q is None or len(p) != len(q):
            raise NonAffinePiece(f"piece [{first}, {last}]: feet {t - 2 * n}, {t - n}: {q}, {p}")
        out[t] = [(2 * a - c, 2 * b - d) for (a, b), (c, d) in zip(p, q)]
    return out


class _Pieces(NamedTuple):
    """A window's feet cut into pieces ``(first, cut, last)`` for some sets:
    the kernels run on the feet before ``cut``, the rest follow from them."""

    w: Window
    n: int
    spans: tuple[tuple[int, int, int], ...]

    @staticmethod
    def of(w: Window, *sets: ArcSet) -> "_Pieces":
        """Exact spans ``[a - n, a]`` around the anchors; each far stretch
        between them is cut after its first 2n feet."""
        n, last = sets[0].params.n, w.hi - 2
        spans: list[tuple[int, int, int]] = []
        pts = sorted({*features(*sets), w.hi})
        ex = t = w.lo  # the feet ex..t-1 are exact and in no piece yet
        for a in pts[bisect_left(pts, w.lo) : bisect_right(pts, w.hi)]:
            if a - n - t > 2 * n:  # a far stretch t..a-n-1
                if ex < t:
                    spans.append((ex, t, t - 1))
                spans.append((t, t + 2 * n, a - n - 1))
                ex = a - n
            t = a + 1
        if ex <= last:
            spans.append((ex, last + 1, last))
        return _Pieces(w, n, tuple(spans))

    def members(self, s: ArcSet) -> Runs:
        """The member kernel's rows on the feet before each piece's cut."""
        return _member_rows(s, self.w, [range(a, c) for a, c, _ in self.spans])

    def closure(self, s: ArcSet) -> Runs:
        """The closure kernel's rows on the feet before each piece's cut."""
        return _nc_rows(s, self.w, [range(a, c) for a, c, _ in self.spans])

    def expand(self, rows: Runs) -> Runs:
        """The runs on every foot of the window, from the kernels' rows."""
        out = dict(rows)
        for first, cut, last in self.spans:
            if cut <= last:  # a far stretch
                out.update(_piece_runs(rows, first, cut, last, self.n))
        return out if len(out) == len(rows) else dict(sorted(out.items()))

    def difference(self, lhs: Runs, rhs: Runs) -> list[Arc]:
        """The arcs in exactly one of two closures given by their rows,
        sorted.  The rows are XORed on the feet where they differ and only
        that XOR is expanded: on a far stretch the ends of both sides keep
        their order, so the XOR's ends are constants or ``t + c`` as theirs
        are (module docstring)."""
        if lhs == rhs:
            return []
        feet = sorted(t for t in lhs.keys() | rhs.keys() if lhs.get(t) != rhs.get(t))
        rows = {t: _xor(lhs.get(t, []), rhs.get(t, [])) for t in feet}
        return _arcs(self.expand(rows).items(), self.n)

    def meet(self, lhs: Runs, rhs: Runs) -> list[Arc]:
        """The arcs in both closures given by their rows, sorted; the meet
        of the rows expands for the same reason as the XOR in ``difference``."""
        rows = {t: m for t, r in lhs.items() if t in rhs and (m := _meet(r, rhs[t]))}
        return _arcs(self.expand(rows).items(), self.n)


def member_runs(s: ArcSet, w: Window) -> Runs:
    """The heads of the members of ``s`` inside ``w``, as runs per foot."""
    plan = _Pieces.of(w, s)
    return plan.expand(plan.members(s))


def nc_runs(s: ArcSet, w: Window) -> Runs:
    """The heads of the non-crossing closure of ``s`` inside ``w``, as runs
    per foot; only the window truncates."""
    plan = _Pieces.of(w, s)
    return plan.expand(plan.closure(s))


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


def members_in_window(s: ArcSet, w: Window) -> list[Arc]:
    """Members of ``s`` with both endpoints in ``w``, sorted, deduplicated."""
    return _arcs(member_runs(s, w).items(), s.params.n)


def nc_window(s: ArcSet, w: Window) -> list[Arc]:
    """The non-crossing closure of ``s`` restricted to the window, sorted."""
    return _arcs(nc_runs(s, w).items(), s.params.n)


def fountain_loci(s: ArcSet) -> tuple[IntRegion, IntRegion]:
    """(left-fountain region, right-fountain region) of the set.

    A left fountain at v is infinitely many members ``(t, v)``, a right one
    infinitely many ``(v, u)``.  Explicit arcs are finitely many, and a box
    ``(t0, t1, u0, u1)`` has infinitely many members at a head v of
    ``[u0, u1]`` exactly when its feet reach ``-inf`` (``t0`` is None): the
    feet ``t = v - 1 (mod n)``, ``t <= min(t1, v - 2)``, are then unbounded.
    So the left region gathers the head intervals of the boxes with ``t0``
    None and, mirrored, the right one the foot intervals of the boxes with
    ``u1`` None, an interval with a ``None`` end as a ray.
    """
    left, right = ([], [], []), ([], [], [])  # points, left rays, right rays
    for f in s.families:
        t0, t1, u0, u1 = f.box
        for (points, lows, highs), lo, hi, far in ((left, u0, u1, t0), (right, t0, t1, u1)):
            if far is not None:  # the other end is bounded: finitely many per point
                continue
            if lo is None:
                lows.append(hi)
            elif hi is None:
                highs.append(lo)
            else:
                points.extend(range(lo, hi + 1))
    return IntRegion.of(*left), IntRegion.of(*right)


class Condition(NamedTuple):
    """The result of every check: true exactly when ``ok``; a failure carries
    its ``witnesses``.  ``mode`` is "exact", or "windowed" when decided on a
    window only."""

    ok: bool
    mode: str
    witnesses: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def finiteness_check(s: ArcSet) -> tuple[Condition, Condition]:
    """Fountain inclusions: (right in left (contravariant), left in right
    (covariant)); a witness is an integer in the one region, not the other."""
    left, right = fountain_loci(s)
    rw, lw = right.uncovered_witness(left), left.uncovered_witness(right)
    return (Condition(rw is None, "exact", () if rw is None else (rw,)),
            Condition(lw is None, "exact", () if lw is None else (lw,)))


def frame(s: ArcSet, w: Window) -> list[Arc]:
    """Members of ``s`` inside ``w`` crossing nothing in ``s``: those in ``nc s``."""
    plan = _Pieces.of(w, s)
    return plan.meet(plan.members(s), plan.closure(s))


def is_ptolemy_window(s: ArcSet, w: Window) -> Condition:
    """For every crossing pair in the window, all admissible corner arcs must
    belong to the set (full symbolic membership); a witness is
    ``(a, b, missing_corner)``."""
    p = s.params
    members = members_in_window(s, w)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not cross(a, b):
                continue
            (r, sx), (t, u) = sorted((a, b))  # crossing forces r < t < sx < u
            for corner in (Arc(r, t), Arc(r, u), Arc(t, sx), Arc(sx, u)):
                if is_admissible(corner, p) and not contains(s, corner):
                    return Condition(False, "windowed", (a, b, corner))
    return Condition(True, "windowed")


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
    when ``s`` reaches past ``w``.  Only an arc with an endpoint strictly
    inside ``w`` can cross an arc of ``w``, so the listing keeps the feet
    inside ``w`` and, left of it, only the heads inside ``w``: its length
    grows with ``w`` times the hull, not with the square of the hull.
    """
    if s.families:
        raise UnsupportedFamilies("the double closure supports finite arc sets only")
    n, lo, hi = s.params.n, w.lo, w.hi
    pts = [lo, hi, *features(s)]
    bound = Window(min(pts) - (n + 2), max(pts) + (n + 2))
    rows = ((t, r if t > lo else _meet(r, [(_first_from(lo + 1, t + 1, n),
                                            _first_from(hi, t + 1, n))]))
            for t, r in nc_runs(s, bound).items() if t < hi)  # an end inside w
    nc = _make(ArcSet, (s.params, frozenset(_arcs(rows, n)), ()))
    plan = _Pieces.of(w, nc, s)
    return plan.difference(plan.closure(nc), plan.members(s))


def in_nc_nc(a: Arc, s: ArcSet) -> bool:
    """Is ``a`` in the double closure of a finite set (does every arc crossing
    ``a`` cross a member of ``s``)?  One :func:`double_nc_extras` on ``a``."""
    extras = double_nc_extras(s, Window(a.t, a.u))  # raises on a family first
    require_admissible(a, s.params)
    return a in s.explicit or a in extras
