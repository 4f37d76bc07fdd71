"""Brute-force oracles and randomized corpora backing the verification suite.

Everything here recomputes claims by exhaustion or replays them through an
independent route: crossing versus extension vanishing, the Calabi-Yau
dimension dualities, rotation steps versus the explicit cell walk, the
rotation-versus-triangle agreement, set rotation versus rotating each
member, and the window listings of :mod:`infgon.arcsets` versus
candidate-by-candidate filtering.  The library
is only trusted as far as these sweeps stay empty.

The sweeps state their claims through the public ``ext_dim`` / ``hom_dim`` /
``cross``, never through the kernel behind them.  ``hom_serre_mismatches``
computes each distinct Hom pair once: it tabulates Hom over the window's
ordered pairs and reads Hom(y, serre(x)) off that table whenever serre(x)
lies in the window.  The rotation fuzz runs the rotation kernel once per arc
and direction, and builds one :func:`~infgon.cellwalk.cell_boundary` per arc
to walk at both endpoints.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import mutation
from .arcs import Arc, ModelParams, cross, is_admissible, serre
from .arcsets import ArcSet, Window, admissible_arcs_in, crosses_set
from .cellwalk import cell_boundary
from .errors import TriangleMismatch
from .families import Band, HalfLeft, HalfRight, LeftFan, RightFan, family_scalars
from .homs import ext_dim, hom_dim
from .mutation import DividerSet, mutation_via_triangle, rotate_arc, rotate_arc_inverse

__all__ = [
    "FuzzReport",
    "cross_ext_mismatches",
    "hom_serre_mismatches",
    "members_in_window_brute",
    "nc_window_brute",
    "random_divider_case",
    "random_family_rotation_case",
    "random_finite_arcs",
    "rotation_mismatches",
    "run_mutation_fuzz",
    "serre_duality_mismatches",
]


def cross_ext_mismatches(p: ModelParams, lo: int, hi: int) -> list[tuple[Arc, Arc]]:
    """Ordered arc pairs in the window where crossing disagrees with some
    Ext^i(x, y), 1 <= i <= n, surviving."""
    arcs = list(admissible_arcs_in(Window(lo, hi), p))
    degrees = range(1, p.n + 1)
    bad = []
    for x in arcs:
        for y in arcs:
            crossing = cross(x, y)
            for i in degrees:
                if ext_dim(x, y, i, p):
                    if not crossing:
                        bad.append((x, y))
                    break
            else:
                if crossing:
                    bad.append((x, y))
    return bad


def serre_duality_mismatches(
    p: ModelParams, lo: int, hi: int
) -> list[tuple[Arc, Arc, int]]:
    """Pairs and degrees violating ext_dim(x,y,i) == ext_dim(y,x,n+1-i)."""
    arcs = list(admissible_arcs_in(Window(lo, hi), p))
    degrees = [(i, p.n + 1 - i) for i in range(1, p.n + 1)]
    bad = []
    for idx, x in enumerate(arcs):
        for y in arcs[idx:]:
            for i, j in degrees:
                if ext_dim(x, y, i, p) != ext_dim(y, x, j, p):
                    bad.append((x, y, i))
    return bad


def hom_serre_mismatches(p: ModelParams, lo: int, hi: int) -> list[tuple[Arc, Arc]]:
    """Pairs violating hom_dim(x, y) == hom_dim(y, serre(x)).

    ``table[k][m]`` is hom_dim(arcs[k], arcs[m]); when serre(x) is a window
    arc, the right-hand sides for x are that arc's column.
    """
    arcs = list(admissible_arcs_in(Window(lo, hi), p))
    index = {a: k for k, a in enumerate(arcs)}
    table = [bytes([hom_dim(x, y, p) for y in arcs]) for x in arcs]
    bad = []
    for x, row in zip(arcs, table):
        sx = serre(x, p)
        k = index.get(sx)
        back = [hom_dim(y, sx, p) for y in arcs] if k is None else [r[k] for r in table]
        bad += [(x, y) for y, h, b in zip(arcs, row, back) if h != b]
    return bad


def members_in_window_brute(s: ArcSet, w: Window) -> list[Arc]:
    """Frozen reference for ``members_in_window``: every admissible arc of
    the window, kept when it is explicit or some family's ``is_member``
    accepts it."""
    p = s.params
    return [
        a
        for a in admissible_arcs_in(w, p)
        if a in s.explicit or any(f.is_member(a, p) for f in s.families)
    ]


def nc_window_brute(s: ArcSet, w: Window) -> list[Arc]:
    """Frozen reference for ``nc_window``: every admissible arc of the window
    that crosses no member of ``s``.

    The members are enumerated on the hull of the window, the explicit
    endpoints and the family scalars, padded by n + 2: a member crossing an
    arc of the window can be moved inside that hull, keeping its residue and
    the crossing (one period fixes the residue, two more the least span).
    Only members with an endpoint strictly inside the window can cross one
    of its arcs.
    """
    p = s.params
    pts = [w.lo, w.hi]
    for a in s.explicit:
        pts += a
    for f in s.families:
        pts += family_scalars(f)
    pad = p.n + 2
    hull = Window(min(pts) - pad, max(pts) + pad)
    members = [
        m
        for m in members_in_window_brute(s, hull)
        if w.lo < m.t < w.hi or w.lo < m.u < w.hi
    ]
    return [a for a in admissible_arcs_in(w, p) if not any(cross(a, m) for m in members)]


def rotation_mismatches(x: ArcSet, d: DividerSet, got: ArcSet) -> list[Arc]:
    """Frozen reference for ``rotate_set``: the arcs where ``got`` differs
    from :func:`~infgon.mutation.rotate_arc` applied to every non-divider
    member of ``x``, the dividers kept.

    The window argument is perfbench's ``rotation_mismatch``: an endpoint
    moves by one, or by at most span(D) along a divider, so every member of
    ``got`` on the inner window has its preimage on the outer one and the
    comparison there is exact.  The inner window reaches 2(n + 2) + 2 past
    the dividers, the explicit endpoints and the family scalars of both
    sets, so each family shows every residue class on it.
    """
    pts = d.endpoints()
    for s in (x, got):
        pts += [e for a in s.explicit for e in a]
        pts += [v for f in s.families for v in family_scalars(f)]
    if not pts:
        return []
    span, pad = d.span(), d.span() + 2 * (d.params.n + 2) + 4
    outer = Window(min(pts) - pad, max(pts) + pad)
    inner = Window(outer.lo + span + 2, outer.hi - span - 2)
    want = {rotate_arc(m, d) for m in members_in_window_brute(x, outer) if m not in d.arcs}
    want = {a for a in want | d.arcs if inner.lo <= a.t and a.u <= inner.hi}
    return sorted(want ^ set(members_in_window_brute(got, inner)))


def _random_admissible(rng: random.Random, n: int, lo: int, hi: int) -> Arc | None:
    """Uniform-ish admissible arc with both endpoints in [lo, hi]."""
    for _ in range(64):
        t = rng.randrange(lo, hi - 1)
        d0 = 2 if n == 1 else n + 1
        top = (hi - t - d0) // n
        if top < 0:
            continue
        return Arc(t, t + d0 + n * rng.randrange(top + 1))
    return None


def random_finite_arcs(
    rng: random.Random, p: ModelParams, max_arcs: int, lo: int, hi: int
) -> list[Arc]:
    """Small random admissible arc set within a window."""
    out = set()
    for _ in range(rng.randrange(1, max_arcs + 1)):
        a = _random_admissible(rng, p.n, lo, hi)
        if a is not None:
            out.add(a)
    return sorted(out)


def random_divider_case(
    rng: random.Random, *, max_arcs: int = 8, span: int = 60
) -> tuple[ModelParams, DividerSet, Arc]:
    """A random non-crossing divider set (nesting encouraged) plus one
    compatible arc to rotate."""
    while True:
        n = rng.choice((1, 2, 3, 4, 5))
        p = ModelParams(n)
        lo, hi = -span // 2, span - span // 2
        arcs: set[Arc] = set()
        first = _random_admissible(rng, n, lo, hi)
        if first is None:
            continue
        arcs.add(first)
        for _ in range(rng.randrange(max_arcs)):
            mode = rng.random()
            base = rng.choice(sorted(arcs))
            if mode < 0.4 and base.u - base.t > n + 2:
                cand = _random_admissible(rng, n, base.t, base.u)  # nest inside
            elif mode < 0.7:
                cand = _random_admissible(
                    rng, n, max(lo, base.t - n - 4), min(hi, base.u + n + 4)
                )  # hug the base: shared endpoints and tight nests
            else:
                cand = _random_admissible(rng, n, lo, hi)
            if cand is None or any(cross(cand, b) for b in arcs):
                continue
            arcs.add(cand)
        d = DividerSet.of(p, arcs)
        for _ in range(128):
            a = _random_admissible(rng, n, lo, hi)
            if a is not None and a not in d.arcs and not any(cross(a, b) for b in d.arcs):
                return p, d, a


def _random_family(rng: random.Random, lo: int = -15, hi: int = 15):
    kind = rng.randrange(5)
    a, b = rng.randrange(lo, hi + 1), rng.randrange(lo, hi + 1)
    if kind == 0:
        return LeftFan(a, a - 2 - abs(b) % 8)
    if kind == 1:
        return RightFan(a, a + 2 + abs(b) % 8)
    if kind == 2:
        return Band(min(a, b) - 2, max(a, b) + 2)
    if kind == 3:
        return HalfLeft(a)
    return HalfRight(a)


def random_family_rotation_case(rng: random.Random):
    """A random family-bearing arc set with a compatible divider set.

    The divider arcs are members of the set and cross nothing in it, so the
    pair is a valid input for set rotation.
    """
    while True:
        n = rng.choice((1, 2, 3, 4))
        p = ModelParams(n)
        arcs: set[Arc] = set()
        want = rng.randrange(1, 4)
        for _ in range(30):
            if len(arcs) >= want:
                break
            a = _random_admissible(rng, n, -12, 12)
            if a is not None and all(not cross(a, b) for b in arcs):
                arcs.add(a)
        if not arcs:
            continue
        d = DividerSet.of(p, arcs)
        fams = []
        want_f = rng.randrange(1, 4)
        for _ in range(25):
            if len(fams) >= want_f:
                break
            fam = _random_family(rng)
            if all(not crosses_set(b, ArcSet.of(p, families=[fam])) for b in d.arcs):
                fams.append(fam)
        if not fams:
            continue
        x = ArcSet.of(p, frozenset(d.arcs), tuple(fams))
        if any(crosses_set(b, x) for b in d.arcs):
            continue
        return p, x, d


class FuzzReport(NamedTuple):
    cases: int
    involution_failures: list
    image_failures: list
    cellwalk_failures: list
    triangle_failures: list

    @property
    def failures(self) -> list:
        return [f for kind in self[1:] for f in kind]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_mutation_fuzz(num_cases: int, seed: int = 0) -> FuzzReport:
    """Randomized agreement run for the whole rotation stack.

    Per case: the rotation image must be admissible and divider-compatible
    (rotate_arc asserts this internally), the inverse rotation must undo it,
    the step rules must match the explicit cell walk at every endpoint of
    both arcs, and the extension-triangle route must certify the move.

    The kernel runs once per arc and direction; the step rules are the
    module's ``mutation._pred`` / ``_succ`` as they stand at the call.
    """
    if num_cases < 0:
        raise ValueError(f"number of fuzz cases must be >= 0, got {num_cases}")
    pred, succ = mutation._pred, mutation._succ
    rng = random.Random(seed)
    rep = FuzzReport(num_cases, [], [], [], [])
    for _ in range(num_cases):
        p, d, a = random_divider_case(rng)
        image = rotate_arc(a, d)
        if not is_admissible(image, p) or any(cross(image, b) for b in d.arcs):
            rep.image_failures.append((p.n, d, a, image))
        back = rotate_arc_inverse(image, d)
        if back != a:
            rep.involution_failures.append((p.n, d, a, image, back))
        rotate_arc_inverse(a, d)  # the kernel's checks on the two other steps
        rotate_arc(image, d)
        for arc in (a, image):
            cell = cell_boundary(arc, d.arcs)
            t, u = arc
            for v, other in ((t, u), (u, t)):
                if pred(v, other, d) != cell.predecessor(v):
                    rep.cellwalk_failures.append((p.n, d, arc, "pred", v))
                if succ(v, other, d) != cell.successor(v):
                    rep.cellwalk_failures.append((p.n, d, arc, "succ", v))
        try:
            res = mutation_via_triangle(a, d)
            if res.image != image:
                rep.triangle_failures.append((p.n, d, a, "image drift"))
        except TriangleMismatch as exc:
            rep.triangle_failures.append((p.n, d, a, str(exc)))
    return rep
