"""Brute-force oracles and randomized corpora backing the verification suite.

Everything here recomputes claims by exhaustion or replays them through an
independent route: crossing versus extension vanishing, the Calabi-Yau
dimension dualities, rotation steps versus the explicit cell walk, the
rotation-versus-triangle agreement, and the window listings of
:mod:`infgon.arcsets` versus candidate-by-candidate filtering.  The library
is only trusted as far as these sweeps stay empty.

The sweeps state their claims through the public ``ext_dim`` / ``hom_dim``,
never through the kernel behind them.  The rotation fuzz builds one
:func:`~infgon.cellwalk.cell_boundary` per arc and walks it at both
endpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arcs import Arc, ModelParams, cross, is_admissible, serre
from .arcsets import ArcSet, Window, admissible_arcs_in, crosses_set
from .cellwalk import cell_boundary
from .errors import TriangleMismatch
from .families import Band, HalfLeft, HalfRight, LeftFan, RightFan, family_scalars
from .homs import ext_dim, hom_dim
from .mutation import (
    DividerSet,
    mutation_via_triangle,
    predecessor,
    rotate_arc,
    rotate_arc_inverse,
    successor,
)

__all__ = [
    "FuzzReport",
    "cross_ext_mismatches",
    "hom_serre_mismatches",
    "members_in_window_brute",
    "nc_window_brute",
    "random_divider_case",
    "random_finite_arcs",
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
            if cross(x, y) != any(ext_dim(x, y, i, p) for i in degrees):
                bad.append((x, y))
    return bad


def serre_duality_mismatches(
    p: ModelParams, lo: int, hi: int
) -> list[tuple[Arc, Arc, int]]:
    """Pairs and degrees violating ext_dim(x,y,i) == ext_dim(y,x,n+1-i)."""
    n = p.n
    arcs = list(admissible_arcs_in(Window(lo, hi), p))
    bad = []
    for idx, x in enumerate(arcs):
        for y in arcs[idx:]:
            for i in range(1, n + 1):
                if ext_dim(x, y, i, p) != ext_dim(y, x, n + 1 - i, p):
                    bad.append((x, y, i))
    return bad


def hom_serre_mismatches(p: ModelParams, lo: int, hi: int) -> list[tuple[Arc, Arc]]:
    """Pairs violating hom_dim(x, y) == hom_dim(y, serre(x))."""
    arcs = list(admissible_arcs_in(Window(lo, hi), p))
    bad = []
    for x in arcs:
        sx = serre(x, p)
        for y in arcs:
            if hom_dim(x, y, p) != hom_dim(y, sx, p):
                bad.append((x, y))
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


def _random_admissible(rng: random.Random, n: int, lo: int, hi: int) -> Arc | None:
    """Uniform-ish admissible arc with both endpoints in [lo, hi]."""
    for _ in range(64):
        t = rng.randint(lo, hi - 2)
        d0 = 2 if n == 1 else n + 1
        top = (hi - t - d0) // n
        if top < 0:
            continue
        return Arc(t, t + d0 + n * rng.randint(0, top))
    return None


def random_finite_arcs(
    rng: random.Random, p: ModelParams, max_arcs: int, lo: int, hi: int
) -> list[Arc]:
    """Small random admissible arc set within a window."""
    out = set()
    for _ in range(rng.randint(1, max_arcs)):
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
        for _ in range(rng.randint(0, max_arcs - 1)):
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
    kind = rng.randint(0, 4)
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
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
        want = rng.randint(1, 3)
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
        want_f = rng.randint(1, 3)
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


@dataclass
class FuzzReport:
    cases: int = 0
    involution_failures: list = field(default_factory=list)
    image_failures: list = field(default_factory=list)
    cellwalk_failures: list = field(default_factory=list)
    triangle_failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.involution_failures
            or self.image_failures
            or self.cellwalk_failures
            or self.triangle_failures
        )


def run_mutation_fuzz(num_cases: int, seed: int = 0) -> FuzzReport:
    """Randomized agreement run for the whole rotation stack.

    Per case: the rotation image must be admissible and divider-compatible
    (rotate_arc asserts this internally), the inverse rotation must undo it,
    the step rules must match the explicit cell walk at every endpoint of
    both arcs, and the extension-triangle route must certify the move.
    """
    rng = random.Random(seed)
    rep = FuzzReport()
    for _ in range(num_cases):
        p, d, a = random_divider_case(rng)
        rep.cases += 1
        image = rotate_arc(a, d)
        if not is_admissible(image, p) or any(cross(image, b) for b in d.arcs):
            rep.image_failures.append((p.n, d, a, image))
        back = rotate_arc_inverse(image, d)
        if back != a:
            rep.involution_failures.append((p.n, d, a, image, back))
        for arc in (a, image):
            cell = cell_boundary(arc, d.arcs)
            for v in arc:
                if predecessor(v, arc, d) != cell.predecessor(v):
                    rep.cellwalk_failures.append((p.n, d, arc, "pred", v))
                if successor(v, arc, d) != cell.successor(v):
                    rep.cellwalk_failures.append((p.n, d, arc, "succ", v))
        try:
            res = mutation_via_triangle(a, d, p)
            if res.image != image:
                rep.triangle_failures.append((p.n, d, a, "image drift"))
        except TriangleMismatch as exc:
            rep.triangle_failures.append((p.n, d, a, str(exc)))
    return rep
