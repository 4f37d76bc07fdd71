"""Static rendering: SVG number-line diagrams and per-component text grids.

Output is byte-deterministic for fixed input: arcs are drawn sorted by
``(t, u)`` and every coordinate is an integer (20 px per unit, semicircle
radii in whole pixels since arc spans are whole units).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import infgon

from .arcs import Arc, component
from .errors import WindowTooSmall

# ``infgon.cli`` loads this module, so it reaches ``arcsets`` by ``infgon``'s lazy names
if TYPE_CHECKING:
    from .arcsets import ArcSet, Window

__all__ = ["RenderResult", "render_svg", "render_text"]

SCALE = 20
PAD = 30


@dataclass(frozen=True)
class RenderResult:
    payload: bytes
    warnings: tuple[str, ...] = ()


def _gather(
    sets: dict[str, ArcSet], names: list[str], w: Window
) -> tuple[list[Arc], tuple[str, ...]]:
    visible: set[Arc] = set()
    warnings = []
    for name in names:
        s = sets[name]
        members = infgon.members_in_window(s, w)
        if not members and (s.explicit or s.families):
            if s.families:
                warnings.append(
                    f"set {name!r}: no members inside [{w.lo}, {w.hi}], "
                    "but its families extend beyond the window"
                )
            else:
                raise WindowTooSmall(
                    f"set {name!r} has no member inside [{w.lo}, {w.hi}]"
                )
        visible.update(members)
    return sorted(visible), tuple(warnings)


def render_svg(
    sets: dict[str, ArcSet],
    names: list[str],
    w: Window,
    highlight: str | None = None,
) -> RenderResult:
    """Number line with integer ticks and one semicircle per visible arc."""
    contains = infgon.contains
    arcs, warnings = _gather(sets, names, w)
    hl = sets[highlight] if highlight is not None else None
    max_r = max((a.u - a.t for a in arcs), default=2) * SCALE // 2
    base = PAD + max_r
    width = (w.hi - w.lo) * SCALE + 2 * PAD
    height = base + PAD

    def x(v: int) -> int:
        return PAD + (v - w.lo) * SCALE

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{x(w.lo)}" y1="{base}" x2="{x(w.hi)}" y2="{base}" '
        'stroke="#000000" stroke-width="1"/>',
    ]
    for v in range(w.lo, w.hi + 1):
        lines.append(
            f'<line x1="{x(v)}" y1="{base - 3}" x2="{x(v)}" y2="{base + 3}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x(v)}" y="{base + 16}" font-size="10" '
            f'font-family="monospace" text-anchor="middle">{v}</text>'
        )
    for a in arcs:
        r = (a.u - a.t) * SCALE // 2
        is_hl = hl is not None and contains(hl, a)
        stroke = "#cc2222" if is_hl else "#000000"
        width_px = 3 if is_hl else 2
        lines.append(
            f'<path d="M {x(a.t)} {base} A {r} {r} 0 0 1 {x(a.u)} {base}" '
            f'fill="none" stroke="{stroke}" stroke-width="{width_px}"/>'
        )
    lines.append("</svg>")
    return RenderResult(("\n".join(lines) + "\n").encode("utf-8"), warnings)


def render_text(
    sets: dict[str, ArcSet],
    names: list[str],
    w: Window,
    highlight: str | None = None,
) -> RenderResult:
    """Fixed-width grid: one row per quiver component, arcs in order."""
    contains = infgon.contains
    arcs, warnings = _gather(sets, names, w)
    params = sets[names[0]].params if names else None
    hl = sets[highlight] if highlight is not None else None
    out = [f"window [{w.lo}, {w.hi}]  sets: {' '.join(names)}"]
    if params is not None:
        cell = max([len(str(a)) for a in arcs], default=8) + 1
        for k in range(params.n):
            row = [a for a in arcs if component(a, params) == k]
            marked = [
                (str(a) + ("*" if hl is not None and contains(hl, a) else ""))
                for a in row
            ]
            out.append(
                f"component {k}: " + "".join(m.ljust(cell + 1) for m in marked).rstrip()
            )
    if hl is not None:
        out.append("(* = highlighted)")
    return RenderResult(("\n".join(out) + "\n").encode("utf-8"), warnings)
