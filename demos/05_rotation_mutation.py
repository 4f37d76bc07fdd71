"""Mutation as rotation of arcs in divider cells.

A non-crossing divider set D cuts the line into cells; rotating an arc moves
each endpoint one step backward along its cell boundary.  Rotating every
member of a verified pair (keeping D itself) produces another verified pair,
and each single rotation is certified by an extension triangle whose middle
summands lie in D.  The script ends by writing the before/after SVG picture.
"""

from pathlib import Path

from infgon import (
    Arc,
    DividerSet,
    Window,
    members_in_window,
    mutate_pair,
    mutation_via_triangle,
    parse_document,
    rotate_arc,
    rotate_arc_inverse,
)
from infgon.render import render_svg

here = Path(__file__).parent
doc = parse_document((here / "example_sets.json").read_bytes())
p = doc.params
d = DividerSet(p, doc.sets["D"].explicit)

print(f"divider set D = {sorted(d.arcs)} (n = {p.n})")
for a in (Arc(-4, 3), Arc(-4, 9), Arc(-7, 6)):
    image = rotate_arc(a, d)
    back = rotate_arc_inverse(image, d)
    print(f"  {a} -> {image} -> back to {back}")

print("\neach rotation is certified by its extension triangle:")
for a in (Arc(-4, 3), Arc(-4, 9)):
    res = mutation_via_triangle(a, d)
    tri = res.via_triangle
    mids = " (+) ".join(str(m) for m in tri.middles()) or "0"
    print(f"  {tri.left} -> {mids} -> {tri.right}")

w = Window(-20, 20)
x2, y2, rep = mutate_pair(doc.sets["X"], doc.sets["Ync"], d, w)
print(f"\nmutated pair verified on [{rep.window.lo}, {rep.window.hi}]: {rep.verdict}")
print(f"  rotated X: {sorted(x2.explicit)}")
print(f"  rotated Ync on the window: {members_in_window(y2, Window(-9, 9))}")

before = render_svg(doc.sets, ["X"], Window(-8, 10), highlight="D")
after = render_svg({"X2": x2, "D": doc.sets["D"]}, ["X2"], Window(-8, 10), highlight="D")
(here / "rotation_before.svg").write_bytes(before.payload)
(here / "rotation_after.svg").write_bytes(after.payload)
print("\nwrote rotation_before.svg and rotation_after.svg")
