"""The non-crossing closure, fountains, and symbolic infinite sets.

The closure of a set is everything that crosses none of it.  Closures are
infinite, so they are represented symbolically: finitely many explicit arcs
plus fan / band / half-line families with exact membership and crossing
tests.  Fountains (vertices carrying infinitely many set members on one
side) decide the finiteness conditions and are computed from the families in
closed form.
"""

from infgon import (
    Arc,
    ArcSet,
    Band,
    HalfLeft,
    HalfRight,
    ModelParams,
    RightFan,
    Window,
    contains,
    finiteness_check,
    fountain_loci,
    frame,
    members_in_window,
    nc_window,
)

p = ModelParams(3)
x = ArcSet.of(p, [Arc(-4, 3), Arc(-4, 6)])
w = Window(-12, 12)

print(f"closure of {sorted(x.explicit)} on [{w.lo}, {w.hi}]:")
closure = nc_window(x, w)
print("  " + " ".join(str(a) for a in closure))

print("\nthe same set, written symbolically (exact, not windowed):")
y = ArcSet.of(
    p,
    [Arc(-3, 1), Arc(-2, 2), Arc(-1, 3)],
    [RightFan(-4, 0), Band(-5, 6), HalfLeft(-4), HalfRight(6)],
)
for fam in y.families:
    print(f"  {fam}")
print(f"  plus explicit {sorted(y.explicit)}")
assert set(closure) == set(members_in_window(y, w))
print("  (matches the enumeration on the window)")

print(f"\nmembership is decided symbolically: (-4, 300) in closure: {contains(y, Arc(-4, 300))}")

left, right = fountain_loci(y)
print("\nfountain loci of the closure:")
for label, reg in (("left-fountains: ", left), ("right-fountains:", right)):
    rays = [[] if v is None else [v] for v in (reg.left_max, reg.right_min)]
    print(f"  {label} points {sorted(reg.points)}, rays {rays[0]} / {rays[1]}")
contra, co = finiteness_check(y)
print(f"  right-inside-left (contravariant): {contra.ok}")
print(f"  left-inside-right (covariant):     {co.ok}")

print(f"\nframe of the closure (members crossing nothing in it): {frame(y, w)}")
