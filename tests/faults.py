"""The fault catalogue: slips planted in the library that named tests must catch.

Each entry names a file of the tree, a text that occurs in it exactly once,
the text that replaces it, the pytest node ids (space-separated) of which at
least one must fail on the faulty tree, and a note.  ``python
scripts/faults.py`` plants each fault in a copy of the tree and runs its
selector; ``tests/test_faults.py`` keeps every entry applicable to the
current tree.  A change that plants a fault by hand adds it here; a change
that deletes the code a fault targets deletes the fault.
"""

from typing import NamedTuple


class Fault(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    select: str  # pytest node ids, space-separated
    note: str


ARCSETS, FAMILIES = "src/infgon/arcsets.py", "src/infgon/families.py"
LOCI = "tests/test_families.py::test_loci_of_a_set_gather_every_family"
SMALL_WORLD = "tests/test_families.py::test_crossed_heads_match_enumeration_on_a_small_world"
UNION = "tests/test_pieces.py::test_union_gives_the_covered_heads_as_canonical_runs"
WINDOW_COST = ("tests/test_pieces.py::test_verdict_and_core_cost_no_more_on_a_wider_window "
               "tests/test_pieces.py::test_failing_verdict_costs_no_more_on_a_wider_window")

FAULTS = [
    # fountain_loci: the one reading of the boxes
    Fault(ARCSETS, "((left, u0, u1, t0), (right, t0, t1, u1))",
          "((left, u0, u1, u1), (right, t0, t1, t0))", LOCI,
          "fountain_loci: the two sides' conditions swapped (t0 is None <-> u1 is None)"),
    Fault(ARCSETS, "points.extend(range(lo, hi + 1))", "points.extend(range(lo, hi))", LOCI,
          "fountain_loci: a bounded interval loses its last point (a fan's only one)"),
    Fault(ARCSETS, "points.extend(range(lo, hi + 1))", "pass", LOCI,
          "fountain_loci: the points of bounded intervals dropped"),
    # _Boxed.crossed_heads: the two crossing cases read off the box
    Fault(FAMILIES, "            x = _first_from(x, u1 - 1, n)\n", "            pass\n",
          SMALL_WORLD, "crossed_heads: the foot residue step of a single head dropped"),
    Fault(FAMILIES, "                y = _first_from(y, t0 + 1, n)\n", "                pass\n",
          SMALL_WORLD, "crossed_heads: the head residue step of a single foot dropped"),
    Fault(FAMILIES, "if (t0 is None or t0 < t) and", "if (t0 is None or t0 <= t) and",
          SMALL_WORLD, "crossed_heads: the second case taken at t = t0"),
    Fault(FAMILIES, "(u1 is None or t < u1):", "(u1 is None or t <= u1):",
          SMALL_WORLD, "crossed_heads: the second case taken at t = u1"),
    Fault(FAMILIES, "None if u1 is None else u1 - 1),)", "None if u1 is None else u1),)",
          SMALL_WORLD, "crossed_heads: the first case reaches the head u1"),
    Fault(FAMILIES, "out = ((x + 1, None", "out = ((x + 2, None",
          SMALL_WORLD, "crossed_heads: the first case misses the head x + 1"),
    Fault(FAMILIES, "if t1 is None or x <= t1:", "if t1 is None or x < t1:",
          SMALL_WORLD, "crossed_heads: the first case misses the last member foot"),
    # arcsets._union: the one interval union of both kernels
    Fault(ARCSETS, "            u = _first_from(b + 1, t + 1, n)\n",
          "            u = _first_from(b, t + 1, n)\n",
          UNION, "_union: the open run ends on b's residue head, not past it"),
    Fault(ARCSETS,
          "        if a > u:  # no interval covers u: close the open run, start one at a\n"
          "            if first < u:\n"
          "                runs.append((first, u))\n"
          "            first = u = _first_from(a, t + 1, n)\n",
          "", WINDOW_COST,
          "_union: an uncovered gap is not closed; the window-cost tests must fail on "
          "their narrow window, not list a wrong answer on the wide one "
          "(the union test catches it too)"),
    Fault(ARCSETS,
          "            u = _first_from(b + 1, t + 1, n)\n    if first",
          "            u = _first_from(b + 1, t + 1, n)\n"
          "            runs.append((first, u))\n"
          "            first = u\n    if first",
          UNION, "_union: the open run closed after every covering interval, so "
          "adjacent runs are not merged (only the member kernel sees it)"),
]
