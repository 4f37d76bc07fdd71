"""The fault catalogue: slips planted in the library that named tests must catch.

Each entry names a file of the tree, a text that occurs in it exactly once,
the text that replaces it, the pytest node ids (space-separated) of which at
least one must fail on the faulty tree, and a note.  ``python
scripts/faults.py`` plants each fault in a copy of the tree and runs its
selector; ``tests/test_faults.py`` keeps every entry applicable to the
current tree.  A change that plants a fault by hand adds it here; a change
that deletes the code a fault targets deletes the fault.

``EQUIVALENT`` lists mutants that change no behaviour, each with the reason
in its note: they are kept applicable but not run, since no test can fail.
"""

from typing import NamedTuple


class Fault(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    select: str  # pytest node ids, space-separated
    note: str


ARCSETS, FAMILIES = "src/infgon/arcsets.py", "src/infgon/families.py"
MUTATION, HOMS = "src/infgon/mutation.py", "src/infgon/homs.py"
CLI, BENCH_ALL = "src/infgon/cli.py", "scripts/bench_all.py"
COTORSION, REGIONS = "src/infgon/cotorsion.py", "src/infgon/regions.py"
ORACLES = "src/infgon/oracles.py"
LOCI = "tests/test_families.py::test_loci_of_a_set_gather_every_family"
SMALL_WORLD = "tests/test_families.py::test_crossed_heads_match_enumeration_on_a_small_world"
UNION = "tests/test_pieces.py::test_union_gives_the_covered_heads_as_canonical_runs"
PIECES = "tests/test_pieces.py::test_pieces_expand_to_the_kernel_on_every_foot"
XOR = "tests/test_pieces.py::test_xor_gives_the_heads_in_exactly_one_as_runs"
MEET = "tests/test_pieces.py::test_meet_gives_the_heads_in_both_as_canonical_runs"
STEPS = ("tests/test_mutation.py::test_nested_divider_ties "
         "tests/test_mutation.py::test_rotation_kernel_matches_cellwalk_on_divider_cases")
ROTATE = "tests/test_mutation.py::test_rotate_set_matches_pointwise_rotation"
SPLIT = "tests/test_mutation.py::test_family_split_matches_the_frozen_per_kind_rules"
ROUND_TRIP = "tests/test_reflection.py::test_reflected_rotation_undoes_rotate_set"
KERNEL = "tests/test_homs.py::test_kernel_matches_shifted_reference"
STATUS = "tests/test_bench_all.py::test_status_per_metric"
SUBSET = "tests/test_regions.py::test_subset_witness_against_enumeration"
BROKEN_STEP = "tests/test_oracles.py::test_fuzz_reports_a_broken_step"
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
    # the fountain inclusions: the witness walks and the two halves of the check
    Fault(REGIONS, "min(self.left_max, hi - 1)", "min(self.left_max, hi)", SUBSET,
          "uncovered_witness: the left-ray walk starts on other's right ray, a point of other"),
    Fault(REGIONS, "max(self.right_min, lo + 1)", "max(self.right_min, lo)", SUBSET,
          "uncovered_witness: the right-ray walk starts on other's left ray, a point of other"),
    Fault(ARCSETS, '''else (rw,)),
            Condition(lw is None, "exact", () if lw is None else (lw,)))''',
          '''else (lw,)),
            Condition(lw is None, "exact", () if lw is None else (rw,)))''',
          "tests/test_arcsets.py::test_finiteness_examples "
          "tests/test_cli_snapshot.py::test_cli_output_matches_snapshot",
          "finiteness_check: the two witnesses swapped"),
    Fault(COTORSION, "fx[0], fy[1]", "fx[1], fy[0]",
          "tests/test_cotorsion.py::test_half_line_pair_passes "
          "tests/test_pair_runs.py::test_run_comparison_matches_brute_sets",
          "check_pair: the covariant half of x and the contravariant half of y"),
    Fault(COTORSION, "w.lo > min(pts) - n - 2 or w.hi < max(pts) + n + 2",
          "w.lo > min(pts) - n or w.hi < max(pts) + n",
          "tests/test_pair_runs.py::test_verdict_on_the_narrowest_guarded_window_holds_on_wider_ones",
          "check_pair: the guard's margin n, not n + 2, admits a window whose verdict a wider "
          "one overturns"),
    # frame, the double closure and mutate_pair's input checks
    Fault(ARCSETS, "plan.meet(plan.members(s), plan.closure(s))",
          "plan.meet(plan.members(s), plan.members(s))",
          "tests/test_arcsets.py::test_frame_examples "
          "tests/test_closure_queries.py::test_frame_matches_brute",
          "frame: the member rows met with themselves, not with the closure's"),
    Fault(ARCSETS, "bound = Window(min(pts) - (n + 2), max(pts) + (n + 2))",
          "bound = Window(min(pts) - 1, max(pts) + 1)",
          "tests/test_closure_queries.py::test_double_closure_matches_brute[4]",
          "double_nc_extras: the hull margin 1, not n + 2, so a crossing arc of nc s "
          "past the hull is missed"),
    Fault(MUTATION, "not (w.lo <= b.t and b.u <= w.hi and", "not (",
          "tests/test_mutation.py::test_mutate_pair_rejects_divider_outside_core",
          "mutate_pair: a divider outside the window passes the core test"),
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
    # the piece plan: exact spans, samples and the recurrence that continues them
    Fault(ARCSETS, "spans.append((t, t + 2 * n, a - n - 1))\n                ex = a - n\n",
          "spans.append((t, t + 2 * n, a - n))\n                ex = a - n + 1\n", PIECES,
          "_Pieces.of: exact spans [a - n + 1, a], one foot short"),
    Fault(ARCSETS, "            t = a + 1\n", "            t = a\n", PIECES,
          "_Pieces.of: exact spans [a - n, a - 1], the anchor's foot a sample"),
    Fault(ARCSETS, "spans.append((t, t + 2 * n, a - n - 1))", "spans.append((t, t + n, a - n - 1))",
          PIECES, "_Pieces.of: one sample foot per residue class, not two"),
    Fault(ARCSETS, "out[t] = [(2 * a - c, 2 * b - d)", "out[t] = [(2 * a - c, 2 * b - d + n)",
          PIECES, "_piece_runs: each continued stop drifts one head"),
    Fault(ARCSETS, "for t in lhs.keys() | rhs.keys() if", "for t in lhs.keys() if", PIECES,
          "difference: the feet where only the right-hand rows have runs are not XORed"),
    Fault(ARCSETS, "zip(cuts[::2], cuts[1::2]) if a < b]", "zip(cuts[::2], cuts[1::2])]", XOR,
          "_xor: empty runs (a, a) kept (no listing changes; the runs stop being canonical)"),
    Fault(ARCSETS, "        if a < b:\n            out.append((a, b))",
          "        if a <= b:\n            out.append((a, b))", MEET,
          "_meet: empty runs (a, a) kept (no listing changes; the runs stop being canonical)"),
    # the rotation steps: which divider an endpoint walks along
    Fault(MUTATION, "                return heads[i]\n", "                return heads[-1]\n",
          STEPS, "_pred: the outermost enclosing divider (v, r), not the innermost"),
    Fault(MUTATION, "            return feet[i]\n", "            return feet[-1]\n", STEPS,
          "_pred: the innermost divider (q, v) the arc is outside of, not the outermost"),
    Fault(MUTATION, "                return feet[i - 1]\n", "                return feet[0]\n",
          STEPS, "_succ: the outermost enclosing divider (q, v), not the innermost"),
    Fault(MUTATION, "            return heads[i - 1]\n", "            return heads[0]\n", STEPS,
          "_succ: the innermost divider (v, r) the arc is outside of, not the outermost"),
    # _rotate_family: the fans a family splits into near the dividers
    Fault(MUTATION, "top = max(hi, first - 1) + n + 2", "top = max(hi, first - 1)", ROTATE,
          "_rotate_family: a right fan's explicit members end without the n + 2 margin"),
    Fault(MUTATION, "RightFan(_pred(p, top, d), top)", "RightFan(p - 1, top)", ROTATE,
          "_rotate_family: a right fan's anchor steps to p - 1, past the dividers"),
    Fault(MUTATION, "LeftFan(_pred(p, bottom, d), bottom - 2)", "LeftFan(p - 1, bottom - 2)",
          ROTATE, "_rotate_family: a left fan's anchor steps to p - 1, past the dividers"),
    Fault(MUTATION, "LeftFan(_pred(p, bottom, d), bottom - 2)",
          "LeftFan(_pred(p, bottom, d), bottom - 2 - n)", ROUND_TRIP,
          "_rotate_family: a left fan's cap n too low, so the set round trip loses members"),
    Fault(MUTATION, "(v - 1 for v in family_scalars(f))", "(v for v in family_scalars(f))",
          ROTATE, "_shifted: a family far from the dividers does not step back"),
    Fault(MUTATION, "s_max = t1 if u1 is not None else min(t1, a - 1)", "s_max = t1", SPLIT,
          "_rotate_family: the left fans' feet not capped below the right fans' "
          "(members duplicated, so only the frozen split rules see it)"),
    # the records behind the rotation: the divider set and the fuzz report
    Fault(MUTATION, '''                if cross(a, b):
                    raise IncompatibleArc(f"divider arcs {a} and {b} cross")
''', "                pass\n", "tests/test_mutation.py::test_divider_validation",
          "DividerSet: crossing divider arcs accepted"),
    Fault(ORACLES, "for kind in self[1:] for f in kind]",
          "for kind in self[1:3] + self[4:] for f in kind]", BROKEN_STEP,
          "FuzzReport.failures: the cellwalk failures dropped"),
    Fault(ORACLES, "for kind in self[1:] for f in kind]", "for kind in self[2:] for f in kind]",
          "tests/test_records.py::test_fuzz_report_gathers_every_failure_kind",
          "FuzzReport.failures: the involution failures dropped"),
    Fault(ORACLES, "return not self.failures", "return True", BROKEN_STEP,
          "FuzzReport.ok: always true"),
    # homs: the Ext^1 classification
    Fault(HOMS, "r + 1 <= u <= s - n:", "r + 1 <= u <= s - n + 1:", KERNEL,
          "_ext1: the same-component head bound one too high"),
    Fault(HOMS, "and s + 1 <= u:", "and s + 2 <= u:", KERNEL,
          "_ext1: the next-component case misses the head s + 1"),
    Fault(HOMS, "_ext1(x, y, i - 1, p)", "_ext1(x, y, i, p)", KERNEL,
          "ext_dim: the degree shift one too far"),
    Fault(HOMS, "return self is not ExtKind.ZERO", "return self is ExtKind.ZERO",
          "tests/test_homs.py::test_ext1_case_values", "ExtKind.nonzero inverted"),
    # exit codes and the bench verdict
    Fault(CLI, "return 0 if rep.verdict in (True, None) else 1",
          "return 0 if rep.verdict in (True, False, None) else 1",
          "tests/test_cli.py::test_check_pair_exit_codes", "cli: a failed check exits 0"),
    Fault(CLI, "except (InfgonError, OSError) as exc:", "except InfgonError as exc:",
          "tests/test_cli.py::test_usage_and_input_errors",
          "cli: a missing --input file raises, not exit 2"),
    Fault(BENCH_ALL, " and min(ours) <= max(base):", ":", STATUS,
          "bench_all.status: unresolved even when every change run beats every parent run"),
    Fault(BENCH_ALL, "< -bound * abs(", "< -2 * bound * abs(", STATUS,
          "bench_all.status: the worse bound doubled"),
]

# Mutants that no test can catch, and why; ``select`` is empty.  A tie in a
# rotation step's bisection means the stepped arc is a divider: the kernel
# rejects those before it steps, and ``_rotate_family`` steps only arcs that
# reach past the divider hull.
EQUIVALENT = [
    Fault(MUTATION, "            i = bisect_left(heads, other)\n",
          "            i = bisect_right(heads, other)\n", "",
          "_pred: the ties differ only at a head r = other, where the arc (v, r) is a divider"),
    Fault(MUTATION, "else bisect_left(feet, other)", "else bisect_right(feet, other)", "",
          "_pred: the ties differ only at a foot q = other, where the arc (q, v) is a divider"),
    Fault(MUTATION, "            i = bisect_right(feet, other)\n",
          "            i = bisect_left(feet, other)\n", "",
          "_succ: the ties differ only at a foot q = other, where the arc (q, v) is a divider"),
    Fault(MUTATION, "else bisect_right(heads, other)", "else bisect_left(heads, other)", "",
          "_succ: the ties differ only at a head r = other, where the arc (v, r) is a divider"),
    Fault(ARCSETS, "if p[i][1] < q[j][1] else", "if p[i][1] <= q[j][1] else", "",
          "_meet: on equal stops either run may advance first; the other then meets the "
          "next run, which starts past that stop, in nothing"),
    Fault(ARCSETS, "bound = Window(min(pts) - (n + 2), max(pts) + (n + 2))",
          "bound = Window(min(pts) - (n + 1), max(pts) + (n + 1))", "",
          "double_nc_extras: margin n + 1; the docstring's argument needs only the heads "
          "in (M, M + n] and, mirrored, the feet in [m - n, m), so any margin of at least n "
          "lists the same crossing arcs"),
]
