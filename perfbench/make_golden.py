"""Write ``golden.json``, the translate-0 outputs the output checks compare with.

    python3 perfbench/make_golden.py

``verify`` and ``cli`` compare every output with this file moved by the op's
translate, so a wrong result counts as a failed op even when the code under
test produces it the same way at every translate.  Rewrite the file only
when an output is meant to change, and review its diff.  The file also holds
``verify``'s corpus of random family sets, drawn once from ``CORPUS_SEED``
with ``oracles.random_family_rotation_case``.
"""

from __future__ import annotations

import json
import random
import sys

import run


def main() -> int:
    run.check_checkout()
    from infgon import documents

    import workloads

    corpus = [
        {"label": f"random.n{p.n}", "n": p.n, "set": documents.arcset_to_json(s)}
        for p, s, _ in workloads.stratified_rotation_cases(random.Random(workloads.CORPUS_SEED))
    ]
    cases = workloads.verify_cases(workloads.load_demo(), corpus)
    golden = {
        "verify": {
            "corpus_seed": workloads.CORPUS_SEED,
            "corpus": corpus,
            "cases": {
                label: workloads.verify_digest(workloads.verify_call(c.x, c.y, c.w), 0)
                for label, c in cases.items()
            },
        },
        "cli": {},
    }
    for _, argv, kind in workloads.cli_invocations(str(workloads.DEMO), 0):
        code, out = workloads.cli_in_process(argv)
        if kind == "render":
            golden["cli"][kind] = out.decode()
        elif kind != "ext":  # ext must print 1: an absolute check
            report = json.loads(out)
            report.pop("timing_ms")
            golden["cli"][kind] = report
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
