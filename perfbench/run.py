"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Workloads: ``verify``, ``mutate``, ``oracle``, ``cli`` (see ``workloads.py``
and ``BENCHMARK.json`` for what each stresses and why).  Each runs in this
single process and thread, closed loop, one op in flight (``cli`` runs one
child interpreter at a time).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
untraced for half the time, then with the layer wrappers of
``layertrace.py`` for the other half, and prints the per-layer metrics.  The
untraced path never imports ``layertrace``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``detail:``, records the input sizes, the tail percentile and its
sample count, failures by kind and the line count of ``src/``.  Exit code 2,
with no result, when the checkout lacks the library or its demo inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter

from harness import ROOT, SRC, SetupError, import_seconds, run_units, summarize, timed_setup

# the keys of workloads.WORKLOADS, listed here because importing workloads
# needs the library, which check_checkout looks for first
WORKLOAD_NAMES = ("verify", "mutate", "oracle", "cli")
SETUP_REPS = 11
IMPORT_PROBES = 5


def check_checkout() -> None:
    for rel in ("src/infgon/__init__.py", "demos/example_sets.json"):
        if not (ROOT / rel).is_file():
            raise SetupError(f"{rel} is missing: run this from a checkout of the library")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    check_checkout()
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    wl, first_setup_s = timed_setup(lambda: cls(seed))
    setup_times = [first_setup_s]

    def sample_setup() -> None:
        # Further set-ups between units: the host's speed drifts over tens
        # of seconds, and samples spread over the run see it as the ops do.
        # A copy writes the same files as the workload, which keeps them.
        if len(setup_times) < SETUP_REPS:
            setup_times.append(timed_setup(lambda: cls(seed))[1])

    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "src_lines": src_lines(), "setup_s_each": setup_times}
    try:
        if trace:
            phases, metrics = traced_run(wl, seconds, detail)
        else:
            st = run_units(wl.units(), seconds, between=sample_setup)
            phases = [st]
            fig = summarize(st)
            detail.update(fig)
            metrics = {
                "ops_per_s": (fig["ops_per_s"], "1/s"),
                "op_p50_ms": (fig["op_p50_ms"], "ms"),
                "op_tail_ms": (fig["op_tail_ms"], "ms"),
                "ops_ok_frac": (fig["ops_ok_frac"], "frac"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_rss_mb(children=name == "cli"), "MB"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        detail["inputs"] = wl.inputs()
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    detail["units"] = [st.units for st in phases]
    detail["wall_s"] = [st.wall_s for st in phases]
    detail["errors"] = dict(sum((st.errors for st in phases), Counter()))
    detail["wrong_examples"] = [w for st in phases for w in st.wrong_examples]
    detail["op_p50_ms_by_kind"] = {
        kind: statistics.median(v) * 1000.0 for kind, v in sorted(phases[0].by_kind.items())
    }
    return {
        "detail": detail,
        "result": {
            "correct": all(st.wrong == 0 for st in phases),
            "attempted": sum(st.attempted for st in phases),
            "failed": sum(st.failed for st in phases),
            "metrics": metrics,
        },
    }


def traced_run(wl, seconds: float, detail: dict):
    import layertrace

    base = run_units(wl.units(in_process=True), seconds / 2)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = run_units(wl.units(in_process=True), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    overhead = (traced.busy_s / traced.attempted) / (base.busy_s / base.attempted) - 1.0
    import_ms = statistics.median(import_seconds() for _ in range(IMPORT_PROBES)) * 1000.0
    detail.update(tracer.span_summary())
    detail["layer_moves"] = {name: moves for name, _, _, moves in layertrace.METRICS}
    return [base, traced], tracer.metrics(traced.attempted, overhead, import_ms)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in out["result"]["metrics"].items():
        print(f"{args.workload:8s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    print("detail: " + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
