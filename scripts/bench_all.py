"""Run every benchmark workload and write the results to ``BENCH_<label>.json``.

    python scripts/bench_all.py --label local
    python scripts/bench_all.py --label local --pairs 6 --baseline ../parent-checkout

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a checkout, one process at a time.  The file records, per
workload, every run's end-to-end metrics, their median and quartiles, and
whether every run was ``correct``, together with the checkout's git revision
and the line count of its ``src/``.

With ``--baseline DIR`` each workload runs ``--pairs`` times on both
checkouts, alternating which runs first, pair ``i`` on seed ``--seed + i``.
The file then holds both sides and, per metric, in how many pairs this
checkout did better (by the direction ``BENCHMARK.json`` gives).

Before the first run, each checkout's ``src/`` is compiled with
``compileall`` (``PYTHONDONTWRITEBYTECODE`` unset for that step), so that no
side pays for recompiling modules at import.  On a 2-vCPU guest (Python
3.11.7), importing ``infgon.cli`` took 69-89 ms without cached bytecode and
35-55 ms with it, a gap that skews ``setup_s`` and ``cli`` between checkouts.

Exit code 1 when any run is not ``correct`` or fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify", "mutate", "oracle", "cli")


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its ``correct`` flag and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "correct": False, "error": proc.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    return {"seed": seed, "correct": result["correct"], "metrics": metrics}


def compile_src(checkout: Path) -> None:
    """Write the bytecode of the checkout's ``src/``, whatever the environment
    says about writing bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, env=env,
                   check=True)


def describe(checkout: Path) -> dict:
    rev = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                         capture_output=True, text=True).stdout.strip()
    lines = sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))
    return {"revision": rev or None, "src_lines": lines}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs that gave one."""
    done = [r["metrics"] for r in runs if "metrics" in r]
    out = {}
    for name in done[0] if done else ():
        values = sorted(m[name] for m in done)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return out


def side(checkout: Path, runs: dict[str, list[dict]]) -> dict:
    return {
        **describe(checkout),
        "workloads": {
            w: {"correct": all(r["correct"] for r in rs), "summary": summary(rs), "runs": rs}
            for w, rs in runs.items()
        },
    }


def wins(change: list[dict], parent: list[dict]) -> dict:
    """Per metric, the pairs in which the change did better than the parent."""
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {}
    for name, direction in better.items():
        pairs = [(c["metrics"][name], p["metrics"][name]) for c, p in zip(change, parent)
                 if "metrics" in c and "metrics" in p]
        sign = 1 if direction == "higher" else -1
        out[name] = sum(1 for c, p in pairs if sign * (c - p) > 0)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=1, help="runs per workload and checkout")
    ap.add_argument("--baseline", type=Path, help="a checkout to measure alternately")
    ap.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the repo root")
    a = ap.parse_args(argv)
    here, base = ROOT, a.baseline.resolve() if a.baseline else None
    for checkout in (here, base) if base else (here,):
        compile_src(checkout)
    mine: dict[str, list[dict]] = {}
    theirs: dict[str, list[dict]] = {}
    for w in WORKLOADS:
        mine[w], theirs[w] = [], []
        for i in range(a.pairs):
            seed = a.seed + i
            order = [(here, mine)] if base is None else [(here, mine), (base, theirs)]
            for checkout, runs in order if i % 2 == 0 else order[::-1]:
                run = bench(checkout, w, seed, a.seconds)
                runs[w].append(run)
                print(f"{w:7s} seed {seed:<5d} {checkout.name:12.12s} {json.dumps(run)}",
                      file=sys.stderr)
    report = {
        "label": a.label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": a.seconds,
        "python": sys.version.split()[0],
        "change": side(here, mine),
    }
    if base is not None:
        report["parent"] = side(base, theirs)
        report["change_wins"] = {w: wins(mine[w], theirs[w]) for w in mine}
    out = a.out or ROOT / f"BENCH_{a.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    every = [r for runs in (mine, theirs) for rs in runs.values() for r in rs]
    return 0 if all(r["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
