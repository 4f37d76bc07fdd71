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
The file then holds both sides and, per workload and metric, in how many
pairs this checkout did better (by the direction ``BENCHMARK.json`` gives)
and a ``status``: ``worse`` when the change's median is worse than the
parent's by more than the metric's bound, ``unresolved`` when the parent's
interquartile spread exceeds the bound (relative to its median) and not
every change run beats every parent run, else ``ok``.

Both sides run as a fresh checkout does: before the first run the bytecode
cached under each checkout's ``src/`` is removed, and every run sets
``PYTHONDONTWRITEBYTECODE=1``, so each interpreter compiles the library
modules it imports, and only those, as in a new checkout.  A leftover
cache would skew ``setup_s`` and ``cli`` between checkouts: on a 2-vCPU guest
(Python 3.11.7), importing every module of ``infgon`` took 69-89 ms without
cached bytecode and 35-55 ms with it.  ``PYTHONPYCACHEPREFIX`` is not used,
because it would make the standard library recompile too.

Exit code 1 when any run is not ``correct`` or fails to produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
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
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "correct": False, "error": proc.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    return {"seed": seed, "correct": result["correct"], "metrics": metrics}


def clear_bytecode(checkout: Path) -> None:
    """Remove every ``__pycache__`` directory under the checkout's ``src/``."""
    for cache in [p for p in (checkout / "src").rglob("__pycache__") if p.is_dir()]:
        shutil.rmtree(cache)


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


def end_to_end() -> list[dict]:
    """The end-to-end metrics ``BENCHMARK.json`` declares: name, direction, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def wins(change: list[dict], parent: list[dict]) -> dict:
    """Per metric, the pairs in which the change did better than the parent."""
    out = {}
    for m in end_to_end():
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        pairs = [(c["metrics"][name], p["metrics"][name]) for c, p in zip(change, parent)
                 if "metrics" in c and "metrics" in p]
        out[name] = sum(1 for c, p in pairs if sign * (c - p) > 0)
    return out


def status(change: list[dict], parent: list[dict]) -> dict:
    """Per metric, ``worse``, ``unresolved`` or ``ok`` (see the module docstring)."""
    mine, theirs = summary(change), summary(parent)
    out = {}
    for m in end_to_end():
        name, sign, bound = m["name"], 1 if m["better"] == "higher" else -1, m["bound"]
        if name not in mine or name not in theirs:
            out[name] = "unresolved"
            continue
        c, p = mine[name]["median"], theirs[name]
        ours = [sign * r["metrics"][name] for r in change if "metrics" in r]
        base = [sign * r["metrics"][name] for r in parent if "metrics" in r]
        if sign * (c - p["median"]) < -bound * abs(p["median"]):
            out[name] = "worse"
        elif p["q3"] - p["q1"] > bound * abs(p["median"]) and min(ours) <= max(base):
            out[name] = "unresolved"
        else:
            out[name] = "ok"
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
        clear_bytecode(checkout)
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
        report["status"] = {w: status(mine[w], theirs[w]) for w in mine}
    out = a.out or ROOT / f"BENCH_{a.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    every = [r for runs in (mine, theirs) for rs in runs.values() for r in rs]
    return 0 if all(r["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
