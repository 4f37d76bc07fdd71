"""Closed-loop op runner, latency statistics and set-up timing.

One client, one op in flight: the next op starts only after the previous
one returned and its output was checked.  A workload hands the runner
*units*, each an iterator of :class:`Op`; the runner stops at the first unit
boundary after the time budget, so every measured run contains whole units
and the op mix does not depend on where the clock ran out.

Only ``Op.run`` is timed.  Output checks run between ops, outside the timed
region.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or inputs)."""


@dataclass(eq=False)
class Op:
    """One timed call into the library.

    ``check`` returns None when the output is right and a one-line reason
    otherwise.  The runner stores the output in ``result``, the exception in
    ``error`` and the check's verdict in ``reason``, so a unit that chains
    ops (a mutation orbit) can read them.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    result: object = None
    error: BaseException | None = None
    reason: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.error is None and self.reason is None


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    units: int = 0
    ok_latencies_s: list[float] = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    wrong_examples: list[str] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def run_units(
    units: Iterable[Iterator[Op]],
    seconds: float,
    tracer=None,
    between: Callable[[], None] | None = None,
) -> RunStats:
    """Run whole units until ``seconds`` of wall time have passed.

    An op fails if it raises or if its check returns a reason; a failed op
    is counted, never dropped.  ``tracer`` (traced runs only) wraps each op in
    a root span; it records nothing outside that span, so input generation
    and output checks never reach the layer figures.  ``between`` runs after
    every unit but the last, outside the op timings.
    """
    st = RunStats()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    for unit in units:
        for op in unit:
            t0 = clock()
            try:
                if tracer is None:
                    op.result = op.run()
                else:
                    op.result = tracer.root(op.kind, op.run)
            except Exception as exc:  # an op failure is data, not a crash
                dt = clock() - t0
                op.error = exc
                st.attempted += 1
                st.failed += 1
                st.busy_s += dt
                st.errors[type(exc).__name__] += 1
                continue
            dt = clock() - t0
            st.attempted += 1
            st.busy_s += dt
            try:
                reason = op.check(op.result)
            except Exception as exc:  # a check that cannot even read the output
                reason = f"check raised {type(exc).__name__}: {exc}"
            op.reason = reason
            if reason is not None:
                st.failed += 1
                st.wrong += 1
                if len(st.wrong_examples) < 5:
                    st.wrong_examples.append(f"{op.kind}: {reason}")
            else:
                st.ok_latencies_s.append(dt)
                st.by_kind.setdefault(op.kind, []).append(dt)
        st.units += 1
        if clock() >= deadline:
            break
        if between is not None:
            between()
    st.wall_s = clock() - start
    return st


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, by nearest rank.  With ten samples or fewer
    the maximum is returned with the count of samples beyond it (zero)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def summarize(st: RunStats) -> dict:
    """End-to-end figures of one untraced run, in the units the output uses."""
    if not st.ok_latencies_s:
        raise SetupError(f"no op succeeded ({dict(st.errors)}; {st.wrong_examples})")
    value, pct, beyond = tail(st.ok_latencies_s)
    return {
        # over the time spent in ops: the checks between ops are the
        # benchmark's work, not the library's
        "ops_per_s": st.ok / st.busy_s,
        "op_p50_ms": statistics.median(st.ok_latencies_s) * 1000.0,
        "op_tail_ms": value * 1000.0,
        "ops_ok_frac": st.ok / st.attempted,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(st.ok_latencies_s),
    }


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NO_COLOR"] = "1"
    return env


_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import infgon.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def import_seconds() -> float:
    """Time to import ``infgon.cli`` in a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def timed_setup(build: Callable[[], object]) -> tuple[object, float]:
    """Set the workload up once: import the library in a fresh interpreter,
    then generate the inputs and load the references in this process.
    Returns the workload and the set-up time."""
    imp = import_seconds()
    t0 = time.perf_counter()
    wl = build()
    return wl, imp + time.perf_counter() - t0
