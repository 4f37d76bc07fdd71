"""Per-layer trace: wrappers on the names callers resolve in ``infgon``.

Only a traced run imports this module.  :meth:`Tracer.install` replaces, in
every loaded ``infgon`` module that binds it, each traced public function
with a wrapper, and each traced method on its class; :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` is edited.

Three kinds of wrapper:

* *counted* names only count calls (``cross``, ``require_admissible``,
  ``rotate_arc``, ``Arc()``), because they run millions of times per op and a
  span each would cost more than the call;
* *timed* names keep a call count and self time, the span's duration minus
  the time its timed children cover, through a stack of open frames;
* timed names marked ``keep`` also store their span ``(id, parent id, name,
  start, end)`` in memory until the run ends.  Hot timed names
  (``crossed_by``, ``crosses_set``, ``ext1_case`` ...) are aggregated only, so
  memory stays bounded.

The wrappers record only inside :meth:`Tracer.root`, the span the runner
opens around each op, so input generation and output checks are not counted.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (name, unit, better, the end-to-end metric it should move and where).
# Calls and self times are per attempted op of the traced run; explicit_out
# and families_out are the largest rotated set the run produced.
METRICS = [
    ("arcs.cross.calls", "count/op", "lower", "op_p50_ms on verify and mutate; ops_per_s on oracle"),
    ("arcs.Arc.calls", "count/op", "lower", "op_p50_ms on verify and mutate; ops_per_s on oracle"),
    ("arcs.require_admissible.calls", "count/op", "lower",
     "op_p50_ms on verify and mutate; ops_per_s on oracle"),
    ("families.crossed_by.calls", "count/op", "lower", "op_p50_ms on verify"),
    ("families.crossed_by.self_ms", "ms/op", "lower", "op_p50_ms on verify"),
    ("families.members_in.self_ms", "ms/op", "lower", "op_p50_ms on verify"),
    ("arcsets.crosses_set.calls", "count/op", "lower", "verify and mutate; oracle unchanged"),
    ("arcsets.crosses_set.self_ms", "ms/op", "lower", "verify and mutate; oracle unchanged"),
    ("arcsets.nc_window.self_ms", "ms/op", "lower", "verify and mutate; oracle unchanged"),
    ("arcsets.members_in_window.self_ms", "ms/op", "lower", "verify and mutate; oracle unchanged"),
    ("arcsets.candidates", "count/op", "lower", "verify and mutate; oracle unchanged"),
    ("arcsets.nc_keep_ratio", "ratio", "higher", "verify and mutate; oracle unchanged"),
    ("arcsets.finiteness_check.self_ms", "ms/op", "lower", "verify (expected negligible)"),
    ("regions.IntRegion.uncovered_witness.self_ms", "ms/op", "lower",
     "verify (expected negligible)"),
    ("cotorsion.check_pair.self_ms", "ms/op", "lower", "verify and mutate"),
    ("cotorsion.core.self_ms", "ms/op", "lower", "verify and mutate"),
    ("mutation.rotate_set.calls", "count/op", "lower", "mutate"),
    ("mutation.rotate_set.self_ms", "ms/op", "lower", "mutate"),
    ("mutation.mutate_pair.self_ms", "ms/op", "lower", "mutate"),
    ("mutation.rotate_arc.calls", "count/op", "lower", "mutate"),
    ("mutation.explicit_out", "count", "lower", "op_p50_ms, peak_rss_mb and ops_ok_frac on mutate"),
    ("mutation.families_out", "count", "lower", "op_p50_ms, peak_rss_mb and ops_ok_frac on mutate"),
    ("homs.ext1_case.calls", "count/op", "lower", "oracle"),
    ("homs.ext1_case.self_ms", "ms/op", "lower", "oracle"),
    ("homs.hom_dim.self_ms", "ms/op", "lower", "oracle"),
    ("cellwalk.walk_predecessor.self_ms", "ms/op", "lower", "oracle"),
    ("cellwalk.walk_successor.self_ms", "ms/op", "lower", "oracle"),
    ("oracles.run_mutation_fuzz.self_ms", "ms/op", "lower", "oracle"),
    ("cli.import_ms", "ms", "lower", "cli and setup_s"),
    ("documents.parse_document.self_ms", "ms/op", "lower", "cli and setup_s"),
    ("render.render_svg.self_ms", "ms/op", "lower", "cli and setup_s"),
    ("cli.main.self_ms", "ms/op", "lower", "cli and setup_s"),
    ("trace_overhead_frac", "frac", "lower", "none: traced mean op time over untraced, minus 1"),
]

# Timed names: (module, attribute, keep spans).
TIMED = [
    ("arcsets", "crosses_set", False),
    ("arcsets", "nc_window", True),
    ("arcsets", "members_in_window", True),
    ("arcsets", "finiteness_check", True),
    ("cotorsion", "check_pair", True),
    ("cotorsion", "core", True),
    ("mutation", "rotate_set", True),
    ("mutation", "mutate_pair", True),
    ("homs", "ext1_case", False),
    ("homs", "hom_dim", False),
    ("cellwalk", "walk_predecessor", False),
    ("cellwalk", "walk_successor", False),
    ("oracles", "run_mutation_fuzz", True),
    ("oracles", "cross_ext_mismatches", True),
    ("oracles", "serre_duality_mismatches", True),
    ("oracles", "hom_serre_mismatches", True),
    ("documents", "parse_document", True),
    ("render", "render_svg", True),
    ("cli", "main", True),
]
COUNTED = [("arcs", "cross"), ("arcs", "require_admissible"), ("mutation", "rotate_arc")]
_COUNTED_KEYS = {f"{m}.{a}" for m, a in COUNTED} | {"arcs.Arc"}


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # open frames: [child seconds, nearest kept span id]
        self._ids = iter(range(1, sys.maxsize))
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def root(self, kind: str, fn):
        """Run one op inside a kept root span; wrappers record only here."""
        self.on = True
        try:
            return self._timed(f"op.{kind}", fn, keep=True)()
        finally:
            self.on = False

    def _timed(self, name: str, fn, keep: bool, on_result=None):
        tracer, stack, clock = self, self._stack, time.perf_counter
        calls, self_s, spans, ids = self.calls, self.self_s, self.spans, self._ids

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else 0
            sid = next(ids) if keep else parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_iter(self, name: str, fn):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.on:
                    counts[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _materialized(self, fn):
        """A generator function as one call: the span covers the whole
        enumeration, which every caller consumes anyway."""

        def run(*args, **kwargs):
            return iter(list(fn(*args, **kwargs)))

        return run

    # --- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_name(self, modname: str, attr: str, make, only_home: bool = False) -> None:
        home = sys.modules[f"infgon.{modname}"]
        orig = getattr(home, attr)
        wrapped = make(orig)
        mods = [home] if only_home else [
            m for name, m in sorted(sys.modules.items())
            if (name == "infgon" or name.startswith("infgon.")) and m is not None
        ]
        for m in mods:
            if m.__dict__.get(attr) is orig:
                self._set(m, attr, wrapped)

    def install(self) -> None:
        import infgon.cli  # noqa: F401  (loads every layer)
        from infgon import arcs, families, regions

        for mod, attr in COUNTED:
            self._patch_name(mod, attr, lambda f, key=f"{mod}.{attr}": self._counted(key, f))
        on_results = {
            "nc_window": lambda r: self.counts.update({"arcsets.nc_kept": len(r)}),
            "rotate_set": self._record_rotation,
        }
        for mod, attr, keep in TIMED:
            on_result = on_results.get(attr)
            self._patch_name(
                mod, attr,
                lambda f, key=f"{mod}.{attr}", keep=keep, cb=on_result: self._timed(key, f, keep, cb),
            )
        # the closures' candidate enumeration, as resolved inside arcsets only
        self._patch_name(
            "arcsets", "admissible_arcs_in",
            lambda f: self._counted_iter("arcsets.candidates", f), only_home=True,
        )
        arc_new = arcs.Arc.__dict__["__new__"].__func__
        self._set(arcs.Arc, "__new__", staticmethod(self._counted("arcs.Arc", arc_new)))
        for cls in (families.LeftFan, families.RightFan, families.Band,
                    families.HalfLeft, families.HalfRight):
            self._set(cls, "crossed_by",
                      self._timed("families.crossed_by", cls.__dict__["crossed_by"], keep=False))
            self._set(cls, "members_in", self._timed(
                "families.members_in", self._materialized(cls.__dict__["members_in"]), keep=True))
        self._set(regions.IntRegion, "uncovered_witness", self._timed(
            "regions.IntRegion.uncovered_witness",
            regions.IntRegion.__dict__["uncovered_witness"], keep=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _record_rotation(self, result) -> None:
        self.peaks["mutation.explicit_out"] = max(
            self.peaks["mutation.explicit_out"], len(result.explicit))
        self.peaks["mutation.families_out"] = max(
            self.peaks["mutation.families_out"], len(result.families))

    # --- reporting ------------------------------------------------------------

    def metrics(self, ops: int, overhead_frac: float, import_ms: float) -> dict:
        values = {}
        for name, _, _, _ in METRICS:
            base, _, what = name.rpartition(".")
            if what == "calls":
                values[name] = (self.counts if base in _COUNTED_KEYS else self.calls)[base] / ops
            elif what == "self_ms":
                values[name] = self.self_s[base] * 1000.0 / ops
        cand = self.counts["arcsets.candidates"]
        values["arcsets.candidates"] = cand / ops
        values["arcsets.nc_keep_ratio"] = self.counts["arcsets.nc_kept"] / cand if cand else 0.0
        values["mutation.explicit_out"] = float(self.peaks["mutation.explicit_out"])
        values["mutation.families_out"] = float(self.peaks["mutation.families_out"])
        values["cli.import_ms"] = import_ms
        values["trace_overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in METRICS}

    def span_summary(self) -> dict:
        roots = sum(1 for _, parent, _, _, _ in self.spans if parent == 0)
        return {"spans_kept": len(self.spans), "root_spans": roots}

