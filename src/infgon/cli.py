"""Command-line surface.

Exit codes: 0 success / check passed, 1 check failed (witnesses printed),
2 usage or input error.  ``--format json`` emits one report object per run,
validating against :data:`infgon.documents.REPORT_SCHEMA`.

Every command is one row of :data:`COMMANDS`: help text, what it needs,
options (see :func:`_opt`), a handler and the widest ``--window`` it takes.
:func:`main` builds the parser of the one command it runs, not of all twelve.
One shared path, :func:`_run`, validates ``--n``, loads the document, reads
the options, builds the report's ``inputs`` from them plus ``n``, and emits
text or JSON.  A handler ``run(args, ctx)`` only computes a :class:`Report`;
``ctx`` holds the document ``doc``, the modulus ``p``, the window ``w``, the
``arcs`` and, under each set-name option's name, its arc set.

Handlers reach each layer through the package's lazy names
(``infgon.check_pair``), so a command loads only the layers it runs.  At
import this module loads ``arcs``, ``errors`` and ``render``: the benchmark's
layer trace (``perfbench/layertrace.py``) imports ``infgon.cli`` and then
looks ``infgon.render`` up among the loaded modules; once the trace imports
each module it wraps by name, the ``render`` import can go.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import infgon

from .arcs import Arc, ModelParams, cross, normalize
from .errors import InfgonError, PairCheckFailed
from .render import render_svg, render_text

if TYPE_CHECKING:
    from .arcsets import Window
    from .cotorsion import PairReport

_ARC_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")

# Widest accepted --window (HI - LO).  The closures list every admissible arc
# of the window, about width**2 / (2 n) of them, so an unbounded width lets
# one command exhaust memory.
MAX_WINDOW_WIDTH = 1000


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts (4300 by default)
        raise InfgonError(f"a number of {len(digits.lstrip('-'))} digits is too long") from None


def _parse_window(text: str, max_width: int = MAX_WINDOW_WIDTH) -> Window:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    lo, hi = map(_int, m.groups()) if m else (0, 0)
    if lo >= hi:
        raise InfgonError(f"bad window {text!r}; expected LO..HI with LO < HI, e.g. -20..20")
    if hi - lo > max_width:
        raise InfgonError(f"window {text!r} is wider than {max_width}")
    return infgon.Window(lo, hi)


def _parse_arcs(text: str) -> list[Arc]:
    pairs = _ARC_RE.findall(text)
    if not pairs or _ARC_RE.sub("", text).strip(" ,;"):
        raise InfgonError(f"bad arc list {text!r}; expected e.g. \"(2,9) (-1,6)\"")
    arcs = [normalize(_int(t), _int(u)) for t, u in pairs]
    if len(arcs) != 2:
        raise InfgonError(f"expected 2 arcs, got {len(arcs)} in {text!r}")
    return arcs


def _encode_witness(w: object) -> object:
    return [w.t, w.u] if isinstance(w, Arc) else w  # an Arc or an int


def _region_json(reg) -> dict:
    return {
        "points": sorted(reg.points),
        "left_rays": [] if reg.left_max is None else [reg.left_max],
        "right_rays": [] if reg.right_min is None else [reg.right_min],
    }


class Report(NamedTuple):
    """What a handler computed.  A text line is a string, or an ``(ok, label)``
    pair printed as a PASS/FAIL line.  ``inputs`` adds to the declared ones."""

    lines: list
    verdict: bool | None = None
    witnesses: list | tuple = ()
    result: object = None
    details: dict | None = None
    inputs: dict | None = None
    warnings: tuple[str, ...] = ()


def _dim(value: int, arcs: list[Arc]) -> Report:
    x, y = arcs
    return Report([str(value)], result=value, inputs={"x": [*x], "y": [*y]})


def _cross(a, c) -> Report:
    x, y = c.arcs
    res = cross(x, y)
    return Report(["cross" if res else "no-cross"], result=res, inputs={"a": [*x], "b": [*y]})


def _arc_list(arcs: list[Arc]) -> Report:
    return Report([str(a) for a in arcs], result=[[a.t, a.u] for a in arcs])


def _ext(a, c) -> Report:
    return _dim(infgon.ext_dim(*c.arcs, a.degree, c.p), c.arcs)


def _hom(a, c) -> Report:
    return _dim(infgon.hom_dim(*c.arcs, c.p), c.arcs)


def _nc(a, c) -> Report:
    return _arc_list(infgon.nc_window(c.set, c.w))


def _frame(a, c) -> Report:
    return _arc_list(infgon.frame(c.set, c.w))


def _fountains(a, c) -> Report:
    left, right = (_region_json(reg) for reg in infgon.fountain_loci(c.set))
    contra, co = infgon.finiteness_check(c.set)
    return Report(
        [
            f"left-fountains:  {left}",
            f"right-fountains: {right}",
            (contra.ok, "right-fountains inside left-fountains"),
            (co.ok, "left-fountains inside right-fountains"),
        ],
        witnesses=[*contra.witnesses, *co.witnesses],
        result={"left": left, "right": right},
        details={"contravariant_ok": contra.ok, "covariant_ok": co.ok},
    )


def _ptolemy(a, c) -> Report:
    rep = infgon.is_ptolemy_window(c.set, c.w)
    lines = [(rep.ok, f"set {a.set} is a Ptolemy diagram on [{c.w.lo}, {c.w.hi}]")]
    if not rep.ok:
        lines.append("crossing pair {} {} misses corner {}".format(*rep.witnesses))
    return Report(lines, rep.ok, rep.witnesses)


_PAIR_LABELS = {
    "x_equals_nc_y": "X equals nc(Y)",
    "y_equals_nc_x": "Y equals nc(X)",
    "x_contravariant": "right-fountains of X inside left-fountains of X",
    "y_covariant": "left-fountains of Y inside right-fountains of Y",
}


def _pair_report(rep: PairReport, lines: list, label: str, **fields) -> Report:
    """The four conditions as PASS/FAIL lines after ``lines``, then the verdict."""
    conditions = rep.conditions()
    for name, cond in conditions.items():
        lines.append((cond.ok, f"{_PAIR_LABELS[name]} [{cond.mode}]"))
        if not cond.ok:
            lines.append(f"  witnesses: {', '.join(str(w) for w in cond.witnesses[:6])}")
    lines.append((rep.verdict, label))
    details = {
        name: {"ok": c.ok, "mode": c.mode, "witnesses": [_encode_witness(w) for w in c.witnesses]}
        for name, c in conditions.items()
    }
    witnesses = [w for cond in conditions.values() for w in cond.witnesses]
    return Report(lines, rep.verdict, witnesses, details=details, **fields)


def _check_pair(a, c) -> Report:
    rep = infgon.check_pair(c.x, c.y, c.w)
    return _pair_report(rep, [], f"({a.x}, {a.y}) window-certified pair")


def _core(a, c) -> Report:
    return _arc_list(infgon.core(c.x, c.y, c.w))


def _mutate(a, c) -> Report:
    from .documents import arcset_to_json

    if c.d.families:
        raise InfgonError(f"divider set {a.d!r} must be finite (no families)")
    d = infgon.DividerSet(c.p, c.d.explicit)
    try:
        x2, y2, rep = infgon.mutate_pair(c.x, c.y, d, c.w, force=a.force)
    except PairCheckFailed as exc:
        raise InfgonError(
            "pair fails its verification report; pass --force to mutate anyway"
        ) from exc
    shrunk = rep.window
    lines = []
    for name, s in ((a.x, x2), (a.y, y2)):
        lines.append(f"rotated {name} on [{shrunk.lo}, {shrunk.hi}]:")
        lines.extend(f"  {arc}" for arc in infgon.members_in_window(s, shrunk))
    result = {
        "rotated_x": arcset_to_json(x2),
        "rotated_y": arcset_to_json(y2),
        "shrunk_window": [shrunk.lo, shrunk.hi],
    }
    return _pair_report(rep, lines, "mutated pair window-certified", result=result)


def _oracle(a, c) -> Report:
    from . import oracles

    if a.fuzz_cases < 0:
        raise InfgonError(f"--fuzz-cases must be a non-negative integer, got {a.fuzz_cases}")
    lo, hi = c.w.lo, c.w.hi
    cx = oracles.cross_ext_mismatches(c.p, lo, hi)
    sd = oracles.serre_duality_mismatches(c.p, lo, hi)
    hs = oracles.hom_serre_mismatches(c.p, lo, hi)
    fuzz = oracles.run_mutation_fuzz(a.fuzz_cases, a.seed)
    lines = [
        (not cx, f"crossing vs Ext agreement on [{lo}, {hi}] (n={c.p.n})"),
        (not sd, "Ext dimension duality ext(x,y,i) == ext(y,x,n+1-i)"),
        (not hs, "Hom duality hom(x,y) == hom(y, S x)"),
        (fuzz.ok, f"rotation fuzz, {fuzz.cases} cases (seed {a.seed})"),
    ]
    details = {
        "cross_ext_mismatches": len(cx),
        "serre_mismatches": len(sd),
        "hom_serre_mismatches": len(hs),
        "fuzz_cases": fuzz.cases,
        "fuzz_failures": len(fuzz.failures),
    }
    ok = not cx and not sd and not hs and fuzz.ok
    return Report(lines, ok, [arc for pair in cx[:4] for arc in pair], details=details)


def _render(a, c) -> Report:
    names = a.sets.split(",") if a.sets else sorted(c.doc.sets)
    for name in names:
        c.doc.require(name)
    fn = render_svg if a.style == "svg" else render_text
    res = fn(c.doc.sets, names, c.w, a.highlight)
    payload = res.payload.decode("utf-8")
    # the payload ends in a newline, which the text emitter adds back
    return Report([payload[:-1]], result=payload, warnings=res.warnings)


def _opt(flag: str, kind: str = "value", **kw) -> tuple[str, str, dict]:
    """One option: its flag, what the shared path makes of it, and its
    ``argparse`` keywords.  A ``value`` goes into ``inputs`` as given; a
    ``set`` name goes in too and is resolved to its arc set; a ``window`` is
    parsed and goes in as ``[lo, hi]``; ``arcs`` are parsed and left for the
    handler to report."""
    return flag, kind, kw


_ARCS = _opt("--arcs", "arcs", required=True, help='two arcs, e.g. "(2,9) (-1,6)"')
_WINDOW = _opt("--window", "window", required=True)
_SET, _X, _Y = (_opt(flag, "set", required=True) for flag in ("--set", "--x", "--y"))


class Command(NamedTuple):
    help: str
    needs: str | None  # None, "n" (from --n or --input) or "doc" (from --input)
    options: tuple
    run: Callable[..., Report]
    max_width: int = MAX_WINDOW_WIDTH  # widest accepted --window


COMMANDS: dict[str, Command] = {
    "ext": Command("dim Ext^i between two arcs", "n",
                   (_ARCS, _opt("--degree", type=int, required=True)), _ext),
    "hom": Command("dim Hom between two arcs", "n", (_ARCS,), _hom),
    "cross": Command("crossing predicate", None, (_ARCS,), _cross),
    "nc": Command("non-crossing closure on a window", "doc", (_SET, _WINDOW), _nc),
    "fountains": Command("fountain loci and finiteness", "doc", (_SET,), _fountains),
    "frame": Command("members crossing nothing in their set", "doc", (_SET, _WINDOW), _frame),
    "ptolemy": Command("Ptolemy condition on a window", "doc", (_SET, _WINDOW),
                       # the pair loop is quartic in the width: 64 takes about 8 s at n = 1
                       _ptolemy, max_width=64),
    "check-pair": Command("four-condition pair verification", "doc", (_X, _Y, _WINDOW),
                          _check_pair),
    "core": Command("intersection of a pair on a window", "doc", (_X, _Y, _WINDOW), _core),
    "mutate": Command("rotate a verified pair by a divider set", "doc",
                      (_X, _Y, _opt("--d", "set", required=True), _WINDOW,
                       _opt("--force", action="store_true", help="mutate even if the pair fails")),
                      _mutate),
    "oracle": Command("run the brute-force agreement sweeps", "n",
                      (_opt("--window", "window", default="-12..12"),
                       _opt("--fuzz-cases", type=int, default=200),
                       _opt("--seed", type=int, default=0)),
                      # the sweeps are quartic in the width: 64 takes about 17 s at n = 1
                      _oracle, max_width=64),
    "render": Command("draw sets as SVG or a text grid", "doc",
                      (_opt("--sets", help="comma-separated set names (default: all)"),
                       _opt("--highlight", "set", help="set drawn in a distinct stroke"),
                       _WINDOW, _opt("--style", choices=("svg", "text"), default="svg")),
                      _render),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command ``only`` alone; its usage
    still lists them all, so it helps and fails as the full one does."""
    ap = argparse.ArgumentParser(
        prog="infgon",
        description="Arc combinatorics on the infinity-gon: dimensions, "
        "closures, pair verification, rotation mutation.",
    )
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=only and "{" + ",".join(COMMANDS) + "}")
    for name, cmd in COMMANDS.items():
        if only not in (None, name):
            continue
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--input", help="JSON document of named arc sets")
        sp.add_argument("--n", type=int, default=None, help="modulus override")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--out", help="write output to this file instead of stdout")
        for flag, _, kw in cmd.options:
            sp.add_argument(flag, **kw)
    return ap


def _run(name: str, a: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    cmd = COMMANDS[name]
    if a.n is not None and a.n < 1:
        raise InfgonError(f"--n must be a positive integer, got {a.n}")
    c = argparse.Namespace(doc=None, p=None, w=None, arcs=None)
    if a.input:
        c.doc = infgon.parse_document(Path(a.input).read_bytes(), n=a.n)
    elif cmd.needs == "doc" or (cmd.needs == "n" and a.n is None):
        raise InfgonError(
            "this command needs --input FILE" if cmd.needs == "doc"
            else f"{name} needs --n or --input"
        )
    inputs = {}
    if cmd.needs:
        c.p = c.doc.params if c.doc else ModelParams(a.n)
        inputs["n"] = c.p.n
    for flag, kind, _ in cmd.options:
        dest = flag[2:].replace("-", "_")
        value = getattr(a, dest)
        if kind == "arcs":
            c.arcs = _parse_arcs(value)
            continue
        if kind == "set" and value is not None:
            setattr(c, dest, c.doc.require(value))
        elif kind == "window":
            c.w = _parse_window(value, cmd.max_width)
            value = [c.w.lo, c.w.hi]
        inputs[dest] = value
    rep = cmd.run(a, c)
    return _emit(name, a, {**inputs, **(rep.inputs or {})}, rep, t0)


def _verdict_line(ok: bool, label: str, color: bool) -> str:
    word = "PASS" if ok else "FAIL"
    if color:
        word = f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
    return f"{word}: {label}"


def _emit(name: str, a: argparse.Namespace, inputs: dict, rep: Report, t0: float) -> int:
    """Print the report once, honoring --format/--out; return the exit code."""
    if a.format == "json":
        report = {
            "command": name,
            "inputs": inputs,
            "verdict": rep.verdict,
            "witnesses": [_encode_witness(w) for w in rep.witnesses],
            "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        if rep.result is not None:
            report["result"] = rep.result
        if rep.details is not None:
            report["details"] = rep.details
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
        payload = "".join(
            f"{line if isinstance(line, str) else _verdict_line(*line, color)}\n"
            for line in rep.lines
        )
    for warning in rep.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if a.out:
        Path(a.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0 if rep.verdict in (True, None) else 1


def _absorb_window_values(argv: list[str]) -> list[str]:
    """Join ``--window -20..20`` into one token so argparse does not read the
    negative bound as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--window":
            out[-1] = f"--window={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _absorb_window_values(sys.argv[1:] if argv is None else argv)
    # the command's own parser; --help, no command or an unknown one need them all
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return _run(args.command, args)
    except (InfgonError, OSError) as exc:
        print(f"infgon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
