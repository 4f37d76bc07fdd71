"""Command-line surface.

Exit codes: 0 success / check passed, 1 check failed (witnesses printed),
2 usage or input error.  ``--format json`` emits one report object per run,
validating against :data:`infgon.documents.REPORT_SCHEMA`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

from .arcs import Arc, ModelParams, cross
from .arcsets import (
    Window,
    finiteness_check,
    fountain_loci,
    frame,
    is_ptolemy_window,
    members_in_window,
    nc_window,
)
from .cotorsion import PairReport, check_pair, core
from .documents import Document, arcset_to_json, parse_document
from .errors import InfgonError, PairCheckFailed
from .homs import ext_dim, hom_dim
from .mutation import DividerSet, mutate_pair
from .oracles import (
    cross_ext_mismatches,
    hom_serre_mismatches,
    run_mutation_fuzz,
    serre_duality_mismatches,
)
from .render import render_svg, render_text

_ARC_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def _parse_window(text: str) -> Window:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m or int(m.group(1)) >= int(m.group(2)):
        raise InfgonError(f"bad window {text!r}; expected LO..HI with LO < HI, e.g. -20..20")
    return Window(int(m.group(1)), int(m.group(2)))


def _parse_arcs(text: str, count: int | None = None) -> list[Arc]:
    pairs = _ARC_RE.findall(text)
    if not pairs or _ARC_RE.sub("", text).strip(" ,;"):
        raise InfgonError(f"bad arc list {text!r}; expected e.g. \"(2,9) (-1,6)\"")
    arcs = [Arc(int(t), int(u)) if int(t) < int(u) else Arc(int(u), int(t)) for t, u in pairs]
    if count is not None and len(arcs) != count:
        raise InfgonError(f"expected {count} arcs, got {len(arcs)} in {text!r}")
    return arcs


def _load_document(args: argparse.Namespace) -> Document:
    if not args.input:
        raise InfgonError("this command needs --input FILE")
    return parse_document(Path(args.input).read_bytes(), n=args.n)


def _encode_witness(w: object) -> object:
    if isinstance(w, Arc):
        return [w.t, w.u]
    if isinstance(w, tuple):
        return [x for item in w for x in _encode_witness(item)]  # flatten pairs
    return w


def _region_json(reg) -> dict:
    return {
        "points": sorted(reg.points),
        "left_rays": sorted(reg.left_rays),
        "right_rays": sorted(reg.right_rays),
    }


def _pair_report_details(rep: PairReport) -> dict:
    return {
        name: {
            "ok": cond.ok,
            "mode": cond.mode,
            "witnesses": [_encode_witness(w) for w in cond.witnesses],
        }
        for name, cond in rep.conditions().items()
    }


class _Out:
    """Collects the report and prints it once, honoring --format/--out."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.fmt = args.format
        self.out = args.out
        self.t0 = time.perf_counter()
        self.lines: list[str] = []
        self.color = (
            self.fmt == "text" and sys.stdout.isatty() and not os.environ.get("NO_COLOR")
        )

    def text(self, line: str) -> None:
        self.lines.append(line)

    def verdict_line(self, ok: bool, label: str) -> None:
        word = "PASS" if ok else "FAIL"
        if self.color:
            word = f"\x1b[32m{word}\x1b[0m" if ok else f"\x1b[31m{word}\x1b[0m"
        self.lines.append(f"{word}: {label}")

    def emit(
        self,
        inputs: dict,
        verdict: bool | None,
        witnesses: list | None = None,
        result: object = None,
        details: dict | None = None,
    ) -> int:
        if self.fmt == "json":
            report = {
                "command": self.command,
                "inputs": inputs,
                "verdict": verdict,
                "witnesses": [_encode_witness(w) for w in (witnesses or [])],
                "timing_ms": round((time.perf_counter() - self.t0) * 1000.0, 3),
            }
            if result is not None:
                report["result"] = result
            if details is not None:
                report["details"] = details
            payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            payload = "\n".join(self.lines) + "\n" if self.lines else ""
        if self.out:
            Path(self.out).write_text(payload)
        else:
            sys.stdout.write(payload)
        return 0 if verdict in (True, None) else 1


def _cmd_ext(args) -> int:
    out = _Out("ext", args)
    p = ModelParams(args.n)
    x, y = _parse_arcs(args.arcs, 2)
    dim = ext_dim(x, y, args.degree, p)
    out.text(str(dim))
    return out.emit(
        {"n": args.n, "x": [*x], "y": [*y], "degree": args.degree}, None, result=dim
    )


def _cmd_hom(args) -> int:
    out = _Out("hom", args)
    p = ModelParams(args.n)
    x, y = _parse_arcs(args.arcs, 2)
    dim = hom_dim(x, y, p)
    out.text(str(dim))
    return out.emit({"n": args.n, "x": [*x], "y": [*y]}, None, result=dim)


def _cmd_cross(args) -> int:
    out = _Out("cross", args)
    a, b = _parse_arcs(args.arcs, 2)
    res = cross(a, b)
    out.text("cross" if res else "no-cross")
    return out.emit({"a": [*a], "b": [*b]}, None, result=res)


def _cmd_nc(args) -> int:
    out = _Out("nc", args)
    doc = _load_document(args)
    s = doc.require(args.set)
    w = _parse_window(args.window)
    arcs = nc_window(s, w)
    for a in arcs:
        out.text(str(a))
    return out.emit(
        {"set": args.set, "window": [w.lo, w.hi], "n": doc.params.n},
        None,
        result=[[a.t, a.u] for a in arcs],
    )


def _cmd_fountains(args) -> int:
    out = _Out("fountains", args)
    doc = _load_document(args)
    s = doc.require(args.set)
    left, right = fountain_loci(s)
    fin = finiteness_check(s)
    out.text(f"left-fountains:  {_region_json(left)}")
    out.text(f"right-fountains: {_region_json(right)}")
    out.verdict_line(fin.contravariant_ok, "right-fountains inside left-fountains")
    out.verdict_line(fin.covariant_ok, "left-fountains inside right-fountains")
    witnesses = [w for w in (fin.contravariant_witness, fin.covariant_witness) if w is not None]
    return out.emit(
        {"set": args.set, "n": doc.params.n},
        None,
        witnesses,
        result={"left": _region_json(left), "right": _region_json(right)},
        details={
            "contravariant_ok": fin.contravariant_ok,
            "covariant_ok": fin.covariant_ok,
        },
    )


def _cmd_frame(args) -> int:
    out = _Out("frame", args)
    doc = _load_document(args)
    s = doc.require(args.set)
    w = _parse_window(args.window)
    arcs = frame(s, w)
    for a in arcs:
        out.text(str(a))
    return out.emit(
        {"set": args.set, "window": [w.lo, w.hi], "n": doc.params.n},
        None,
        result=[[a.t, a.u] for a in arcs],
    )


def _cmd_ptolemy(args) -> int:
    out = _Out("ptolemy", args)
    doc = _load_document(args)
    s = doc.require(args.set)
    w = _parse_window(args.window)
    rep = is_ptolemy_window(s, w)
    out.verdict_line(rep.ok, f"set {args.set} is a Ptolemy diagram on [{w.lo}, {w.hi}]")
    witnesses = []
    if not rep.ok:
        out.text(f"crossing pair {rep.pair[0]} {rep.pair[1]} misses corner {rep.missing}")
        witnesses = [rep.pair[0], rep.pair[1], rep.missing]
    return out.emit(
        {"set": args.set, "window": [w.lo, w.hi], "n": doc.params.n}, rep.ok, witnesses
    )


def _pair_text(out: _Out, rep: PairReport) -> None:
    labels = {
        "x_equals_nc_y": "X equals nc(Y)",
        "y_equals_nc_x": "Y equals nc(X)",
        "x_contravariant": "right-fountains of X inside left-fountains of X",
        "y_covariant": "left-fountains of Y inside right-fountains of Y",
    }
    for name, cond in rep.conditions().items():
        out.verdict_line(cond.ok, f"{labels[name]} [{cond.mode}]")
        if not cond.ok:
            shown = ", ".join(str(w) for w in cond.witnesses[:6])
            out.text(f"  witnesses: {shown}")


def _cmd_check_pair(args) -> int:
    out = _Out("check-pair", args)
    doc = _load_document(args)
    x, y = doc.require(args.x), doc.require(args.y)
    w = _parse_window(args.window)
    rep = check_pair(x, y, w)
    _pair_text(out, rep)
    out.verdict_line(rep.verdict, f"({args.x}, {args.y}) window-certified pair")
    witnesses = [w for cond in rep.conditions().values() for w in cond.witnesses]
    return out.emit(
        {"x": args.x, "y": args.y, "window": [w.lo, w.hi], "n": doc.params.n},
        rep.verdict,
        witnesses,
        details=_pair_report_details(rep),
    )


def _cmd_core(args) -> int:
    out = _Out("core", args)
    doc = _load_document(args)
    x, y = doc.require(args.x), doc.require(args.y)
    w = _parse_window(args.window)
    arcs = core(x, y, w)
    for a in arcs:
        out.text(str(a))
    return out.emit(
        {"x": args.x, "y": args.y, "window": [w.lo, w.hi], "n": doc.params.n},
        None,
        result=[[a.t, a.u] for a in arcs],
    )


def _cmd_mutate(args) -> int:
    out = _Out("mutate", args)
    doc = _load_document(args)
    x, y = doc.require(args.x), doc.require(args.y)
    d_set = doc.require(args.d)
    if d_set.families:
        raise InfgonError(f"divider set {args.d!r} must be finite (no families)")
    d = DividerSet(doc.params, d_set.explicit)
    w = _parse_window(args.window)
    try:
        x2, y2, rep = mutate_pair(x, y, d, w, force=args.force)
    except PairCheckFailed as exc:
        raise InfgonError(
            "pair fails its verification report; pass --force to mutate anyway"
        ) from exc
    shrunk = w.shrink(d.span() + 1)
    out.text(f"rotated {args.x} on [{shrunk.lo}, {shrunk.hi}]:")
    for a in members_in_window(x2, shrunk):
        out.text(f"  {a}")
    out.text(f"rotated {args.y} on [{shrunk.lo}, {shrunk.hi}]:")
    for a in members_in_window(y2, shrunk):
        out.text(f"  {a}")
    _pair_text(out, rep)
    out.verdict_line(rep.verdict, "mutated pair window-certified")
    witnesses = [w for cond in rep.conditions().values() for w in cond.witnesses]
    return out.emit(
        {
            "x": args.x,
            "y": args.y,
            "d": args.d,
            "window": [w.lo, w.hi],
            "n": doc.params.n,
            "force": bool(args.force),
        },
        rep.verdict,
        witnesses,
        result={
            "rotated_x": arcset_to_json(x2),
            "rotated_y": arcset_to_json(y2),
            "shrunk_window": [shrunk.lo, shrunk.hi],
        },
        details=_pair_report_details(rep),
    )


def _cmd_oracle(args) -> int:
    out = _Out("oracle", args)
    p = ModelParams(args.n)
    w = _parse_window(args.window)
    cx = cross_ext_mismatches(p, w.lo, w.hi)
    sd = serre_duality_mismatches(p, w.lo, w.hi)
    hs = hom_serre_mismatches(p, w.lo, w.hi)
    fuzz = run_mutation_fuzz(args.fuzz_cases, args.seed)
    out.verdict_line(not cx, f"crossing vs Ext agreement on [{w.lo}, {w.hi}] (n={args.n})")
    out.verdict_line(not sd, "Ext dimension duality ext(x,y,i) == ext(y,x,n+1-i)")
    out.verdict_line(not hs, "Hom duality hom(x,y) == hom(y, S x)")
    out.verdict_line(fuzz.ok, f"rotation fuzz, {fuzz.cases} cases (seed {args.seed})")
    ok = not cx and not sd and not hs and fuzz.ok
    witnesses = [a for pair in cx[:4] for a in pair]
    return out.emit(
        {
            "n": args.n,
            "window": [w.lo, w.hi],
            "fuzz_cases": args.fuzz_cases,
            "seed": args.seed,
        },
        ok,
        witnesses,
        details={
            "cross_ext_mismatches": len(cx),
            "serre_mismatches": len(sd),
            "hom_serre_mismatches": len(hs),
            "fuzz_cases": fuzz.cases,
            "fuzz_failures": len(fuzz.involution_failures)
            + len(fuzz.image_failures)
            + len(fuzz.cellwalk_failures)
            + len(fuzz.triangle_failures),
        },
    )


def _cmd_render(args) -> int:
    doc = _load_document(args)
    names = args.sets.split(",") if args.sets else sorted(doc.sets)
    for name in names + ([args.highlight] if args.highlight else []):
        doc.require(name)
    w = _parse_window(args.window)
    fn = render_svg if args.style == "svg" else render_text
    res = fn(doc.sets, names, w, args.highlight)
    for warning in res.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out:
        Path(args.out).write_bytes(res.payload)
    else:
        sys.stdout.buffer.write(res.payload)
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", help="JSON document of named arc sets")
    sp.add_argument("--n", type=int, default=None, help="modulus override")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="infgon",
        description="Arc combinatorics on the infinity-gon: dimensions, "
        "closures, pair verification, rotation mutation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        _add_common(sp)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("ext", _cmd_ext, help="dim Ext^i between two arcs")
    sp.add_argument("--arcs", required=True, help='two arcs, e.g. "(2,9) (-1,6)"')
    sp.add_argument("--degree", type=int, required=True)

    sp = add("hom", _cmd_hom, help="dim Hom between two arcs")
    sp.add_argument("--arcs", required=True)

    sp = add("cross", _cmd_cross, help="crossing predicate")
    sp.add_argument("--arcs", required=True)

    sp = add("nc", _cmd_nc, help="non-crossing closure on a window")
    sp.add_argument("--set", required=True)
    sp.add_argument("--window", required=True)

    sp = add("fountains", _cmd_fountains, help="fountain loci and finiteness")
    sp.add_argument("--set", required=True)

    sp = add("frame", _cmd_frame, help="members crossing nothing in their set")
    sp.add_argument("--set", required=True)
    sp.add_argument("--window", required=True)

    sp = add("ptolemy", _cmd_ptolemy, help="Ptolemy condition on a window")
    sp.add_argument("--set", required=True)
    sp.add_argument("--window", required=True)

    sp = add("check-pair", _cmd_check_pair, help="four-condition pair verification")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--window", required=True)

    sp = add("core", _cmd_core, help="intersection of a pair on a window")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--window", required=True)

    sp = add("mutate", _cmd_mutate, help="rotate a verified pair by a divider set")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--d", required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--force", action="store_true", help="mutate even if the pair fails")

    sp = add("oracle", _cmd_oracle, help="run the brute-force agreement sweeps")
    sp.add_argument("--window", default="-12..12")
    sp.add_argument("--fuzz-cases", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("render", _cmd_render, help="draw sets as SVG or a text grid")
    sp.add_argument("--sets", help="comma-separated set names (default: all)")
    sp.add_argument("--highlight", help="set drawn in a distinct stroke")
    sp.add_argument("--window", required=True)
    sp.add_argument("--style", choices=("svg", "text"), default="svg")

    return ap


def _absorb_window_values(argv: list[str]) -> list[str]:
    """Join ``--window -20..20`` into one token so argparse does not read the
    negative bound as an option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--window":
            val = next(it, None)
            out.append(tok if val is None else f"--window={val}")
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(_absorb_window_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.n is not None and args.n < 1:
            raise InfgonError(f"--n must be a positive integer, got {args.n}")
        if args.command in ("ext", "hom", "oracle") and args.n is None:
            if not args.input:
                raise InfgonError(f"{args.command} needs --n or --input")
            args.n = _load_document(args).params.n
        return args.fn(args)
    except (InfgonError, OSError) as exc:
        print(f"infgon: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
