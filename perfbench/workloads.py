"""The four workloads: seeded inputs, timed ops and their output checks.

Every input comes from ``random.Random(seed)``, apart from the fixed corpus
of random family sets in ``verify``, which is stored in ``golden.json``; the
library only ever sees the generated values.  Library entry points are looked
up on their modules at call time (``cotorsion.check_pair``, not a name bound
at import), so the layer trace can wrap them after the inputs exist.

Translates keep the window with them (``[lo + k, hi + k]``), so an op on a
translate does exactly the work of the untranslated op, and its output must
be the committed translate-0 output of ``golden.json`` moved by ``k``.  The
references are never computed by the code under test.  ``make_golden.py``
wrote that file; ``mutate`` and ``oracle`` need no stored outputs, since
their checks are absolute (pointwise ``rotate_arc``, empty sweeps).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys

from harness import ROOT, Op, SetupError, child_env

from infgon import arcs, arcsets, cli, cotorsion, documents, mutation, oracles

DEMO = ROOT / "demos" / "example_sets.json"
GOLDEN = ROOT / "perfbench" / "golden.json"
WORK_DIR = ROOT / ".perfbench-work"


def load_demo() -> documents.Document:
    if not DEMO.is_file():
        raise SetupError(f"missing demo document {DEMO.relative_to(ROOT)}")
    return documents.parse_document(DEMO.read_bytes())


def load_golden() -> dict:
    if not GOLDEN.is_file():
        raise SetupError(f"missing reference outputs {GOLDEN.relative_to(ROOT)}")
    return json.loads(GOLDEN.read_text())


# --- translation --------------------------------------------------------------


def shift_arc(a, k: int):
    return arcs.Arc(a.t + k, a.u + k)


def shift_family(f, k: int):
    # every family field is a position on the line, so all of them move
    return type(f)(*(getattr(f, fl.name) + k for fl in dataclasses.fields(f)))


def shift_set(s, k: int):
    return arcsets.ArcSet.of(
        s.params, [shift_arc(a, k) for a in s.explicit], [shift_family(f, k) for f in s.families]
    )


def shift_window(w, k: int):
    return arcsets.Window(w.lo + k, w.hi + k)


def set_size(s) -> dict:
    return {"explicit": len(s.explicit), "families": len(s.families)}


def family_scalars(f) -> list[int]:
    return [getattr(f, fl.name) for fl in dataclasses.fields(f)]


def moved(obj, k: int):
    """A JSON output moved by ``k``: every integer but ``n`` is a position."""
    if isinstance(obj, bool) or not isinstance(obj, (int, list, dict)):
        return obj
    if isinstance(obj, int):
        return obj + k
    if isinstance(obj, list):
        return [moved(x, k) for x in obj]
    return {key: v if key == "n" else moved(v, k) for key, v in obj.items()}


def moved_svg(svg: str, k: int) -> str:
    """An SVG rendering moved by ``k``: only the tick labels change."""
    return re.sub(r">(-?\d+)</text>", lambda m: f">{int(m.group(1)) + k}</text>", svg)


# --- verify -------------------------------------------------------------------


@dataclasses.dataclass
class PairCase:
    """One check_pair input at translate 0, with its reference outputs."""

    label: str
    x: object
    y: object
    w: object
    expect_verdict: bool | None = None  # absolute expectation, when one is known
    expect_cov_witness: int | None = None
    ref: dict | None = None  # verify_digest of the translate-0 output, from golden.json

    def at(self, k: int) -> Op:
        x, y, w = shift_set(self.x, k), shift_set(self.y, k), shift_window(self.w, k)
        return Op(f"verify.{self.label}", lambda: verify_call(x, y, w), lambda out: self.check(out, k))

    def check(self, out, k: int) -> str | None:
        rep, core, nc = out
        if self.expect_verdict is not None and rep.verdict != self.expect_verdict:
            return f"verdict {rep.verdict} at translate {k}, expected {self.expect_verdict}"
        if self.expect_cov_witness is not None:
            want = (self.expect_cov_witness + k,)
            if rep.y_covariant.witnesses != want:
                return f"covariance witnesses {rep.y_covariant.witnesses}, expected {want}"
        got = verify_digest(out, k)
        if got["summary"] != self.ref["summary"]:
            return f"summary {got['summary']} differs from golden.json moved by {k}"
        if got["sha256"] != self.ref["sha256"]:
            return f"witnesses, core or nc_window differ from golden.json moved by {k}"
        return None


def verify_call(x, y, w):
    return cotorsion.check_pair(x, y, w), cotorsion.core(x, y, w), arcsets.nc_window(y, w)


def verify_digest(out, k: int) -> dict:
    """A ``verify_call`` output at translate ``k`` moved back to translate 0,
    in the form golden.json stores: verdicts, modes and list lengths in
    clear, and a SHA-256 of every witness, core arc and ``nc_window`` arc.
    Lists are hashed in sorted order, since their order carries no meaning."""
    rep, core, nc = out

    def canon(items) -> list:
        return sorted((moved(list(x) if isinstance(x, tuple) else x, -k) for x in items),
                      key=json.dumps)

    conds = {name: (c.ok, c.mode, canon(c.witnesses)) for name, c in rep.conditions().items()}
    full = {"conditions": conds, "core": canon(core), "nc": canon(nc)}
    blob = json.dumps(full, sort_keys=True, separators=(",", ":")).encode()
    return {
        "summary": {
            "conditions": {name: [ok, mode, len(w)] for name, (ok, mode, w) in conds.items()},
            "core": len(core),
            "nc": len(nc),
        },
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def corpus_set(entry: dict):
    """A random family set of golden.json's corpus, parsed as a document."""
    doc = json.dumps({"n": entry["n"], "sets": {"S": entry["set"]}})
    return documents.parse_document(doc).require("S")


# Half-widths of the verify windows: ROADMAP's window-width axis.
WIDTHS = (80, 160)


def verify_cases(doc, corpus: list[dict]) -> dict[str, PairCase]:
    """The demo pairs at every width and the corpus sets at the first one."""
    x, y_lit, y_nc = doc.require("X"), doc.require("Y"), doc.require("Ync")
    cases = {}
    for wd in WIDTHS:
        w = arcsets.Window(-wd, wd)
        cases[f"pass@{wd}"] = PairCase(f"pass@{wd}", x, y_nc, w, expect_verdict=True)
        cases[f"fail@{wd}"] = PairCase(f"fail@{wd}", x, y_lit, w, False, -4)
    small = arcsets.Window(-WIDTHS[0], WIDTHS[0])
    for entry in corpus:
        label = f"{entry['label']}@{WIDTHS[0]}"
        s = corpus_set(entry)
        cases[label] = PairCase(label, s, s, small)
    return cases


def stratified_rotation_cases(rng: random.Random, moduli=(1, 2, 3, 4)) -> list:
    """One ``random_family_rotation_case`` per modulus, in that order."""
    found: dict[int, tuple] = {}
    while len(found) < len(moduli):
        p, x, d = oracles.random_family_rotation_case(rng)
        if p.n in moduli and p.n not in found:
            found[p.n] = (p, x, d)
    return [found[n] for n in moduli]


# The random family sets of ``verify`` were drawn once from this seed and
# are stored in golden.json; the workload seed only moves them.  Their cost
# differs threefold from one draw to the next (n, family kinds), so drawing
# them from the workload seed made throughput a property of the seed rather
# than of the code.
CORPUS_SEED = 0


class Verify:
    """``check_pair`` + ``core`` + ``nc_window`` on the demo pairs and random
    family sets; one unit is one cycle of ten ops."""

    name = "verify"

    def __init__(self, seed: int, max_translate: int = 40, pool: int = 8):
        rng = random.Random(seed)
        golden = load_golden()["verify"]
        self.cases = verify_cases(load_demo(), golden["corpus"])
        for label, case in self.cases.items():
            if label not in golden["cases"]:
                raise SetupError(f"golden.json has no reference for verify case {label}")
            case.ref = golden["cases"][label]
        # a cycle: four demo ops at the small width, two at the large one and
        # the four random sets, each at its own seeded translate
        small, large = WIDTHS
        labels = [f"pass@{small}", f"fail@{small}"] * 2 + [f"pass@{large}", f"fail@{large}"]
        self.random = [c for label, c in self.cases.items() if label.startswith("random.")]
        chosen = [self.cases[label] for label in labels] + self.random
        self.cycles = [
            [(c, rng.randint(-max_translate, max_translate)) for c in chosen] for _ in range(pool)
        ]
        self.max_translate = max_translate

    def units(self, in_process: bool = False):
        for cycle in itertools.cycle(self.cycles):
            yield (case.at(k) for case, k in cycle)

    def inputs(self) -> dict:
        demo = self.cases[f"pass@{WIDTHS[0]}"]
        return {
            "n": demo.x.params.n,
            "window_half_widths": list(WIDTHS),
            "max_translate": self.max_translate,
            "demo_x": set_size(demo.x),
            "demo_y": set_size(self.cases[f"fail@{WIDTHS[0]}"].y),
            "demo_ync": set_size(demo.y),
            "random_sets": [{"n": c.x.params.n, **set_size(c.x)} for c in self.random],
            "random_corpus_seed": CORPUS_SEED,
            "ops_per_cycle": len(self.cycles[0]),
        }


# --- mutate -------------------------------------------------------------------


def rotation_mismatch(src, d, got) -> str | None:
    """Compare a rotated set with pointwise ``rotate_arc`` on its members.

    A rotation moves an endpoint by at most span(D) (a jump along a divider
    arc) or by one, so every member of ``got`` inside ``inner`` has its
    preimage inside ``outer`` and the comparison on ``inner`` is exact.
    """
    n = src.params.n
    ends = [e for a in d.arcs for e in a]
    pts = list(ends)
    for s in (src, got):
        pts += [e for a in s.explicit for e in a]
        for f in s.families:
            pts += family_scalars(f)
    span = max(ends) - min(ends)
    pad = span + 2 * (n + 2) + 4
    outer = arcsets.Window(min(pts) - pad, max(pts) + pad)
    inner = arcsets.Window(outer.lo + span + 2, outer.hi - span - 2)
    images = {mutation.rotate_arc(m, d) for m in arcsets.members_in_window(src, outer) if m not in d.arcs}
    images |= d.arcs
    want = sorted(a for a in images if inner.lo <= a.t and a.u <= inner.hi)
    have = arcsets.members_in_window(got, inner)
    if want != have:
        diff = sorted(set(want) ^ set(have))
        return f"rotation differs from pointwise rotate_arc on [{inner.lo}, {inner.hi}]: {diff[:4]}"
    return None


@dataclasses.dataclass
class OrbitStart:
    label: str
    x: object
    y: object
    d: object
    w: object


class Mutate:
    """Orbits of ``mutate_pair`` from translates of the demo pair, plus
    ``rotate_set`` on random family sets.  One unit is one orbit followed by
    two rotations.  Orbits come in rounds that use each divider choice once,
    in seeded order, so any three consecutive orbits cover all three.

    An orbit runs until a step raises or ``MAX_ORBIT`` steps succeed.  On
    today's code every orbit on [-80, 80] ends when step 11 raises
    ``WindowTooSmall``: that raise is a failed op, and neither the window nor
    the orbit length is chosen to avoid it.
    """

    name = "mutate"
    D_CHOICES = {"D43": [(-4, 3)], "D46": [(-4, 6)], "D43+46": [(-4, 3), (-4, 6)]}
    MAX_ORBIT = 40

    def __init__(self, seed: int, half_width: int = 80, max_translate: int = 40, rounds: int = 4):
        rng = random.Random(seed)
        doc = load_demo()
        x, y = doc.require("X"), doc.require("Ync")
        p = doc.params
        self.rounds = []
        for _ in range(rounds):
            labels = list(self.D_CHOICES)
            rng.shuffle(labels)
            starts = []
            for label in labels:
                k = rng.randint(-max_translate, max_translate)
                d = mutation.DividerSet.of(p, [arcs.Arc(t + k, u + k) for t, u in self.D_CHOICES[label]])
                w = arcsets.Window(-half_width + k, half_width + k)
                starts.append(OrbitStart(label, shift_set(x, k), shift_set(y, k), d, w))
            self.rounds.append(starts)
        self.rotations = [(s, d) for _, s, d in stratified_rotation_cases(rng) * 2]
        rng.shuffle(self.rotations)
        self.half_width = half_width
        self.orbit_lengths: list[int] = []
        self.growth: dict[str, list[list[int]]] = {}

    def units(self, in_process: bool = False):
        rots = itertools.cycle(self.rotations)
        for start in itertools.cycle(itertools.chain.from_iterable(self.rounds)):
            yield self._orbit(start, [next(rots), next(rots)])

    def _orbit(self, start: OrbitStart, rotations):
        x, y, d, w = start.x, start.y, start.d, start.w
        growth = [[len(y.explicit), len(y.families)]]
        steps = 0
        while steps < self.MAX_ORBIT:
            op = Op(
                f"mutate.step.{start.label}",
                lambda x=x, y=y: mutation.mutate_pair(x, y, d, w),
                lambda out, x=x, y=y: self._check_step(x, y, d, out),
            )
            yield op
            steps += 1
            if not op.succeeded:
                break
            x, y, _ = op.result
            growth.append([len(y.explicit), len(y.families)])
        self.orbit_lengths.append(steps)
        self.growth.setdefault(start.label, growth)
        for s, dd in rotations:
            yield Op(
                "mutate.rotate_set",
                lambda s=s, dd=dd: mutation.rotate_set(s, dd),
                lambda out, s=s, dd=dd: rotation_mismatch(s, dd, out),
            )

    @staticmethod
    def _check_step(x, y, d, out) -> str | None:
        x2, y2, rep = out
        if not rep.verdict:
            return "re-verification of the mutated pair failed"
        return rotation_mismatch(x, d, x2) or rotation_mismatch(y, d, y2)

    def inputs(self) -> dict:
        first = self.rounds[0][0]
        return {
            "n": first.x.params.n,
            "window_half_width": self.half_width,
            "start_x": set_size(first.x),
            "start_y": set_size(first.y),
            "divider_choices": {k: [list(a) for a in v] for k, v in self.D_CHOICES.items()},
            "orbits_per_round": len(self.rounds[0]),
            "max_orbit": self.MAX_ORBIT,
            "orbit_lengths": sorted(set(self.orbit_lengths)),
            "y_growth_explicit_families": self.growth,
            "rotation_sets": [{"n": s.params.n, **set_size(s)} for s, _ in self.rotations[:4]],
        }


# --- oracle -------------------------------------------------------------------


class Oracle:
    """The brute-force sweeps at n = 1, 2, 3 on a fixed window plus seeded
    rotation-fuzz batches; one unit is one cycle of eleven ops.

    A fuzz batch is the costliest op, so the tail percentile (ten samples
    beyond it) falls among the fuzz batches rather than on the edge between
    two sweeps whatever number of cycles fits in the run.
    """

    name = "oracle"
    SWEEPS = ("cross_ext_mismatches", "serre_duality_mismatches", "hom_serre_mismatches")
    MODULI = (1, 2, 3)
    FUZZ_PER_CYCLE = 2

    def __init__(self, seed: int, window=(-12, 12), fuzz_cases: int = 3000):
        self.rng = random.Random(seed)
        self.window = window
        self.fuzz_cases = fuzz_cases
        self.params = {n: arcs.ModelParams(n) for n in self.MODULI}

    def units(self, in_process: bool = False):
        lo, hi = self.window
        while True:
            ops = [
                Op(f"oracle.{name}.n{n}",
                   lambda name=name, n=n: getattr(oracles, name)(self.params[n], lo, hi),
                   lambda out: None if out == [] else f"{len(out)} mismatches")
                for n in self.MODULI
                for name in self.SWEEPS
            ]
            for _ in range(self.FUZZ_PER_CYCLE):
                fseed = self.rng.randrange(2**31)
                ops.append(Op(
                    "oracle.run_mutation_fuzz",
                    lambda fseed=fseed: oracles.run_mutation_fuzz(self.fuzz_cases, fseed),
                    self._check_fuzz,
                ))
            yield iter(ops)

    def _check_fuzz(self, rep) -> str | None:
        if rep.cases != self.fuzz_cases:
            return f"fuzz ran {rep.cases} cases, expected {self.fuzz_cases}"
        return None if rep.ok else "rotation fuzz reported failures"

    def inputs(self) -> dict:
        lo, hi = self.window
        return {
            "n": list(self.MODULI),
            "window": [lo, hi],
            "arcs_per_sweep": {
                n: sum(1 for _ in arcsets.admissible_arcs_in(arcsets.Window(lo, hi), p))
                for n, p in self.params.items()
            },
            "fuzz_cases_per_batch": self.fuzz_cases,
            "fuzz_batches_per_cycle": self.FUZZ_PER_CYCLE,
        }


# --- cli ----------------------------------------------------------------------


def cli_subprocess(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "infgon", *argv],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    """Run ``infgon.cli.main`` here, capturing stdout as bytes."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        out.flush()
    return code, buf.getvalue()


class Cli:
    """The README's four invocations as ``python -m infgon`` subprocesses,
    one at a time, on the demo document and on a seeded translate of it;
    one unit is those eight runs.

    A traced run calls ``infgon.cli.main`` in this process instead, since the
    layer wrappers cannot reach a child interpreter.  Input paths are
    absolute, so both ways read the same files from any working directory.
    """

    name = "cli"

    def __init__(self, seed: int, max_translate: int = 40):
        import jsonschema

        rng = random.Random(seed)
        doc = load_demo()
        golden = load_golden()["cli"]
        self.n = doc.params.n
        self.k = k = rng.randint(-max_translate, max_translate)
        moved_doc = documents.Document(doc.params, {n: shift_set(s, k) for n, s in doc.sets.items()})
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.moved_path = WORK_DIR / f"example_sets_{seed}_{os.getpid()}.json"
        self.moved_path.write_text(documents.serialize_document(moved_doc))
        self.validator = jsonschema.Draft202012Validator(documents.REPORT_SCHEMA)
        self.invocations = cli_invocations(str(DEMO), 0) + cli_invocations(str(self.moved_path), k)
        # what each invocation must print: golden.json's translate-0 output
        # moved by the invocation's translate
        self.expected = {}
        for label, _, kind in self.invocations:
            t = int(label.split("@")[1])
            if kind == "render":
                self.expected[label] = moved_svg(golden["render"], t).encode()
            elif kind == "ext":
                self.expected[label] = b"1\n"
            else:
                self.expected[label] = moved(golden[kind], t)

    def units(self, in_process: bool = False):
        call = cli_in_process if in_process else cli_subprocess
        while True:
            yield (
                Op(f"cli.{kind}", lambda argv=argv: call(argv), lambda out, label=label, kind=kind:
                   self.check(label, kind, out))
                for label, argv, kind in self.invocations
            )

    def check(self, label: str, kind: str, out) -> str | None:
        code, stdout = out
        k = int(label.split("@")[1])
        want_code = 1 if kind == "check" else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if kind in ("check", "mutate"):
            report = json.loads(stdout)
            errors = sorted(e.message for e in self.validator.iter_errors(report))
            if errors:
                return f"report violates REPORT_SCHEMA: {errors[0]}"
            report.pop("timing_ms")
            if kind == "check":
                if report["verdict"] is not False:
                    return "check-pair X Y did not FAIL"
                if report["details"]["y_covariant"]["witnesses"] != [-4 + k]:
                    return f"covariance witness {report['details']['y_covariant']['witnesses']}"
            elif report["verdict"] is not True:
                return "mutate X Ync D did not PASS"
            if report != self.expected[label]:
                return f"report differs from golden.json moved by {k}"
            return None
        if stdout != self.expected[label]:
            what = "SVG" if kind == "render" else "ext output"
            return f"{what} differs from golden.json moved by {k}: {stdout[:40]!r}"
        return None

    def close(self) -> None:
        self.moved_path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            self.moved_path.parent.rmdir()

    def inputs(self) -> dict:
        root = str(ROOT) + os.sep
        return {
            "n": self.n,
            "translate": self.k,
            "invocations": [" ".join(argv).replace(root, "") for _, argv, _ in self.invocations],
            "ops_per_cycle": len(self.invocations),
        }


def cli_invocations(path: str, k: int) -> list[tuple[str, list[str], str]]:
    """(label, argv, kind) of the README's four commands on the document at
    ``path``, which holds the demo sets moved by ``k``."""

    def win(lo: int, hi: int) -> str:
        return f"{lo + k}..{hi + k}"

    arcs_ = f"({2 + k},{9 + k}) ({-1 + k},{6 + k})"
    common = ["--input", path]
    return [
        (f"check@{k}", ["check-pair", *common, "--x", "X", "--y", "Y", "--window", win(-20, 20),
                       "--format", "json"], "check"),
        (f"mutate@{k}", ["mutate", *common, "--x", "X", "--y", "Ync", "--d", "D", "--window",
                        win(-20, 20), "--format", "json"], "mutate"),
        (f"ext@{k}", ["ext", "--n", "3", "--arcs", arcs_, "--degree", "1"], "ext"),
        (f"render@{k}", ["render", *common, "--sets", "X", "--highlight", "D", "--window",
                        win(-8, 10), "--style", "svg"], "render"),
    ]


WORKLOADS = {cls.name: cls for cls in (Verify, Mutate, Oracle, Cli)}
