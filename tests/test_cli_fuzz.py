"""Hypothesis fuzz of the CLI exit-code contract.

Argument vectors are drawn from the command table: every declared option of a
command gets a valid or an invalid value of its kind (set names, windows, arc
lists, integers, choices), plus the common ``--input`` / ``--n`` /
``--format``.  Whatever comes out, the exit code is 0, 1 or 2, exit 1 only
comes with a failed verdict, and nothing escapes as an exception.

Windows stay inside [-30, 30] (``oracle`` inside [-6, 6], since its
brute-force sweeps grow with the fourth power of the width), moduli at most
4 and ``--fuzz-cases`` at most 5, so every example runs in well under a
second.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from infgon.cli import COMMANDS, main

EXAMPLE = str(Path(__file__).resolve().parent.parent / "demos" / "example_sets.json")
SET_NAMES = ["X", "Y", "Ync", "D", "P", "NOPE", ""]


@pytest.fixture(scope="module")
def bad_input(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("fuzz") / "bad.json"
    path.write_text("{broken")
    return str(path)


def mostly(valid: st.SearchStrategy, invalid: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` four times in five, so most examples get past input checks."""
    return st.integers(0, 4).flatmap(lambda k: invalid if k == 0 else valid)


def windows(bound: int) -> st.SearchStrategy[str]:
    return mostly(
        st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(-bound, -1), st.integers(1, bound)),
        st.one_of(
            st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(0, bound), st.integers(-bound, 0)),
            st.sampled_from(["", "abc", "5..", "..5", "1...4"]),
        ),
    )


def arc_lists(n: int) -> st.SearchStrategy[str]:
    """Two arcs, admissible for ``n`` when valid."""
    ends = st.integers(-12, 12)
    admissible = st.builds(
        lambda t, j: f"({t},{t + max(2, 1 + j * n)})", ends, st.integers(1, 4)
    )
    return mostly(
        st.lists(admissible, min_size=2, max_size=2).map(" ".join),
        st.one_of(
            st.lists(st.builds(lambda t, u: f"({t},{u})", ends, ends), max_size=3).map(" ".join),
            st.sampled_from(["nonsense", "(1,5", "(a,b) (1,5)"]),
        ),
    )


def option_values(name: str, kind: str, kw: dict, n: int) -> st.SearchStrategy:
    if kind == "set":
        return mostly(st.sampled_from(SET_NAMES[:5]), st.sampled_from(SET_NAMES[5:]))
    if kind == "window":
        return windows(6 if name == "oracle" else 30)
    if kind == "arcs":
        return arc_lists(n)
    if kw.get("action") == "store_true":
        return st.booleans()
    if "choices" in kw:
        return mostly(st.sampled_from(kw["choices"]), st.just("bogus"))
    if kw.get("type") is int:
        return mostly(st.integers(0, 5), st.integers(-3, -1)).map(str)
    return st.lists(st.sampled_from(SET_NAMES[:-1]), min_size=1, max_size=3).map(",".join)


@st.composite
def argvs(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(COMMANDS)))
    n = draw(mostly(st.sampled_from([None, None, None, None, 1, 2, 3, 4]), st.integers(-1, 0)))
    argv = [name]
    for flag, kind, kw in COMMANDS[name].options:
        if not kw.get("required") and draw(st.booleans()):
            continue  # left to its default
        value = draw(option_values(name, kind, kw, 3 if n is None or n < 1 else n))
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, value]
    source = draw(mostly(st.just("example"), st.sampled_from(["bad", None])))
    if source is not None:
        argv += ["--input", source]
    if n is not None:
        argv += ["--n", str(n)]
    return argv + ["--format", draw(st.sampled_from(["text", "json"]))]


_PAIR = ["--input", "example", "--window", "-20..20", "--format", "json"]


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
@example(argv=["check-pair", "--x", "X", "--y", "Ync", *_PAIR])
@example(argv=["check-pair", "--x", "X", "--y", "Y", *_PAIR])
@example(argv=["mutate", "--x", "X", "--y", "Ync", "--d", "D", *_PAIR])
@example(argv=["mutate", "--x", "X", "--y", "Y", "--d", "D", "--force", *_PAIR])
@example(argv=["ptolemy", "--set", "Y", *_PAIR])
def test_exit_code_contract(argv, bad_input):
    argv = [EXAMPLE if a == "example" else bad_input if a == "bad" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif argv[-1] == "json":
        verdict = json.loads(out.getvalue())["verdict"]
        assert (code == 1) == (verdict is False), (argv, code, verdict)
