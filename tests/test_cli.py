import contextlib
import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from infgon.arcsets import Window
from infgon import arcsets, oracles
from infgon.cli import COMMANDS, MAX_WINDOW_WIDTH, _parse_window, build_parser, main
from infgon.documents import REPORT_SCHEMA

EXAMPLE = str(Path(__file__).resolve().parent.parent / "demos" / "example_sets.json")
# the demo X with a left fan far below the window, against the demo Ync
FAR_FAMILY = str(Path(__file__).resolve().parent / "fixtures" / "far_family.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_ext_command(capsys):
    code, out, _ = run(capsys, "ext", "--n", "3", "--arcs", "(2,9) (-1,6)", "--degree", "1")
    assert code == 0
    assert out.strip() == "1"
    code, report = run_json(capsys, "ext", "--n", "3", "--arcs", "(2,9) (-1,6)", "--degree", "1")
    assert code == 0 and report["result"] == 1 and report["verdict"] is None


def test_hom_and_cross_commands(capsys):
    code, out, _ = run(capsys, "hom", "--n", "3", "--arcs", "(-4,3) (-4,3)")
    assert (code, out.strip()) == (0, "1")
    code, report = run_json(capsys, "cross", "--arcs", "(-4,3) (-1,6)")
    assert code == 0 and report["result"] is True


def test_nc_frame_core_commands(capsys):
    code, report = run_json(
        capsys, "nc", "--input", EXAMPLE, "--set", "X", "--window", "-8..10"
    )
    assert code == 0
    assert [-4, 9] in report["result"] and [-6, -2] not in report["result"]
    code, report = run_json(
        capsys, "frame", "--input", EXAMPLE, "--set", "X", "--window", "-8..10"
    )
    assert code == 0 and report["result"] == [[-4, 3], [-4, 6]]
    code, report = run_json(
        capsys, "core", "--input", EXAMPLE, "--x", "X", "--y", "Ync", "--window", "-20..20"
    )
    assert code == 0 and report["result"] == [[-4, 3], [-4, 6]]


def test_fountains_command(capsys):
    code, report = run_json(capsys, "fountains", "--input", EXAMPLE, "--set", "Ync")
    assert code == 0
    assert report["details"]["covariant_ok"] is True
    code, report = run_json(capsys, "fountains", "--input", EXAMPLE, "--set", "Y")
    assert report["details"]["covariant_ok"] is False
    assert -4 in report["witnesses"]


def test_ptolemy_command_exit_codes(capsys, tmp_path):
    code, report = run_json(
        capsys, "ptolemy", "--input", EXAMPLE, "--set", "P", "--window", "-20..20"
    )
    assert code == 0 and report["verdict"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "sets": {"B": {"explicit": [[-4, 0], [-1, 3]]}}}))
    code, report = run_json(
        capsys, "ptolemy", "--input", str(bad), "--set", "B", "--window", "-20..20"
    )
    assert code == 1 and report["verdict"] is False
    assert [-4, 3] in report["witnesses"]


@pytest.mark.parametrize("no_color,pass_word,fail_word", [
    (None, "\x1b[32mPASS\x1b[0m", "\x1b[31mFAIL\x1b[0m"),
    ("1", "PASS", "FAIL"),
], ids=["tty", "tty-no-color"])
def test_verdicts_are_colored_on_a_tty_unless_no_color(capsys, monkeypatch, no_color, pass_word,
                                                       fail_word):
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    code, out, _ = run(
        capsys, "check-pair", "--input", EXAMPLE, "--x", "X", "--y", "Y", "--window", "-20..20"
    )
    assert code == 1
    assert f"{pass_word}: right-fountains of X inside" in out
    assert f"{fail_word}: (X, Y) window-certified pair" in out


def test_check_pair_exit_codes(capsys):
    code, report = run_json(
        capsys, "check-pair", "--input", EXAMPLE, "--x", "X", "--y", "Y", "--window", "-20..20"
    )
    assert code == 1 and report["verdict"] is False
    assert -4 in report["witnesses"]
    assert report["details"]["y_covariant"] == {
        "ok": False,
        "mode": "exact",
        "witnesses": [-4],
    }
    code, report = run_json(
        capsys, "check-pair", "--input", EXAMPLE, "--x", "X", "--y", "Ync", "--window", "-20..20"
    )
    assert code == 0 and report["verdict"] is True


def test_mutate_command(capsys):
    code, report = run_json(
        capsys,
        "mutate", "--input", EXAMPLE, "--x", "X", "--y", "Ync", "--d", "D",
        "--window", "-20..20",
    )
    assert code == 0 and report["verdict"] is True
    assert report["result"]["rotated_x"]["explicit"] == [[-4, 6], [2, 6]]
    assert report["result"]["shrunk_window"] == [-9, 9]
    # mutating the literal pair needs --force and reports the failure
    code, _, err = run(
        capsys,
        "mutate", "--input", EXAMPLE, "--x", "X", "--y", "Y", "--d", "D",
        "--window", "-20..20",
    )
    assert code == 2 and "force" in err
    assert "--force" in err and "force=True" not in err
    code, report = run_json(
        capsys,
        "mutate", "--input", EXAMPLE, "--x", "X", "--y", "Y", "--d", "D",
        "--window", "-20..20", "--force",
    )
    assert code == 1 and report["verdict"] is False


def test_window_short_of_a_family_scalar_is_an_input_error(capsys, tmp_path):
    # LeftFan(-50, -53) lies outside -20..20, where X and Ync once passed
    pair = ("check-pair", "--input", FAR_FAMILY, "--x", "X", "--y", "Ync", "--window")
    code, out, err = run(capsys, *pair, "-20..20")
    assert_input_error(code, err)
    assert out == "" and "[-53, 6] with margin 5" in err
    code, report = run_json(capsys, *pair, "-60..60")
    assert code == 1 and not report["details"]["x_equals_nc_y"]["ok"]
    # the guard also stops a forced mutation of a set with far family scalars
    doc = tmp_path / "far_fan.json"
    doc.write_text(json.dumps({"n": 3, "sets": {
        "X": {"explicit": [[0, 4]], "families": [
            {"kind": "half_left", "p": -3}, {"kind": "right_fan", "p": -3000, "u_min": 3000}]},
        "D": {"explicit": [[0, 4]]}}}))
    code, out, err = run(capsys, "mutate", "--input", str(doc), "--x", "X", "--y", "X",
                         "--d", "D", "--window", "-20..20", "--force")
    assert_input_error(code, err)
    assert out == "" and "[-3000, 3000]" in err


def test_mutate_with_a_divider_set_holding_families_is_an_input_error(capsys):
    code, out, err = run(capsys, "mutate", "--input", EXAMPLE, "--x", "X", "--y", "Ync",
                         "--d", "Ync", "--window", "-20..20")
    assert_input_error(code, err)
    assert out == "" and "'Ync' must be finite" in err


def test_mutate_force_needs_divider_in_core(capsys):
    code, _, err = run(
        capsys,
        "mutate", "--input", EXAMPLE, "--x", "X", "--y", "P", "--d", "D",
        "--window", "-20..20", "--force",
    )
    assert code == 2 and "core" in err


def test_oracle_command(capsys):
    code, report = run_json(
        capsys, "oracle", "--n", "2", "--window", "-8..8", "--fuzz-cases", "50"
    )
    assert code == 0 and report["verdict"] is True
    assert report["details"]["cross_ext_mismatches"] == 0


def test_render_svg_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "render", "--input", EXAMPLE, "--sets", "X", "--highlight", "D",
            "--window", "-8..10", "--style", "svg", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.count("<path") == 2  # one semicircle per arc of X
    assert svg.count("#cc2222") == 1  # the divider arc is highlighted


def test_render_text_buckets_components(capsys):
    code, out, _ = run(
        capsys,
        "render", "--input", EXAMPLE, "--sets", "Ync", "--window", "-9..15",
        "--style", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("component ")) == 3


def test_render_text_marks_highlighted_arcs_in_every_component(capsys):
    # Y holds some but not all of the arcs shown in each component
    code, out, _ = run(
        capsys,
        "render", "--input", EXAMPLE, "--sets", "X,Ync,D", "--highlight", "Y",
        "--window", "-9..15", "--style", "text",
    )
    assert code == 0
    assert out.splitlines() == [
        "window [-9, 15]  sets: X Ync D",
        "component 0: (-7,6)   (-7,9)*  (-7,12)* (-7,15)* (-4,0)   (-4,3)*  (-4,6)*  "
        "(-4,9)   (-4,12)  (-4,15)  (-1,3)   (8,12)*  (8,15)*  (11,15)*",
        "component 1: (-9,-5)* (-9,7)*  (-9,10)* (-9,13)* (-6,7)*  (-6,10)* (-6,13)* "
        "(-3,1)   (6,10)*  (6,13)*  (9,13)*",
        "component 2: (-8,-4)* (-8,8)*  (-8,11)* (-8,14)* (-5,8)*  (-5,11)* (-5,14)* "
        "(-2,2)   (7,11)*  (7,14)*  (10,14)*",
        "(* = highlighted)",
    ]


def test_render_empty_set_gives_ticks_only(capsys, tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps({"n": 3, "sets": {"E": {"explicit": []}}}))
    code, out, err = run(
        capsys, "render", "--input", str(doc), "--sets", "E", "--window", "-3..3"
    )
    assert code == 0 and err == ""
    assert "<path" not in out and out.count("<text") == 7


def test_render_window_errors(capsys, tmp_path):
    doc = tmp_path / "far.json"
    doc.write_text(
        json.dumps(
            {
                "n": 3,
                "sets": {
                    "F": {"explicit": [[30, 34]]},
                    "G": {"families": [{"kind": "half_right", "q": 50}]},
                },
            }
        )
    )
    code, _, err = run(
        capsys, "render", "--input", str(doc), "--sets", "F", "--window", "-5..5"
    )
    assert code == 2 and "no member" in err
    code, _, err = run(
        capsys, "render", "--input", str(doc), "--sets", "G", "--window", "-5..5"
    )
    assert code == 0 and "warning" in err  # families beyond the window


def test_usage_and_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "nc", "--set", "X", "--window", "-5..5")
    assert code == 2 and "--input" in err
    code, _, err = run(capsys, "ext", "--arcs", "(0,4) (1,5)", "--degree", "1")
    assert code == 2
    code, _, err = run(
        capsys, "nc", "--input", EXAMPLE, "--set", "NOPE", "--window", "-5..5"
    )
    assert code == 2 and "NOPE" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "nc", "--input", str(bad), "--set", "X", "--window", "-5..5")
    assert code == 2 and "JSON" in err
    code, _, err = run(capsys, "cross", "--arcs", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "ext", "--n", "3", "--arcs", "(2,9)", "--degree", "1")
    assert code == 2 and "expected 2 arcs, got 1" in err
    code, _, err = run(capsys, "cross", "--arcs", "(0,4) (1,5) (2,6)")
    assert code == 2 and "expected 2 arcs, got 3" in err


def parse(parser, argv: list[str]) -> tuple[object, str, str]:
    """``parser.parse_args(argv)``: the namespace or the exit code, and what
    it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = parser.parse_args(argv)
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", COMMANDS)
def test_one_command_parser_matches_the_full_parser(name):
    """``main`` builds only the parser of the command it runs; its help, its
    usage errors and what it parses are the full parser's."""
    assert len(COMMANDS) == 12
    stray = [name, "--arcs", "(0,4) (1,5)", "--input", EXAMPLE, "--set", "X", "--x", "X",
             "--y", "Y", "--d", "D", "--window=-5..5", "--degree", "1", "stray"]
    for argv in ([name, "--help"], [name], [name, "--n", "x"], [name, "--bogus", "1"], stray):
        assert parse(build_parser(name), argv) == parse(build_parser(), argv)
    code, help_text, _ = parse(build_parser(name), [name, "--help"])
    assert code == 0 and help_text.startswith(f"usage: infgon {name} [-h]")
    assert parse(build_parser(name), stray)[0] == 2


@pytest.mark.parametrize("argv,code,err", [
    (["--help"], 0, ""),
    ([], 2, "error: the following arguments are required: command"),
    (["bogus"], 2, "error: argument command: invalid choice: 'bogus'"),
    (["bogus", "--help"], 2, "error: argument command: invalid choice: 'bogus'"),
])
def test_help_and_a_missing_or_unknown_command_use_the_full_parser(capsys, argv, code, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == code
    assert (exc.value.code, out.out, out.err) == parse(build_parser(), argv)
    assert err in out.err
    usage = out.out if code == 0 else out.err
    assert "{" + ",".join(COMMANDS) + "}" in usage


def test_n_override(capsys, tmp_path):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"n": 3, "sets": {"A": {"explicit": [[0, 4]]}}}))
    code, report = run_json(
        capsys, "nc", "--input", str(doc), "--set", "A", "--window", "-4..8", "--n", "3"
    )
    assert code == 0
    # overriding n re-validates: (0,4) is not admissible for n=2
    code, _, err = run(
        capsys, "nc", "--input", str(doc), "--set", "A", "--window", "-4..8", "--n", "2"
    )
    assert code == 2 and "admissible" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "ext", "--n", "3", "--arcs", "(2,9) (-1,6)", "--degree", "1",
        "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"] == 1


def assert_input_error(code: int, err: str) -> None:
    """Exit 2 with one ``infgon: error:`` line and no traceback."""
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("infgon: error: "), err


def test_reversed_window_is_an_input_error(capsys):
    code, out, err = run(capsys, "nc", "--input", EXAMPLE, "--set", "X", "--window", "5..1")
    assert_input_error(code, err)
    assert out == "" and "5..1" in err


def test_nonpositive_modulus_is_an_input_error(capsys):
    code, out, err = run(capsys, "ext", "--n", "0", "--arcs", "(2,9) (-1,6)", "--degree", "1")
    assert_input_error(code, err)
    assert out == "" and "--n" in err


def test_malformed_input_with_modulus_override_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(
        capsys, "nc", "--n", "3", "--input", str(bad), "--set", "X", "--window", "-5..5"
    )
    assert_input_error(code, err)
    assert out == "" and "JSON" in err


def test_deeply_nested_input_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "nc", "--input", str(deep), "--set", "X", "--window", "-5..5")
    assert_input_error(code, err)
    assert out == "" and "nests" in err


def test_malformed_input_for_ext_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(
        capsys, "ext", "--input", str(bad), "--arcs", "(2,9) (-1,6)", "--degree", "1"
    )
    assert_input_error(code, err)
    assert out == "" and "JSON" in err


def test_render_json_is_a_report(capsys, tmp_path):
    for style in ("svg", "text"):
        argv = ["render", "--input", EXAMPLE, "--sets", "X", "--highlight", "D",
                "--window", "-8..10", "--style", style]
        code, drawing, _ = run(capsys, *argv)
        assert code == 0
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["verdict"] is None and report["witnesses"] == []
        assert report["result"] == drawing
        assert report["inputs"] == {
            "n": 3, "sets": "X", "highlight": "D", "window": [-8, 10], "style": style,
        }
    # warnings still go to stderr, next to the report on stdout
    doc = tmp_path / "far.json"
    doc.write_text(json.dumps({"n": 3, "sets": {"G": {"families": [{"kind": "half_right", "q": 50}]}}}))
    code, out, err = run(
        capsys, "render", "--input", str(doc), "--sets", "G", "--window", "-5..5", "--format", "json"
    )
    assert code == 0 and "warning" in err
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_negative_fuzz_cases_is_an_input_error(capsys):
    code, out, err = run(capsys, "oracle", "--n", "2", "--window", "-4..4", "--fuzz-cases", "-3")
    assert_input_error(code, err)
    assert out == "" and "--fuzz-cases" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "--n", "3", "--arcs", "(2,9) (-1,6)", "--degree", "1"],
        ["hom", "--n", "3", "--arcs", "(2,9) (-1,6)"],
        ["oracle", "--n", "2", "--window", "-4..4", "--fuzz-cases", "1"],
        ["cross", "--arcs", "(2,9) (-1,6)"],
    ],
    ids=lambda argv: argv[0],
)
def test_malformed_input_is_read_even_with_modulus(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, *argv, "--input", str(bad))
    assert_input_error(code, err)
    assert out == "" and "JSON" in err


def test_window_wider_than_the_limit_is_an_input_error(capsys):
    huge = "99999999999999999999..999999999999999999999"
    for window in (huge, f"0..{MAX_WINDOW_WIDTH + 1}"):
        code, out, err = run(capsys, "nc", "--input", EXAMPLE, "--set", "X", "--window", window)
        assert_input_error(code, err)
        assert out == "" and window in err and str(MAX_WINDOW_WIDTH) in err
    assert _parse_window(f"0..{MAX_WINDOW_WIDTH}") == Window(0, MAX_WINDOW_WIDTH)


def test_oracle_window_wider_than_its_limit_is_an_input_error(capsys, monkeypatch):
    limit = COMMANDS["oracle"].max_width
    assert limit == 64 < MAX_WINDOW_WIDTH
    monkeypatch.setattr(oracles, "cross_ext_mismatches", lambda *a: pytest.fail("a sweep ran"))
    for window in (f"0..{limit + 1}", f"-40..{MAX_WINDOW_WIDTH - 40}"):
        code, out, err = run(capsys, "oracle", "--n", "1", "--window", window)
        assert_input_error(code, err)
        assert out == "" and window in err and str(limit) in err
    assert _parse_window(f"-32..{limit - 32}", limit) == Window(-32, limit - 32)


def test_ptolemy_window_wider_than_its_limit_is_an_input_error(capsys, monkeypatch):
    limit = COMMANDS["ptolemy"].max_width
    assert limit == 64 < MAX_WINDOW_WIDTH
    monkeypatch.setattr(arcsets, "is_ptolemy_window", lambda *a: pytest.fail("a pair loop ran"))
    for window in (f"0..{limit + 1}", "-40..40", f"-40..{MAX_WINDOW_WIDTH - 40}"):
        code, out, err = run(
            capsys, "ptolemy", "--input", EXAMPLE, "--set", "Ync", "--window", window
        )
        assert_input_error(code, err)
        assert out == "" and window in err and str(limit) in err


HUGE = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "argv",
    [
        ["nc", "--input", EXAMPLE, "--set", "X", "--window", f"1..{HUGE}"],
        ["ext", "--n", "3", "--arcs", f"(1,{HUGE}) (2,9)", "--degree", "1"],
    ],
    ids=["window", "arcs"],
)
def test_number_past_the_digit_limit_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_input_error(code, err)
    assert out == "" and "5000 digits" in err


def test_input_document_with_a_number_past_the_digit_limit_is_an_input_error(capsys, tmp_path):
    doc = tmp_path / "huge.json"
    doc.write_text(f'{{"n": 3, "sets": {{"A": {{"explicit": [[1, {HUGE}]]}}}}}}')
    code, out, err = run(capsys, "nc", "--input", str(doc), "--set", "A", "--window", "-5..5")
    assert_input_error(code, err)
    assert out == "" and "too long" in err
