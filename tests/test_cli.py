import json
from pathlib import Path

import jsonschema

from infgon.cli import main
from infgon.documents import REPORT_SCHEMA

EXAMPLE = str(Path(__file__).resolve().parent.parent / "demos" / "example_sets.json")


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
