"""Which ``infgon`` modules a CLI process loads, and the package's lazy names.

Each CLI command imports only the layers it runs, and ``infgon`` resolves
its public names on first use.  Module loads are read in a fresh
interpreter, since this process has imported every layer already.
"""

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import infgon
from infgon import cotorsion, families

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = str(ROOT / "demos" / "example_sets.json")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def loaded_after(code: str) -> tuple[list, set[str]]:
    """Run ``code`` in a fresh interpreter with stdout captured; return the
    value it assigns to ``RESULT`` and every module then loaded."""
    probe = "\n".join([
        "import contextlib, io, json, sys",
        "RESULT = None",
        "with contextlib.redirect_stdout(io.StringIO()):",
        *(f"    {line}" for line in code.splitlines()),
        "print(json.dumps([RESULT, list(sys.modules)]))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result, mods = json.loads(proc.stdout.splitlines()[-1])
    return result, set(mods)


def layers(mods: set[str]) -> set[str]:
    """The ``infgon`` modules among ``mods``: ``infgon`` itself, the others
    without the ``infgon.`` prefix."""
    return {m.removeprefix("infgon.") for m in mods if m == "infgon" or m.startswith("infgon.")}


# --- what each README command loads -----------------------------------------

HEAVY = {"mutation", "homs", "oracles", "cellwalk"}


# command -> (argv, exit code, layers it needs, layers it must not load)
README = {
    "ext": (["ext", "--n", "3", "--arcs", "(2,9) (-1,6)", "--degree", "1"], 0, {"homs"},
            {"arcsets", "families", "regions", "cotorsion", "documents", "mutation", "oracles",
             "cellwalk"}),
    "check-pair": (["check-pair", "--input", EXAMPLE, "--x", "X", "--y", "Y", "--window",
                    "-20..20"], 1, {"cotorsion", "documents"}, HEAVY),
    "render": (["render", "--input", EXAMPLE, "--sets", "X", "--highlight", "D", "--window",
                "-8..10", "--style", "svg", "--out", "{out}"], 0, {"arcsets", "documents"},
               HEAVY),
    "mutate": (["mutate", "--input", EXAMPLE, "--x", "X", "--y", "Ync", "--d", "D", "--window",
                "-20..20"], 0, {"mutation", "cotorsion"}, {"oracles", "cellwalk"}),
}


def run_command(argv: list[str], out_dir: Path) -> tuple[int, set[str]]:
    """``cli.main(argv)`` in a fresh interpreter, writing any file to
    ``out_dir``: its exit code and the modules it loaded."""
    argv = [a.format(out=out_dir / "figure.svg") for a in argv]
    return loaded_after(f"from infgon import cli\nRESULT = cli.main({argv!r})")


@pytest.mark.parametrize("argv,exit_code,needs,never", README.values(), ids=README)
def test_readme_command_loads_only_its_layers(tmp_path, argv, exit_code, needs, never):
    got, mods = run_command(argv, tmp_path)
    mods = layers(mods)
    assert got == exit_code
    assert needs <= mods
    assert not mods & never, f"{argv[0]} loaded {sorted(mods & never)}"


def test_importing_the_cli_loads_the_parser_and_render_only():
    mods = layers(loaded_after("import infgon.cli")[1])
    assert mods == {"infgon", "arcs", "cli", "errors", "render"}, (
        "perfbench/layertrace.py's Tracer.install imports infgon.cli and then reads "
        "sys.modules['infgon.render'], so render must load with infgon.cli; the other "
        f"layers load with the commands that run them, but got {sorted(mods)}"
    )


# The records are NamedTuples except the family kinds, which ``perfbench/workloads.py``
# and the tests read with ``dataclasses.fields``, ``DividerSet`` and ``FuzzReport``:
# so the parser and ``ext``, which load none of those, never import ``dataclasses``
# and what it imports (``inspect``, ``ast``, ...), nor run the code it generates.
@pytest.mark.parametrize("code", [
    "import infgon.cli",
    f"from infgon import cli\nRESULT = cli.main({README['ext'][0]!r})",
], ids=["import infgon.cli", "ext"])
def test_the_parser_and_ext_do_not_load_dataclasses(code):
    got, mods = loaded_after(code)
    assert got in (None, 0)
    assert "dataclasses" not in mods


def test_family_kinds_stay_dataclasses():
    kinds = [families.LeftFan, families.RightFan, families.Band, families.HalfLeft,
             families.HalfRight]
    assert all(dataclasses.is_dataclass(k) for k in kinds)
    assert [f.name for f in dataclasses.fields(families.RightFan)] == ["p", "u_min"]


# --- the lazy package surface ------------------------------------------------

# home module -> the names the package exports from it
HOMES = {
    "arcs": "Arc ModelParams component cross is_admissible normalize serre shift tau",
    "arcsets": "ArcSet Condition Window admissible_arcs_in contains crosses_set "
               "double_nc_extras finiteness_check fountain_loci frame in_nc_nc "
               "is_ptolemy_window members_in_window nc_window",
    "cotorsion": "PairReport check_pair core rigidity_check",
    "documents": "Document parse_document serialize_document",
    "errors": "InfgonError",
    "families": "Band Family HalfLeft HalfRight LeftFan RightFan",
    "homs": "ExtKind ExtTriangle ext1_case ext_dim ext_profile ext_triangle hom_dim",
    "mutation": "DividerSet RotationResult mutate_pair mutation_via_triangle predecessor "
                "rotate_arc rotate_arc_inverse rotate_set successor",
    "regions": "IntRegion",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}


def test_all_keeps_the_54_names():
    assert len(HOME) == 54
    assert infgon.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"infgon.{HOME[name]}")
    obj = getattr(infgon, name)
    assert obj is getattr(home, name)
    if getattr(obj, "__module__", "").startswith("infgon."):
        assert obj.__module__ == home.__name__


def test_star_import_and_dir_cover_every_name():
    ns: dict = {}
    exec("from infgon import *", ns)
    assert set(HOME) <= set(ns)
    assert set(HOME) <= set(dir(infgon))
    assert "__version__" in dir(infgon)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        infgon.no_such_name  # noqa: B018
    assert not hasattr(infgon, "no_such_name")


def test_bare_import_loads_no_layer_and_submodules_still_import_by_name():
    got, mods = loaded_after("import infgon\nRESULT = hasattr(infgon, 'cellwalk')")
    assert (got, layers(mods)) == (False, {"infgon"})
    got, mods = loaded_after("from infgon import cellwalk\nRESULT = cellwalk.__name__")
    assert got == "infgon.cellwalk"
    assert layers(mods) == {"infgon", "arcs", "cellwalk", "errors"}


def test_resolved_names_are_not_cached(monkeypatch):
    """A wrapper put on the home module shows through the package and leaves
    with it, as the benchmark's layer trace needs."""
    original = infgon.check_pair
    assert "check_pair" not in vars(infgon)

    def wrapper(*args):
        return original(*args)

    monkeypatch.setattr(cotorsion, "check_pair", wrapper)
    assert infgon.check_pair is wrapper
    monkeypatch.undo()
    assert infgon.check_pair is original
    assert "check_pair" not in vars(infgon)


# --- each module's own ``__all__`` ---------------------------------------------

# ``__main__`` is left out: importing it runs the CLI
WITH_ALL = [m for m in (importlib.import_module(f"infgon.{i.name}")
                        for i in pkgutil.iter_modules(infgon.__path__) if i.name != "__main__")
            if hasattr(m, "__all__")]


@pytest.mark.parametrize("mod", [infgon, *WITH_ALL], ids=lambda m: m.__name__)
def test_all_lists_every_public_definition_and_only_names_that_resolve(mod):
    defined = {name for name, obj in vars(mod).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    missing = defined - set(mod.__all__)
    assert not missing, f"{mod.__name__}.__all__ omits {sorted(missing)}"
    assert all(hasattr(mod, name) for name in mod.__all__)


if __name__ == "__main__":
    # A Markdown summary: the modules each README command loads, and the
    # cumulative ``-X importtime`` of ``infgon.cli``.
    def row(name: str, mods: set[str]) -> str:
        dc = "yes" if "dataclasses" in mods else "no"
        return f"| {name} | {' '.join(sorted(layers(mods)))} | {dc} |"

    print("Modules each README command loads (fresh interpreter)\n")
    print("| command | `infgon.*` modules | `dataclasses` |\n|---|---|---|")
    print(row("import infgon.cli", loaded_after("import infgon.cli")[1]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, *_) in README.items():
            print(row(name, run_command(argv, Path(tmp))[1]))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infgon.cli"],
                         cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         check=True).stderr
    us = next(int(f[1]) for f in (line.split("|") for line in err.splitlines()[1:])
              if f[2].strip() == "infgon.cli")
    print(f"\n`import infgon.cli` (`-X importtime`, cumulative): {us / 1000:.1f} ms")
