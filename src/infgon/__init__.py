"""Arc combinatorics on the infinity-gon.

Admissible integer arcs model the indecomposable objects of an n-cluster
category of the infinity-gon; crossing of arcs detects extension spaces.
The package computes exact Hom/Ext dimensions, non-crossing closures,
fountain loci, verifies the four-condition characterization of n-cotorsion
pairs on integer windows, and realizes their mutation as rotation of arcs in
the cells cut out by a divider set.  Every nontrivial claim is backed by a
brute-force oracle in :mod:`infgon.oracles`.

The names in ``__all__`` resolve on first use (PEP 562): ``infgon.check_pair``
imports :mod:`infgon.cotorsion` then, so a bare ``import infgon`` loads no
layer.  A resolved name is not stored here; each read returns the home
module's current binding.  ``_EXPORTS`` is the one list of these names;
each home module but :mod:`infgon.errors` starts its ``__all__`` from its row.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "arcs": ("Arc", "ModelParams", "component", "cross", "is_admissible", "normalize",
             "serre", "shift", "tau"),
    "arcsets": ("ArcSet", "Condition", "Window", "admissible_arcs_in", "contains",
                "crosses_set", "double_nc_extras", "finiteness_check", "fountain_loci", "frame",
                "in_nc_nc", "is_ptolemy_window", "members_in_window", "nc_window"),
    "cotorsion": ("PairReport", "check_pair", "core", "rigidity_check"),
    "documents": ("Document", "parse_document", "serialize_document"),
    "errors": ("InfgonError",),
    "families": ("Band", "Family", "HalfLeft", "HalfRight", "LeftFan", "RightFan"),
    "homs": ("ExtKind", "ExtTriangle", "ext1_case", "ext_dim", "ext_profile", "ext_triangle",
             "hom_dim"),
    "mutation": ("DividerSet", "RotationResult", "mutate_pair", "mutation_via_triangle",
                 "predecessor", "rotate_arc", "rotate_arc_inverse", "rotate_set", "successor"),
    "regions": ("IntRegion",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:  # lets ``from infgon import <submodule>`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
