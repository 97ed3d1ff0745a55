"""Exact combinatorics of RNA abstract shapes and Motzkin lattice paths.

Importing the package executes only this file and ``errors``.  The layer
modules ``asymptotics``, ``counting``, ``paths``, ``poly``, ``series`` and
``structures`` are registered in ``sys.modules`` by ``LazyLoader``, so code
that looks a layer up there finds it before its first use.  Each executes
on the first access to one of its attributes, and executes the layers it
imports then.  A public name such as ``shapeforge.compatible_counts`` is
looked up in its module on every access, through ``_EXPORTS``, so its
first use loads that module, and a later rebinding there (a monkeypatch,
a tracer's wrapper) shows through the package too.

A CLI command therefore executes only the layers it calls.  Every command
loads ``counting``, from which ``cli`` imports ``ExactCounts``.
``validate``, ``analyze`` and ``abstract`` add ``structures``;
``bijection`` adds ``paths`` and ``structures``; ``verify`` and
``compatible`` add ``series`` and ``poly``; ``distribution`` and
``asymptotics`` add ``asymptotics`` as well.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# each layer module and the public names the package takes from it
_EXPORTS = {
    "asymptotics": (
        "ASYM_TARGETS", "AsymptoticReport", "DominantSingularity", "asym_count",
        "asym_level0", "asym_pi", "asym_pi_expected", "convergence_report",
        "deflate", "expected_level0", "expected_pi_r0", "find_zeta",
        "singular_polynomial",
    ),
    "counting": ("ExactCounts",),
    "paths": (
        "LatticePath", "PathKind", "PathStats", "decode1", "decode2",
        "decorate_islands", "encode1", "encode2", "enumerate_paths",
        "parse_path", "path_stats",
    ),
    "poly": ("Poly",),
    "series": (
        "IDENTITY_NAMES", "ISLAND_GF_FORMS", "CompatibleTable", "IdentityReport",
        "TruncatedSeries", "compatible_counts", "expand_island_gf",
        "expand_level0_gf", "expand_motzkin_gf", "verify_identity",
    ),
    "structures": (
        "ElementReport", "IslandDiagram", "PiPrimeShape", "PiShape", "PiStats",
        "SecondaryStructure", "analyze_elements", "generate_island_diagrams",
        "parse_structure", "pi_stats", "to_island_diagram", "to_pi", "to_pi_prime",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["errors", *_HOME])


def _lazy(module: str):
    """Register shapeforge.<module> to execute on its first attribute
    access, by the LazyLoader recipe of the importlib documentation."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


globals().update({module: _lazy(module) for module in _EXPORTS})


def __getattr__(name):
    # not cached in the package: a name rebound in its module shows here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})
