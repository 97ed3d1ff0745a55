import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shapeforge
from shapeforge import PathKind, asymptotics, cli, errors, paths, series, structures

# the package's public names before its layers were loaded on first use
PUBLIC_NAMES = [
    "ASYM_TARGETS", "AsymptoticReport", "CompatibleTable", "DominantSingularity",
    "ElementReport", "ExactCounts", "IDENTITY_NAMES", "ISLAND_GF_FORMS",
    "IdentityReport", "IslandDiagram", "LatticePath", "PathKind", "PathStats",
    "PiPrimeShape", "PiShape", "PiStats", "Poly", "SecondaryStructure",
    "TruncatedSeries", "analyze_elements", "asym_count", "asym_level0", "asym_pi",
    "asym_pi_expected", "compatible_counts", "convergence_report", "decode1",
    "decode2", "decorate_islands", "deflate", "encode1", "encode2",
    "enumerate_paths", "errors", "expand_island_gf", "expand_level0_gf",
    "expand_motzkin_gf", "expected_level0", "expected_pi_r0", "find_zeta",
    "generate_island_diagrams", "parse_path", "parse_structure", "path_stats",
    "pi_stats", "singular_polynomial", "to_island_diagram", "to_pi", "to_pi_prime",
    "verify_identity",
]

LAYERS = ("asymptotics", "counting", "paths", "poly", "series", "structures")

# runs the CLI as `python -m shapeforge.cli` does, then prints on its last
# line the layers that executed: a lazy module not yet loaded is still of a
# ModuleType subclass
_RUN_AND_REPORT = """
import json, runpy, sys, types
sys.argv[0] = "shapeforge"
try:
    runpy.run_module("shapeforge.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(name for name in %r
                               if type(sys.modules["shapeforge." + name]) is types.ModuleType)]))
""" % (LAYERS,)


def _executed_layers(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(shapeforge.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    code, executed = json.loads(out.splitlines()[-1])
    assert code == 0
    return executed


@pytest.mark.parametrize("argv, executed", [
    (["count", "catalan", "--n", "10"], ["counting"]),
    (["validate", "--in", "((...))"], ["counting", "structures"]),
    (["bijection", "decode1", "--in", "[][]"], ["counting", "paths", "structures"]),
    (["verify", "coker1"], ["counting", "poly", "series"]),
], ids=["count", "validate", "bijection", "verify"])
def test_a_command_executes_only_the_layers_it_calls(argv, executed):
    assert _executed_layers(*argv) == executed


def test_every_public_name_resolves():
    assert shapeforge.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from shapeforge import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(shapeforge, name), name
    assert set(PUBLIC_NAMES) <= set(dir(shapeforge))
    assert shapeforge.errors is errors
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shapeforge.no_such_name


def test_a_public_name_is_not_cached_in_the_package(monkeypatch):
    original = series.compatible_counts

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(series, "compatible_counts", stand_in)
    assert shapeforge.compatible_counts is stand_in
    monkeypatch.undo()
    assert shapeforge.compatible_counts is original
    assert "compatible_counts" not in vars(shapeforge)


def _choices(command: str, dest: str) -> tuple:
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a.choices for a in sub.choices[command]._actions if a.dest == dest))


def test_the_parser_offers_the_identities_and_targets_of_the_library():
    assert _choices("verify", "name") == series.IDENTITY_NAMES + ("all",)
    assert _choices("asymptotics", "target") == asymptotics.ASYM_TARGETS + ("zeta",)
    assert series.IDENTITY_NAMES is errors.IDENTITY_NAMES
    assert asymptotics.ASYM_TARGETS is errors.ASYM_TARGETS


# each library keyword that no caller set, or that only the CLI set, now a module
# constant or gone
@pytest.mark.parametrize("call", [
    lambda: asymptotics.asym_count("pi_total", lam=4, nu=40,
                                   sing=asymptotics.deflate(4, asymptotics.find_zeta(4))),
    lambda: asymptotics.expected_pi_r0(4, 40, counts=shapeforge.ExactCounts()),
    lambda: series.expand_level0_gf(10, limit=200),
    lambda: series.expand_level0_gf(10, t=2, numeric_limit=2000),
    lambda: paths.enumerate_paths(4, PathKind.MOTZKIN1, limit=16),
    lambda: paths.decorate_islands(paths.parse_path("R", PathKind.MOTZKIN2), limit=8),
    lambda: structures.generate_island_diagrams(2, limit=10),
    lambda: series.compatible_counts(4, 40, limit=2000),
    lambda: asymptotics.asym_count("pi_total", lam=4, nu=40, limit=2000),
    lambda: asymptotics.convergence_report("pi", lam=4, nu=40, limit=2000),
    lambda: series.expand_island_gf(10, limit=28),
], ids=["asym_count-sing", "expected_pi_r0-counts", "expand_level0_gf-limit",
        "expand_level0_gf-numeric_limit", "enumerate_paths-limit", "decorate_islands-limit",
        "generate_island_diagrams-limit", "compatible_counts-limit", "asym_count-limit",
        "convergence_report-limit", "expand_island_gf-limit"])
def test_a_removed_keyword_raises_type_error(call):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call()
