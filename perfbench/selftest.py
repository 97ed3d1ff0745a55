"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that inputs are a function of the seed, that every workload's
checker rejects a deliberately corrupted output, and that a traced run has
exactly one root span per operation.  Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import inputs as inputs_mod  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Mismatch  # noqa: E402
from tracing import Tracer  # noqa: E402

import shapeforge as sf  # noqa: E402
import shapeforge.cli  # noqa: E402,F401


def ok(message: str) -> None:
    print(f"PASS {message}")


def rejects(check, out, params, what: str) -> None:
    try:
        check(out, params)
    except Mismatch:
        ok(f"checker rejects {what}")
        return
    raise SystemExit(f"FAIL checker accepted {what}")


def test_seeds() -> None:
    for workload in ("tables", "series", "shapes", "cli"):
        a = json.dumps([inputs_mod.Inputs(workload, 7).round(r) for r in range(3)])
        b = json.dumps([inputs_mod.Inputs(workload, 7).round(r) for r in range(3)])
        c = json.dumps([inputs_mod.Inputs(workload, 8).round(r) for r in range(3)])
        if a != b:
            raise SystemExit(f"FAIL {workload}: one seed gave two different inputs")
        if a == c:
            raise SystemExit(f"FAIL {workload}: two seeds gave the same inputs")
        ok(f"{workload}: seed 7 twice gives identical inputs, seed 8 different ones")


def test_checkers() -> None:
    ctx = wl.RoundContext(sf)

    # tables: one count of a compatible table, and a zeta bracket
    p = {"lam": 4, "nu": 80}
    table = wl.RUN["compatible"](sf, ctx, p)
    wl.CHECK["compatible"](table, p)
    rows = [list(row) for row in table.counts]
    rows[1][80] += 1
    bad = dataclasses.replace(table, counts=tuple(tuple(r) for r in rows))
    rejects(wl.CHECK["compatible"], bad, p, "tables: a compatible count off by one")
    p = {"lams": [5, 28]}
    sings = wl.RUN["zeta"](sf, ctx, p)
    wl.CHECK["zeta"](sings, p)
    rejects(wl.CHECK["zeta"], [sings[0], dataclasses.replace(sings[1], high=sings[1].low)], p,
            "tables: a zeta bracket without a sign change")

    # series: one coefficient of the island generating function
    p = {"form": "closed", "order": 5}
    series = wl.RUN["island_gf"](sf, ctx, p)
    wl.CHECK["island_gf"](series, p)
    coeffs = list(series.coeffs)
    coeffs[4] = coeffs[4] + 1
    bad = sf.TruncatedSeries(series.variable, coeffs, series.order, series.zero)
    rejects(wl.CHECK["island_gf"], bad, p, "series: an island coefficient off by one")

    # shapes: one step of a decoded path, and a hairpin count
    p = {"shape": "random", "steps": "UBURDD"}
    encoded, decoded = wl.RUN["path2"](sf, ctx, p)
    wl.CHECK["path2"]((encoded, decoded), p)
    bad = sf.LatticePath(sf.PathKind.MOTZKIN2, "URUBDD")
    rejects(wl.CHECK["path2"], (encoded, bad), p, "shapes: a round trip that changed a step")
    p = {"text": "..((...))((...)).."}
    out = wl.RUN["structure"](sf, ctx, p)
    wl.CHECK["structure"](out, p)
    bad = out[:5] + (out[5]._replace(hairpins=out[5].hairpins + 1),)
    rejects(wl.CHECK["structure"], bad, p, "shapes: a pi_stats hairpin count off by one")

    # cli: one byte of stdout
    golden = run.load_golden()
    p = {"argv": ["count", "islands", "--ell", "3", "--format", "csv"]}
    res = wl.run_cli_inprocess(sf, ctx, p)
    wl.check_cli(res, p, golden)
    bad = wl.CliResult(res.exit, res.stdout.replace(b"1", b"2", 1), res.stderr, None)
    rejects(lambda o, q: wl.check_cli(o, q, golden), bad, p, "cli: stdout with one byte changed")


def test_roots() -> None:
    ops = {
        "tables": [("compatible", {"lam": 4, "nu": 60}), ("zeta", {"lams": [3, 30]}),
                   ("asym", {"target": "pi_total", "lam": 4, "nu": 60})],
        "series": [("island_gf", {"form": "closed", "order": 4}), ("identity", {"name": "coker1"})],
        "shapes": [("structure", {"text": "..((...))((...)).."}),
                   ("path1", {"shape": "random", "steps": "UHUDHD"})],
        "cli": [("cli", {"argv": ["compatible", "--lambda", "4", "--nu", "310", "--format", "json"]})],
    }
    golden = run.load_golden()
    for workload, round_ops in ops.items():
        tracer = Tracer()
        tracer.install(sf)
        sample = run.Sample()
        try:
            runners = {"cli": wl.run_cli_inprocess}
            run.run_round(round_ops, sf, {}, golden, sample, runners, tracer.root)
        finally:
            tracer.uninstall()
        roots = tracer.roots()
        names = [tracer.names[tracer.name[i]] for i in roots]
        if sample.failures or len(roots) != len(round_ops) or not all(n.startswith("bench.") for n in names):
            raise SystemExit(f"FAIL {workload}: roots {names} for {len(round_ops)} operations; "
                             f"failures {sample.failures}")
        if any(tracer.parent[i] >= i for i in range(len(tracer.start))):
            raise SystemExit(f"FAIL {workload}: a span's parent opened after it")
        if len(tracer.start) <= len(roots):
            raise SystemExit(f"FAIL {workload}: no layer spans under the roots")
        ok(f"{workload}: {len(roots)} root spans for {len(round_ops)} operations, "
           f"{len(tracer.start) - len(roots)} layer spans beneath")


if __name__ == "__main__":
    test_seeds()
    test_checkers()
    test_roots()
    print("selftest: all passed")
