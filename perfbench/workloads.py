"""What each benchmark operation runs and how its output is checked.

An operation is ``(kind, params)`` from inputs.py.  ``run`` calls the
library (or the CLI) and returns the raw output; ``check`` compares that
output with an independent route from reference.py and raises Mismatch.
Only ``run`` is timed.  Library functions are looked up on the package at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference as ref
from reference import expect

_HAIRPIN = re.compile(r"\(\.*\)")

# instances checked by verify_identity at its default bounds
_IDENTITY_INSTANCES = {
    "narayana_motzkin": 12,
    "coker1": 12,
    "coker2": 12,
    "touchard": 12,
    "chu_vandermonde": 196,
    "parity_m0m1": 30,
    "pi_parity": 102,
    "island_gf_forms_agree": 11,
}


class RoundContext:
    """State shared by the operations of one round: the ExactCounts that
    the identity suite shares, as ``verify all`` shares one, and the pinned
    child environment of the CLI commands."""

    def __init__(self, sf, root: Path | None = None, env: dict | None = None):
        self.counts = sf.ExactCounts()
        self.root = root
        self.env = env

    def run_cli(self, argv: list, capped: bool = False) -> "CliResult":
        return run_child([sys.executable, "-m", "shapeforge.cli", *argv], self.env, self.root, capped)


# ---------------------------------------------------------------------------
# tables


def _run_compatible(sf, ctx, p):
    return sf.compatible_counts(p["lam"], p["nu"], sf.ExactCounts())


def _check_compatible(out, p):
    ref.check_compatible(out, p["lam"], p["nu"])


def _run_asym(sf, ctx, p):
    args = {k: v for k, v in p.items() if k != "target"}
    return sf.asym_count(p["target"], counts=sf.ExactCounts(), **args)


def _check_asym(out, p):
    target = p["target"]
    if target == "motzkin_number":
        exact = ref.motzkin_numbers(p["n"])[p["n"]]
    elif target == "level0_total":
        exact = ref.level0_rows(p["n"], p["r0"])[p["r0"]][p["n"]]
    elif target == "level0_weighted_sum":
        exact = ref.level0_weighted(p["n"])
    else:
        pi = ref.PiReference(p["lam"], p["nu"])
        exact = {
            "pi_total": pi.totals,
            "pi_weighted_sum": pi.weighted,
            "pi_r0": pi.rows[p.get("r0", 0)],
        }[target][p["nu"]]
    expect(out.target == target, f"report target {out.target} != {target}")
    expect(out.exact == exact, f"{target} {p}: exact count differs")
    expect(out.asymptotic > 0 and math.isfinite(out.ratio) and out.ratio > 0,
           f"{target} {p}: asymptotic {out.asymptotic}, ratio {out.ratio}")
    if math.isfinite(out.asymptotic):  # beyond float range only the ratio is reported
        expected_ratio = math.exp(math.log(exact) - math.log(out.asymptotic))
        expect(math.isclose(out.ratio, expected_ratio, rel_tol=1e-9), f"{target} {p}: ratio differs")


def _run_convergence(sf, ctx, p):
    args = {k: v for k, v in p.items() if k != "family"}
    return sf.convergence_report(p["family"], counts=sf.ExactCounts(), **args)


def _check_convergence(out, p):
    expect(len(out) == 9, f"convergence {p}: {len(out)} rows, expected 9")
    if p["family"] == "level0":
        n = p["n"]
        motzkin = ref.motzkin_numbers(n)[n]
        rows = ref.level0_rows(n, 8)
        for r0, (k, exact, asym, dev) in enumerate(out):
            want = float(Fraction(rows[r0][n], motzkin))
            limit = (r0 + 1) / 2 ** (r0 + 2)
            expect(k == r0 and exact == want and asym == limit and dev == abs(want - limit),
                   f"level0 n={n}: row {r0} differs")
    else:
        lam, nu = p["lam"], p["nu"]
        pi = ref.PiReference(lam, nu)
        for r0, (k, exact, asym, dev) in enumerate(out):
            want = float(Fraction(pi.rows[r0][nu], pi.totals[nu]))
            expect(k == r0 and exact == want, f"pi lam={lam} nu={nu}: row {r0} frequency differs")
            expect(math.isclose(asym, ref.pi_limit(lam, r0), rel_tol=1e-9),
                   f"pi lam={lam}: limit at r0={r0} differs")
            expect(dev == abs(exact - asym), f"pi lam={lam}: deviation at r0={r0} differs")


def _run_zeta(sf, ctx, p):
    return [sf.deflate(lam, sf.find_zeta(lam)) for lam in p["lams"]]


def _check_zeta(out, p):
    expect(len(out) == len(p["lams"]), "zeta sweep lost a lambda")
    for sing, lam in zip(out, p["lams"]):
        ref.check_zeta(sing, lam)


# ---------------------------------------------------------------------------
# series


def _run_island_gf(sf, ctx, p):
    return sf.expand_island_gf(p["order"], p["form"], sf.ExactCounts())


def _check_island_gf(out, p):
    expect(out.order == p["order"], "island series has the wrong order")
    for ell in range(p["order"] + 1):
        expect(ref.poly_terms(out.coefficient(ell)) == ref.island_terms(ell),
               f"island gf ({p['form']}): coefficient of z^{ell} differs")


def _run_motzkin_gf(sf, ctx, p):
    return sf.expand_motzkin_gf(p["order"], with_v=True, counts=sf.ExactCounts())


def _check_motzkin_gf(out, p):
    expect(out.order == p["order"], "Motzkin series has the wrong order")
    for n in range(p["order"] + 1):
        expect(ref.poly_terms(out.coefficient(n)) == ref.motzkin_terms(n),
               f"Motzkin gf: coefficient of w^{n} differs")


def _run_level0_gf(sf, ctx, p):
    t = Fraction(*p["t"]) if "t" in p else None
    return sf.expand_level0_gf(p["order"], sf.ExactCounts(), t=t)


def _check_level0_gf(out, p):
    expect(out.order == p["order"], "level-0 series has the wrong order")
    for n in range(p["order"] + 1):
        terms = ref.level0_terms(n)
        c = out.coefficient(n)
        if "t" in p:
            t = Fraction(*p["t"])
            want = sum(count * t ** r0 for (r0,), count in terms.items())
            expect(c == want, f"level-0 gf at t={t}: coefficient of w^{n} differs")
        else:
            expect(ref.poly_terms(c) == terms, f"level-0 gf: coefficient of w^{n} differs")


def _run_identity(sf, ctx, p):
    return sf.verify_identity(p["name"], None, ctx.counts)


def _check_identity(out, p):
    expect(out.name == p["name"], f"report for {out.name}, expected {p['name']}")
    expect(out.passed, f"identity {p['name']} failed at {out.counterexample}")
    expect(len(out.instances) == _IDENTITY_INSTANCES[p["name"]],
           f"identity {p['name']}: {len(out.instances)} instances checked")


# ---------------------------------------------------------------------------
# shapes


def _run_structure(sf, ctx, p):
    ss = sf.parse_structure(p["text"])
    report = sf.analyze_elements(ss)
    island = sf.to_island_diagram(ss)
    prime = sf.to_pi_prime(ss)
    pi = sf.to_pi(prime)
    return ss, report, island, prime, pi, sf.pi_stats(pi)


def _check_structure(out, p):
    text = p["text"]
    ss, report, island, prime, pi, stats = out
    hairpins = len(_HAIRPIN.findall(text))
    expect(ss.n == len(text) and len(ss.pairs) == text.count("("), "parsed structure differs")
    expect(len(report.hairpins) == hairpins, "analyze_elements hairpin count differs")
    expect(stats.hairpins == hairpins, "pi_stats hairpin count differs from analyze_elements")
    expect(stats.components == report.external_components, "pi_stats component count differs")
    expect(island.text.count("(") == text.count("("), "island diagram lost base pairs")
    expect(pi.text.count("[") <= prime.text.count("["), "pi shape has more pairs than pi-prime")


def _run_path(kind):
    def run(sf, ctx, p):
        if kind == 2:
            encoded = sf.encode2(sf.parse_path(p["steps"], sf.PathKind.MOTZKIN2))
            return encoded, sf.decode2(encoded)
        shape = sf.encode1(sf.parse_path(p["steps"], sf.PathKind.MOTZKIN1))
        return shape.text, sf.decode1(shape)
    return run


def _check_path(out, p):
    encoded, decoded = out
    expect(len(encoded) == 2 * (len(p["steps"]) + 1), "encoding has the wrong length")
    expect(decoded.steps == p["steps"], f"{p['shape']} path: round trip differs")


# ---------------------------------------------------------------------------
# cli


class CliResult:
    __slots__ = ("exit", "stdout", "stderr", "maxrss_kb", "cpu_s")

    def __init__(self, exit_code, stdout, stderr, maxrss_kb, cpu_s=None):
        self.exit = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb
        self.cpu_s = cpu_s  # the child's own user + system time


def child_env(root: Path) -> dict:
    """The pinned environment of every child process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SHAPEFORGE_MAX_N"}
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


# caps of the capped defect probe, applied in the child only
PROBE_CPU_S = 10
PROBE_AS_BYTES = 512 * 1024 * 1024


def _cap_child():
    resource.setrlimit(resource.RLIMIT_CPU, (PROBE_CPU_S, PROBE_CPU_S))
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_AS_BYTES, PROBE_AS_BYTES))


def run_child(argv: list, env: dict, cwd: Path, capped: bool = False,
              timeout: float = 150.0) -> CliResult:
    """Run one command in a child, wait for it and keep its own peak RSS.

    Stderr goes to a file under ``cwd/.perfbench`` rather than a second
    pipe, so reading stdout to its end cannot block on it."""
    state = cwd / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=state) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err,
                                preexec_fn=_cap_child if capped else None)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return CliResult(proc.returncode, stdout, err.read(), usage.ru_maxrss,
                         usage.ru_utime + usage.ru_stime)


def _run_cli_child(sf, ctx, p):
    return ctx.run_cli(p["argv"], p.get("capped", False))


def run_cli_inprocess(sf, ctx, p):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = sf.cli.main(list(p["argv"]))
    return CliResult(code, buf.getvalue().encode(), b"", None)


def check_cli(out, p, golden):
    argv = p["argv"]
    if argv == ["count", "catalan", "--n", "7200"]:
        want = _catalan_text(7200)
    elif argv[:3] == ["compatible", "--lambda", "1"]:
        expect(out.exit == 0, f"{' '.join(argv)}: exit {out.exit}: {out.stderr[-200:]!r}")
        _check_compatible_text(out.stdout, 1, int(argv[4]))
        return
    else:
        want = golden[json.dumps(argv)].encode()
    expect(out.exit == 0, f"{' '.join(argv)}: exit {out.exit}: {out.stderr[-200:]!r}")
    expect(out.stdout == want, f"{' '.join(argv)}: stdout differs from the golden output")


def _catalan_text(n: int) -> bytes:
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return (str(math.comb(2 * n, n) // (n + 1)) + "\n").encode()
    finally:
        sys.set_int_max_str_digits(old)


def _check_compatible_text(stdout: bytes, lam: int, nu: int) -> None:
    """Plain ``compatible`` output: rows r0 <= 8 and the sum of all rows."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines = stdout.decode().splitlines()
        expect(lines[0].split() == ["r0", "count"], "compatible output has no header")
        counts = [int(line.split()[1]) for line in lines[1:]]
    finally:
        sys.set_int_max_str_digits(old)
    pi = ref.PiReference(lam, nu)
    expect(len(counts) == pi.r0_max + 1, "compatible output has the wrong number of rows")
    for r0, row in enumerate(pi.rows):
        expect(counts[r0] == row[nu], f"compatible lam={lam} nu={nu}: row {r0} differs")
    expect(sum(counts) == pi.totals[nu], f"compatible lam={lam} nu={nu}: rows do not sum to the total")


# ---------------------------------------------------------------------------


RUN = {
    "compatible": _run_compatible,
    "asym": _run_asym,
    "convergence": _run_convergence,
    "zeta": _run_zeta,
    "island_gf": _run_island_gf,
    "motzkin_gf": _run_motzkin_gf,
    "level0_gf": _run_level0_gf,
    "identity": _run_identity,
    "structure": _run_structure,
    "path2": _run_path(2),
    "path1": _run_path(1),
    "cli": _run_cli_child,
}

CHECK = {
    "compatible": _check_compatible,
    "asym": _check_asym,
    "convergence": _check_convergence,
    "zeta": _check_zeta,
    "island_gf": _check_island_gf,
    "motzkin_gf": _check_motzkin_gf,
    "level0_gf": _check_level0_gf,
    "identity": _check_identity,
    "structure": _check_structure,
    "path2": _check_path,
    "path1": _check_path,
}
