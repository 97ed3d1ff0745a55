import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import guard_sweep
from shapeforge import cli, series
from shapeforge.asymptotics import asym_count
from shapeforge.cli import main
from shapeforge.series import IDENTITY_BOUNDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_abstract_pi_chain(capsys):
    code, out, _ = run(capsys, "abstract", "--level", "pi",
                       "--in", "...((((...)..((...))))..)")
    assert code == 0
    assert out.strip() == "[[][]]"


def test_abstract_levels(capsys):
    code, out, _ = run(capsys, "abstract", "--level", "island", "--in", "((...)....)")
    assert (code, out.strip()) == (0, "((_)_)")
    code, out, _ = run(capsys, "abstract", "--level", "pi-prime", "--in", "((...)....)")
    assert (code, out.strip()) == (0, "[[_]_]")


def test_bijection_encode2_base_case(capsys):
    code, out, _ = run(capsys, "bijection", "encode2", "--path", "")
    assert code == 0
    assert out.strip() == "()"


def test_bijection_round_trip(capsys):
    code, out, _ = run(capsys, "bijection", "encode2", "--path", "UBURDD")
    assert out.strip() == "(()((())()()))"
    code, out, _ = run(capsys, "bijection", "decode2", "--in", "(()((())()()))")
    assert out.strip() == "UBURDD"
    code, out, _ = run(capsys, "bijection", "decode1", "--path", "[][]")
    assert out.strip() == "H"


def test_validate_ok_and_errors(capsys):
    code, out, _ = run(capsys, "validate", "--in", "((...))")
    assert code == 0 and out.strip() == "valid"
    code, _, err = run(capsys, "validate", "--in", "()")
    assert code == 1
    assert "AdjacentPair" in err
    code, _, err = run(capsys, "validate", "--in", "((..)")
    assert code == 1
    assert "UnbalancedBrackets" in err


def test_usage_error_exits_two(capsys):
    code, _, err = run(capsys, "abstract", "--in", "...")
    assert code == 2
    code, _, err = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "--in" in err
    code, _, err = run(capsys, "asymptotics", "--target", "pi_r0",
                       "--lambda", "4", "--nu", "60")
    assert code == 2
    assert "--r0" in err
    code, _, err = run(capsys, "count", "catalan")
    assert code == 2


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "--in", "..((...))((...))..",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "shapeforge/1"
    assert doc["counts"]["hairpins"] == 2
    assert doc["counts"]["external_components"] == 2
    assert doc["counts"]["tails"] == 2


def test_count_families(capsys):
    code, out, _ = run(capsys, "count", "catalan", "--n", "10")
    assert (code, out.strip()) == (0, "16796")
    code, out, _ = run(capsys, "count", "motzkin", "--n", "7")
    assert (code, out.strip()) == (0, "127")
    code, out, _ = run(capsys, "count", "islands", "--ell", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "hairpins,islands,count"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 6
    code, out, _ = run(capsys, "count", "level0", "--n", "4", "--format", "csv")
    assert out.strip().splitlines()[1:] == ["0,3", "1,2", "2,3", "3,0", "4,1"]


def test_distribution_csv_shape(capsys):
    code, out, _ = run(capsys, "distribution", "level0", "--n", "100",
                       "--r0-max", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r0,exact,asymptotic,deviation"
    assert len(lines) == 10
    code, out2, _ = run(capsys, "distribution", "level0", "--n", "100",
                        "--r0-max", "8", "--format", "csv")
    assert out == out2  # byte-deterministic


def test_distribution_pi(capsys):
    code, out, _ = run(capsys, "distribution", "pi", "--lambda", "4",
                       "--nu", "60", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "shapeforge/1"
    assert len(doc["rows"]) == 9


def test_verify_single_and_all(capsys):
    code, out, _ = run(capsys, "verify", "touchard", "--n", "6")
    assert code == 0
    assert "touchard: pass" in out
    code, out, _ = run(capsys, "verify", "coker1", "--n", "5", "--format", "json")
    doc = json.loads(out)
    assert doc["reports"][0]["status"] == "pass"
    code, _, err = run(capsys, "verify", "not_an_identity")
    assert code == 2  # argparse rejects unknown choices


def test_asymptotics_zeta(capsys):
    code, out, _ = run(capsys, "asymptotics", "--target", "zeta",
                       "--lambda", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert 0.7562 <= doc["zeta"] <= 0.7564
    assert abs(doc["expected_r0"] - 1.316) < 2e-3


def test_asymptotics_zeta_paper_numbers_are_pinned(capsys):
    code, out, _ = run(capsys, "asymptotics", "--target", "zeta", "--lambda", "4")
    assert code == 0
    assert out == (
        "lambda: 4\n"
        "zeta: 0.75632762032\n"
        "parity: even\n"
        "cofactor_at_zeta: 5.8263106431\n"
        "distribution_base: 0.36388041871\n"
        "expected_r0: 1.3155123715\n"
    )


def test_count_prints_integers_past_the_digit_limit(capsys):
    # C_7200 has 4330 digits, past CPython's default int-to-str limit
    limit = sys.get_int_max_str_digits()
    expected = math.comb(14400, 7200) // 7201
    code, plain, err = run(capsys, "count", "catalan", "--n", "7200")
    assert (code, err) == (0, "")
    code, doc, err = run(capsys, "count", "catalan", "--n", "7200", "--format", "json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # main() restores the limit
    sys.set_int_max_str_digits(0)
    try:
        assert plain == f"{expected}\n"
        assert json.loads(doc) == {"schema": "shapeforge/1", "value": expected}
    finally:
        sys.set_int_max_str_digits(limit)


def test_asymptotics_ratio(capsys):
    code, out, _ = run(capsys, "asymptotics", "--target", "motzkin_number",
                       "--n", "200", "--format", "json")
    doc = json.loads(out)
    assert 0.95 <= doc["ratio"] <= 1.05


def test_compatible_counts_command(capsys):
    code, out, _ = run(capsys, "compatible", "--lambda", "4", "--nu", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 2
    code, out, _ = run(capsys, "compatible", "--lambda", "4", "--nu", "10",
                       "--r0-max", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "r0,count"
    assert len(lines) == 4


def test_count_refuses_sizes_above_its_guard(capsys):
    code, out, err = run(capsys, "count", "motzkin", "--n", "20001")
    assert (code, out) == (1, "")
    assert "ResourceGuardExceeded" in err
    code, out, err = run(capsys, "count", "islands", "--ell", "201", "--format", "csv")
    assert (code, out) == (1, "")
    assert "ResourceGuardExceeded" in err
    code, out, err = run(capsys, "count", "motzkin", "--n", "10000")
    assert (code, err) == (0, "")
    assert len(out) > 4000


@pytest.mark.parametrize("target, extra", [
    ("motzkin_number", ()),
    ("level0_total", ("--r0", "2")),
    ("level0_weighted_sum", ()),
])
def test_asymptotics_refuses_n_above_the_count_motzkin_guard(capsys, target, extra):
    code, out, err = run(capsys, "asymptotics", "--target", target, "--n", "20001", *extra)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "ResourceGuardExceeded" in err
    code, out, err = run(capsys, "asymptotics", "--target", target, "--n", "30", *extra)
    assert (code, err) == (0, "")
    assert "ratio" in out


@pytest.mark.parametrize("family, flag, size", [
    ("catalan", "--n", -1),
    ("motzkin", "--n", -1),
    ("motzkin-coeff", "--n", -1),
    ("narayana", "--n", 0),
    ("convolution", "--n", 0),
    ("level0", "--n", -1),
    ("islands", "--ell", 0),
])
def test_count_refuses_sizes_below_the_family_minimum(capsys, family, flag, size):
    code, out, err = run(capsys, "count", family, flag, str(size))
    assert (code, out) == (1, "")
    assert "ValueError" in err
    code, out, err = run(capsys, "count", family, flag, str(size + 1))
    assert (code, err) == (0, "")
    assert len(out.strip().splitlines()) >= (1 if family in ("catalan", "motzkin") else 2)


def test_verify_refuses_bounds_above_its_guard(capsys):
    code, out, err = run(capsys, "verify", "chu_vandermonde", "--n", "31")
    assert (code, out) == (1, "")
    assert "ResourceGuardExceeded" in err
    # verify all refuses before any identity runs, so nothing is printed
    code, out, err = run(capsys, "verify", "all", "--order", "19")
    assert (code, out) == (1, "")
    assert "island_gf_forms_agree" in err


@pytest.mark.parametrize("name", sorted(set(IDENTITY_BOUNDS) - {"island_gf_forms_agree"}))
def test_verify_refuses_order_for_identities_without_a_series_order(capsys, name):
    code, out, err = run(capsys, "verify", name, "--order", "5")
    assert (code, out) == (2, "")
    assert "--order" in err and name in err


@pytest.mark.parametrize("name", ["island_gf_forms_agree", "all"])
def test_verify_refuses_both_n_and_order_for_the_gf_check(capsys, name):
    code, out, err = run(capsys, "verify", name, "--n", "3", "--order", "5")
    assert (code, out) == (2, "")
    assert "--n or --order" in err


def test_verify_order_bounds_the_gf_check(capsys):
    code, out, err = run(capsys, "verify", "island_gf_forms_agree", "--order", "4")
    assert (code, out, err) == (0, "island_gf_forms_agree: pass (z order 0..4)\n", "")
    # under `all` the order bounds the gf check and the rest keep their defaults
    code, out, err = run(capsys, "verify", "all", "--order", "4")
    assert (code, err) == (0, "")
    assert "island_gf_forms_agree: pass (z order 0..4)\n" in out
    assert "coker1: pass (n = 1..12)\n" in out


@pytest.mark.parametrize("name", sorted(IDENTITY_BOUNDS))
def test_verify_refuses_bounds_below_the_identity_minimum(capsys, name):
    minimum = IDENTITY_BOUNDS[name][0]
    code, out, err = run(capsys, "verify", name, "--n", str(minimum - 1))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "ValueError" in err and name in err
    code, out, err = run(capsys, "verify", name, "--n", str(minimum))
    assert (code, err) == (0, "")
    assert out.startswith(f"{name}: pass")


def test_asymptotic_beyond_float_range_prints_mantissa_and_exponent(capsys):
    argv = ("asymptotics", "--target", "motzkin_number", "--n", "10000")
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "asymptotic: 2.39124539506e+4765\n" in plain

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    code, doc, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parsed = json.loads(doc, parse_constant=refuse)
    finally:
        sys.set_int_max_str_digits(limit)
    assert parsed["asymptotic"] == "2.39124539506e+4765"
    assert 0.99 < parsed["ratio"] < 1.01


def test_distribution_level0_refuses_sizes_above_its_guard(capsys):
    code, out, err = run(capsys, "distribution", "level0", "--n", "601", "--format", "csv")
    assert (code, out) == (1, "")
    assert "ResourceGuardExceeded" in err
    code, out, err = run(capsys, "distribution", "level0", "--n", "110", "--r0-max", "601")
    assert (code, out) == (1, "")
    assert "ResourceGuardExceeded" in err


_COMPATIBLE = ("compatible", "--lambda", "4", "--nu", "30")
_PI = ("distribution", "pi", "--lambda", "4", "--nu", "30", "--format", "json")
_LEVEL0 = ("distribution", "level0", "--n", "20", "--format", "csv")


@pytest.mark.parametrize("argv, r0_max, error", [
    pytest.param(_COMPATIBLE, "-2", "ValueError", id="compatible-negative"),
    pytest.param(_PI, "-1", "ValueError", id="pi-negative"),
    pytest.param(_LEVEL0, "-1", "ValueError", id="level0-negative"),
    pytest.param(_COMPATIBLE, "2001", "ResourceGuardExceeded", id="compatible-above-guard"),
    pytest.param(_PI, "2001", "ResourceGuardExceeded", id="pi-above-guard"),
])
def test_r0_max_is_refused_outside_zero_to_its_guard(capsys, argv, r0_max, error):
    code, out, err = run(capsys, *argv, "--r0-max", r0_max)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {error}") and "--r0-max" in err
    inside = "0" if r0_max.startswith("-") else "2000"
    code, out, err = run(capsys, *argv, "--r0-max", inside)
    assert (code, err) == (0, "")


def test_domain_error_is_one_line_naming_invariant(capsys):
    code, out, err = run(capsys, "bijection", "decode1", "--in", "[[]]")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "DirectlyNested" in err


# every subcommand at a small size in plain, csv and json; the expected bytes
# are the output of the CLI before its formats went through one renderer,
# except abstract and bijection under csv and json, which then ignored
# --format and now print like every other value command
_PINNED = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())["runs"]


@pytest.mark.parametrize("argv, stdout", [(r["argv"], r["stdout"]) for r in _PINNED],
                         ids=[" ".join(r["argv"]) for r in _PINNED])
def test_every_subcommand_prints_its_pinned_output(capsys, argv, stdout):
    assert run(capsys, *argv) == (0, stdout, "")


@pytest.mark.parametrize("r0, error", [("-1", "ValueError"), ("2001", "ResourceGuardExceeded")])
def test_asymptotics_pi_r0_fails_cleanly_on_a_large_or_negative_r0(capsys, r0, error):
    code, out, err = run(capsys, "asymptotics", "--target", "pi_r0",
                         "--lambda", "4", "--nu", "60", "--r0", r0)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {error}")


# the first r0 at which the direct product of the pi_r0 constant leaves the
# float range at nu = 60, for each lam
_PI_R0_FIRST_OUT_OF_RANGE = {1: 722, 4: 618, 32: 530}


@pytest.mark.parametrize("lam", [1, 4, 32])
@pytest.mark.parametrize("r0", ["first", 1021, 1500, 2000])
def test_asymptotics_pi_r0_past_the_float_range(capsys, lam, r0):
    r0 = _PI_R0_FIRST_OUT_OF_RANGE[lam] if r0 == "first" else r0
    code, out, err = run(capsys, "asymptotics", "--target", "pi_r0",
                         "--lambda", str(lam), "--nu", "60", "--r0", str(r0))
    assert (code, err) == (0, "")
    assert "\nexact: 0\n" in out and out.endswith("\nratio: 0\n")


# the first r0 at which the pi_r0 asymptotic falls below the smallest normal
# float at nu = 60, for each lam
_PI_R0_FIRST_UNDERFLOW = {1: 1070, 4: 785, 32: 612}


@pytest.mark.parametrize("lam", [1, 4, 32])
@pytest.mark.parametrize("r0", ["first", 2000])
def test_an_underflowing_asymptotic_prints_mantissa_and_exponent(capsys, lam, r0):
    r0 = _PI_R0_FIRST_UNDERFLOW[lam] if r0 == "first" else r0
    report = asym_count("pi_r0", lam=lam, nu=60, r0=r0)
    assert report.asymptotic < sys.float_info.min and math.isfinite(report.log_asymptotic)
    if r0 < 2000:
        assert asym_count("pi_r0", lam=lam, nu=60, r0=r0 - 1).asymptotic >= sys.float_info.min
    argv = ("asymptotics", "--target", "pi_r0", "--lambda", str(lam), "--nu", "60", "--r0", str(r0))
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    printed = dict(line.split(": ") for line in plain.splitlines())
    code, doc, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    for text in (printed["asymptotic"], json.loads(doc)["asymptotic"]):
        mantissa, exponent = text.split("e-")
        assert 1 <= float(mantissa) < 10
        log10 = math.log10(float(mantissa)) - int(exponent)
        assert abs(log10 - report.log_asymptotic / math.log(10)) < 1e-9


def test_asymptotics_pi_r0_keeps_the_direct_product_inside_the_float_range(capsys):
    assert run(capsys, "asymptotics", "--target", "pi_r0",
               "--lambda", "4", "--nu", "60", "--r0", "617") == (0, (
                   "target: pi_r0\nlam: 4\nnu: 60\nr0: 617\nexact: 0\n"
                   "asymptotic: 4.4851965622e-241\nratio: 0\n"), "")


@pytest.mark.parametrize("exc", [MemoryError, RecursionError, OverflowError])
def test_resource_exhaustion_exits_one_with_empty_stdout(capsys, monkeypatch, exc):
    calls = []

    def island_count(self, h, islands, ell):
        calls.append(h)
        if len(calls) == 50:  # part of the table is already computed
            raise exc("out of room")
        return 1

    monkeypatch.setattr(cli.ExactCounts, "island_count", island_count)
    code, out, err = run(capsys, "count", "islands", "--ell", "20")
    assert (code, out) == (1, "")
    assert err == f"error: {exc.__name__}: out of room\n"


@pytest.mark.parametrize("argv", [
    ["count", "motzkin", "--n", "5"],  # fits the stdout buffer: fails at the flush
    ["count", "narayana", "--n", "2000"],  # fails while the rows are written
])
def test_a_stdout_closed_early_exits_141_quietly(argv):
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "shapeforge.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# A child's ru_maxrss starts from the RSS of the process that spawned it,
# so a small python process spawns the command and reports its peak.  Its
# first two arguments cap the command's CPU seconds and address space in
# bytes; 0 leaves a limit as it is.
_SPAWN = """
import os, resource, subprocess, sys
cpu, address_space = map(int, sys.argv[1:3])

def caps():
    for limit, value in ((resource.RLIMIT_CPU, cpu), (resource.RLIMIT_AS, address_space)):
        if value:
            resource.setrlimit(limit, (value, value))

proc = subprocess.Popen([sys.executable, "-m", "shapeforge.cli", *sys.argv[3:]],
                        stdout=subprocess.DEVNULL, preexec_fn=caps)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(argv, cpu_s: int = 0, address_space: int = 0) -> float:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SPAWN, str(cpu_s), str(address_space), *argv],
                         env=env, check=True, capture_output=True, text=True).stdout
    code, kilobytes = map(int, out.split())
    assert code == 0
    return kilobytes / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_a_large_table_is_streamed_not_joined(fmt):
    # 28-30 MB when the rows are written a line (a block of JSON rows) at a
    # time; joining the 9.5 MB of plain output into one string first takes
    # it to about 50 MB, and json.dumps of the whole JSON document to 63 MB
    assert _peak_rss_mb(["count", "islands", "--ell", "200", "--format", fmt]) < 45


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
@pytest.mark.parametrize("argv", [
    ["asymptotics", "--target", "pi_total", "--lambda", "1", "--nu", "2000"],
    ["asymptotics", "--target", "pi_r0", "--lambda", "1", "--nu", "2000", "--r0", "2000"],
    ["distribution", "pi", "--lambda", "1", "--nu", "2000", "--r0-max", "2000"],
])
def test_pi_queries_at_the_nu_guard_finish_under_caps(argv):
    # at lambda 1 the compatible_counts table for this nu takes over 60 s of
    # CPU; read off S = sqrt(p), each query takes under a second and 18 MB
    assert _peak_rss_mb(argv, cpu_s=10, address_space=512 << 20) < 64


def test_json_rows_in_several_blocks_are_one_document(capsys):
    _, doc, _ = run(capsys, "count", "islands", "--ell", "40", "--format", "json")
    _, table, _ = run(capsys, "count", "islands", "--ell", "40", "--format", "csv")
    rows = [[int(v) for v in line.split(",")] for line in table.splitlines()[1:]]
    assert len(rows) > cli._JSON_ROWS
    parsed = json.loads(doc)
    assert doc == json.dumps(parsed) + "\n"
    assert [[r["hairpins"], r["islands"], r["count"]] for r in parsed["rows"]] == rows


@pytest.mark.parametrize("command, flag", list(cli.SIZE_BOUNDS),
                         ids=[f"{command} --{flag}" for command, flag in cli.SIZE_BOUNDS])
def test_every_size_bound_refuses_one_past_each_end(capsys, command, flag):
    minimum, maximum = cli.SIZE_BOUNDS[command, flag]
    for size in (maximum + 1, minimum - 1):
        for argv in guard_sweep.row_argvs(command, flag, size):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.count("\n") == 1 and f"--{flag} " in err, (argv, err)


def test_no_nu_bound_exceeds_the_library_guard():
    assert all(maximum <= series.PI_NU_LIMIT
               for (_, flag), (_, maximum) in cli.SIZE_BOUNDS.items() if flag == "nu")


@pytest.mark.parametrize("lam", range(1, 8))
def test_compatible_refuses_nu_past_the_ceiling_of_its_lambda(capsys, lam):
    # below lambda 8 the compatible_counts loop cannot finish nu = 2000 in
    # about 5 s, so each of these lambda has a lower ceiling of its own
    _, ceiling = cli.SIZE_BOUNDS[f"compatible --lambda {lam}", "nu"]
    code, out, err = run(capsys, "compatible", "--lambda", str(lam), "--nu", str(ceiling + 1))
    assert (code, out) == (1, "")
    assert err == (f"error: ResourceGuardExceeded: compatible --lambda {lam}: "
                   f"--nu {ceiling + 1} exceeds guard {ceiling}\n")


def test_compatible_accepts_the_largest_table_the_benchmark_asks_for(capsys):
    code, out, err = run(capsys, "compatible", "--lambda", "4", "--nu", "320")
    assert (code, err) == (0, "")
    assert out.startswith("r0  count\n")


def test_a_huge_lambda_is_refused_before_any_work(monkeypatch):
    # _pi_counts would build the dense singular polynomial of lambda first:
    # 9 s of CPU and 779 MB before it refused
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "shapeforge.cli", "distribution", "pi",
            "--lambda", "50000000", "--nu", "10"]
    code, out, err, cpu_s, _ = guard_sweep.run_capped(argv)
    assert (code, out) == (1, b"")
    assert err == (b"error: ResourceGuardExceeded: distribution pi: "
                   b"--lambda 50000000 exceeds guard 32\n")
    assert cpu_s < 2
