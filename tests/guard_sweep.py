"""Every size guard of the CLI at its maximum, and one past each bound.

Reads shapeforge.cli.SIZE_BOUNDS and shapeforge.series.IDENTITY_BOUNDS and
runs each command in a child process capped at 10 s of CPU and 512 MiB of
address space.  At a maximum the command must exit 0; at maximum + 1 and
at minimum - 1 it must exit 1 with nothing on stdout and one line on
stderr.  A row's other flags take their own maxima, and a lambda that is
not the row's flag takes the three smallest values and the largest, or,
for a command with no lambda row, the smallest lambda without a row of
its own.  The library's GF expansions run at their order guards, read
from their signatures, under the same caps, and one past each guard must
raise ResourceGuardExceeded.  The checkout's src/ comes first on the path
of the script and of every child, so it runs from a bare checkout:

    python3 tests/guard_sweep.py      # -v prints each run's CPU and peak RSS

Exits 1, after every run, if any run did not do what it must.
"""

import inspect
import os
import resource
import subprocess
import sys
import tempfile
from itertools import count
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from shapeforge import cli, series  # noqa: E402

CPU_S = 10
ADDRESS_SPACE = 512 << 20
FORMATS = ("plain", "csv", "json")

# the argvs of each command's rows, {flag} where a guarded flag's value goes
TEMPLATES = {
    "distribution level0": ("distribution level0 --n {n} --r0-max {r0-max}",),
    "distribution pi": ("distribution pi --lambda {lambda} --nu {nu} --r0-max {r0-max}",),
    "asymptotics": (
        "asymptotics --target motzkin_number --n {n}",
        "asymptotics --target level0_total --n {n} --r0 2",
        "asymptotics --target level0_weighted_sum --n {n}",
        "asymptotics --target zeta --lambda {lambda}",
        "asymptotics --target pi_total --lambda {lambda} --nu {nu}",
        "asymptotics --target pi_weighted_sum --lambda {lambda} --nu {nu}",
        "asymptotics --target pi_r0 --lambda {lambda} --nu {nu} --r0 {r0}",
    ),
    "compatible": ("compatible --lambda {lambda} --nu {nu} --r0-max {r0-max}",),
}

# each library GF call at its order guard, as (function, its guard parameter,
# the keyword arguments of the call)
GF_CALLS = (
    ("expand_level0_gf", "limit", {}),
    ("expand_level0_gf", "numeric_limit", {"t": 2}),
    ("expand_level0_gf", "numeric_limit", {"t": "Fraction(3, 7)"}),
    ("expand_level0_gf", "numeric_limit", {"t": 1}),
    ("expand_motzkin_gf", "MOTZKIN_GF_LIMIT", {}),
    ("expand_motzkin_gf", "MOTZKIN_GF_LIMIT", {"with_v": False}),
    ("expand_island_gf", "limit", {"form": "'narayana'"}),
    ("expand_island_gf", "limit", {"form": "'closed'"}),
    ("expand_island_gf", "limit", {"form": "'motzkin2'"}),
)


def _lambdas(head: str, fixed: dict) -> tuple:
    if "lambda" in fixed:
        return (int(fixed["lambda"]),)
    if (head, "lambda") in cli.SIZE_BOUNDS:
        low, high = cli.SIZE_BOUNDS[head, "lambda"]
        return (low, low + 1, low + 2, high)
    return (next(lam for lam in count(1)
                 if not any(c == f"{head} --lambda {lam}" for c, _ in cli.SIZE_BOUNDS)),)


def row_argvs(command: str, flag: str, size: int) -> list:
    """Each argv that runs --flag of the table row (command, flag) at size."""
    if command.startswith("count "):
        return [[*command.split(), f"--{flag}", str(size)]]
    head = next(h for h in TEMPLATES if command == h or command.startswith(h + " "))
    narrowing = command[len(head):].split()  # "--lambda 3" of a per-lambda row
    fixed = {name[2:]: value for name, value in zip(narrowing[::2], narrowing[1::2])}
    fixed[flag] = str(size)
    argvs = []
    for template in TEMPLATES[head]:
        if "{" + flag + "}" not in template:
            continue
        for lam in _lambdas(head, fixed) if "{lambda}" in template else (None,):
            label = head if lam is None else f"{head} --lambda {lam}"
            values = {"lambda": lam}
            for name in ("n", "nu", "r0", "r0-max"):
                if "{" + name + "}" in template:
                    values[name] = fixed.get(name) or cli._bounds(label, name)[1]
            argvs.append(template.format_map(values).split())
    return argvs


def table_runs() -> list:
    """(argv, accepted) for every table row and identity bound, each argv once."""
    runs = []
    for (command, flag), (minimum, maximum) in cli.SIZE_BOUNDS.items():
        formats = [["--format", f] for f in FORMATS] if command.startswith("count ") else [[]]
        runs += [(argv + fmt, True) for argv in row_argvs(command, flag, maximum) for fmt in formats]
        runs += [(argv, False) for size in (maximum + 1, minimum - 1)
                 for argv in row_argvs(command, flag, size)]
    for name, (minimum, _, maximum) in series.IDENTITY_BOUNDS.items():
        flags = ("n", "order") if name == "island_gf_forms_agree" else ("n",)
        runs += [(["verify", name, f"--{flag}", str(size)], size == maximum)
                 for flag in flags for size in (maximum, maximum + 1, minimum - 1)]
    return list(dict.fromkeys((tuple(argv), accepted) for argv, accepted in runs))


def gf_runs() -> list:
    """(python source, accepted) for each GF call at its guard and one past it."""
    runs = []
    for function, guard, kwargs in GF_CALLS:
        if guard.isupper():
            order = getattr(series, guard)
        else:
            order = inspect.signature(getattr(series, function)).parameters[guard].default
        args = "".join(f", {k}={v}" for k, v in kwargs.items())
        runs.append((f"{function}({order}{args})", True))
        runs.append((f"{function}({order + 1}{args})", False))
    return runs


_GF_CHILD = """
import sys
from fractions import Fraction
from shapeforge.errors import ResourceGuardExceeded
from shapeforge.series import expand_island_gf, expand_level0_gf, expand_motzkin_gf
try:
    {call}
except ResourceGuardExceeded as exc:
    sys.exit(f"error: ResourceGuardExceeded: {{exc}}")
"""


def _caps():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_S, CPU_S))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_capped(argv: list) -> tuple:
    """Run argv in a capped child: (exit status, stdout, stderr, CPU s, peak RSS MB).
    The peak is at least the RSS of this process, which the child starts from."""
    env = dict(os.environ)
    env.pop("SHAPEFORGE_MAX_N", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, preexec_fn=_caps)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read(), err.read(),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def main(verbose: bool) -> int:
    runs = [([sys.executable, "-m", "shapeforge.cli", *argv], accepted, " ".join(argv))
            for argv, accepted in table_runs()]
    runs += [([sys.executable, "-c", _GF_CHILD.format(call=call)], accepted, call)
             for call, accepted in gf_runs()]
    failed = 0
    for argv, accepted, label in runs:
        code, out, err, cpu, rss = run_capped(argv)
        ok = code == 0 if accepted else code == 1 and not out and err.count(b"\n") == 1
        if verbose or not ok:
            status = "ok" if ok else "FAILED"
            print(f"{status:6} exit {code:3}  {cpu:6.2f} s  {rss:6.1f} MB  {label}", flush=True)
        if not ok:
            failed += 1
            print(f"       stderr: {err.decode(errors='replace').strip()[-300:]}", flush=True)
    print(f"{len(runs) - failed} of {len(runs)} guard runs as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main("-v" in sys.argv[1:]))
