"""Command-line front door.

A subcommand's handler computes its whole output as a ``Doc`` and returns
it; ``main`` then streams it through ``_render``, so a failed check or
computation never leaves partial stdout.  A table prints as its header and rows (in JSON, a "rows"
list of objects keyed by the header), a "value" field alone (in csv, under a
"value" header line), and other fields as "key: value" lines; JSON documents
carry the fields after a top-level schema tag "shapeforge/1".

Output is byte-deterministic for identical inputs: fixed field order, CSV
headers always emitted, floats printed with 12 significant digits, and JSON
never holds NaN or an infinity.  An asymptotic above or below the float
range (normal floats) prints in the same style, as a decimal mantissa and
signed exponent (a string in JSON).
Domain errors, and running out of memory, recursion depth or float range,
exit with status 1 and a one-line diagnostic; usage errors exit with status
2; a stdout closed early by its reader exits with status 141 (128 + SIGPIPE)
and prints nothing on stderr.  Integers print in full at any length.
Every size flag is refused outside its bounds before any work is done.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

from . import asymptotics, paths, series, structures
from .counting import ExactCounts
from .errors import ASYM_TARGETS, IDENTITY_NAMES, ResourceGuardExceeded, ShapeforgeError

SCHEMA = "shapeforge/1"


class UsageError(ValueError):
    """A missing or inconsistent flag; reported with exit status 2."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _fmt_exp(log_value: float) -> str:
    """exp(log_value) as _fmt prints a float, for values above or below the
    float range: a decimal mantissa and signed exponent, from the logarithm."""
    log10 = log_value / math.log(10)
    exponent = math.floor(log10)
    mantissa = float(format(10 ** (log10 - exponent), ".12g"))
    if mantissa >= 10:  # rounded up to the next power of ten
        mantissa, exponent = mantissa / 10, exponent + 1
    return f"{_fmt(mantissa)}e{exponent:+d}"


class Doc(NamedTuple):
    """A command's output: its fields, plus a header and rows for a table."""

    fields: dict
    header: tuple = ()
    rows: list = ()
    exit: int = 0


# NaN and infinities are not JSON; refuse them rather than print them
_JSON = json.JSONEncoder(allow_nan=False)
_JSON_ROWS = 1000  # rows encoded per piece of JSON output


def _json_ready(fields: dict) -> dict:
    # floats at the 12 digits they print with
    return {k: float(_fmt(v)) if isinstance(v, float) else v for k, v in fields.items()}


def _render(doc: Doc, fmt: str):
    """Yield the text of doc in fmt a line (a block of JSON rows) at a time."""
    fields, header, rows = doc.fields, doc.header, doc.rows
    if fmt == "json":
        head = _JSON.encode(_json_ready({"schema": SCHEMA, **fields}))
        if not header:
            yield head + "\n"
            return
        yield head[:-1] + ', "rows": ['
        for i in range(0, len(rows), _JSON_ROWS):
            block = [_json_ready(dict(zip(header, row))) for row in rows[i:i + _JSON_ROWS]]
            yield (", " if i else "") + _JSON.encode(block)[1:-1]
        yield "]}\n"
    elif header:
        sep = "," if fmt == "csv" else "  "
        yield sep.join(header) + "\n"
        for row in rows:
            yield sep.join(map(_fmt, row)) + "\n"
    elif "value" in fields:
        if fmt == "csv":
            yield "value\n"
        yield _fmt(fields["value"]) + "\n"
    else:
        for key, value in fields.items():
            yield f"{key}: {_fmt(value)}\n"


def _read_text(args) -> str:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="ascii") as fh:
            return fh.read().strip()
    if getattr(args, "text", None) is not None:
        return args.text
    raise UsageError("provide --in TEXT or --file PATH")


# Every size bound of the CLI but verify's (series.IDENTITY_BOUNDS):
# (command, flag) -> (minimum, maximum) of --flag.  A flag takes the row of
# the longest prefix of its command that has one, so ("asymptotics", "n")
# bounds every target that reads --n.  _check_size refuses a size outside
# its row before any work; no nu maximum exceeds series.PI_NU_LIMIT.  A comment
# gives the child CPU and peak RSS at the maximum, in the costliest format
# and other flags (CPython 3.11, 2 vCPUs, a speed that drifts up to 1.8x);
# tests/guard_sweep.py runs each row at its maximum and one past each end.
SIZE_BOUNDS = {
    ("count catalan", "n"): (0, 100000),  # 0.76 s, 15 MB
    ("count motzkin", "n"): (0, 20000),  # 0.24 s, 15 MB
    ("count motzkin-coeff", "n"): (0, 3000),  # 0.54 s, 18 MB
    ("count narayana", "n"): (1, 2000),  # 0.37 s, 19 MB
    ("count convolution", "n"): (1, 2000),  # 0.51 s, 18 MB
    ("count level0", "n"): (0, 400),  # 0.10 s, 15 MB
    ("count islands", "ell"): (1, 200),  # 0.90 s, 27 MB
    ("distribution level0", "n"): (0, 600),  # 0.23 s, 17 MB
    ("distribution level0", "r0-max"): (0, 600),  # 0.23 s, 17 MB
    ("distribution pi", "lambda"): (1, 32),  # find_zeta's range; 0.12 s, 18 MB
    ("distribution pi", "nu"): (0, 2000),  # 0.33 s, 19 MB
    ("distribution pi", "r0-max"): (0, 2000),  # 0.33 s, 19 MB
    ("asymptotics", "n"): (1, 20000),  # 0.30 s, 17 MB
    ("asymptotics", "lambda"): (1, 32),  # find_zeta's range; 0.16 s, 18 MB
    ("asymptotics", "nu"): (1, 2000),  # 0.42 s, 18 MB
    ("asymptotics", "r0"): (0, 2000),  # 0.42 s, 18 MB
    # compatible_counts' loop; below lambda 8, nu = 2000 takes over 5 s
    ("compatible --lambda 1", "nu"): (0, 900),  # 3.6 s, 44 MB
    ("compatible --lambda 2", "nu"): (0, 800),  # 3.7 s, 34 MB
    ("compatible --lambda 3", "nu"): (0, 1000),  # 3.9 s, 31 MB
    ("compatible --lambda 4", "nu"): (0, 1300),  # 4.5 s, 44 MB
    ("compatible --lambda 5", "nu"): (0, 1500),  # 4.1 s, 39 MB
    ("compatible --lambda 6", "nu"): (0, 1700),  # 4.0 s, 51 MB
    ("compatible --lambda 7", "nu"): (0, 1900),  # 4.1 s, 43 MB
    ("compatible", "nu"): (0, 2000),  # 3.1 s, 52 MB at lambda 8, less above
    ("compatible", "r0-max"): (0, 2000),  # 3.1 s, 52 MB
}
# each count family and the flag that sizes it
_COUNT_FLAGS = {command.split()[1]: flag for command, flag in SIZE_BOUNDS
                if command.startswith("count ")}


def _bounds(command: str, flag: str) -> tuple[int, int]:
    """The minimum and the guard of --flag in command: a verify identity's
    row of series.IDENTITY_BOUNDS, else the SIZE_BOUNDS row of the longest
    prefix of command that has one."""
    words = command.split()
    if words[0] == "verify":
        minimum, _, maximum = series.IDENTITY_BOUNDS[words[1]]
        return minimum, maximum
    while (" ".join(words), flag) not in SIZE_BOUNDS:
        words.pop()
    return SIZE_BOUNDS[" ".join(words), flag]


def _check_size(command: str, flag: str, size: int) -> None:
    """Refuse a size outside the bounds of --flag in command."""
    minimum, limit = _bounds(command, flag)
    if size < minimum:
        raise ValueError(f"{command}: --{flag} {size} is below {minimum}")
    if size > limit:
        raise ResourceGuardExceeded(f"{command}: --{flag} {size} exceeds guard {limit}")


# -- subcommand handlers ------------------------------------------------------


def _cmd_validate(args) -> Doc:
    ss = structures.parse_structure(_read_text(args))
    return Doc({"length": ss.n, "pairs": ss.text.count("("), "value": "valid"})


def _cmd_analyze(args) -> Doc:
    ss = structures.parse_structure(_read_text(args))
    report = structures.analyze_elements(ss)
    counts = {
        "hairpins": len(report.hairpins),
        "bulges": len(report.bulges),
        "tails": len(report.tails),
        "interior_loops": len(report.interior_loops),
        "multiloops": len(report.multiloops),
        "external_components": report.external_components,
        "stacks": len(report.stacks),
        "islands": len(report.islands),
    }
    if args.format != "json":
        return Doc({}, ("element", "count"), list(counts.items()))
    return Doc({
        "length": ss.n,
        "counts": counts,
        "hairpins": [{"pair": list(p), "loop": L} for p, L in report.hairpins],
        "bulges": [list(r) for r in report.bulges],
        "tails": [list(r) for r in report.tails],
        "interior_loops": [[list(a), list(b)] for a, b in report.interior_loops],
        "multiloops": [{"branches": k, "gaps": list(g)} for k, g in report.multiloops],
        "stacks": [{"pair": list(p), "length": k} for p, k in report.stacks],
        "islands": [list(r) for r in report.islands],
    })


def _cmd_abstract(args) -> Doc:
    ss = structures.parse_structure(_read_text(args))
    if args.level == "island":
        shape = structures.to_island_diagram(ss)
    elif args.level == "pi-prime":
        shape = structures.to_pi_prime(ss)
    else:
        shape = structures.to_pi(structures.to_pi_prime(ss))
    return Doc({"value": shape.text})


def _cmd_bijection(args) -> Doc:
    text = args.path if args.path is not None else args.text
    if text is None:
        raise UsageError("provide --path TEXT (or --in TEXT)")
    if args.direction == "encode2":
        out = paths.encode2(paths.parse_path(text, paths.PathKind.MOTZKIN2))
    elif args.direction == "encode1":
        out = paths.encode1(paths.parse_path(text, paths.PathKind.MOTZKIN1)).text
    elif args.direction == "decode2":
        out = paths.decode2(text).steps
    else:
        out = paths.decode1(text).steps
    return Doc({"value": out})


def _cmd_count(args) -> Doc:
    counts = ExactCounts()
    family = args.family
    flag = _COUNT_FLAGS[family]
    size = getattr(args, flag)
    _require(size is not None, f"{family} needs --{flag}")
    _check_size(f"count {family}", flag, size)
    if family == "catalan":
        return Doc({"value": counts.catalan(size)})
    if family == "motzkin":
        return Doc({"value": counts.motzkin_number(size)})
    if family == "motzkin-coeff":
        rows = [(k, counts.motzkin_poly_coeff(size, k)) for k in range(size // 2 + 1)]
        return Doc({}, ("k", "count"), rows)
    if family == "narayana":
        rows = [(k, counts.narayana(size, k)) for k in range(1, size + 1)]
        return Doc({}, ("k", "count"), rows)
    if family == "convolution":
        rows = [(p, counts.catalan_convolution(size, p)) for p in range(1, size + 1)]
        return Doc({}, ("p", "count"), rows)
    if family == "level0":
        rows = [(r0, counts.level0_total(r0, size)) for r0 in range(size + 1)]
        return Doc({}, ("r0", "count"), rows)
    rows = []  # islands
    for h in range(1, size + 1):
        for islands in range(h + 1, 2 * size + 1):
            c = counts.island_count(h, islands, size)
            if c:
                rows.append((h, islands, c))
    return Doc({}, ("hairpins", "islands", "count"), rows)


def _cmd_verify(args) -> Doc:
    names = IDENTITY_NAMES if args.name == "all" else (args.name,)
    if args.order is not None:
        _require("island_gf_forms_agree" in names,
                 f"--order bounds island_gf_forms_agree only, not {args.name}")
        _require(args.bound is None, "give island_gf_forms_agree one bound: --n or --order")
    bounds = {}
    for name in names:
        bound, flag = args.bound, "n"
        if name == "island_gf_forms_agree" and args.order is not None:
            bound, flag = args.order, "order"
        if bound is not None:
            _check_size(f"verify {name}", flag, bound)
        bounds[name] = bound
    counts = ExactCounts()
    reports = [series.verify_identity(name, bound, counts) for name, bound in bounds.items()]
    code = 0 if all(r.passed for r in reports) else 1
    if args.format == "json":
        return Doc({"reports": [r.to_json() for r in reports]}, exit=code)
    return Doc({r.name: ("pass" if r.passed else f"FAIL at {r.counterexample}")
                + f" ({r.range_checked})" for r in reports}, exit=code)


def _cmd_distribution(args) -> Doc:
    if args.family == "level0":
        _require(args.n is not None, "level0 distribution needs --n")
        for flag, size in (("n", args.n), ("r0-max", args.r0_max)):
            _check_size("distribution level0", flag, size)
        rows = asymptotics.convergence_report("level0", n=args.n, r0_max=args.r0_max)
        fields = {"family": "level0", "n": args.n}
    else:
        _require(args.lam is not None and args.nu is not None,
                 "pi distribution needs --lambda and --nu")
        for flag, size in (("r0-max", args.r0_max), ("lambda", args.lam), ("nu", args.nu)):
            _check_size("distribution pi", flag, size)
        rows = asymptotics.convergence_report("pi", lam=args.lam, nu=args.nu, r0_max=args.r0_max)
        fields = {"family": "pi", "lambda": args.lam, "nu": args.nu}
    return Doc(fields, ("r0", "exact", "asymptotic", "deviation"), rows)


def _cmd_asymptotics(args) -> Doc:
    needs = {
        "zeta": ("lam",),
        "motzkin_number": ("n",),
        "level0_total": ("n", "r0"),
        "level0_weighted_sum": ("n",),
        "pi_total": ("lam", "nu"),
        "pi_r0": ("lam", "nu", "r0"),
        "pi_weighted_sum": ("lam", "nu"),
    }[args.target]
    flags = {field: "lambda" if field == "lam" else field for field in needs}
    for field, flag in flags.items():
        _require(getattr(args, field) is not None, f"{args.target} needs --{flag}")
    for field, flag in flags.items():
        # level0_total's --r0 lies in 0..n, which the library checks
        if (args.target, field) != ("level0_total", "r0"):
            _check_size(f"asymptotics {args.target}", flag, getattr(args, field))
    if args.target == "zeta":
        sing = asymptotics.deflate(args.lam, asymptotics.find_zeta(args.lam))
        return Doc({
            "lambda": args.lam,
            "zeta": sing.zeta,
            "parity": sing.parity,
            "cofactor_at_zeta": sing.cofactor_at_zeta,
            "distribution_base": asymptotics.asym_pi(args.lam, 0, sing),
            "expected_r0": asymptotics.asym_pi_expected(args.lam, sing),
        })
    report = asymptotics.asym_count(args.target, n=args.n, lam=args.lam, nu=args.nu, r0=args.r0)
    asymptotic = report.asymptotic
    # overflowed, or underflowed to 0 or a subnormal: print from the logarithm
    if not sys.float_info.min <= asymptotic < math.inf and math.isfinite(report.log_asymptotic):
        asymptotic = _fmt_exp(report.log_asymptotic)
    return Doc({
        "target": report.target,
        **report.params,
        "exact": report.exact,
        "asymptotic": asymptotic,
        "ratio": report.ratio,
    })


def _cmd_compatible(args) -> Doc:
    if args.r0_max is not None:
        _check_size("compatible", "r0-max", args.r0_max)
    _check_size(f"compatible --lambda {args.lam}", "nu", args.nu)
    table = series.compatible_counts(args.lam, args.nu)
    r0_max = args.r0_max if args.r0_max is not None else table.r0_max
    rows = [(r0, table.count(r0, args.nu)) for r0 in range(r0_max + 1)]
    fields = {"lambda": args.lam, "nu": args.nu, "total": table.total(args.nu)}
    return Doc(fields, ("r0", "count"), rows)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


# -- parser -------------------------------------------------------------------


def _add_input(p):
    p.add_argument("--in", dest="text", help="input text")
    p.add_argument("--file", dest="infile", help="read input from a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeforge",
        description="Exact combinatorics of RNA abstract shapes and Motzkin paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=("plain", "json", "csv"), default="plain")

    def command(name, handler, help):
        p = sub.add_parser(name, help=help, parents=[formats])
        p.set_defaults(func=handler)
        return p

    _add_input(command("validate", _cmd_validate, "parse and validate a dot-bracket string"))
    _add_input(command("analyze", _cmd_analyze, "report the structure elements"))

    p = command("abstract", _cmd_abstract, "abstract a structure to a shape")
    p.add_argument("--level", choices=("island", "pi-prime", "pi"), required=True)
    _add_input(p)

    p = command("bijection", _cmd_bijection, "run a path/bracket encoding or its inverse")
    p.add_argument("direction", choices=("encode1", "encode2", "decode1", "decode2"))
    p.add_argument("--path", help="input path steps or bracket text")
    p.add_argument("--in", dest="text", help="alias for --path")

    p = command("count", _cmd_count, "exact counting tables")
    p.add_argument("family", choices=tuple(_COUNT_FLAGS))
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)

    p = command("verify", _cmd_verify, "verify combinatorial identities")
    p.add_argument("name", choices=IDENTITY_NAMES + ("all",))
    p.add_argument("--n", dest="bound", type=int, help="range bound")
    p.add_argument("--ell", dest="bound", type=int, help="range bound (alias)")
    p.add_argument("--order", type=int, help="series order for the gf check")

    p = command("distribution", _cmd_distribution, "finite-size vs limit distributions")
    p.add_argument("family", choices=("level0", "pi"))
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--nu", type=int)
    p.add_argument("--r0-max", dest="r0_max", type=int, default=8)

    p = command("asymptotics", _cmd_asymptotics, "exact counts against their asymptotics")
    p.add_argument("--target", choices=ASYM_TARGETS + ("zeta",), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--nu", type=int)
    p.add_argument("--r0", type=int)

    p = command("compatible", _cmd_compatible, "compatible pi-shape counts")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--r0-max", dest="r0_max", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # exact counts may run past CPython's int-to-str digit limit; lift it
    # for the command only, since tests and tools call main() in-process
    max_digits = getattr(sys, "get_int_max_str_digits", None)
    saved = max_digits() if max_digits else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        doc = args.func(args)
        for text in _render(doc, args.format):
            sys.stdout.write(text)
        sys.stdout.flush()  # a small output's broken pipe surfaces here, not at exit
        return doc.exit
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early: not a domain error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ShapeforgeError, ValueError, OSError, OverflowError, MemoryError,
            RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
