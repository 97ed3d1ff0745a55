"""The shapeforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of BENCHMARK.json, ``defects``, or ``all`` for every
listed workload in turn.

Run from the root of a checkout.  Each workload is a closed loop with one
client: a single process runs one operation at a time and waits for its
result (for ``cli``, one child process at a time).  Operations come in
rounds from inputs.py, and every output is checked against an
independent route, untimed.

With ``--trace 0`` whole rounds run until the operations have taken S
seconds at reference speed (speed.py), and the last line of stdout is a
JSON object whose metrics are BENCHMARK.json's end-to-end metrics, timed
at reference speed; with ``--trace 1`` they are its
per-layer metrics, from a run that times the same rounds untraced and then
traced.  The lines before it say the same for a reader, with the sample
counts, the error rate and the pinned environment.  The exit status is 1
when an output is wrong (except in the ``defects`` workload, whose probes
fail by design) and 2 when the checkout has no shapeforge sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import site
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # span files of traced runs
SETUP_REPEATS = 5
STARTUP_REPEATS = 10
CHILD_PROBE_EVERY_S = 1.0  # child probes cost about 0.1 s, so at most one a second

sys.path.insert(0, str(HERE))

import inputs as inputs_mod  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Mismatch  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs_mod.WORKLOADS + ("all",),
                   help="one workload, or all that BENCHMARK.json lists, one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def pth_imports() -> list:
    """.pth files in the site directories that run an import at start-up."""
    dirs = list(site.getsitepackages())
    if site.ENABLE_USER_SITE:
        dirs.append(site.getusersitepackages())
    found = []
    for d in dirs:
        for pth in sorted(Path(d).glob("*.pth")) if Path(d).is_dir() else ():
            lines = pth.read_text(errors="replace").splitlines()
            if any(line.startswith(("import ", "import\t")) for line in lines):
                found.append(pth.name)
    return found


def environment(child_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "parent_PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "child_env": {k: v for k, v in child_env.items() if k.startswith("PYTHON")},
        "bytecode_cache": "shapeforge compiled into src/shapeforge/__pycache__ before timing; children write none",
        "site_pth_imports": pth_imports(),
    }


def warm_bytecode() -> None:
    """Compile shapeforge into its __pycache__ before anything is timed, so
    every timed import reads a warm cache whatever the checkout held."""
    if not compileall.compile_dir(str(SRC / "shapeforge"), quiet=1):
        raise SystemExit("perfbench: shapeforge sources do not compile")


# ---------------------------------------------------------------------------
# measurement


class Speed:
    """Speed probes (speed.py) taken between operations, untimed: an
    in-process probe before every operation, or, when the operations are
    children, a child probe before an operation once CHILD_PROBE_EVERY_S
    has passed since the last."""

    def __init__(self, child_env: dict | None = None):
        self.child_env = child_env
        self.ref = speed.CHILD_REF_S if child_env else speed.KERNEL_REF_S
        self.samples: list = []
        self.last_before: list = []  # per operation, the index of the last probe before it
        self._last = None

    def probe(self) -> None:
        if self.child_env is None:
            self.samples.append(speed.kernel_s())
        else:
            c0 = time.process_time()
            res = wl.run_child([sys.executable, str(HERE / "speed.py")], self.child_env, ROOT)
            if res.exit != 0:
                raise SystemExit(f"perfbench: speed probe failed: {res.stderr.decode()[-400:]}")
            self.samples.append(time.process_time() - c0 + res.cpu_s)
        self._last = time.perf_counter()

    def before_op(self) -> None:
        every = CHILD_PROBE_EVERY_S if self.child_env else 0.0
        if self._last is None or time.perf_counter() - self._last >= every:
            self.probe()
        self.last_before.append(len(self.samples) - 1)

    def scale(self) -> float:
        """Factor from CPU seconds to seconds at reference speed, over the
        run so far."""
        return self.ref / statistics.fmean(self.samples)

    def at_reference(self, cpu: list) -> list:
        """Each operation's CPU time at reference speed, scaled by the mean
        of the probes just before and just after it: the host's speed also
        swings within a second, and these two probes see the same swing.
        Needs a probe after the last operation."""
        return [c * 2 * self.ref / (self.samples[j] + self.samples[j + 1])
                for c, j in zip(cpu, self.last_before)]


class Sample:
    """Latencies and failures of the operations of one measured phase."""

    def __init__(self):
        self.latencies: list = []  # wall time of each operation, s
        self.cpu: list = []  # CPU time of each operation (its child's too), s
        self.failures: list = []
        self.child_rss_kb = 0
        self.stdout_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_round(ops, sf, env, golden, sample, run, root_span=None, probes=None):
    ctx = wl.RoundContext(sf, ROOT, env)
    for kind, params in ops:
        if probes is not None:
            probes.before_op()
        fn = run.get(kind, wl.RUN[kind])
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if root_span is None:
                out = fn(sf, ctx, params)
            else:
                with root_span(kind):
                    out = fn(sf, ctx, params)
        except Exception as exc:  # a failed operation is counted, not fatal
            sample.latencies.append(time.perf_counter() - t0)
            sample.cpu.append(time.process_time() - c0)
            sample.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        sample.latencies.append(time.perf_counter() - t0)
        cpu = time.process_time() - c0
        sample.cpu.append(cpu + out.cpu_s if kind == "cli" and out.cpu_s is not None else cpu)
        try:
            if kind == "cli":
                sample.stdout_bytes += len(out.stdout)
                if out.maxrss_kb:
                    sample.child_rss_kb = max(sample.child_rss_kb, out.maxrss_kb)
                wl.check_cli(out, params, golden)
            else:
                wl.CHECK[kind](out, params)
        except Mismatch as exc:
            sample.failures.append(f"{kind}: {exc}")


def run_rounds(inputs, seconds, sf, env, golden, sample, run=None, rounds=None,
               root_span=None, probes=None) -> int:
    """Run whole rounds until ``seconds`` have passed (or exactly ``rounds``
    rounds); return the number run.  With speed probes the seconds are the
    operations' time at reference speed, so that a run holds the same
    rounds however fast the host is; without, they are wall time."""
    run = run or {}
    start = time.perf_counter()

    def elapsed() -> float:
        if probes is None:
            return time.perf_counter() - start
        return sum(sample.cpu) * probes.scale() if sample.cpu else 0.0

    done = 0
    while done < rounds if rounds is not None else elapsed() < seconds:
        run_round(inputs.round(done), sf, env, golden, sample, run, root_span, probes)
        done += 1
    return done


def tail(latencies: list) -> tuple:
    """The sample with ten samples beyond it, its percentile and the count."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def measure_setup(workload: str, seed: int, env: dict) -> tuple:
    """Median set-up time over fresh processes, at reference speed and as
    wall time, and their input digests."""
    times, walls, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        res = wl.run_child([sys.executable, str(HERE / "inputs.py"), workload, str(seed)],
                           env, ROOT)
        if res.exit != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {res.stderr.decode()[-400:]}")
        doc = json.loads(res.stdout)
        times.append(doc["cpu_s"] * speed.KERNEL_REF_S / doc["kernel_s"])
        walls.append(doc["wall_s"])
        digests.add(doc["digest"])
    return statistics.median(times), statistics.median(walls), digests


def startup_ms(env: dict) -> float:
    """Median wall time of a child that imports shapeforge.cli and exits."""
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        res = wl.run_child([sys.executable, "-c", "import shapeforge.cli"], env, ROOT)
        times.append(time.perf_counter() - t0)
        if res.exit != 0:
            raise SystemExit(f"perfbench: start-up probe failed: {res.stderr.decode()[-400:]}")
    return 1000 * statistics.median(times)


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, sf, inputs, env, golden) -> tuple:
    setup_s, setup_wall_s, digests = measure_setup(args.workload, args.seed, env)
    problems = []
    if digests != {inputs.digest()}:
        problems.append("set-up processes generated different inputs")
    sample = Sample()
    probes = Speed(env if args.workload in ("cli", "defects") else None)
    rounds = run_rounds(inputs, args.seconds, sf, env, golden, sample, probes=probes)
    probes.probe()
    scale = probes.scale()
    timings = probes.at_reference(sample.cpu)
    if args.workload in ("cli", "defects"):
        rss_mb = sample.child_rss_kb / 1024
        rss_of = "maximum over the child processes"
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss_of = "the benchmark process"
    tail_s, pct, n = tail(timings)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sample.attempted / sum(timings), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(timings), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "error_rate": (len(sample.failures) / sample.attempted, "ratio"),
    }
    wall_tail_s, _, _ = tail(sample.latencies)
    notes = [
        f"{rounds} rounds, {n} operations in {sample.wall:.3f} s of timed wall time",
        f"timings are CPU time at reference speed: this host ran {len(probes.samples)} speed "
        f"probes at {1 / scale:.3f}x the reference's CPU time (speed.py)",
        f"as wall time here: ops_per_s {sample.attempted / sample.wall:.6g}, latency_p50_ms "
        f"{1000 * statistics.median(sample.latencies):.6g}, latency_tail_ms "
        f"{1000 * wall_tail_s:.6g}, setup_s {setup_wall_s:.6g}",
        (f"latency_tail_ms is p{pct:.1f}: the sample with ten of {n} beyond it" if n > 10
         else f"latency_tail_ms is the slowest of only {n} samples"),
        f"setup_s is the median of {SETUP_REPEATS} fresh processes",
        f"peak_rss_mb is of {rss_of}",
    ]
    return metrics, sample, problems, notes


def traced(args, sf, inputs, env, golden) -> tuple:
    """Untraced then traced over the same rounds; per-layer metrics."""
    problems = []
    cli = args.workload in ("cli", "defects")
    run = {"cli": wl.run_cli_inprocess} if cli else {}
    share = 1 / 3 if cli else 1 / 2
    # one untimed round first, so that neither phase pays the one-time
    # costs (first calls, allocator growth) and the overhead is not skewed
    run_rounds(inputs, 0, sf, env, golden, Sample(), run, rounds=1)
    plain = Sample()
    rounds = run_rounds(inputs, args.seconds * share, sf, env, golden, plain, run)
    tracer = Tracer()
    tracer.install(sf)
    traced_sample = Sample()
    try:
        run_rounds(inputs, 0, sf, env, golden, traced_sample, run, rounds, tracer.root)
    finally:
        tracer.uninstall()
    roots = tracer.roots()
    if len(roots) != traced_sample.attempted:
        problems.append(f"{len(roots)} root spans for {traced_sample.attempted} operations")
    STATE.mkdir(parents=True, exist_ok=True)
    span_file = STATE / f"spans-{args.workload}-{args.seed}.csv.gz"
    tracer.write(span_file)

    self_s = tracer.self_times()
    wall = sum(tracer.end[i] - tracer.start[i] for i in roots)
    st = tracer.stats
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (st[layer].calls, "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
        m[f"{layer}.errors"] = (st[layer].errors, "count")
    decode_s = st["paths"].timed_s.get("decode1", 0.0) + st["paths"].timed_s.get("decode2", 0.0)
    m.update({
        "poly.mul_calls": (st["poly"].mul_calls, "count"),
        "poly.max_terms": (st["poly"].max_terms, "count"),
        "series.sqrt_s": (st["series"].timed_s.get("TruncatedSeries.sqrt", 0.0), "s"),
        "series.max_order": (st["series"].max_order, "count"),
        "counting.max_result_bits": (st["counting"].max_result_bits, "bits"),
        "asymptotics.find_zeta_s": (st["asymptotics"].timed_s.get("find_zeta", 0.0), "s"),
        "structures.nt_per_s": (_rate(st["structures"].work.get("nt", 0), self_s["structures"]), "1/s"),
        "paths.decode_pairs_per_s": (_rate(st["paths"].work.get("pairs", 0), decode_s), "1/s"),
        "trace.ops": (traced_sample.attempted, "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (plain.wall, "s"),
        "trace.overhead_s": (wall - plain.wall, "s"),
        "trace.unaccounted_s": (self_s["bench"], "s"),
    })
    cli_m = {"cli.startup_ms": 0.0, "cli.main_ms": 0.0, "cli.invocation_ms": 0.0,
             "cli.unaccounted_ms": 0.0, "cli.stdout_bytes": 0}
    if cli:
        children = Sample()
        run_rounds(inputs, 0, sf, env, golden, children, rounds=rounds)
        cli_m["cli.startup_ms"] = startup_ms(env)
        cli_m["cli.main_ms"] = 1000 * plain.wall / plain.attempted
        cli_m["cli.invocation_ms"] = 1000 * children.wall / children.attempted
        cli_m["cli.unaccounted_ms"] = (cli_m["cli.invocation_ms"] - cli_m["cli.startup_ms"]
                                       - cli_m["cli.main_ms"])
        cli_m["cli.stdout_bytes"] = children.stdout_bytes
        problems += children.failures
    units = {"cli.stdout_bytes": "bytes"}
    m.update({k: (v, units.get(k, "ms")) for k, v in cli_m.items()})
    accounted = sum(self_s[layer] for layer in LAYERS)
    notes = [
        f"{rounds} rounds, {traced_sample.attempted} operations untraced then traced",
        f"traced wall {wall:.3f} s = layer self time {accounted:.3f} s "
        f"+ unaccounted (benchmark glue and wrappers inside operations) {self_s['bench']:.3f} s",
        f"tracing overhead {wall - plain.wall:+.3f} s over {plain.wall:.3f} s untraced "
        f"({(wall - plain.wall) / plain.wall:+.1%})",
        "self-time share: " + ", ".join(f"{layer} {self_s[layer] / wall:.1%}" for layer in LAYERS),
        f"spans written to {span_file.relative_to(ROOT)}",
    ]
    if cli:
        notes.append("cli: startup_ms + main_ms + unaccounted_ms = invocation_ms (means per command; "
                     "startup is the median import-and-exit child)")
    failures = plain.failures + traced_sample.failures
    sample = Sample()
    sample.latencies = plain.latencies + traced_sample.latencies
    sample.failures = failures
    return m, sample, problems, notes


def _rate(work: int, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------------


def load_golden() -> dict:
    doc = json.loads((HERE / "golden" / "cli.json").read_text())
    return {json.dumps(run["argv"]): run["stdout"] for run in doc["runs"]}


def run_all(args, workloads: list) -> int:
    """Run each workload in its own process; print their lines, then one
    JSON object with the metrics keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 3
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shapeforge" / "__init__.py").is_file():
        print(f"perfbench: no shapeforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace and args.workload == "defects":
        print("perfbench: the defects probes run only untraced, in capped children", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = wl.child_env(ROOT)
    warm_bytecode()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(environment(env), sort_keys=True))

    sys.path.insert(0, str(SRC))
    import shapeforge as sf
    import shapeforge.cli  # noqa: F401  -- the traced cli run calls sf.cli.main
    if not Path(sf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported shapeforge from {sf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    inputs = inputs_mod.Inputs(args.workload, args.seed)
    for r in range(inputs_mod.SETUP_ROUNDS):
        inputs.round(r)
    golden = load_golden()

    measure = traced if args.trace else end_to_end
    metrics, sample, problems, notes = measure(args, sf, inputs, env, golden)
    failed = len(sample.failures)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<28} {value:.6g} {unit}")
    print(f"{args.workload}  error_rate: {failed} failed of {sample.attempted} attempted"
          + (" (the defect probes fail by design)" if args.workload == "defects" else ""))
    for note in notes:
        print(f"note: {note}")
    for failure in sample.failures[:20] + problems:
        print(f"FAIL: {failure}")
    correct = failed == 0 and not problems
    for m in wanted:
        if metrics[m["name"]][1] != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {metrics[m['name']][1]}, "
                               f"BENCHMARK.json says {m['unit']}")
    result = {
        "correct": correct,
        "attempted": sample.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct or args.workload == "defects" else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(3)
