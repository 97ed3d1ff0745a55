"""Seeded inputs of the benchmark workloads.

Every input is a pure function of (workload, seed, round index), made with
the standard library only, so the program under test receives nothing but
the generated values.  The parameters that set an operation's cost are
drawn as seeded permutations of fixed strata and cycled over the rounds:
any run measures the same cost mix, while the seed changes which values
each round gets and the contents of every structure, path and rational.

Run as a script, ``python3 perfbench/inputs.py WORKLOAD SEED`` imports
shapeforge, generates the set-up rounds and prints one JSON line with the
elapsed wall and CPU time, a speed probe and a digest of the inputs; the
benchmark times its set-up this way in fresh processes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from fractions import Fraction

import speed

WORKLOADS = ("tables", "series", "shapes", "cli", "defects")

# Rounds generated during set-up; later rounds are generated untimed when a
# run needs them, so no input repeats within a run.
SETUP_ROUNDS = 4

IDENTITY_NAMES = (
    "narayana_motzkin",
    "coker1",
    "coker2",
    "touchard",
    "chu_vandermonde",
    "parity_m0m1",
    "pi_parity",
    "island_gf_forms_agree",
)


class _Strata:
    """Seeded permutations of fixed value lists, cycled by round index."""

    def __init__(self, workload: str, seed: int):
        self._rng = random.Random(f"{workload}/{seed}/strata")
        self._perms: dict = {}

    def pick(self, key: str, values, r: int):
        perm = self._perms.get(key)
        if perm is None:
            perm = list(values)
            self._rng.shuffle(perm)
            self._perms[key] = perm
        return perm[r % len(perm)]


def _jitter(rng: random.Random, value: int, share: float) -> int:
    """value moved by at most ``share`` of itself, to keep an operation's cost."""
    return value + rng.randint(-int(value * share), int(value * share))


# ---------------------------------------------------------------------------
# tables: counting and asymptotics queries


def _tables_round(strata: _Strata, rng: random.Random, r: int) -> list:
    p = strata.pick
    # compatible_counts: each (lam, nu) costs about the same
    ops = [
        ("compatible", {"lam": lam, "nu": _jitter(rng, nu, 0.01)})
        for lam, nu in ((1, 156), (2, 222), (4, 352),
                        p("odd", ((3, 284), (5, 404), (7, 532)), r),
                        p("even", ((6, 470), (8, 600), (10, 710)), r))
    ]
    # asym_count over its six targets and convergence_report over both
    # families: two cheap queries and two table-backed ones per round, all
    # eight every two rounds
    lam, nu = p("pi", ((3, 180), (4, 200), (5, 220), (6, 240)), r)
    pi = {"lam": lam, "nu": _jitter(rng, nu, 0.02)}
    queries = (
        [("asym", {"target": "motzkin_number", "n": rng.randint(700, 800)}),
         ("asym", {"target": "level0_total", "n": rng.randint(150, 250), "r0": rng.randint(0, 8)}),
         ("asym", {"target": "pi_total", **pi}),
         ("asym", {"target": "pi_r0", **pi, "r0": rng.randint(0, 8)})],
        [("asym", {"target": "level0_weighted_sum", "n": rng.randint(190, 210)}),
         ("convergence", {"family": "level0", "n": rng.randint(200, 300)}),
         ("asym", {"target": "pi_weighted_sum", **pi}),
         ("convergence", {"family": "pi", **pi})],
    )
    ops += queries[p("queries", (0, 1), r)]
    # the find_zeta + deflate sweep over lam = 1..32 in operations of two
    # lambdas, a and 33 - a, which cost about the same for every a; four
    # per round cover the sweep every four rounds
    for q in range(4):
        a = p(f"z{q}", range(4 * q + 1, 4 * q + 5), r)
        ops.append(("zeta", {"lams": [a, 33 - a]}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# series: generating-function expansions and the identity suite


def _series_round(strata: _Strata, rng: random.Random, r: int) -> list:
    t = Fraction(rng.randint(1, 4), rng.randint(5, 9))
    # six expansions of about the cost of coker2, so that the median
    # operation of a round lies among them rather than at the edge of a gap
    # in cost; and two closed forms, which cost a little less than the two
    # dearest identities, so that with three to five rounds the tail sample
    # is always a closed form
    ops = [
        ("island_gf", {"form": "narayana", "order": 15}),
        ("island_gf", {"form": "motzkin2", "order": 12}),
        ("island_gf", {"form": "closed", "order": 10}),
        ("island_gf", {"form": "closed", "order": 10}),
        ("motzkin_gf", {"order": 22}),
        ("level0_gf", {"order": 26}),
        ("level0_gf", {"order": 27}),
        ("level0_gf", {"order": rng.randint(98, 102), "t": [t.numerator, t.denominator]}),
    ]
    rng.shuffle(ops)
    # the identity suite, as "verify all" runs it: every name in order,
    # all sharing the round's ExactCounts
    ops.extend(("identity", {"name": name}) for name in IDENTITY_NAMES)
    return ops


# ---------------------------------------------------------------------------
# shapes: dot-bracket structures and lattice paths


def random_structure(rng: random.Random, n: int) -> str:
    """A dot-bracket string of about n nt: helices of 2-6 pairs, unpaired
    runs of 1-6 nt, hairpin loops of at least 3 nt."""
    out: list[str] = []
    helices: list[tuple[int, int]] = []  # (pairs, length of out after opening)
    size = 0
    open_pairs = 0
    while size + open_pairs < n:
        x = rng.random()
        if helices and size - helices[-1][1] >= 3 and x < 0.35:
            k, _ = helices.pop()
            out.append(")" * k)
            size += k
            open_pairs -= k
        elif x < 0.7:
            k = rng.randint(2, 6)
            out.append("(" * k)
            size += k
            open_pairs += k
            helices.append((k, size))
        else:
            k = rng.randint(1, 6)
            out.append("." * k)
            size += k
    while helices:
        k, start = helices.pop()
        if size - start < 3:
            out.append("...")
            size += 3
        out.append(")" * k)
        size += k
    return "".join(out)


def random_path(rng: random.Random, n: int, flats: str, p_up: float) -> str:
    """A path of n steps from (0,0) to (n,0) that never dips below the axis."""
    steps = []
    h = 0
    for i in range(n):
        left = n - i
        if h >= left:
            steps.append("D")
            h -= 1
            continue
        x = rng.random()
        if x < p_up and h + 1 <= left - 1:
            steps.append("U")
            h += 1
        elif x < 2 * p_up and h > 0:
            steps.append("D")
            h -= 1
        else:
            steps.append(rng.choice(flats))
    return "".join(steps)


def nested_path(rng: random.Random, n: int, flat: str) -> str:
    """A deeply nested path: n/3 up steps in the first half, the matching
    down steps in the second, the rest horizontal steps of one colour."""
    half = n // 2
    ups = n // 3
    head = ["U"] * ups + [flat] * (half - ups)
    tail = ["D"] * ups + [flat] * (n - half - ups)
    rng.shuffle(head)
    rng.shuffle(tail)
    return "".join(head + tail)


def _shapes_round(strata: _Strata, rng: random.Random, r: int) -> list:
    ops = [("structure", {"text": random_structure(rng, _jitter(rng, size, 0.02))})
           for size in (1000, 5000, 20000, 75000, 105000)]
    ops += [("path2", {"shape": "nested", "steps": nested_path(rng, _jitter(rng, 2400, 0.01), "B")})
            for _ in range(3)]
    ops += [
        ("path2", {"shape": "random", "steps": random_path(rng, 8000, "RB", 0.3)}),
        ("path2", {"shape": "flat", "steps": random_path(rng, 8000, "RB", 0.05)}),
        ("path1", {"shape": "random", "steps": random_path(rng, 8000, "H", 0.3)}),
        ("path1", {"shape": "flat", "steps": random_path(rng, 8000, "H", 0.05)}),
        ("path1", {"shape": "nested", "steps": nested_path(rng, 4000, "H")}),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: the README's commands with seeded variants, all captured as golden
# output; GOLDEN_ARGVS lists every variant a seed can pick

_STRUCTURES = (
    "((...))",
    "..((...))((...))..",
    "...((((...)..((...))))..)",
    "((((...))..((....))...((...)).))",
)
_PATHS2 = ("UBURDD", "URBD", "RRUBDR", "UUBDRD")
_PI_SHAPES = ("[][]", "[[][]]", "[[][][]][]", "[][[][]]")

# commands that cost little beyond start-up; each round runs two variants
# of each, so the median falls inside this group rather than at its edge
_CLI_LIGHT = (
    tuple(["validate", "--in", s] for s in _STRUCTURES),
    tuple(["analyze", "--in", s, "--format", "json"] for s in _STRUCTURES),
    tuple(["abstract", "--level", lvl, "--in", s]
          for lvl in ("island", "pi-prime", "pi") for s in _STRUCTURES[2:]),
    tuple(["bijection", "encode2", "--path", s] for s in _PATHS2),
    tuple(["bijection", "decode1", "--in", s] for s in _PI_SHAPES),
    tuple(["count", "islands", "--ell", str(ell), "--format", "csv"] for ell in (3, 4, 5)),
    tuple(["distribution", "level0", "--n", str(n), "--r0-max", "8", "--format", "csv"]
          for n in (90, 100, 110)),
)

# commands with real work, once each per round: the zeta report, three
# table commands of about the same cost, and the identity suite
_CLI_HEAVY = (
    tuple(["asymptotics", "--target", "zeta", "--lambda", str(lam)] for lam in (3, 4, 5)),
    tuple(["distribution", "pi", "--lambda", "4", "--nu", str(nu), "--r0-max", "8",
           "--format", "csv"] for nu in (260, 270, 280)),
    tuple(["asymptotics", "--target", "pi_total", "--lambda", "4", "--nu", str(nu)]
          for nu in (290, 300, 310)),
    tuple(["compatible", "--lambda", "4", "--nu", str(nu), "--format", "json"]
          for nu in (300, 310, 320)),
    (["verify", "all"],),
)

GOLDEN_ARGVS = tuple(argv for group in _CLI_LIGHT + _CLI_HEAVY for argv in group)


def _cli_round(strata: _Strata, rng: random.Random, r: int) -> list:
    ops = [("cli", {"argv": strata.pick(f"light{i}", group, 2 * r + k)})
           for i, group in enumerate(_CLI_LIGHT) for k in (0, 1)]
    ops += [("cli", {"argv": strata.pick(f"heavy{i}", group, r)})
            for i, group in enumerate(_CLI_HEAVY)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# defects: the ROADMAP's known defects as CLI probes; not a listed workload,
# because every operation of it fails at the commit the benchmark was made


def _defects_round(strata: _Strata, rng: random.Random, r: int) -> list:
    return [
        ("cli", {"argv": ["count", "catalan", "--n", "7200"]}),
        ("cli", {"argv": ["compatible", "--lambda", "1", "--nu", "2000"], "capped": True}),
    ]


_ROUNDS = {
    "tables": _tables_round,
    "series": _series_round,
    "shapes": _shapes_round,
    "cli": _cli_round,
    "defects": _defects_round,
}


class Inputs:
    """The rounds of one workload under one seed, generated on demand."""

    def __init__(self, workload: str, seed: int):
        if workload not in _ROUNDS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self._strata = _Strata(workload, seed)
        self._rounds: list = []

    def round(self, r: int) -> list:
        while len(self._rounds) <= r:
            k = len(self._rounds)
            rng = random.Random(f"{self.workload}/{self.seed}/round/{k}")
            self._rounds.append(_ROUNDS[self.workload](self._strata, rng, k))
        return self._rounds[r]

    def digest(self, rounds: int = SETUP_ROUNDS) -> str:
        text = json.dumps([self.round(r) for r in range(rounds)], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _setup_probe(workload: str, seed: int) -> None:
    """Print the set-up's wall and CPU time, this process's speed probe
    (speed.py) and the digest of the inputs."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    import shapeforge  # noqa: F401  -- the import is part of the set-up cost
    if workload in ("cli", "defects"):
        import shapeforge.cli  # noqa: F401
    inputs = Inputs(workload, seed)
    for r in range(SETUP_ROUNDS):
        inputs.round(r)
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "kernel_s": speed.kernel_s(),
                      "digest": inputs.digest()}))


if __name__ == "__main__":
    _setup_probe(sys.argv[1], int(sys.argv[2]))
