"""Dot-bracket secondary structures, their elements, and shape abstractions.

A secondary structure is a non-crossing partial matching on vertices 1..n
with no pair between adjacent vertices and no base triples.  Three
abstractions are provided:

* island diagram: tails dropped, every other maximal unpaired run becomes a
  single blank "_", paired vertices keep their brackets;
* pi-prime shape: every maximal stack becomes one "[...]" pair and every
  maximal unpaired run (tails included) becomes "_";
* pi shape: the pi-prime shape with blanks removed and the resulting
  directly nested pairs merged, leaving only hairpin/multiloop branching.

The element analysis and the pi-prime shape walk a structure by its
maximal stacks (``_stacks``), not by its vertices: only a stack's
innermost pair closes a loop, and unpaired runs, islands and external
components are found by string searches on the parsed text.  The bracket
matcher itself stays a per-character loop; it serves the short bracket
strings of paths and shapes too.

The shape constructors check text from outside the program.  The
abstractions build shapes that are valid by construction with ``_built``,
which skips those checks rather than re-matching what was just derived.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import (
    AdjacentPair,
    DirectlyNested,
    EmptyResult,
    IllegalCharacter,
    ResourceGuardExceeded,
    UnbalancedBrackets,
)

# ---------------------------------------------------------------------------
# secondary structures


@dataclass(frozen=True)
class SecondaryStructure:
    """Validated pairing on vertices 1..n.

    ``pairing`` has length n + 1; entry 0 is unused and entry i holds the
    partner of vertex i, or None when i is unpaired.  ``text`` is the
    dot-bracket string ``pairing`` was parsed from; it takes no part in
    equality or repr.  The element analysis and the abstractions read
    ``text``, so the two must agree: build structures with
    ``parse_structure``, the only supported constructor, and never replace
    one field without the other.
    """

    n: int
    pairing: tuple
    text: str = field(compare=False, repr=False)

    @property
    def pairs(self) -> tuple:
        """Base pairs as (i, j) with i < j, ordered by opening position."""
        return tuple(
            (i, self.pairing[i])
            for i in range(1, self.n + 1)
            if self.pairing[i] is not None and self.pairing[i] > i
        )

    def partner(self, i: int):
        return self.pairing[i]

    def is_paired(self, i: int) -> bool:
        return self.pairing[i] is not None


def match_brackets(text: str, open_ch: str = "(", close_ch: str = ")") -> list:
    """Partner index of every bracket in text, None for any other character.

    Raises UnbalancedBrackets naming the 1-based position of the first
    unmatched closer, or else of the last unmatched opener.
    """
    partner: list = [None] * len(text)
    stack: list[int] = []
    for i, ch in enumerate(text):
        if ch == open_ch:
            stack.append(i)
        elif ch == close_ch:
            if not stack:
                raise UnbalancedBrackets(f"unmatched {close_ch!r} at position {i + 1}")
            j = stack.pop()
            partner[i] = j
            partner[j] = i
    if stack:
        raise UnbalancedBrackets(f"unmatched {open_ch!r} at position {stack[-1] + 1}")
    return partner


def parse_structure(text: str) -> SecondaryStructure:
    """Parse a dot-bracket string over ".()" into a validated structure.

    Bracket matching makes crossings and triples impossible; the adjacent
    pair ban is checked explicitly.  Raises IllegalCharacter,
    UnbalancedBrackets or AdjacentPair, checked in that order; positions
    in the messages are 1-based.
    """
    bad = set(text) - set(".()")
    if bad:
        i = min(map(text.index, bad))
        raise IllegalCharacter(f"character {text[i]!r} at position {i + 1}")
    try:
        pairing = tuple(match_brackets("." + text))  # vertex i at index i
    except UnbalancedBrackets:
        match_brackets(text)  # raises with the text's own positions
    if "()" in text:
        i = text.index("()") + 1
        raise AdjacentPair(f"pair ({i},{i + 1}) joins adjacent vertices")
    return SecondaryStructure(len(text), pairing, text)


# ---------------------------------------------------------------------------
# structure elements


class PiStats(NamedTuple):
    hairpins: int
    multiloops: int
    components: int


@dataclass(frozen=True)
class ElementReport:
    """Complete, disjoint classification of a structure's vertices.

    Every unpaired vertex lies in exactly one hairpin, bulge, tail,
    interior loop, multiloop gap, or external-loop run; every paired vertex
    lies in exactly one stack and one island.  Runs are (start, end)
    position ranges, inclusive.
    """

    hairpins: tuple          # ((i, j), loop_length) per hairpin foundation
    bulges: tuple            # unpaired run per bulge
    tails: tuple             # up to two runs
    interior_loops: tuple    # (left run, right run) per interior loop
    multiloops: tuple        # (bounding pair count, sorted gap lengths)
    external_runs: tuple     # unpaired runs strictly between components
    external_components: int
    stacks: tuple            # ((outermost pair), length)
    islands: tuple           # maximal runs of paired vertices


_OPENER_RUNS = re.compile(r"\(+")
_ISLANDS = re.compile(r"[()]+")
_UNPAIRED_RUNS = re.compile(r"\.+")


def _stacks(ss: SecondaryStructure) -> list:
    """Every maximal stack as ((outermost pair), length), in opening order.

    A stack's openers are consecutive, so each run of openers is split
    wherever the partners stop counting down.
    """
    pairing = ss.pairing
    stacks = []
    for run in _OPENER_RUNS.finditer(ss.text):
        i, last = run.start() + 1, run.end()
        while i <= last:
            j = pairing[i]
            # a run of openers is followed by ".", never ")", so the count
            # down always stops inside the run
            k = 1
            while pairing[i + k] == j - k:
                k += 1
            stacks.append(((i, j), k))
            i += k
    return stacks


def analyze_elements(ss: SecondaryStructure) -> ElementReport:
    """Classify every vertex of a valid structure into its element.

    Only the innermost pair of a stack closes a loop; its children are
    found by jumping from each child's opener past its partner.
    """
    text, pairing = ss.text, ss.pairing
    stacks = _stacks(ss)
    hairpins = []
    bulges = []
    interior = []
    multis = []
    for (i, j), k in stacks:
        i, j = i + k - 1, j - k + 1  # the innermost pair
        gaps = []
        prev = i
        # vertex v sits at text[v - 1], so text[i:j - 1] holds i + 1..j - 1
        a = text.find("(", i, j - 1) + 1
        while a:
            gaps.append((prev + 1, a - 1))
            prev = pairing[a]
            a = text.find("(", prev, j - 1) + 1
        gaps.append((prev + 1, j - 1))
        if len(gaps) == 1:
            hairpins.append(((i, j), j - i - 1))
        elif len(gaps) == 2:
            # a lone child at (i + 1, j - 1) would extend the stack
            runs = [(a, b) for a, b in gaps if a <= b]
            if len(runs) == 2:
                interior.append((runs[0], runs[1]))
            else:
                bulges.append(runs[0])
        else:
            multis.append((len(gaps), tuple(sorted(b - a + 1 for a, b in gaps))))

    top = []
    a = text.find("(") + 1
    while a:
        top.append((a, pairing[a]))
        a = text.find("(", pairing[a]) + 1
    tails = []
    external_runs = []
    if top:
        first = top[0][0]
        last = top[-1][1]
        if first > 1:
            tails.append((1, first - 1))
        if last < ss.n:
            tails.append((last + 1, ss.n))
        for (_, b), (a, _) in zip(top, top[1:]):
            if a > b + 1:
                external_runs.append((b + 1, a - 1))
    elif ss.n:
        # no pairs at all: the whole strand sits in the external loop
        external_runs.append((1, ss.n))

    return ElementReport(
        hairpins=tuple(hairpins),
        bulges=tuple(bulges),
        tails=tuple(tails),
        interior_loops=tuple(interior),
        multiloops=tuple(multis),
        external_runs=tuple(external_runs),
        external_components=len(top),
        stacks=tuple(stacks),
        islands=tuple((m.start() + 1, m.end()) for m in _ISLANDS.finditer(text)),
    )


# ---------------------------------------------------------------------------
# abstract shapes


def _directly_nested(partner: list) -> list:
    """Openers of the pairs that directly enclose a single spanning pair."""
    return [
        i for i, j in enumerate(partner)
        if j is not None and i + 1 < j - 1 and partner[i + 1] == j - 1
    ]


@dataclass(frozen=True)
class IslandDiagram:
    """Tail-free abstraction over "()_" with one blank per unpaired run."""

    text: str

    def __post_init__(self):
        t = self.text
        bad = set(t) - set("()_")
        if bad:
            raise IllegalCharacter(f"island diagram characters {sorted(bad)}")
        match_brackets(t)
        if t.startswith("_") or t.endswith("_"):
            raise ValueError(f"island diagram has a tail blank: {t!r}")
        if "__" in t:
            raise ValueError(f"island diagram has consecutive blanks: {t!r}")
        # a one-character interior of a matched pair can only be the blank,
        # so only an empty interior, "()", lacks its hairpin blank
        if "()" in t:
            raise ValueError(f"hairpin without a single blank at {t.index('()')} in {t!r}")

    def stats(self) -> tuple[int, int, int]:
        """(hairpins, islands, base pairs) of the diagram."""
        h = self.text.count("(_)")
        ell = self.text.count("(")
        islands = sum(1 for block in self.text.split("_") if block)
        return h, islands, ell


@dataclass(frozen=True)
class PiPrimeShape:
    """Stack-level abstraction over "[]_"; tails keep their blanks."""

    text: str

    def __post_init__(self):
        t = self.text
        bad = set(t) - set("[]_")
        if bad:
            raise IllegalCharacter(f"pi-prime characters {sorted(bad)}")
        nested = _directly_nested(match_brackets(t, "[", "]"))
        if "__" in t:
            raise ValueError(f"pi-prime shape has consecutive blanks: {t!r}")
        if nested:
            raise DirectlyNested(f"unseparated nested pair at {nested[0]} in {t!r}")


@dataclass(frozen=True)
class PiShape:
    """Branching-only abstraction: bracket string without directly nested pairs."""

    text: str

    def __post_init__(self):
        t = self.text
        bad = set(t) - set("[]")
        if bad:
            raise IllegalCharacter(f"pi shape characters {sorted(bad)}")
        if not t:
            raise EmptyResult("pi shape must be nonempty")
        nested = _directly_nested(match_brackets(t, "[", "]"))
        if nested:
            raise DirectlyNested(f"directly nested pair at {nested[0]} in {t!r}")


def _built(cls, **values):
    """cls(**values) without ``__post_init__``: for results valid by construction."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def to_island_diagram(ss: SecondaryStructure) -> IslandDiagram:
    """Drop tails and compress every unpaired run between islands to "_"."""
    return _built(IslandDiagram, text=_UNPAIRED_RUNS.sub("_", ss.text.strip(".")))


_BRACKETS_TO_SQUARE = bytes.maketrans(b"()", b"[]")


def to_pi_prime(ss: SecondaryStructure) -> PiPrimeShape:
    """Abstract each maximal stack to one "[]" pair; keep all blanks."""
    text = bytearray(ss.text, "ascii")
    for (i, j), k in _stacks(ss):
        # blank all but the outermost pair; vertex v sits at text[v - 1]
        text[i:i + k - 1] = text[j - k:j - 1] = b"x" * (k - 1)
    kept = text.translate(_BRACKETS_TO_SQUARE, b"x").decode("ascii")
    return _built(PiPrimeShape, text=_UNPAIRED_RUNS.sub("_", kept))


def to_pi(shape: PiPrimeShape) -> PiShape:
    """Remove blanks and merge directly nested pairs.

    A pi-prime shape has no directly nested pair, so every chain of them
    comes from removed blanks; dropping each pair directly nested in its
    parent leaves pairs that enclose nothing or two or more pairs, so one
    pass suffices.
    """
    s = shape.text.replace("_", "")
    if not s:
        raise EmptyResult("pi shape of a structure without base pairs")
    partner = match_brackets(s, "[", "]")
    drop = set()
    for i in _directly_nested(partner):
        drop.update((i + 1, partner[i + 1]))
    return _built(PiShape, text="".join(ch for k, ch in enumerate(s) if k not in drop))


def pi_stats(shape: PiShape) -> PiStats:
    """Count hairpins (leaf pairs), multiloops (pairs with >= 2 children) and
    components (top-level pairs) of a pi shape."""
    hairpins = multiloops = components = 0
    child_counts: list[int] = []
    for ch in shape.text:
        if ch == "[":
            child_counts.append(0)
        else:
            kids = child_counts.pop()
            if kids == 0:
                hairpins += 1
            elif kids >= 2:
                multiloops += 1
            if child_counts:
                child_counts[-1] += 1
            else:
                components += 1
    return PiStats(hairpins, multiloops, components)


# ---------------------------------------------------------------------------
# exhaustive generation


def _matched_strings(pairs: int) -> Iterator[str]:
    if pairs == 0:
        yield ""
        return
    for inner_size in range(pairs):
        for inner in _matched_strings(inner_size):
            for rest in _matched_strings(pairs - 1 - inner_size):
                yield "(" + inner + ")" + rest


def island_texts(base: str) -> Iterator[str]:
    """Every island diagram text over the matched string base, each once.

    Every "()" receives a mandatory blank and each remaining internal gap
    at most one optional blank.
    """
    gaps = range(1, len(base))  # gap g sits between base[g-1] and base[g]
    mandatory = [g for g in gaps if base[g - 1] == "(" and base[g] == ")"]
    optional = [g for g in gaps if g not in mandatory]
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(optional, k) for k in range(len(optional) + 1)
    ):
        blanks = set(mandatory)
        blanks.update(chosen)
        out = []
        for g, ch in enumerate(base):
            if g in blanks:
                out.append("_")
            out.append(ch)
        yield "".join(out)


# the largest ell: a full drain, 273,856 diagrams, takes 1.9 s of CPU at 2 vCPUs
ISLAND_DIAGRAM_LIMIT = 7


def generate_island_diagrams(ell: int) -> Iterator[IslandDiagram]:
    """Yield every island diagram with ell base pairs exactly once.

    Expands each matched string of ell pairs with ``island_texts``;
    guarded above ``ISLAND_DIAGRAM_LIMIT``.
    """
    if ell < 1:
        raise ValueError(f"generate_island_diagrams: ell must be positive, got {ell}")
    if ell > ISLAND_DIAGRAM_LIMIT:
        raise ResourceGuardExceeded(
            f"generate_island_diagrams: ell = {ell} exceeds guard {ISLAND_DIAGRAM_LIMIT}")
    for base in _matched_strings(ell):
        for text in island_texts(base):
            yield IslandDiagram(text)
