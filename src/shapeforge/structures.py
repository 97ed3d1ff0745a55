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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    partner of vertex i, or None when i is unpaired.
    """

    n: int
    pairing: tuple

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
    partner = match_brackets(text)
    if "()" in text:
        i = text.index("()") + 1
        raise AdjacentPair(f"pair ({i},{i + 1}) joins adjacent vertices")
    pairing = [None] + [None if j is None else j + 1 for j in partner]
    return SecondaryStructure(len(text), tuple(pairing))


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


def analyze_elements(ss: SecondaryStructure) -> ElementReport:
    """Classify every vertex of a valid structure into its element."""
    pairs = ss.pairs
    children: dict[tuple, list] = {p: [] for p in pairs}
    top: list[tuple] = []
    open_stack: list[tuple] = []
    for i in range(1, ss.n + 1):
        j = ss.pairing[i]
        if j is None:
            continue
        if j > i:
            p = (i, j)
            if open_stack:
                children[open_stack[-1]].append(p)
            else:
                top.append(p)
            open_stack.append(p)
        else:
            open_stack.pop()

    hairpins = []
    bulges = []
    interior = []
    multis = []
    for (i, j), kids in children.items():
        gaps = []
        prev = i
        for a, b in kids:
            gaps.append((prev + 1, a - 1))
            prev = b
        gaps.append((prev + 1, j - 1))
        runs = [(a, b) for a, b in gaps if a <= b]
        if not kids:
            hairpins.append(((i, j), j - i - 1))
        elif len(kids) == 1:
            if len(runs) == 2:
                interior.append((runs[0], runs[1]))
            elif len(runs) == 1:
                bulges.append(runs[0])
            # no runs: the pair simply stacks on its child
        else:
            lengths = tuple(sorted(max(0, b - a + 1) for a, b in gaps))
            multis.append((len(kids) + 1, lengths))

    tails = []
    external_runs = []
    if top:
        first = top[0][0]
        last = top[-1][1]
        if first > 1:
            tails.append((1, first - 1))
        if last < ss.n:
            tails.append((last + 1, ss.n))
        prev_end = None
        for a, b in top:
            if prev_end is not None and a > prev_end + 1:
                external_runs.append((prev_end + 1, a - 1))
            prev_end = b
    elif ss.n:
        # no pairs at all: the whole strand sits in the external loop
        external_runs.append((1, ss.n))

    stacks = []
    for i, j in pairs:
        if i >= 2 and ss.pairing[i - 1] == j + 1:
            continue  # interior pair of a stack already reported
        k = 1
        while i + k < j - k and ss.pairing[i + k] == j - k:
            k += 1
        stacks.append(((i, j), k))

    islands = []
    start = None
    for i in range(1, ss.n + 2):
        paired = i <= ss.n and ss.pairing[i] is not None
        if paired and start is None:
            start = i
        elif not paired and start is not None:
            islands.append((start, i - 1))
            start = None

    return ElementReport(
        hairpins=tuple(hairpins),
        bulges=tuple(bulges),
        tails=tuple(tails),
        interior_loops=tuple(interior),
        multiloops=tuple(multis),
        external_runs=tuple(external_runs),
        external_components=len(top),
        stacks=tuple(stacks),
        islands=tuple(islands),
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
        partner = match_brackets(t)
        if t.startswith("_") or t.endswith("_"):
            raise ValueError(f"island diagram has a tail blank: {t!r}")
        if "__" in t:
            raise ValueError(f"island diagram has consecutive blanks: {t!r}")
        # with doubled blanks excluded, an interior of length >= 3 always
        # holds a bracket, so only the two shortest interiors need checking
        for i, j in enumerate(partner):
            if j is not None and 0 < j - i <= 2 and t[i + 1 : j] != "_":
                raise ValueError(f"hairpin without a single blank at {i} in {t!r}")

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


def to_island_diagram(ss: SecondaryStructure) -> IslandDiagram:
    """Drop tails and compress every unpaired run between islands to "_"."""
    paired = [i for i in range(1, ss.n + 1) if ss.pairing[i] is not None]
    if not paired:
        return IslandDiagram("")
    first, last = paired[0], paired[-1]
    chunks = []
    i = first
    while i <= last:
        j = ss.pairing[i]
        if j is None:
            chunks.append("_")
            while i <= last and ss.pairing[i] is None:
                i += 1
        else:
            chunks.append("(" if j > i else ")")
            i += 1
    return IslandDiagram("".join(chunks))


def to_pi_prime(ss: SecondaryStructure) -> PiPrimeShape:
    """Abstract each maximal stack to one "[]" pair; keep all blanks."""
    chunks = []
    i = 1
    while i <= ss.n:
        j = ss.pairing[i]
        if j is None:
            chunks.append("_")
            while i <= ss.n and ss.pairing[i] is None:
                i += 1
            continue
        if j > i:
            if ss.pairing[i - 1] != j + 1:
                chunks.append("[")
        else:
            if ss.pairing[j - 1] != i + 1:
                chunks.append("]")
        i += 1
    return PiPrimeShape("".join(chunks))


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
    return PiShape("".join(ch for k, ch in enumerate(s) if k not in drop))


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


def generate_island_diagrams(ell: int, limit: int = 10) -> Iterator[IslandDiagram]:
    """Yield every island diagram with ell base pairs exactly once.

    Expands each matched string of ell pairs with ``island_texts``.
    Intended for ell <= 8; guarded above ``limit``.
    """
    if ell < 1:
        raise ValueError(f"generate_island_diagrams: ell must be positive, got {ell}")
    if ell > limit:
        raise ResourceGuardExceeded(
            f"generate_island_diagrams: ell = {ell} exceeds guard {limit}"
        )
    for base in _matched_strings(ell):
        for text in island_texts(base):
            yield IslandDiagram(text)
