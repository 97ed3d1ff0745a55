"""Dyck, Motzkin and 2-Motzkin lattice paths with bracket-string bijections.

A path of size n runs from (0,0) to (n,0) without dipping below the axis.
Steps are U (up), D (down) and, depending on the kind, H (horizontal) or the
two coloured horizontals R and B.

The encoding to bracket strings grows a string from "()" one step at a time.
Writing the current string as head + "(" + inner + ")" where the final ")"
closes the last group, the steps act as

    U: head + "(" + "(" + inner + ")" + "()"      (new bracket, new hairpin)
    D: whole string + ")"
    R: whole string + "()"                        (new hairpin)
    B: head + "(" + "(" + inner + ")" + ")"       (nest the last group)

A full path of size n yields a matched string of n + 1 pairs.  Only B can
create a directly nested pair, so paths without B (plain Motzkin paths) map
onto exactly the pi shapes.

Decoding reads the steps back in one left-to-right pass over the string's
tree of pairs, keeping a stack of child counts:

    "(" opening the 2nd child of a pair             U
    "(" opening a later child, or a later tree      R (H for Motzkin paths)
    ")" closing a pair with exactly one child       B
    ")" closing a pair with two or more children    D
    ")" closing a leaf                              nothing

Each step appends one token at the end, "()" for U and R and ")" for D and
B; the "(" that U and B write in front of the last group carries no step.
The rule is forced.  U opens a pair holding the last group and a new leaf,
and R only appends, so at height >= 1 the open forest (the children of the
innermost open pair) always holds at least two trees: a trailing leaf comes
from U exactly when it is the second of two.  D closes such a pair while B
wraps a single group, so a pair's child count tells B from D.  Every
matched string thus has exactly one preimage, and decoding never fails on
one.  So ``encode1``, ``decode1`` and ``decode2`` check only their input
and build their results without the ``PiShape`` and ``LatticePath`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import (
    IllegalCharacter,
    NegativeHeight,
    NonzeroFinalHeight,
    ResourceGuardExceeded,
    UnbalancedBrackets,
)
from .structures import IslandDiagram, PiShape, _built, island_texts, match_brackets


class PathKind(Enum):
    DYCK = "dyck"
    MOTZKIN1 = "motzkin1"
    MOTZKIN2 = "motzkin2"

    @property
    def alphabet(self) -> str:
        return {"dyck": "UD", "motzkin1": "UDH", "motzkin2": "UDRB"}[self.value]


@dataclass(frozen=True)
class LatticePath:
    """A validated path; construction checks alphabet and heights."""

    kind: PathKind
    steps: str

    def __post_init__(self):
        bad = set(self.steps) - set(self.kind.alphabet)
        if bad:
            raise IllegalCharacter(
                f"steps {sorted(bad)} not in {self.kind.value} alphabet"
            )
        h = 0
        for pos, ch in enumerate(self.steps, start=1):
            if ch == "U":
                h += 1
            elif ch == "D":
                h -= 1
                if h < 0:
                    raise NegativeHeight(f"path dips below axis at step {pos}")
        if h != 0:
            raise NonzeroFinalHeight(f"path ends at height {h}")

    @property
    def size(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PathStats:
    u: int   # up steps
    d: int   # down steps
    r: int   # plain horizontals (H or R)
    b: int   # blue horizontals (B)
    r0: int  # horizontals of any colour at level 0


def parse_path(text: str, kind: PathKind) -> LatticePath:
    """Validate a step string; raises IllegalCharacter, NegativeHeight or
    NonzeroFinalHeight."""
    return LatticePath(kind, text)


def enumerate_paths(n: int, kind: PathKind, limit: int = 16) -> Iterator[LatticePath]:
    """Yield every path of size n exactly once, in step-alphabet order."""
    if n < 0:
        raise ValueError(f"enumerate_paths: n must be nonnegative, got {n}")
    if n > limit:
        raise ResourceGuardExceeded(f"enumerate_paths: n = {n} exceeds guard {limit}")
    alphabet = kind.alphabet

    def rec(prefix: list, h: int, remaining: int):
        if remaining == 0:
            if h == 0:
                yield "".join(prefix)
            return
        for ch in alphabet:
            if ch == "U":
                nh = h + 1
            elif ch == "D":
                if h == 0:
                    continue
                nh = h - 1
            else:
                nh = h
            if nh > remaining - 1:
                continue
            prefix.append(ch)
            yield from rec(prefix, nh, remaining - 1)
            prefix.pop()

    for steps in rec([], 0, n):
        yield LatticePath(kind, steps)


def path_stats(path: LatticePath) -> PathStats:
    u = d = r = b = r0 = 0
    h = 0
    for ch in path.steps:
        if ch == "U":
            u += 1
            h += 1
        elif ch == "D":
            d += 1
            h -= 1
        else:
            if ch == "B":
                b += 1
            else:
                r += 1
            if h == 0:
                r0 += 1
    return PathStats(u, d, r, b, r0)


# ---------------------------------------------------------------------------
# bracket-string encoding


def _encode_steps(steps: str) -> str:
    """Replay the steps on tokens: "()" per leaf, ")" per closing step.

    U and B write their "(" in front of the last group, so each token keeps
    a count of the openers written before it, and each open level keeps the
    token where its last group starts.
    """
    tokens = ["()"]
    lead = [0]
    last = [0]
    for ch in steps:
        if ch in "UB":
            lead[last[-1]] += 1
        if ch == "U":
            last.append(len(tokens))
        elif ch in "RH":
            last[-1] = len(tokens)
        elif ch == "D":
            last.pop()
        tokens.append("()" if ch in "URH" else ")")
        lead.append(0)
    return "".join("(" * k + tok for k, tok in zip(lead, tokens))


def encode2(path: LatticePath) -> str:
    """Encode a 2-Motzkin path of size n as a matched string of n + 1 pairs."""
    if path.kind is not PathKind.MOTZKIN2:
        raise ValueError("encode2 expects a 2-Motzkin path")
    return _encode_steps(path.steps)


def encode1(path: LatticePath) -> PiShape:
    """Encode a Motzkin path as a pi shape (H read as a plain horizontal)."""
    if path.kind is not PathKind.MOTZKIN1:
        raise ValueError("encode1 expects a Motzkin path")
    s = _encode_steps(path.steps)
    return _built(PiShape, text=s.replace("(", "[").replace(")", "]"))


def _decode_steps(s: str, opener: str, flat: str) -> str:
    """Read the steps off a matched string by the rule in the module docstring."""
    steps = []
    kids = [0]  # child counts of the open pairs; kids[0] counts the trees
    for ch in s:
        if ch == opener:
            kids[-1] += 1
            if kids[-1] >= 2:
                steps.append("U" if kids[-1] == 2 and len(kids) > 1 else flat)
            kids.append(0)
        else:
            k = kids.pop()
            if k:
                steps.append("B" if k == 1 else "D")
    return "".join(steps)


def decode2(s: str) -> LatticePath:
    """Invert encode2 in one pass; every matched string has a preimage."""
    bad = set(s) - set("()")
    if bad:
        raise IllegalCharacter(f"bracket string characters {sorted(bad)}")
    match_brackets(s)
    if not s:
        raise UnbalancedBrackets("decode2 needs at least one pair")
    return _built(LatticePath, kind=PathKind.MOTZKIN2, steps=_decode_steps(s, "(", "R"))


def decode1(shape: PiShape | str) -> LatticePath:
    """Invert encode1; raises DirectlyNested when the input is not a pi shape."""
    if not isinstance(shape, PiShape):
        shape = PiShape(shape)
    return _built(LatticePath, kind=PathKind.MOTZKIN1, steps=_decode_steps(shape.text, "[", "H"))


# ---------------------------------------------------------------------------
# island-diagram decoration


def decorate_islands(path: LatticePath, limit: int = 8) -> set:
    """All island diagrams that a 2-Motzkin path expands to: the blank
    expansions (``island_texts``) of its encoding."""
    if path.kind is not PathKind.MOTZKIN2:
        raise ValueError("decorate_islands expects a 2-Motzkin path")
    if path.size > limit:
        raise ResourceGuardExceeded(
            f"decorate_islands: size {path.size} exceeds guard {limit}"
        )
    return {IslandDiagram(t) for t in island_texts(encode2(path))}
