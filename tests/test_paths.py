import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import balanced_strings, count_by, motzkin_paths
from shapeforge import (
    LatticePath,
    PathKind,
    PiShape,
    decode1,
    decode2,
    decorate_islands,
    encode1,
    encode2,
    enumerate_paths,
    generate_island_diagrams,
    parse_path,
    path_stats,
    pi_stats,
)
from shapeforge.errors import (
    DirectlyNested,
    IllegalCharacter,
    NegativeHeight,
    NonzeroFinalHeight,
    ResourceGuardExceeded,
    UnbalancedBrackets,
)

M1 = PathKind.MOTZKIN1
M2 = PathKind.MOTZKIN2


# ---------------------------------------------------------------------------
# parsing and enumeration


def test_parse_path_examples():
    p = parse_path("UHUHDDH", M1)
    assert p.size == 7
    assert parse_path("", M2).size == 0
    with pytest.raises(NegativeHeight):
        parse_path("DU", M1)
    with pytest.raises(NonzeroFinalHeight):
        parse_path("UH", M1)
    with pytest.raises(IllegalCharacter):
        parse_path("URD", M1)  # R only exists for 2-Motzkin
    with pytest.raises(IllegalCharacter):
        parse_path("UHD", PathKind.DYCK)


def test_enumerate_counts(counts):
    assert sum(1 for _ in enumerate_paths(0, M1)) == 1
    assert sum(1 for _ in enumerate_paths(4, M1)) == 9
    assert sum(1 for _ in enumerate_paths(3, M2)) == 14
    for n in range(8):
        assert sum(1 for _ in enumerate_paths(n, M1)) == counts.motzkin_number(n)
        assert sum(1 for _ in enumerate_paths(n, M2)) == counts.catalan(n + 1)
    for u in range(5):
        assert sum(1 for _ in enumerate_paths(2 * u, PathKind.DYCK)) == counts.catalan(u)


def test_enumerate_matches_oracle_sets():
    for n in range(7):
        mine = {p.steps for p in enumerate_paths(n, M1)}
        assert mine == set(motzkin_paths(n))
        mine2 = {p.steps for p in enumerate_paths(n, M2)}
        assert mine2 == set(motzkin_paths(n, horizontals="RB"))


def test_enumerate_guard():
    with pytest.raises(ResourceGuardExceeded):
        next(enumerate_paths(17, M1))


def test_path_stats_examples():
    s = path_stats(parse_path("H", M1))
    assert (s.u, s.r, s.r0) == (0, 1, 1)
    s = path_stats(parse_path("", M1))
    assert s == type(s)(0, 0, 0, 0, 0)
    s = path_stats(parse_path("UHHD", M1))
    assert (s.u, s.r, s.r0) == (1, 2, 0)
    s = path_stats(parse_path("UBURDD", M2))
    assert (s.u, s.d, s.r, s.b, s.r0) == (2, 2, 1, 1, 0)


# ---------------------------------------------------------------------------
# the 2-Motzkin encoding


def test_encode2_worked_example():
    assert encode2(parse_path("UBURDD", M2)) == "(()((())()()))"


def test_encode2_base_cases():
    assert encode2(parse_path("", M2)) == "()"
    assert encode2(parse_path("RB", M2)) == "()(())"


def test_decode2_examples():
    assert decode2("(()())").steps == "UD"
    assert decode2("()").steps == ""
    assert decode2("((()))").steps == "BB"


def test_decode2_input_validation():
    with pytest.raises(UnbalancedBrackets):
        decode2("(()")
    with pytest.raises(UnbalancedBrackets):
        decode2("")
    with pytest.raises(IllegalCharacter):
        decode2("(a)")


def test_encode2_round_trip_and_image():
    for n in range(8):
        images = set()
        for path in enumerate_paths(n, M2):
            s = encode2(path)
            assert decode2(s) == path
            images.add(s)
        assert images == set(balanced_strings(n + 1))


# ---------------------------------------------------------------------------
# the Motzkin / pi-shape encoding


def test_encode1_examples():
    assert encode1(parse_path("UD", M1)).text == "[[][]]"
    assert encode1(parse_path("", M1)).text == "[]"
    assert encode1(parse_path("H", M1)).text == "[][]"


def test_decode1_examples():
    assert decode1("[[][]]").steps == "UD"
    assert decode1("[]").steps == ""
    assert decode1("[][]").steps == "H"


def test_decode1_rejects_directly_nested():
    with pytest.raises(DirectlyNested):
        decode1("[[]]")


def test_encode1_round_trip_and_image(counts):
    for n in range(9):
        images = set()
        for path in enumerate_paths(n, M1):
            shape = encode1(path)  # PiShape construction checks the invariant
            assert decode1(shape) == path
            images.add(shape.text)
        assert len(images) == counts.motzkin_number(n)


def test_table_relations_via_pi_stats():
    for n in range(9):
        for path in enumerate_paths(n, M1):
            s = path_stats(path)
            stats = pi_stats(encode1(path))
            assert stats.hairpins == s.u + s.r + 1
            assert stats.multiloops == s.u
            assert stats.components == s.r0 + 1


def test_r0_partition_matches_level0_total(counts):
    for n in range(11):
        by_r0 = count_by(enumerate_paths(n, M1), lambda p: path_stats(p).r0)
        for r0 in range(n + 1):
            assert by_r0.get(r0, 0) == counts.level0_total(r0, n)


def test_deep_strings_do_not_overflow_the_stack():
    deep = "(" * 1500 + ")" * 1500
    path = decode2(deep)
    assert path.steps == "B" * 1499
    assert encode2(path) == deep
    wide = "[" + "[]" * 2000 + "]"
    path = decode1(wide)
    assert encode1(path).text == wide
    assert LatticePath(M1, path.steps) == path


def _random_steps(rng, n, alphabet):
    """A uniformly stepped path of exactly n steps over alphabet."""
    steps, h = [], 0
    for remaining in range(n, 0, -1):
        allowed = [
            c for c in alphabet
            if (c != "D" or h > 0) and (c != "U" or h + 1 < remaining)
            and (c == "D" or h < remaining)
        ]
        ch = rng.choice(allowed)
        steps.append(ch)
        h += (ch == "U") - (ch == "D")
    return "".join(steps)


@pytest.mark.parametrize("kind, shape", [
    (M1, "nested"), (M1, "random"), (M1, "flat"),
    (M2, "nested"), (M2, "random"), (M2, "flat"), (M2, "blue"),
])
def test_round_trip_of_1e5_steps_is_linear(kind, shape):
    n = 10 ** 5
    flat = "H" if kind is M1 else "R"
    if shape == "random":
        steps = _random_steps(random.Random(7), n, kind.alphabet)
    else:
        steps = {"nested": "U" * (n // 2) + "D" * (n // 2), "flat": flat * n, "blue": "B" * n}[shape]
    path = parse_path(steps, kind)
    start = time.process_time()
    if kind is M2:
        encoded = encode2(path)
        decoded = decode2(encoded)
    else:
        encoded = encode1(path).text
        decoded = decode1(encoded)
    elapsed = time.process_time() - start
    assert len(encoded) == 2 * (n + 1)
    assert decoded == path
    assert elapsed < 5.0, f"{shape} round trip took {elapsed:.2f} s of CPU"
    # the results are built unchecked; the checked constructors accept them
    assert LatticePath(kind, decoded.steps) == decoded
    if kind is M1:
        assert PiShape(encoded) == encode1(path)


@st.composite
def random_motzkin_steps(draw, flats):
    n = draw(st.integers(min_value=0, max_value=30))
    steps = []
    h = 0
    for _ in range(n):
        ch = draw(st.sampled_from("U" + flats if h == 0 else "UD" + flats))
        steps.append(ch)
        h += (ch == "U") - (ch == "D")
    steps.extend("D" * h)
    return "".join(steps)


@given(random_motzkin_steps("RB"))
@settings(max_examples=60, deadline=None)
def test_encode2_round_trip_property(steps):
    path = parse_path(steps, M2)
    out = decode2(encode2(path))
    assert LatticePath(M2, out.steps) == out
    assert out == path


@given(random_motzkin_steps("H"))
@settings(max_examples=60, deadline=None)
def test_encode1_round_trip_property(steps):
    path = parse_path(steps, M1)
    shape = encode1(path)
    assert PiShape(shape.text) == shape
    out = decode1(shape)
    assert LatticePath(M1, out.steps) == out
    assert out == path


# ---------------------------------------------------------------------------
# island decorations


def test_decorate_examples():
    assert {d.text for d in decorate_islands(parse_path("", M2))} == {"(_)"}
    assert {d.text for d in decorate_islands(parse_path("R", M2))} == {
        "(_)(_)", "(_)_(_)"}
    assert {d.text for d in decorate_islands(parse_path("B", M2))} == {
        "((_))", "(_(_))", "((_)_)", "(_(_)_)"}


def test_decorate_guard():
    with pytest.raises(ResourceGuardExceeded):
        decorate_islands(parse_path("R" * 9, M2))


def test_decorations_partition_all_island_diagrams():
    # union over all 2-Motzkin paths of size n = all diagrams with n+1 pairs,
    # with no diagram produced twice
    for n in range(5):
        union = set()
        total = 0
        for path in enumerate_paths(n, M2):
            ds = decorate_islands(path)
            total += len(ds)
            union.update(d.text for d in ds)
        expected = {d.text for d in generate_island_diagrams(n + 1)}
        assert union == expected
        assert total == len(expected)


def _replay_decorations(steps):
    """The per-step decorated replay that decorate_islands once ran."""

    def split_last_group(s):
        depth = 0
        for i in range(len(s) - 1, -1, -1):
            if s[i] == ")":
                depth += 1
            elif s[i] == "(":
                depth -= 1
                if depth == 0:
                    return s[:i], s[i + 1 : len(s) - 1]

    blanks = ("", "_")
    texts = {"(_)"}
    for ch in steps:
        nxt = set()
        for s in texts:
            if ch == "D":
                nxt.update(s + g + ")" for g in blanks)
            elif ch == "R":
                nxt.update(s + g + "(_)" for g in blanks)
            else:
                head, inner = split_last_group(s)
                tail = "(_)" if ch == "U" else ")"
                for g1 in blanks:
                    for g2 in blanks:
                        nxt.add(head + "(" + g1 + "(" + inner + ")" + g2 + tail)
        texts = nxt
    return texts


def test_decorations_match_the_per_step_replay():
    for n in range(6):
        for path in enumerate_paths(n, M2):
            mine = {d.text for d in decorate_islands(path)}
            assert mine == _replay_decorations(path.steps), path.steps
