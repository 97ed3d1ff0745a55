import itertools
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    analyze_elements_by_vertex,
    balanced_strings,
    check_island_text,
    count_by,
    island_text_by_vertex,
    pairing_by_vertex,
    pi_prime_text_by_vertex,
)
from shapeforge import (
    ElementReport,
    IslandDiagram,
    LatticePath,
    PathKind,
    PiPrimeShape,
    PiShape,
    analyze_elements,
    decode1,
    decode2,
    encode1,
    generate_island_diagrams,
    parse_path,
    parse_structure,
    pi_stats,
    to_island_diagram,
    to_pi,
    to_pi_prime,
)
from shapeforge.errors import (
    AdjacentPair,
    DirectlyNested,
    EmptyResult,
    IllegalCharacter,
    NegativeHeight,
    NonzeroFinalHeight,
    ResourceGuardExceeded,
    UnbalancedBrackets,
)

# ---------------------------------------------------------------------------
# parsing


def test_parse_example_pairs():
    ss = parse_structure("((...)....)")
    assert ss.n == 11
    assert ss.pairs == ((1, 11), (2, 6))


def test_parse_empty():
    ss = parse_structure("")
    assert ss.n == 0
    assert ss.pairs == ()


def test_parse_rejects_adjacent_pair():
    with pytest.raises(AdjacentPair):
        parse_structure("()")
    with pytest.raises(AdjacentPair):
        parse_structure("..(()..)")


def test_parse_rejects_unbalanced():
    with pytest.raises(UnbalancedBrackets):
        parse_structure("((...)")
    with pytest.raises(UnbalancedBrackets):
        parse_structure("...)..")


def test_parse_rejects_illegal_characters():
    with pytest.raises(IllegalCharacter):
        parse_structure("(..x..)")


# ---------------------------------------------------------------------------
# element analysis


def test_analyze_single_stem():
    rep = analyze_elements(parse_structure("((...))"))
    assert rep.hairpins == (((2, 6), 3),)
    assert rep.stacks == (((1, 7), 2),)
    assert rep.bulges == ()
    assert rep.external_components == 1
    assert len(rep.islands) == 2


def test_analyze_bulged_stem():
    rep = analyze_elements(parse_structure("((...)....)"))
    assert rep.hairpins == (((2, 6), 3),)
    assert rep.bulges == ((7, 10),)
    assert sorted(rep.stacks) == [((1, 11), 1), ((2, 6), 1)]
    assert rep.external_components == 1
    assert rep.tails == ()


def test_analyze_two_components_with_tails():
    rep = analyze_elements(parse_structure("..((...))((...)).."))
    assert rep.tails == ((1, 2), (17, 18))
    assert len(rep.hairpins) == 2
    assert rep.external_components == 2
    assert len(rep.islands) == 3


def test_analyze_interior_loop_and_multiloop():
    rep = analyze_elements(parse_structure("((..(...)..))"))
    assert rep.interior_loops == (((3, 4), (10, 11)),)
    rep = analyze_elements(parse_structure("((...)(...))"))
    assert rep.multiloops == ((3, (0, 0, 0)),)
    assert rep.hairpins == (((2, 6), 3), ((7, 11), 3))


def test_analyze_all_unpaired():
    rep = analyze_elements(parse_structure("...."))
    assert rep.external_components == 0
    assert rep.external_runs == ((1, 4),)
    assert rep.tails == ()


def test_unpaired_vertices_partition():
    # every unpaired vertex must land in exactly one element class
    corpus = [
        "((...)....)",
        "..((...))((...))..",
        "((..(...)..))",
        "(..(...)..(...)...)",
        ".((((...)..((...))))..).",
        "....",
        "((...))",
    ]
    for text in corpus:
        ss = parse_structure(text)
        rep = analyze_elements(ss)
        run_len = lambda runs: sum(b - a + 1 for a, b in runs)
        covered = (
            sum(L for _, L in rep.hairpins)
            + run_len(rep.bulges)
            + run_len(rep.tails)
            + sum(run_len(pair) for pair in rep.interior_loops)
            + sum(sum(gaps) for _, gaps in rep.multiloops)
            + run_len(rep.external_runs)
        )
        assert covered == text.count(".")
        paired = sum(b - a + 1 for a, b in rep.islands)
        assert paired == 2 * len(ss.pairs)
        assert sum(k for _, k in rep.stacks) == len(ss.pairs)


# ---------------------------------------------------------------------------
# abstractions


def test_island_diagram_examples():
    assert to_island_diagram(parse_structure("((...)....)")).text == "((_)_)"
    assert to_island_diagram(parse_structure("..")).text == ""
    assert to_island_diagram(parse_structure("..((..)).")).text == "((_))"


def test_pi_prime_examples():
    assert to_pi_prime(parse_structure("...((((...)..((...))))..)")).text == "_[[[_]_[_]]_]"
    assert to_pi_prime(parse_structure("((...))")).text == "[_]"
    assert to_pi_prime(parse_structure("((...)....)")).text == "[[_]_]"
    assert to_pi_prime(parse_structure("...")).text == "_"
    assert to_pi_prime(parse_structure("")).text == ""


def test_pi_examples():
    assert to_pi(PiPrimeShape("_[[[_]_[_]]_]")).text == "[[][]]"
    assert to_pi(PiPrimeShape("[_]")).text == "[]"
    assert to_pi(PiPrimeShape("[[_]_]")).text == "[]"


def _to_pi_until_stable(s):
    """Merge directly nested pairs until none is left, rematching each round."""
    while True:
        match, stack = {}, []
        for i, ch in enumerate(s):
            if ch == "[":
                stack.append(i)
            else:
                j = stack.pop()
                match[i], match[j] = j, i
        drop = set()
        for i, j in match.items():
            if i < j and i + 1 < j - 1 and match.get(i + 1) == j - 1:
                drop.update((i + 1, j - 1))
        if not drop:
            return s
        s = "".join(ch for k, ch in enumerate(s) if k not in drop)


def test_to_pi_matches_the_until_stable_loop():
    for pairs in range(1, 10):
        for base in balanced_strings(pairs):
            s = base.replace("(", "[").replace(")", "]")
            # a blank after every opener separates all nestings
            prime = PiPrimeShape(s.replace("[", "[_"))
            pi = to_pi(prime)
            assert pi.text == _to_pi_until_stable(s), s
            assert PiShape(pi.text) == pi


def test_pi_empty_errors():
    with pytest.raises(EmptyResult):
        to_pi(PiPrimeShape("_"))
    with pytest.raises(EmptyResult):
        to_pi(PiPrimeShape(""))


def test_pi_stats_examples():
    assert pi_stats(PiShape("[[][]]")) == (2, 1, 1)
    assert pi_stats(PiShape("[]")) == (1, 0, 1)
    assert pi_stats(PiShape("[][]")) == (2, 0, 2)


def test_shape_validation():
    with pytest.raises(DirectlyNested):
        PiShape("[[]]")
    with pytest.raises(DirectlyNested):
        PiPrimeShape("[[_]]")
    PiPrimeShape("[[_]_]")  # separated nesting is fine
    with pytest.raises(ValueError):
        IslandDiagram("_(_)")
    with pytest.raises(ValueError):
        IslandDiagram("(_)__(_)")
    with pytest.raises(ValueError):
        IslandDiagram("()")
    with pytest.raises(UnbalancedBrackets):
        IslandDiagram("((_)")
    with pytest.raises(IllegalCharacter):
        IslandDiagram("(_x)")


# every producer that builds its result without the constructor's checks:
# (built value, the same value checked, its text field, a bad text, its error)
_BUILT = {
    "to_island_diagram": (lambda: to_island_diagram(parse_structure("..((...)..).")),
                          lambda: IslandDiagram("((_)_)"), "text", "((_)", UnbalancedBrackets),
    "to_pi_prime": (lambda: to_pi_prime(parse_structure(".((...)..((...)))")),
                    lambda: PiPrimeShape("_[[_]_[_]]"), "text", "[[_]]", DirectlyNested),
    "to_pi": (lambda: to_pi(PiPrimeShape("_[[_]_[[_]_]]")),
              lambda: PiShape("[[][]]"), "text", "[[]]", DirectlyNested),
    "encode1": (lambda: encode1(parse_path("UHD", PathKind.MOTZKIN1)),
                lambda: PiShape("[[][][]]"), "text", "[]x", IllegalCharacter),
    "decode1": (lambda: decode1("[[][]]"),
                lambda: LatticePath(PathKind.MOTZKIN1, "UD"), "steps", "DU", NegativeHeight),
    "decode2": (lambda: decode2("(())"),
                lambda: LatticePath(PathKind.MOTZKIN2, "B"), "steps", "U", NonzeroFinalHeight),
}


@pytest.mark.parametrize("producer", sorted(_BUILT))
def test_built_values_behave_like_checked_ones(producer):
    make_built, make_checked, name, bad, error = _BUILT[producer]
    built, checked = make_built(), make_checked()
    assert type(built) is type(checked)
    assert built == checked and checked == built
    assert hash(built) == hash(checked)
    assert repr(built) == repr(checked)
    with pytest.raises(FrozenInstanceError):
        setattr(built, name, getattr(checked, name))
    with pytest.raises(FrozenInstanceError):
        delattr(built, name)
    # replace() goes through the constructor, so its checks run again
    with pytest.raises(error):
        replace(built, **{name: bad})
    assert replace(built, **{name: getattr(checked, name)}) == checked


# ---------------------------------------------------------------------------
# exhaustive generation


def test_generate_island_diagrams_small():
    assert {d.text for d in generate_island_diagrams(1)} == {"(_)"}
    expected = {"(_)(_)", "(_)_(_)", "((_))", "(_(_))", "((_)_)", "(_(_)_)"}
    assert {d.text for d in generate_island_diagrams(2)} == expected


def test_generate_guard():
    with pytest.raises(ResourceGuardExceeded):
        next(generate_island_diagrams(11))
    with pytest.raises(ValueError):
        next(generate_island_diagrams(0))


def test_generated_counts_match_island_count(counts):
    for ell in range(1, 7):
        refined = count_by(generate_island_diagrams(ell), lambda d: d.stats()[:2])
        total = 0
        for h in range(1, ell + 1):
            for islands in range(h + 1, 2 * ell + 1):
                expected = counts.island_count(h, islands, ell)
                assert refined.get((h, islands), 0) == expected
                total += expected
        assert sum(refined.values()) == total


def test_generated_diagrams_round_trip():
    for ell in range(1, 6):
        for diagram in generate_island_diagrams(ell):
            ss = parse_structure(diagram.text.replace("_", "."))
            again = to_island_diagram(ss)
            assert again.text == diagram.text
            assert again.stats() == diagram.stats()


def test_island_count_in_diagram_equals_blocks():
    for ell in range(1, 6):
        for diagram in generate_island_diagrams(ell):
            ss = parse_structure(diagram.text.replace("_", "."))
            rep = analyze_elements(ss)
            assert len(rep.islands) == diagram.stats()[1]


def test_pi_of_generated_structures_is_valid_and_consistent():
    for ell in range(1, 6):
        for diagram in generate_island_diagrams(ell):
            ss = parse_structure(diagram.text.replace("_", "."))
            shape = to_pi(to_pi_prime(ss))  # construction re-validates
            rep = analyze_elements(ss)
            assert pi_stats(shape).components == rep.external_components


# ---------------------------------------------------------------------------
# randomized structures

# wrapping only nonempty content keeps hairpin loops nonempty, so these are
# always valid structures
_dot_runs = st.integers(min_value=1, max_value=3).map(lambda k: "." * k)
_items = st.recursive(
    _dot_runs,
    lambda inner: st.lists(inner, min_size=1, max_size=3)
    .map("".join)
    .map(lambda s: "(" + s + ")"),
    max_leaves=12,
)
_structures = st.lists(st.one_of(_dot_runs, _items), max_size=5).map("".join)


@given(_structures)
@settings(max_examples=80, deadline=None)
def test_random_structures_parse_and_classify(text):
    ss = parse_structure(text)
    # pairing is an involution with no crossings or adjacent pairs
    for i, j in ss.pairs:
        assert ss.pairing[j] == i
        assert j > i + 1
    opens = []
    for i in range(1, ss.n + 1):
        j = ss.pairing[i]
        if j is None:
            continue
        if j > i:
            opens.append((i, j))
        else:
            assert opens.pop() == (j, i)
    rep = analyze_elements(ss)
    covered = (
        sum(L for _, L in rep.hairpins)
        + sum(b - a + 1 for a, b in rep.bulges)
        + sum(b - a + 1 for a, b in rep.tails)
        + sum(b - a + 1 for runs in rep.interior_loops for a, b in runs)
        + sum(sum(gaps) for _, gaps in rep.multiloops)
        + sum(b - a + 1 for a, b in rep.external_runs)
    )
    assert covered == text.count(".")
    assert sum(k for _, k in rep.stacks) == len(ss.pairs)


@given(_structures)
@settings(max_examples=80, deadline=None)
def test_random_structures_round_trip_through_island_diagram(text):
    ss = parse_structure(text)
    diagram = to_island_diagram(ss)
    if diagram.text:
        again = to_island_diagram(parse_structure(diagram.text.replace("_", ".")))
        assert again.text == diagram.text
    shape = to_pi_prime(ss)  # construction validates the invariants
    if ss.pairs:
        pi = to_pi(shape)
        assert pi_stats(pi).components == analyze_elements(ss).external_components


# ---------------------------------------------------------------------------
# the stack-level walk against the per-vertex oracles


def _assert_matches_by_vertex(text):
    ss = parse_structure(text)
    pairing = pairing_by_vertex(text)
    assert ss.pairing == pairing and ss.n == len(text)
    rep, want = analyze_elements(ss), analyze_elements_by_vertex(pairing)
    for f in fields(ElementReport):
        assert getattr(rep, f.name) == getattr(want, f.name), (f.name, text[:60])
    island = to_island_diagram(ss)
    assert island.text == island_text_by_vertex(pairing)
    prime = to_pi_prime(ss)
    assert prime.text == pi_prime_text_by_vertex(pairing)
    # the shapes are built without their checks; the checked constructors
    # must accept every one of them
    assert IslandDiagram(island.text) == island
    assert PiPrimeShape(prime.text) == prime
    if "(" in text:
        pi = to_pi(prime)
        assert PiShape(pi.text) == pi
    else:
        with pytest.raises(EmptyResult):
            to_pi(prime)


def _outcome(f, arg):
    """None when f(arg) returns, else the type and message of what it raised."""
    try:
        f(arg)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _dotted_balanced(draw):
    """A balanced_strings string with 0-3 dots in every gap; a "()" gets at
    least one, so the structure is valid."""
    base = draw(st.integers(min_value=0, max_value=7).flatmap(
        lambda pairs: st.sampled_from(list(balanced_strings(pairs)))))
    dots = draw(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=len(base) + 1, max_size=len(base) + 1))
    out = ["." * dots[0]]
    for g, ch in enumerate(base):
        out.append(ch)
        gap = dots[g + 1]
        if base[g:g + 2] == "()":
            gap = max(gap, 1)
        out.append("." * gap)
    return "".join(out)


@given(_dotted_balanced())
@settings(max_examples=300, deadline=None)
def test_dotted_balanced_strings_match_the_per_vertex_oracles(text):
    _assert_matches_by_vertex(text)


def _random_structure(rng, n):
    """About n nt: stacks of 1-8 pairs opened back to back or after unpaired
    runs, hairpins of 3-8 nt, tails of 0-20 nt at both ends."""
    out = ["." * rng.randint(0, 20)]
    open_stacks = []
    size = 0
    while size < n or open_stacks:
        x = rng.random()
        if open_stacks and (size >= n or x < 0.4):
            if out[-1].endswith("("):
                out.append("." * rng.randint(3, 8))
            out.append(")" * open_stacks.pop())
        elif x < 0.75:
            k = rng.randint(1, 8)
            out.append("(" * k)
            open_stacks.append(k)
            size += 2 * k
        else:
            k = rng.randint(1, 6)
            out.append("." * k)
            size += k
    out.append("." * rng.randint(0, 20))
    return "".join(out)


@pytest.mark.parametrize("seed", range(8))
def test_random_structures_match_the_per_vertex_oracles(seed):
    rng = random.Random(20261018 + seed)
    _assert_matches_by_vertex(_random_structure(rng, rng.randint(1000, 20000)))


@pytest.mark.parametrize("text", [
    "(" * 300000 + "..." + ")" * 300000,
    "((" + "(...)." * 2000 + "))",
    "..((" + "(...)." * 2000 + "))...",
    "",
    ".",
    "." * 1000,
], ids=["deep-helix", "multiloop", "multiloop-tails", "empty", "dot", "dots"])
def test_extreme_structures_match_the_per_vertex_oracles(text):
    _assert_matches_by_vertex(text)


def test_every_short_string_parses_or_fails_as_the_oracle_does():
    # all strings over ".()x" up to length 8, and a seeded sample of 9-12
    rng = random.Random(4412)
    texts = ["".join(p) for k in range(9) for p in itertools.product(".()x", repeat=k)]
    texts += ["".join(rng.choices(".()x", k=rng.randint(9, 12))) for _ in range(20000)]
    valid = 0
    for text in texts:
        want = _outcome(pairing_by_vertex, text)
        assert _outcome(parse_structure, text) == want, text
        if want is None:
            _assert_matches_by_vertex(text)
            valid += 1
    assert valid > 100


def test_island_diagram_validation_matches_the_per_pair_loop():
    # every string over "()_x" up to length 9
    accepted = 0
    for k in range(10):
        for chars in itertools.product("()_x", repeat=k):
            t = "".join(chars)
            want = _outcome(check_island_text, t)
            assert _outcome(IslandDiagram, t) == want, t
            accepted += want is None
    # the empty diagram, and every generated one that fits
    assert accepted == 1 + sum(1 for ell in range(1, 5) for d in generate_island_diagrams(ell)
                           if len(d.text) <= 9)
