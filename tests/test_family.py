import json
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetmatrix import (
    InvariantError,
    Poset,
    SetFamily,
    antichain,
    boolean_lattice,
    butterfly,
    chain,
    diamond,
    family_contains,
    find_embedding,
    load_family,
    lubell,
    middle_levels,
    shifted_lubell,
    vee,
)
from posetmatrix.embed import (
    columns,
    degree_filter,
    find_order_embedding,
    inclusion_tables,
    order_embeddings,
    order_images,
)
from posetmatrix.family import cube_order, cube_swaps, occurrence_masks
from posetmatrix.rng import make_rng

from conftest import brute_family_contains


def test_family_validation():
    with pytest.raises(InvariantError, match="duplicate set"):
        SetFamily(2, (1, 1))
    with pytest.raises(InvariantError, match="out of range"):
        SetFamily(2, (4,))
    with pytest.raises(InvariantError, match="ground set"):
        SetFamily(-1, ())
    with pytest.raises(InvariantError, match="out of range"):
        SetFamily.from_sets(2, [{3}])
    with pytest.raises(InvariantError, match="duplicate set element"):
        SetFamily.from_sets(3, [[2, 1, 2]])
    assert SetFamily.from_sets(3, [[3, 1]]).masks == (0b101,)


def test_from_sets_rejects_non_integers():
    # int() would read 1.9 as 1 and True as 1
    for n, sets in ((3, [[1.9]]), (3, [[True, 3]]), (3.0, [[1]]), (True, [[1]])):
        with pytest.raises(InvariantError, match="integer"):
            SetFamily.from_sets(n, sets)


def test_family_rejects_non_integer_masks():
    # int() would read the mask 1.0 as the set {1}
    with pytest.raises(InvariantError, match="integer set mask"):
        SetFamily(3, (1.0, 2))
    with pytest.raises(InvariantError, match="integer ground set size"):
        SetFamily(3.0, (1, 2))


def test_sets_round_trip():
    fam = SetFamily.from_sets(3, [set(), {1, 3}, {2}])
    assert fam.masks == (0, 5, 2)
    assert fam.sets() == [frozenset(), frozenset({1, 3}), frozenset({2})]
    assert fam.to_obj() == {"n": 3, "sets": [[], [1, 3], [2]]}


def test_embedding_pins_and_modes():
    # {} < {1} < {1,2} plus {2}: the vee sits on {} with tops {1}, {2}
    fam = SetFamily.from_sets(2, [set(), {1}, {1, 2}, {2}])
    v = vee(2)
    got = find_embedding(fam, v, induced=False)
    assert got is not None
    assert find_embedding(fam, chain(4), induced=True) is None
    assert family_contains(fam, diamond(), induced=False)
    assert family_contains(fam, diamond(), induced=True)


def test_containment_matches_brute_force():
    rng = make_rng(5, "fam:oracle")
    posets = [chain(2), chain(3), antichain(3), vee(2), diamond(), butterfly()]
    for _ in range(40):
        n = rng.randint(2, 4)
        masks = [m for m in range(1 << n) if rng.random() < 0.4]
        fam = SetFamily(n, tuple(masks[:7]))
        for p in posets:
            for induced in (False, True):
                assert family_contains(fam, p, induced) == brute_family_contains(
                    fam, p, induced
                ), (n, fam.masks, p.elements, induced)


def test_lubell_values():
    fam = SetFamily.from_sets(2, [set(), {1}, {1, 2}])
    assert lubell(fam) == Fraction(5, 2)
    # a full level has weight exactly 1
    assert lubell(middle_levels(4, 1)) == 1
    assert lubell(SetFamily(3, ())) == 0


def test_shifted_lubell():
    fam = SetFamily.from_sets(2, [{1}])
    assert shifted_lubell(fam, 1) == lubell(fam)
    assert shifted_lubell(fam, 2) == Fraction(1, comb(4, 2))
    with pytest.raises(ValueError):
        shifted_lubell(fam, 0)


def test_middle_levels():
    fam = middle_levels(4, 2)
    assert fam.size == comb(4, 2) + comb(4, 3)
    assert {m.bit_count() for m in fam.masks} == {2, 3}
    assert middle_levels(5, 1).size == comb(5, 3)
    assert middle_levels(2, 3).size == 4
    with pytest.raises(ValueError):
        middle_levels(2, 4)
    with pytest.raises(ValueError):
        middle_levels(3, 0)


def test_family_file_round_trip(tmp_path):
    fam = SetFamily.from_sets(3, [{1}, {2, 3}])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(fam.to_obj()))
    assert load_family(path).masks == fam.masks
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(InvariantError, match="valid JSON"):
        load_family(bad)


def naive_columns(rows, width):
    # bit c of row i is bit len - 1 - i of column c
    last = len(rows) - 1
    return [sum(1 << last - i for i, r in enumerate(rows) if r >> c & 1) for c in range(width)]


@st.composite
def column_inputs(draw):
    """A width of 0 to 40 bits and up to 30 rows below 2**width."""
    width = draw(st.integers(0, 40))
    return draw(st.lists(st.integers(0, (1 << width) - 1), max_size=30)), width


@settings(max_examples=300, deadline=None, database=None)
@given(column_inputs())
@example(([], 0))
@example(([], 9))
@example(([0], 0))
@example(([0, 0, 0], 13))  # all-zero rows
@example(([1 << 16, 0b101, 1 << 16 | 1], 17))  # a width one past a whole byte
@example(([255, 256, 0b11], 9))
def test_columns_match_the_naive_definition(case):
    rows, width = case
    assert columns(rows, width) == naive_columns(rows, width)


def test_columns_of_a_range():
    for n in range(6):
        assert columns(range(1 << n), n) == naive_columns(list(range(1 << n)), n)
        assert columns(range(1 << n)[::-1], n) == naive_columns(list(range(1 << n))[::-1], n)


def test_inclusion_tables_match_pairwise_definition():
    def pairwise(masks):
        # sup[i]: members j != i with masks[i] a subset of masks[j]; sub[i]: the reverse
        k = range(len(masks))
        sup = [sum(1 << j for j in k if j != i and masks[i] & ~masks[j] == 0) for i in k]
        sub = [sum(1 << j for j in k if j != i and masks[j] & ~masks[i] == 0) for i in k]
        return sup, sub

    families = [cube_order(n) for n in range(9)] + [[], [0], [0, 5, 1], [6, 2, 0, 7]]
    rng = make_rng(3, "fam:tables")
    for _ in range(80):
        n = rng.randint(0, 8)
        masks = rng.sample(range(1 << n), rng.randint(0, min(1 << n, 40)))
        if masks and rng.random() < 0.5 and 0 not in masks:
            masks[rng.randrange(len(masks))] = 0
        families.append(masks)
    for masks in families:
        assert inclusion_tables(masks) == pairwise(masks), masks

    # a poset's principal down-sets are ordered by inclusion as it is itself
    posets = [chain(4), antichain(3), diamond(), vee(3), butterfly(), boolean_lattice(3)]
    for _ in range(200):
        k = rng.randint(1, 8)
        pairs = [(a, b) for a, b in combinations(range(k), 2) if rng.random() < 0.3]
        labels = rng.sample(range(k), k)
        posets.append(Poset.from_pairs(map(str, labels), [(str(a), str(b)) for a, b in pairs]))
    for q in posets:
        sup, sub = inclusion_tables([q.down[x] | 1 << x for x in range(q.n)])
        assert (tuple(sup), tuple(sub)) == (q.up, q.down), q


def test_cube_swaps_swap_adjacent_elements():
    for n in range(7):
        order = cube_order(n)
        swaps = cube_swaps(n)
        assert len(swaps) == max(n - 1, 0)
        for i, swap in enumerate(swaps):
            a, b = 1 << i, 2 << i
            for j, s in enumerate(order):
                t = s & ~(a | b) | (a if s & b else 0) | (b if s & a else 0)
                assert order[swap[j]] == t


def test_cube_swaps_compare_in_order():
    # each swap's higher cells increase with its lower ones, so the search
    # decides its comparisons in order and uses every one of them
    for n in range(9):
        for swap in cube_swaps(n):
            higher = [d for c, d in enumerate(swap) if c < d]
            assert higher == sorted(higher), n


def test_degree_filter_counts_among_the_targets():
    # {1,2} is the only proper superset of {1} and of {2}: without it among
    # the targets, neither can hold the bottom of a 2-chain
    assert degree_filter(chain(2), *inclusion_tables([0b01, 0b11, 0b10])) == [0b101, 0b010]
    assert degree_filter(chain(2), *inclusion_tables([0b01, 0b10])) == [0, 0]


def test_occurrence_masks_invariant_under_cube_swaps():
    # why la_exact may hand these swaps to the search unchecked
    posets = [chain(1), chain(2), chain(3), vee(2), antichain(2), antichain(3), diamond(), butterfly()]
    for n in range(6):
        swaps = cube_swaps(n)
        for p in posets:
            for induced in (False, True):
                masks = occurrence_masks(n, p, induced)
                for swap in swaps:
                    image = {sum(1 << swap[c] for c in range(len(swap)) if m >> c & 1) for m in masks}
                    assert image == set(masks), (n, p, induced)


@st.composite
def small_posets(draw):
    """A poset on at most 5 elements, relations closed transitively, labels
    listed in a random order so that element indices need not follow it."""
    k = draw(st.integers(1, 5))
    pairs = draw(st.sets(st.sampled_from(list(combinations(range(k), 2))))) if k > 1 else set()
    order = draw(st.permutations(range(k)))
    return Poset.from_pairs([str(x) for x in order], [(str(a), str(b)) for a, b in pairs])


@st.composite
def small_families(draw):
    """Distinct subsets of {1..n}, n <= 4, at most 8 of them, in random order."""
    n = draw(st.integers(0, 4))
    return draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=8))


def brute_embeddings(p, masks, induced):
    """Every injection of p into the sets that keeps the order (and, when
    induced, the incomparabilities), in lexicographic order."""

    def below(a: int, b: int) -> bool:
        return a != b and a & ~b == 0

    return [
        e
        for e in permutations(range(len(masks)), p.n)
        if all(
            below(masks[e[x]], masks[e[y]])
            if p.less(x, y)
            else not (induced and below(masks[e[x]], masks[e[y]]))
            for x in range(p.n)
            for y in range(p.n)
            if x != y
        )
    ]


TWO_CHAINS = Poset.from_pairs(["a0", "b0", "a1", "b1"], [("a0", "a1"), ("b0", "b1")])


def automorphisms(p):
    """Every permutation of p's elements that keeps its order, by brute force."""
    return [
        s
        for s in permutations(range(p.n))
        if all(p.less(x, y) == p.less(s[x], s[y]) for x in range(p.n) for y in range(p.n))
    ]


@settings(max_examples=300, deadline=None, database=None)
@given(small_posets(), small_families(), st.booleans())
# swapping the chains moves a0 and a1 at once, so e(a0) < e(b0) must not also
# force e(a1) < e(b1): here the one copy has a0, b0, b1, a1 at members 0..3
@example(TWO_CHAINS, [0b0001, 0b0010, 0b1010, 0b0101], True)
@example(Poset.from_pairs(["x"], []), [0b01, 0b10, 0b11], False)  # one element
@example(Poset((), ()), [], True)  # the empty poset embeds once, as ()
# the two tops are apart, so in induced mode they may not nest
@example(Poset.from_pairs("abc", [("a", "b"), ("a", "c")]), [0, 0b01, 0b10, 0b11, 0b100], True)
def test_order_embeddings_one_per_orbit(p, masks, induced):
    got = list(order_embeddings(p, masks, induced))
    # the lex-least embedding of each automorphism orbit, e∘σ for every
    # automorphism σ, in lexicographic order
    auts = automorphisms(p)
    want = [
        e
        for e in brute_embeddings(p, masks, induced)
        if all(e <= tuple(e[x] for x in s) for s in auts)
    ]
    assert got == want
    assert find_order_embedding(p, masks, induced) == (got[0] if got else None)
    # the image path runs the same search and yields each image as a bitset
    assert list(order_images(p, masks, induced)) == [sum(1 << t for t in e) for e in got]
    if induced:
        # embeddings onto one induced copy differ by an automorphism
        assert len({frozenset(e) for e in got}) == len(got)


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 3), small_posets(), st.booleans())
def test_cube_copies_are_the_images_of_every_injection(n, p, induced):
    want = {sum(1 << t for t in e) for e in brute_embeddings(p, cube_order(n), induced)}
    assert occurrence_masks(n, p, induced) == sorted(want)


def test_antichain_into_an_antichain_once():
    # the 3! relabellings of one copy are one automorphism orbit
    for induced in (False, True):
        assert list(order_embeddings(antichain(3), [0b001, 0b010, 0b100], induced)) == [(0, 1, 2)]
