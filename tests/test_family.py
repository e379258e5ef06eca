import json
from fractions import Fraction
from math import comb

import pytest

from posetmatrix import (
    InvariantError,
    SetFamily,
    antichain,
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
from posetmatrix.embed import degree_filter
from posetmatrix.family import (
    cube_order,
    cube_swaps,
    inclusion_tables,
    occurrence_masks,
)
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


def test_degree_filter_counts_inside_the_universe():
    # {1,2} is the only proper superset of {1} and of {2}: with it outside
    # the universe, neither can hold the bottom of a 2-chain
    sup, sub = inclusion_tables([0b01, 0b11, 0b10])
    assert degree_filter(chain(2), sup, sub, 0b111) == [0b101, 0b010]
    assert degree_filter(chain(2), sup, sub, 0b101) == [0, 0]


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
