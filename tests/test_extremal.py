import hashlib
import json
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetmatrix import extremal
from posetmatrix import (
    CapExceeded,
    HyperMatrix,
    InvariantError,
    Poset,
    SetFamily,
    all_cells,
    antichain,
    chain,
    diamond,
    enumerate_patterns,
    erdos_bound,
    ex_exact,
    ex_monotonicity_check,
    identity_matrix,
    la_exact,
    middle_levels,
    random_free_matrix,
    tardos_diamond_check,
    vee,
)
from posetmatrix.family import cube_order
from posetmatrix.family import occurrence_masks as family_masks
from posetmatrix.hypermatrix import occurrence_masks
from posetmatrix.rng import make_rng

from conftest import brute_contains, brute_family_contains, mat


def brute_ex(dims, patterns):
    """Max ones over every 0-1 matrix of the given shape."""
    return brute_ex_witness(dims, patterns)[0]


def brute_ex_witness(dims, patterns):
    """The first free pick of the largest free size in combinations order,
    which is the lexicographically least maximum witness."""
    cells = all_cells(dims)
    for r in range(len(cells), -1, -1):
        for pick in combinations(cells, r):
            host = HyperMatrix(dims, pick)
            if not any(brute_contains(host, a) for a in patterns):
                return r, pick


def brute_la(n, p, induced):
    return brute_la_witness(n, p, induced)[0]


def brute_la_witness(n, p, induced):
    """The first free pick of the largest free size in combinations order
    over the sets sorted by (size, value), which is the lexicographically
    least maximum witness."""
    ground = sorted(range(1 << n), key=lambda s: (s.bit_count(), s))
    for size in range(len(ground), -1, -1):
        for pick in combinations(ground, size):
            if not brute_family_contains(SetFamily(n, pick), p, induced):
                return size, pick


def test_ex_known_2dim_values():
    id2 = identity_matrix(2)
    for n in range(1, 5):
        assert ex_exact((n, n), [id2]).value == 2 * n - 1
    assert ex_exact((3, 4), [id2]).value == 6
    assert ex_exact((2, 2), [mat("11")]).value == 2
    # pattern wider than the host can never occur
    assert ex_exact((2, 2), [identity_matrix(3)]).value == 4


def test_ex_matches_brute_force():
    id2 = identity_matrix(2)
    vert = mat("1", "1")
    anti = HyperMatrix((2, 2), ((1, 2), (2, 1)))
    for dims in ((2, 2), (2, 3), (3, 3)):
        for pats in ([id2], [vert], [anti], [id2, anti]):
            assert ex_exact(dims, pats).value == brute_ex(dims, pats)
    diag = HyperMatrix((2, 2, 2), ((1, 1, 1), (2, 2, 2)))
    assert ex_exact((2, 2, 2), [diag]).value == brute_ex((2, 2, 2), [diag])


@st.composite
def small_boxes(draw, max_cells=9):
    """Side lengths of a box with dimension 1..3 and at most max_cells cells."""
    dims = []
    room = max_cells
    for _ in range(draw(st.integers(1, 3))):
        side = draw(st.integers(1, room))
        dims.append(side)
        room //= side
    return tuple(dims)


@st.composite
def ex_instances(draw):
    """A small host shape and one or two nonzero patterns of its dimension;
    a pattern may be larger than the host."""
    dims = draw(small_boxes())
    pats = []
    for _ in range(draw(st.integers(1, 2))):
        pdims = tuple(draw(st.integers(1, 3)) for _ in dims)
        ones = draw(st.sets(st.sampled_from(all_cells(pdims)), min_size=1, max_size=4))
        pats.append(HyperMatrix(pdims, tuple(ones)))
    return dims, pats


@settings(max_examples=60, deadline=None, database=None)
@given(ex_instances())
def test_ex_matches_brute_force_witness(instance):
    dims, pats = instance
    res = ex_exact(dims, pats)
    assert (res.value, res.witness.ones) == brute_ex_witness(dims, pats)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_occurrence_masks_decide_containment(data):
    dims, pats = data.draw(ex_instances())
    cells = all_cells(dims)
    ones = data.draw(st.sets(st.sampled_from(cells)))
    host = HyperMatrix(dims, tuple(ones))
    bits = sum(1 << i for i, c in enumerate(cells) if c in ones)
    masks = occurrence_masks(dims, pats)
    assert any(m & bits == m for m in masks) == any(brute_contains(host, a) for a in pats)


@st.composite
def mask_lists(draw):
    """A cell count of at most 10 and up to 12 distinct nonzero masks of 1 to
    4 cells over it, sorted; masks may nest or hold a single cell."""
    total = draw(st.integers(1, 10))
    cell_sets = draw(
        st.lists(st.frozensets(st.integers(0, total - 1), min_size=1, max_size=4), max_size=12)
    )
    return total, sorted({sum(1 << c for c in cs) for cs in cell_sets})


def brute_mask_search(total, masks):
    """The first set holding no mask, of the largest such size, in
    combinations order: the lexicographically least maximum one."""
    for size in range(total, -1, -1):
        for pick in combinations(range(total), size):
            bits = sum(1 << c for c in pick)
            if not any(m & bits == m for m in masks):
                return size, bits


@settings(max_examples=200, deadline=None, database=None)
@given(mask_lists())
@example((3, [0b1, 0b11, 0b111]))  # nested, one cell
@example((4, []))
# wrong if the bound counts a mask sharing a lower undecided cell with one
# already counted
@example((10, [1, 43, 68, 132, 136, 264, 278, 323, 520, 592]))
def test_mask_search_matches_brute_force(instance):
    total, masks = instance
    assert extremal._mask_search(total, masks) == brute_mask_search(total, masks)


@st.composite
def involutions(draw, total):
    """A random involution of the cells 0..total-1: swaps of disjoint pairs."""
    cells = draw(st.permutations(range(total)))
    sym = list(range(total))
    for i in range(draw(st.integers(0, total // 2))):
        a, b = cells[2 * i], cells[2 * i + 1]
        sym[a], sym[b] = b, a
    return sym


@st.composite
def symmetric_mask_lists(draw):
    """`mask_lists` with one or two random involutions of its cells, the
    masks closed under both."""
    total, masks = draw(mask_lists())
    syms = [draw(involutions(total)) for _ in range(draw(st.integers(1, 2)))]
    closed, new = set(masks), set(masks)
    while new:
        images = {sum(1 << sym[c] for c in range(total) if m >> c & 1) for m in new for sym in syms}
        new = images - closed
        closed |= new
    return total, sorted(closed), syms


@settings(max_examples=200, deadline=None, database=None)
@given(symmetric_mask_lists())
# swapping cells 0 and 2 cuts every set that takes cell 2 but not cell 0
@example((3, [0b11, 0b110], [[2, 1, 0]]))
# wrong if a sym that X has beaten still cuts at a later comparison
@example((9, [40, 192], [[1, 0, 8, 7, 4, 6, 5, 3, 2]]))
# swapping 1, 5 and 2, 6 compares in order; wrong if a sym X has beaten
# stays tied, or if syms that are no longer tied still cut
@example((8, [6, 62, 96, 122, 170], [[0, 5, 6, 3, 4, 1, 2, 7]]))
def test_symmetric_mask_search_matches_trivial_group(instance):
    total, masks, syms = instance
    expected = brute_mask_search(total, masks)
    assert extremal._mask_search(total, masks, syms) == expected
    assert extremal._mask_search(total, masks) == expected


@st.composite
def wide_mask_lists(draw, with_sym):
    """8 to 11 cells and 65 to 200 distinct masks of 2 or 3 cells, sorted:
    more masks than one machine word holds.  With `with_sym`, also a random
    involution of the cells, and the masks closed under it."""
    total = draw(st.integers(8, 11))
    sym = draw(involutions(total)) if with_sym else list(range(total))
    # each mask with its image under sym, so a pick of orbits is closed
    orbits = set()
    for size in (2, 3):
        for cs in combinations(range(total), size):
            orbits.add(frozenset((sum(1 << c for c in cs), sum(1 << sym[c] for c in cs))))
    want = draw(st.integers(65, 199))
    masks = []
    for orbit in draw(st.permutations(sorted(map(sorted, orbits)))):
        if len(masks) >= want:
            break
        masks.extend(orbit)
    return total, sorted(masks), [sym] if with_sym else []


@pytest.mark.parametrize("with_sym", [False, True])
@settings(max_examples=30, deadline=None, database=None)
@given(st.data())
def test_wide_mask_search_matches_brute_force(with_sym, data):
    total, masks, syms = data.draw(wide_mask_lists(with_sym))
    assert len(masks) > 64
    expected = brute_mask_search(total, masks)
    assert extremal._mask_search(total, masks, syms) == expected
    assert extremal._mask_search(total, masks) == expected


def test_mask_search_rejects_empty_mask():
    # every set holds an empty mask, so no answer would be right
    with pytest.raises(ValueError, match="at least one cell"):
        extremal._mask_search(3, [0, 0b11])


def test_ex_one_dim_full_patterns():
    # a length-l run of 1s forces every window of l positions to miss one
    for ell in (1, 2, 3, 5):
        pat = HyperMatrix((ell,), tuple((i,) for i in range(1, ell + 1)))
        for n in (1, 2, 4, 6):
            assert ex_exact((n,), [pat]).value == min(n, ell - 1)


def test_ex_one_dim_gapped_pattern():
    # with an interior 0 the l-1 rule fails: (1,0,1) in a 3-cell host only
    # occurs at full stretch, so 2 ones fit
    pat = HyperMatrix((3,), ((1,), (3,)))
    res = ex_exact((3,), [pat])
    assert res.value == 2
    assert res.witness.ones in (((1,), (2,)), ((2,), (3,)))


def test_ex_witness_is_free_and_lex_least():
    id2 = identity_matrix(2)
    res = ex_exact((3, 3), [id2])
    assert res.witness.weight == res.value == 5
    assert not brute_contains(res.witness, id2)
    # include-first search keeps the earliest cells: top row plus first column
    assert res.witness.ones == ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))


def test_ex_cap_and_override():
    id2 = identity_matrix(2)
    with pytest.raises(CapExceeded, match="allow_over_cap"):
        ex_exact((7, 7), [id2])
    long_run = HyperMatrix((2,), ((1,), (2,)))
    assert ex_exact((40,), [long_run], allow_over_cap=True).value == 1
    # one search level per cell: deeper than Python's recursion limit
    assert ex_exact((1, 1200), [id2], allow_over_cap=True).value == 1200


def test_ex_seven_by_seven_identity():
    # past the default cap: 2n-1 for the 2x2 identity
    id2 = identity_matrix(2)
    res = ex_exact((7, 7), [id2], allow_over_cap=True)
    assert res.value == res.witness.weight == 13
    assert not brute_contains(res.witness, id2)


def test_ex_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one"):
        ex_exact((2, 2), [])
    with pytest.raises(ValueError, match="dimension"):
        ex_exact((2, 2), [HyperMatrix((2,), ((1,),))])
    with pytest.raises(ValueError, match="at least one 1"):
        ex_exact((2, 2), [HyperMatrix((2, 2), ())])
    with pytest.raises(ValueError, match="bad dims"):
        ex_exact((0, 2), [identity_matrix(2)])


def test_ex_cache_round_trip(tmp_cache):
    id2 = identity_matrix(2)
    cold = ex_exact((4, 4), [id2], cache=tmp_cache)
    warm = ex_exact((4, 4), [id2], cache=tmp_cache)
    assert cold == warm
    files = list(tmp_cache.root.glob("*.json"))
    assert len(files) == 1
    # wrecked cache entries are ignored, not trusted
    files[0].write_text("not json")
    assert ex_exact((4, 4), [id2], cache=tmp_cache) == cold


def _forge_entry(cache, value, witness):
    """Overwrite the cache's only entry with a forged value and witness."""
    [entry] = cache.root.glob("*.json")
    record = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(record, value=value, witness=witness)))
    return entry, record


def test_cached_entry_failing_recheck_is_recomputed(tmp_cache):
    id2 = identity_matrix(2)
    cold = ex_exact((3, 3), [id2], cache=tmp_cache)
    entry, record = _forge_entry(tmp_cache, 6, [[1, 1], [1, 2], [1, 3], [2, 1], [3, 1], [3, 3]])
    assert ex_exact((3, 3), [id2], cache=tmp_cache) == cold
    assert json.loads(entry.read_text()) == record
    # json reads Infinity as inf, which int() rejects with OverflowError
    entry, record = _forge_entry(tmp_cache, float("inf"), record["witness"])
    assert '"value": Infinity' in entry.read_text()
    assert ex_exact((3, 3), [id2], cache=tmp_cache) == cold
    assert json.loads(entry.read_text()) == record
    entry.unlink()
    cold = la_exact(3, diamond(), True, cache=tmp_cache)
    entry, record = _forge_entry(tmp_cache, 4, [[], [1], [2], [1, 2]])
    assert la_exact(3, diamond(), True, cache=tmp_cache) == cold
    assert json.loads(entry.read_text()) == record
    # so does 1e999, here as a witness element
    entry, record = _forge_entry(tmp_cache, 6, "overflow")
    entry.write_text(entry.read_text().replace('"overflow"', "[[1e999]]"))
    assert la_exact(3, diamond(), True, cache=tmp_cache) == cold
    assert json.loads(entry.read_text()) == record


def test_parent_format_cache_entries_are_served_without_search(tmp_cache, monkeypatch):
    # keys and payloads spelled out as engine version 1 has always written
    # them, so a change to either layout turns these hits into searches
    ex_witness = [[1, 1], [1, 2], [1, 3], [2, 1], [3, 1]]
    i2_obj = {"dims": [2, 2], "ones": [[1, 1], [2, 2]]}
    tmp_cache.put(
        {"kind": "ex", "engine": 1, "dims": [3, 3], "patterns": [i2_obj]},
        {"value": 5, "witness": ex_witness},
    )
    la_witness = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    diamond_obj = {
        "elements": ["a", "b", "c", "d"],
        "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
    }
    tmp_cache.put(
        {"kind": "la", "engine": 1, "n": 3, "poset": diamond_obj, "induced": True},
        {"value": 6, "witness": la_witness},
    )

    def no_search(total, masks, syms=()):
        raise AssertionError("a cached instance was searched")

    monkeypatch.setattr(extremal, "_mask_search", no_search)
    res = ex_exact((3, 3), [identity_matrix(2)], cache=tmp_cache)
    assert (res.value, res.witness.to_obj()["ones"]) == (5, ex_witness)
    res = la_exact(3, diamond(), True, cache=tmp_cache)
    assert (res.value, res.witness.to_obj()["sets"]) == (6, la_witness)


def test_cache_files_hold_the_chosen_labels(tmp_cache):
    # the bytes of each file, spelled out: a change to the entry layout shows
    ex_exact((3, 3), [identity_matrix(2)], cache=tmp_cache)
    la_exact(3, diamond(), True, cache=tmp_cache)
    files = {f.name[:8]: f.read_text() for f in tmp_cache.root.glob("*.json")}
    assert files == {
        "dce5f5bd": '{"key":{"dims":[3,3],"engine":1,"kind":"ex","patterns":'
        '[{"dims":[2,2],"ones":[[1,1],[2,2]]}]},"schema":1,"value":5,'
        '"witness":[[1,1],[1,2],[1,3],[2,1],[3,1]]}\n',
        "78afb829": '{"key":{"engine":1,"induced":true,"kind":"la","n":3,"poset":'
        '{"covers":[["a","b"],["a","c"],["b","d"],["c","d"]],"elements":["a","b","c","d"]}},'
        '"schema":1,"value":6,"witness":[[1],[2],[3],[1,2],[1,3],[2,3]]}\n',
    }


@pytest.mark.parametrize(
    "value, witness",
    [
        (5, [[1, 1], [1, 2], [1, 3], [2, 1], [2, 1]]),  # a repeated position
        (5, [[1, 1], [1, 2], [1, 3], [2, 1], [4, 1]]),  # no such cell in 3x3
        (5, [[1, 1], [1, 2], [1, 3], [2, 1], "31"]),  # a label that is no cell
        (True, [[1, 1]]),
        ("5", [[1, 1], [1, 2], [1, 3], [2, 1], [3, 1]]),
        (4, [[1, 1], [1, 2], [1, 3], [2, 1], [3, 1]]),  # five cells, not four
    ],
)
def test_forged_ex_entry_is_a_miss(tmp_cache, value, witness):
    id2 = identity_matrix(2)
    cold = ex_exact((3, 3), [id2], cache=tmp_cache)
    entry, record = _forge_entry(tmp_cache, value, witness)
    assert ex_exact((3, 3), [id2], cache=tmp_cache) == cold
    assert json.loads(entry.read_text()) == record


@pytest.mark.parametrize(
    "value, witness",
    [
        (6, [[1], [2], [3], [1, 2], [1, 3], [1, 3]]),  # a repeated position
        (6, [[1], [2], [3], [1, 2], [1, 3], [2, 4]]),  # no such set at n=3
        (6, [[1], [2], [3], [1, 2], [1, 3], [3, 2]]),  # elements not sorted
        (True, [[1]]),
        ("6", [[1], [2], [3], [1, 2], [1, 3], [2, 3]]),
    ],
)
def test_forged_la_entry_is_a_miss(tmp_cache, value, witness):
    cold = la_exact(3, diamond(), True, cache=tmp_cache)
    entry, record = _forge_entry(tmp_cache, value, witness)
    assert la_exact(3, diamond(), True, cache=tmp_cache) == cold
    assert json.loads(entry.read_text()) == record


def test_over_cap_raises_before_listing_positions():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="1000000000000 cells"):
        ex_exact((10**4,) * 3, [identity_matrix(2, 3)])
    with pytest.raises(CapExceeded, match="ground set size 40"):
        la_exact(40, chain(2), False)
    assert time.perf_counter() - start < 1


def test_fresh_result_failing_recheck_raises(tmp_cache, monkeypatch):
    # an engine fault that takes every position must not pass or be cached
    monkeypatch.setattr(extremal, "_mask_search", lambda total, masks, syms=(): (total, (1 << total) - 1))
    with pytest.raises(RuntimeError, match="forbidden pattern"):
        ex_exact((3, 3), [identity_matrix(2)], cache=tmp_cache)
    with pytest.raises(RuntimeError, match="forbidden poset"):
        la_exact(3, diamond(), True, cache=tmp_cache)
    assert not list(tmp_cache.root.glob("*.json"))


def test_la_chain_matches_erdos():
    for n in range(0, 5):
        for k in range(2, 5):
            assert la_exact(n, chain(k), False).value == erdos_bound(n, k)
            assert la_exact(n, chain(k), True).value == erdos_bound(n, k)


def test_la_chain_three_six():
    # past the default cap: Erdos's bound, the two largest levels of the 6-cube
    res = la_exact(6, chain(3), False, allow_over_cap=True)
    assert res.value == res.witness.size == erdos_bound(6, 3) == 35
    assert not brute_family_contains(res.witness, chain(3), False)
    # the lexicographically least: every set of size 2, then of size 3
    assert res.witness.masks == tuple(m for m in cube_order(6) if m.bit_count() in (2, 3))


def test_la_antichain_three_induced_six():
    # past the default cap: 2n, the largest union of two chains (Dilworth)
    res = la_exact(6, antichain(3), True, allow_over_cap=True)
    assert res.value == res.witness.size == 12
    assert not brute_family_contains(res.witness, antichain(3), True)
    # the lexicographically least, as bitmasks (element i at bit i-1)
    assert res.witness.masks == (0, 1, 2, 3, 5, 7, 11, 15, 23, 31, 47, 63)


def test_la_vee_induced_six():
    # search value, witness re-checked: no closed form confirms optimality
    res = la_exact(6, vee(2), True, allow_over_cap=True)
    assert res.value == res.witness.size == 25
    assert not brute_family_contains(res.witness, vee(2), True)
    # the lexicographically least, as bitmasks (element i at bit i-1)
    assert res.witness.masks == (
        7, 11, 13, 14, 19, 21, 22, 25, 26, 37, 38, 41, 42, 44, 49, 50, 52, 56,
        29, 30, 39, 43, 51, 60, 63,
    )


def test_ex_frontier_witnesses():
    # the lexicographically least witnesses: the cells with a coordinate
    # at most 2 for I3 on 6x6, and with a coordinate 1 for the 3-dim 2x2x2
    # identity on 4x4x4
    res = ex_exact((6, 6), [identity_matrix(3)], allow_over_cap=True)
    assert res.value == 20
    assert res.witness.ones == tuple(c for c in all_cells((6, 6)) if min(c) <= 2)
    res = ex_exact((4, 4, 4), [identity_matrix(2, 3)], allow_over_cap=True)
    assert res.value == 37
    assert res.witness.ones == tuple(c for c in all_cells((4, 4, 4)) if 1 in c)


def test_la_generic_agrees_with_chain_shortcut():
    # the generic mask search, run directly, reproduces the chain closed form,
    # also for a chain whose elements are listed top first
    for n in (2, 3, 4):
        for k in (2, 3):
            top_first = Poset(
                tuple(f"b{i}" for i in range(k)),
                tuple(sum(1 << j for j in range(i)) for i in range(k)),
            )
            for p in (chain(k), top_first):
                for induced in (False, True):
                    ground = cube_order(n)
                    value, chosen = extremal._mask_search(
                        len(ground), family_masks(n, p, induced)
                    )
                    assert value == erdos_bound(n, k)
                    assert bin(chosen).count("1") == value
                    fam = SetFamily(n, tuple(s for i, s in enumerate(ground) if chosen >> i & 1))
                    assert not brute_family_contains(fam, p, induced)


def test_la_single_element_poset():
    res = la_exact(3, chain(1), False)
    assert res.value == 0 and res.witness.size == 0


def test_la_matches_brute_force():
    for p in (vee(2), diamond(), antichain(2)):
        for n in (0, 1, 2, 3):
            for induced in (False, True):
                assert la_exact(n, p, induced).value == brute_la(n, p, induced), (
                    p.elements,
                    n,
                    induced,
                )


def test_la_diamond_five():
    # the two middle levels, in both modes
    for induced in (False, True):
        res = la_exact(5, diamond(), induced)
        assert res.value == 20
        assert res.witness.masks == middle_levels(5, 2).masks


@st.composite
def small_posets(draw, max_size=3):
    """A poset on at most max_size elements, from relations i < j closed
    transitively; every poset has a linear extension, so this draws every
    shape."""
    k = draw(st.integers(1, max_size))
    labels = [str(i) for i in range(k)]
    pairs = draw(st.sets(st.sampled_from(list(combinations(labels, 2))))) if k > 1 else set()
    return Poset.from_pairs(labels, pairs)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 3), small_posets(), st.booleans())
def test_la_matches_brute_force_witness(n, p, induced):
    res = la_exact(n, p, induced)
    assert (res.value, res.witness.masks) == brute_la_witness(n, p, induced)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_family_masks_decide_containment(data):
    n = data.draw(st.integers(0, 3))
    p = data.draw(small_posets())
    induced = data.draw(st.booleans())
    ground = cube_order(n)
    picked = data.draw(st.sets(st.integers(0, len(ground) - 1)))
    fam = SetFamily(n, tuple(ground[i] for i in sorted(picked)))
    bits = sum(1 << i for i in picked)
    masks = family_masks(n, p, induced)
    assert any(m & bits == m for m in masks) == brute_family_contains(fam, p, induced)


def test_la_witness_checked(tmp_cache):
    res = la_exact(3, diamond(), True, cache=tmp_cache)
    assert res.witness.size == res.value
    assert not brute_family_contains(res.witness, diamond(), True)
    # warm read re-verifies and returns the same family
    again = la_exact(3, diamond(), True, cache=tmp_cache)
    assert again.witness.masks == res.witness.masks


def test_la_cap_and_errors():
    with pytest.raises(CapExceeded, match="allow_over_cap"):
        la_exact(6, chain(2), False)
    with pytest.raises(ValueError, match="nonempty"):
        la_exact(2, Poset((), ()), False)
    # one search level per set: deeper than Python's recursion limit
    assert la_exact(10, chain(1), False, allow_over_cap=True).value == 0


def test_la_rejects_non_integer_ground_set_size():
    # 3.5 used to reach a shift and raise a bare TypeError
    with pytest.raises(InvariantError, match="integer ground set size"):
        la_exact(3.5, chain(2), False)


def test_monotonicity_check():
    id2 = identity_matrix(2)
    res = ex_monotonicity_check(id2, (2, 2), (4, 4))
    assert res.holds and res.small_value == 3 and res.big_value == 7
    with pytest.raises(ValueError, match="coordinatewise"):
        ex_monotonicity_check(id2, (3, 3), (2, 4))
    with pytest.raises(ValueError, match="dimension"):
        ex_monotonicity_check(id2, (2, 2, 2), (3, 3, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ex_exact((2.5, 2), [identity_matrix(2)]),
        lambda: random_free_matrix((2.5, 2), [identity_matrix(2)], make_rng(0, "ex:float")),
        lambda: ex_monotonicity_check(identity_matrix(2), (2, 2), (3.5, 3)),
    ],
    ids=["ex_exact", "random_free_matrix", "ex_monotonicity_check"],
)
def test_dims_reject_non_integers(call):
    # int() would truncate the side 2.5 to 2, and ex_exact return 3
    with pytest.raises(InvariantError, match="integer matrix side length"):
        call()


def test_tardos_diamond_small():
    res = tardos_diamond_check(2)
    assert res == (3, 8, True)
    assert tardos_diamond_check(3).value == 6


def test_random_free_matrix_is_free_and_maximal():
    rng = make_rng(9, "ex:greedy")
    id2 = identity_matrix(2)
    for _ in range(10):
        dims = (rng.randint(2, 5), rng.randint(2, 5))
        host = random_free_matrix(dims, [id2], rng)
        assert not brute_contains(host, id2)
        for c in all_cells(dims):
            if c not in host.ones_set:
                grown = HyperMatrix(dims, host.ones + (c,))
                assert brute_contains(grown, id2)


def all_rule_greedy(through, order):
    """The greedy as first written: take a cell unless some mask through it
    has every other cell taken."""
    cur = 0
    for i in order:
        bit = 1 << i
        if all(m & cur != m ^ bit for m in through[i]):
            cur |= bit
    return cur


@st.composite
def greedy_runs(draw):
    """`mask_lists` and an order of the cells."""
    total, masks = draw(mask_lists())
    return total, masks, draw(st.permutations(range(total)))


@settings(max_examples=300, deadline=None, database=None)
@given(greedy_runs())
@example((2, [0b01], [1, 0]))  # a one-cell mask blocks its cell from the start
@example((3, [0b001, 0b110], [0, 1, 2]))
@example((3, [0b011, 0b110, 0b101], [2, 0, 1]))
def test_greedy_matches_the_all_rule(run):
    total, masks, order = run
    through = [[m for m in masks if m >> c & 1] for c in range(total)]
    singles = sum(m for m in masks if not m & (m - 1))
    assert extremal._greedy(through, singles, order) == all_rule_greedy(through, order)


def test_random_free_matrix_of_one_cell_pattern_is_empty():
    # every cell is a copy of the 1x1 pattern, so no cell may be taken
    rng = make_rng(0, "ex:greedy-1x1")
    for dims in [(1, 1), (3, 4), (2, 2, 2)]:
        assert random_free_matrix(dims, [identity_matrix(1, len(dims))], rng).weight == 0


RANDOM_FREE_CASES = {
    "I2": (lambda: [identity_matrix(2)], 2, 8),
    "3-dim I2": (lambda: [identity_matrix(2, 3)], 3, 4),
    "diamond set": (lambda: enumerate_patterns(diamond(), 2), 2, 6),
}


@pytest.mark.parametrize(
    "case, weights, digest",
    [
        (
            "I2",
            [14, 9, 10, 7, 9, 11, 5, 10, 11, 7, 8, 5, 8, 9, 9, 9, 7, 8, 15, 13],
            "19861b9834dccd7ee496cbb55c613009100486260e2ae001cbb791b2452a631b",
        ),
        (
            "3-dim I2",
            [13, 19, 13, 30, 23, 23, 23, 18, 23, 30, 23, 18, 18, 13, 19, 37, 10, 30, 19, 23],
            "89cbaec97f488e2953018e65b4703a913d0ca22e1e1a54ca09292bc28f2d5e30",
        ),
        (
            "diamond set",
            [4, 6, 10, 8, 10, 7, 5, 5, 7, 5, 3, 6, 6, 7, 6, 9, 7, 7, 7, 3],
            "8da2ba1420b74305184d136da9103bb3a562216bde9717fbb1b588513419f0bb",
        ),
    ],
)
def test_random_free_matrix_frozen_draws(case, weights, digest):
    # 20 draws at one seed, frozen from the all-rule greedy: each shape is
    # drawn after the previous shuffle, so the digest also pins the draws
    pats, d, top = RANDOM_FREE_CASES[case]
    pats = pats()
    rng = make_rng(0, "test:random-free-matrix")
    draws = []
    for _ in range(20):
        dims = tuple(rng.randint(2, top) for _ in range(d))
        draws.append(random_free_matrix(dims, pats, rng).to_obj())
    assert [len(m["ones"]) for m in draws] == weights
    text = json.dumps(draws, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
