import hashlib
import json
import time
from itertools import combinations, product

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
    builtin,
    butterfly,
    chain,
    diamond,
    enumerate_patterns,
    erdos_bound,
    ex_exact,
    ex_monotonicity_check,
    identity_matrix,
    la_exact,
    middle_levels,
    middle_levels_free,
    random_free_matrix,
    tardos_diamond_check,
    vee,
)
from posetmatrix.family import cube_order, cube_swaps, family_contains
from posetmatrix.family import occurrence_masks as family_masks
from posetmatrix.hypermatrix import box_swaps, occurrence_masks
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


def brute_copies(dims, pats):
    """Every copy of every pattern in the box, as a bitmask over `all_cells`:
    the image of the pattern's 1s under each strictly increasing index
    choice per axis, sorted."""
    index = {c: i for i, c in enumerate(all_cells(dims))}
    copies = set()
    for a in pats:
        for pick in product(*(combinations(range(1, n + 1), k) for n, k in zip(dims, a.dims))):
            copies.add(sum(1 << index[tuple(pick[j][u - 1] for j, u in enumerate(one))] for one in a.ones))
    return sorted(copies)


@settings(max_examples=60, deadline=None, database=None)
@given(ex_instances(), st.integers(0, (1 << 9) - 1))
@example(((4,), [HyperMatrix((2,), ((1,), (2,)))]), 0b1011)
@example(((3, 3), [mat("11", "01")]), 0b110011011)  # two 1s in one row
@example(((2, 2, 2), [HyperMatrix((1, 2, 2), ((1, 1, 1), (1, 1, 2), (1, 2, 2)))]), 0b11011101)
@example(((2, 3), [identity_matrix(3), mat("1", "1")]), 0b100110)  # I3 larger than the box
def test_occurrence_masks_decide_containment(instance, bits):
    dims, pats = instance
    cells = all_cells(dims)
    bits &= (1 << len(cells)) - 1
    host = HyperMatrix(dims, tuple(c for i, c in enumerate(cells) if bits >> i & 1))
    masks = occurrence_masks(dims, pats)
    assert masks == brute_copies(dims, pats)
    assert any(m & bits == m for m in masks) == any(brute_contains(host, a) for a in pats)


# each copy list's length and sha256 (its masks in decimal, comma-separated)
# with `_mask_search`'s result, frozen from the engine that listed each copy
# by its own loops: a faster table build must hand the search the same input
FROZEN_COPY_TABLES = [
    (("la", 5, "chain:3", False), 570, "10cc91121b3365e74389ba3449be71add9df5d1f1f1c0fcd1bf4ccf65954a998", (20, 67108800)),
    (("la", 5, "vee:2", False), 1230, "7ad893ddc4021131a7d8fea3daede6f3776f5fe7202c15769c6d622961b7b714", (13, 58818496)),
    (("la", 5, "antichain:3", True), 1090, "4fd9b7e186b18db693537bd74dad58c0ff111ac9b3b5e27ab27915b76ddcf903", (10, 2349007047)),
    (("la", 4, "diamond", False), 235, "4678b378087245ae6d77197ad3a05b230b03da581a97669dd847f8ce9016b1f0", (10, 2046)),
    (("la", 4, "diamond", True), 151, "d9c364a010e484a83b43415711b736c1014010e0297b69bdc3cbc819e3c634b7", (10, 2046)),
    (("la", 4, "butterfly", True), 6, "3b5b99293fd653837a52263b42d8c238e472317456de33acdcc4020de0a533ee", (14, 63471)),
    (("ex", (6, 6), "I2"), 225, "200a72fcd7150e561084e3ac4ac786535b2126f647026f9472b48d0e553c832e", (11, 1090785407)),
    (("ex", (5, 5), "I3"), 100, "5fdb9e9a140b91192c4a1655e6ee0eb756f23e480c310ffb3ed671872974d76f", (16, 3248127)),
    (("ex", (4, 4), "diamond set"), 225, "860587dceebe2726bef2eb21e0fdadae8b3f34dd44ce16dbe49c22178f7963b1", (9, 13726)),
]


@pytest.mark.parametrize("instance, length, digest, result", FROZEN_COPY_TABLES)
def test_copy_tables_and_search_results_are_frozen(instance, length, digest, result):
    if instance[0] == "la":
        _, n, name, induced = instance
        masks = family_masks(n, builtin(name), induced)
        floor = extremal._la_incumbent(n, masks).bit_count() - 1
        got = extremal._mask_search(1 << n, masks, cube_swaps(n), floor)
    else:
        _, dims, name = instance
        pats = enumerate_patterns(diamond(), 2) if name == "diamond set" else [identity_matrix(int(name[1]))]
        masks = occurrence_masks(dims, pats)
        got = extremal._mask_search(len(all_cells(dims)), masks)
    assert len(masks) == length
    assert hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest() == digest
    assert got == result


# the `ex` rows of FROZEN_COPY_TABLES, and 6x6 I3 and the 6x6 diamond set
# with (value, witness) frozen from the search without swaps: the axis swap
# that `ex_exact` passes moves neither
@pytest.mark.parametrize("instance, result", [
    *((instance, result) for instance, _, _, result in FROZEN_COPY_TABLES if instance[0] == "ex"),
    (("ex", (6, 6), "I3"), (20, 3272359935)),
    (("ex", (6, 6), "diamond set"), (15, 3307542654)),
])
def test_ex_search_results_are_frozen_under_axis_swaps(instance, result):
    _, dims, name = instance
    pats = enumerate_patterns(diamond(), 2) if name == "diamond set" else [identity_matrix(int(name[1]))]
    swaps = box_swaps(dims, pats)
    assert len(swaps) == 1
    assert extremal._mask_search(len(all_cells(dims)), occurrence_masks(dims, pats), swaps) == result


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
# the root counts the masks {0} and {1}; wrong if it hands them down though
# {0} holds cell 0 (the off-by-one `low >= pos`): they cut cell 1's node
@example((2, [0b1, 0b10, 0b11]))
# wrong if a packing is handed down whatever cells it holds: the root's {0}
# and {1} reach cell 2's node and cut the one free set, {2}
@example((3, [0b1, 0b10, 0b11, 0b101]))
# fewer masks live than slack: the node still packs and hands its count
# down, which cuts children; wrong if that count is one too many
@example((3, [0b11, 0b101]))
@example((6, [0b1000, 0b1110, 0b10000]))
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
# cells 2 and 3 are in no mask, so each is taken with no exclude child,
# while the sym compares them: cell 2 taken settles the tie at cell 3
@example((4, [0b11], [[0, 1, 3, 2]]))
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


@st.composite
def floor_cases(draw):
    """A mask list from `mask_lists`, `symmetric_mask_lists` or
    `wide_mask_lists`, with its symmetries, and an order of its cells."""
    total, masks, syms = draw(st.one_of(
        mask_lists().map(lambda instance: (*instance, [])),
        symmetric_mask_lists(),
        wide_mask_lists(False),
        wide_mask_lists(True),
    ))
    return total, masks, syms, draw(st.permutations(range(total)))


@settings(max_examples=200, deadline=None, database=None)
@given(floor_cases())
# the greedy takes cells 0 and 2, the optimum: the floor is opt - 1 at the root
@example((3, [0b11, 0b110], [[2, 1, 0]], [0, 1, 2]))
def test_floored_mask_search_matches_unseeded(case):
    # a floor one below a free set's size leaves value and witness as they are
    total, masks, syms, order = case
    expected = extremal._mask_search(total, masks, syms)
    g = extremal._greedy(*extremal._greedy_table(total, masks), order).bit_count()
    assert g <= expected[0]
    assert extremal._mask_search(total, masks, syms, g - 1) == expected
    # the tightest floor, and one the optimum cannot beat: nothing is found
    assert extremal._mask_search(total, masks, syms, expected[0] - 1) == expected
    assert extremal._mask_search(total, masks, syms, expected[0]) == (expected[0], 0)


def test_mask_search_rejects_empty_mask():
    # every set holds an empty mask, so no answer would be right
    with pytest.raises(ValueError, match="at least one cell"):
        extremal._mask_search(3, [0, 0b11])


def swap_axes(t, i, j):
    """Tuple t with entries i and j exchanged."""
    t = list(t)
    t[i], t[j] = t[j], t[i]
    return tuple(t)


def next_equal_axes(dims):
    """The pairs i < j of axes of equal length above 1 with no axis of that
    length between them."""
    return [
        (i, j)
        for i, j in combinations(range(len(dims)), 2)
        if dims[i] == dims[j] > 1 and dims[i] not in dims[i + 1 : j]
    ]


@st.composite
def swap_instances(draw):
    """A box of dimension 2 or 3 with two equal sides or none, one to three
    nonzero patterns, and in half the draws a pair of equal axes under whose
    swap the patterns are closed by construction (else None)."""
    dims = draw(st.sampled_from([
        (1, 1), (2, 2), (3, 3), (2, 3), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (1, 3, 1), (3, 4, 3),
    ]))
    pats = []
    for _ in range(draw(st.integers(1, 3))):
        pdims = tuple(draw(st.integers(1, 3)) for _ in dims)
        ones = draw(st.sets(st.sampled_from(all_cells(pdims)), min_size=1, max_size=4))
        pats.append(HyperMatrix(pdims, tuple(ones)))
    pairs = [(i, j) for i, j in combinations(range(len(dims)), 2) if dims[i] == dims[j]]
    closed = draw(st.sampled_from(pairs)) if pairs and draw(st.booleans()) else None
    if closed:
        pats += [HyperMatrix(swap_axes(a.dims, *closed), [swap_axes(o, *closed) for o in a.ones]) for a in pats]
    return dims, pats, closed


@settings(max_examples=150, deadline=None, database=None)
@given(swap_instances())
@example(((3, 4, 3), [identity_matrix(2, 3)], None))  # equal axes 1 and 3 are not adjacent
@example(((2, 3, 2), [HyperMatrix((2, 1, 2), ((1, 1, 1), (1, 1, 2), (2, 1, 2)))], None))
@example(((2, 2, 2), [identity_matrix(2, 3)], None))  # two swaps
def test_ex_axis_swaps_are_symmetries(instance):
    dims, pats, closed = instance
    cells = all_cells(dims)
    total = len(cells)
    masks = brute_copies(dims, pats)
    swaps = box_swaps(dims, pats)
    for sym in swaps:
        # an exchange of two equal axes that maps the copies onto themselves
        assert any(
            all(cells[sym[k]] == swap_axes(c, i, j) for k, c in enumerate(cells))
            for i, j in next_equal_axes(dims)
        )
        assert sorted(sum(1 << sym[c] for c in range(total) if m >> c & 1) for m in masks) == masks
    if closed in next_equal_axes(dims):
        assert [cells.index(swap_axes(c, *closed)) for c in cells] in [list(sym) for sym in swaps]
    expected = extremal._mask_search(total, masks)
    assert extremal._mask_search(total, masks, swaps) == expected
    if total <= 12:
        assert expected == brute_mask_search(total, masks)


@pytest.mark.parametrize("dims, pats, kept", [
    ((3, 3), [mat("11", "01")], 0),  # not closed under the transpose
    ((3, 3), [mat("11", "01"), mat("10", "11")], 1),  # A and its transpose
    ((1, 1), [mat("1")], 0),  # the swap would move no cell
    ((2, 3, 4), [identity_matrix(2, 3)], 0),  # no two sides equal
    ((3, 4, 3), [identity_matrix(2, 3)], 1),  # axes 1 and 3
    ((3, 3, 3), [identity_matrix(2, 3)], 2),  # axes 1, 2 and 2, 3
])
def test_ex_axis_swaps_kept(dims, pats, kept):
    assert len(box_swaps(dims, pats)) == kept


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


def test_ex_identity_four():
    # (k-1)(2n-k+1) for I_k on n x n; the lex-least witness is the cells
    # with a coordinate at most 3
    for n, value in ((5, 21), (6, 27), (7, 33)):
        res = ex_exact((n, n), [identity_matrix(4)], allow_over_cap=True)
        assert res.value == value == 3 * (2 * n - 3)
        assert res.witness.ones == tuple(c for c in all_cells((n, n)) if min(c) <= 3)


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


def test_solve_without_a_cache_builds_no_key_or_labels(monkeypatch):
    # the key and the labels are the cache's JSON codec: a cache-free solve
    # turns no pattern, poset or set into JSON
    def no_codec(*args):
        raise AssertionError("a cache-free solve built a key or labels")

    monkeypatch.setattr(HyperMatrix, "to_obj", no_codec)
    monkeypatch.setattr(Poset, "to_obj", no_codec)
    monkeypatch.setattr(extremal, "elements", no_codec)
    got = ex_exact((4, 4), [identity_matrix(2)]), la_exact(4, diamond(), True)
    monkeypatch.undo()
    assert got == (ex_exact((4, 4), [identity_matrix(2)]), la_exact(4, diamond(), True))
    assert [r.value for r in got] == [7, 10]


def test_la_entry_out_of_position_order_is_served_in_position_order(tmp_cache, monkeypatch):
    # valid sets listed out of `cube_order` are a hit: the witness comes back
    # in position order, as the search gives it, and the entry is not rewritten
    cold = la_exact(3, diamond(), True, cache=tmp_cache)
    [entry] = tmp_cache.root.glob("*.json")
    record = json.loads(entry.read_text())
    shuffled = sorted(record["witness"])
    assert shuffled != record["witness"]
    entry.write_text(json.dumps(dict(record, witness=shuffled)))
    forged = entry.read_bytes()

    def no_search(*args):
        raise AssertionError("a cached instance was searched")

    monkeypatch.setattr(extremal, "_mask_search", no_search)
    warm = la_exact(3, diamond(), True, cache=tmp_cache)
    assert warm == cold
    assert json.dumps(warm.witness.to_obj()) == json.dumps(cold.witness.to_obj())
    assert entry.read_bytes() == forged


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


@pytest.mark.parametrize("field, forged", [("schema", 2), ("key", {"kind": "ex", "engine": 1})])
def test_cache_entry_of_another_schema_or_key_is_a_miss(tmp_cache, monkeypatch, field, forged):
    # an entry is served only under schema 1 and its own key; either mismatch
    # runs the search, and the fresh result overwrites the entry
    id2 = identity_matrix(2)
    cold = ex_exact((3, 3), [id2], cache=tmp_cache)
    [entry] = tmp_cache.root.glob("*.json")
    record = json.loads(entry.read_text())
    entry.write_text(json.dumps(dict(record, **{field: forged})))
    searches = []
    search = extremal._mask_search

    def counting(*args):
        searches.append(args[0])
        return search(*args)

    monkeypatch.setattr(extremal, "_mask_search", counting)
    assert ex_exact((3, 3), [id2], cache=tmp_cache) == cold
    assert searches == [9]
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
    monkeypatch.setattr(extremal, "_mask_search", lambda total, masks, *rest: (total, (1 << total) - 1))
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


# search values, witnesses re-checked: the lexicographically least, as
# bitmasks (element i at bit i-1), frozen from the search without a floor
@pytest.mark.parametrize(
    "p, induced, masks",
    [
        (diamond(), True, (
            3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 33, 34, 36, 40, 7, 11, 13, 14, 49, 50, 52,
            56, 23, 27, 29, 30, 39, 43, 45, 46, 51, 53, 54, 57, 58, 60,
        )),
        (vee(2), False, (
            7, 11, 13, 14, 19, 21, 22, 25, 26, 37, 38, 41, 42, 44, 49, 50, 52, 56,
            29, 30, 39, 43, 51, 60,
        )),
        (butterfly(), True, (
            0, 1, 3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 7, 11, 13, 14, 19, 21, 22, 25, 26, 28,
            35, 37, 38, 41, 42, 44, 49, 50, 52, 56, 39, 43, 45, 46, 51, 53, 54, 57, 58, 60,
            47, 63,
        )),
    ],
    ids=["diamond-induced-36", "vee2-weak-24", "butterfly-induced-44"],
)
def test_la_six_frozen_witnesses(p, induced, masks):
    res = la_exact(6, p, induced, allow_over_cap=True)
    assert res.value == res.witness.size == len(masks)
    assert res.witness.masks == masks
    assert not family_contains(res.witness, p, induced)


@pytest.mark.parametrize(
    "spec",
    ["chain:1", "chain:2", "chain:3", "chain:4", "antichain:1", "antichain:2",
     "antichain:3", "antichain:4", "vee:1", "vee:2", "vee:3", "diamond",
     "butterfly", "boolean:0", "boolean:1", "boolean:2"],
)
def test_la_incumbent_is_free_and_at_most_the_value(spec, monkeypatch):
    # every builtin poset of at most 4 elements; the band alone, and with
    # the greedy runs that only go from n=6 on
    p = builtin(spec)
    for n in range(6):
        for induced in (False, True):
            masks = family_masks(n, p, induced)
            value = la_exact(n, p, induced).value
            found = [extremal._la_incumbent(n, masks)]
            with monkeypatch.context() as m:
                m.setattr(extremal, "_LA_GREEDY_FROM", 0)
                found.append(extremal._la_incumbent(n, masks))
            assert found[1].bit_count() >= found[0].bit_count()
            for chosen in found:
                fam = SetFamily(n, tuple(s for i, s in enumerate(cube_order(n)) if chosen >> i & 1))
                assert not family_contains(fam, p, induced)
                assert fam.size <= value


def test_la_incumbent_band_is_the_embedders_middle_levels():
    # the band scan over the sorted copies agrees with the embedder's scan
    # (`bounds.middle_levels_free`): the largest free window, or none
    specs = ["chain:1", "chain:2", "chain:3", "antichain:2", "antichain:3", "diamond"]
    specs += ["vee:2", "vee:3", "butterfly", "boolean:2"]
    for n in range(6):
        position = {s: i for i, s in enumerate(cube_order(n))}
        for spec in specs:
            p = builtin(spec)
            for induced in (False, True):
                free = [m for m in range(1, n + 2) if middle_levels_free(n, m, p, induced)]
                want = sum(1 << position[s] for s in middle_levels(n, free[-1]).masks) if free else 0
                got = extremal._la_incumbent(n, family_masks(n, p, induced))
                assert got == want, (n, spec, induced)


def test_la_greedy_does_not_follow_the_cap(monkeypatch):
    # the greedy lifts n=6 butterfly induced from the band's 35 to the
    # optimum 44 whatever the cap, so raising it keeps the incumbent
    monkeypatch.setattr(extremal, "DEFAULT_LA_CAP", 6)
    masks = family_masks(6, builtin("butterfly"), True)
    assert extremal._la_incumbent(6, masks).bit_count() == 44


# sha256 of each incumbent bitset in decimal, frozen from the greedy that
# kept per-cell lists of masks
FROZEN_INCUMBENTS = [
    (6, "vee:3", False, 29, "d81c723523dc14f883262680eb855b5815573493451b0b7c39ea92790313b924"),
    (7, "butterfly", True, 78, "945c593f33fde16e11fe3e2308c8c1acd774166d81f4b75ffd9da5542f011951"),
]


@pytest.mark.parametrize("n, name, induced, size, digest", FROZEN_INCUMBENTS)
def test_la_incumbent_is_frozen(n, name, induced, size, digest):
    chosen = extremal._la_incumbent(n, family_masks(n, builtin(name), induced))
    assert chosen.bit_count() == size
    assert hashlib.sha256(str(chosen).encode()).hexdigest() == digest


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


def test_ex_frontier_witnesses_past_the_cut():
    # the first instances that the dominated-exclusion cut brings into reach
    # (657,916 and about 16.8M search nodes without it): the same witness shapes
    res = ex_exact((7, 7), [identity_matrix(3)], allow_over_cap=True)
    assert res.value == 24
    assert res.witness.ones == tuple(c for c in all_cells((7, 7)) if min(c) <= 2)
    res = ex_exact((5, 5, 5), [identity_matrix(2, 3)], allow_over_cap=True)
    assert res.value == 61 == 5**3 - 4**3
    assert res.witness.ones == tuple(c for c in all_cells((5, 5, 5)) if 1 in c)


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
    table = extremal._greedy_table(total, masks)
    assert extremal._greedy(*table, order) == all_rule_greedy(through, order)


def test_random_free_matrix_of_a_mask_of_256_cells():
    # one copy of 256 cells: every cell but the last in the order is taken
    ones = HyperMatrix((16, 16), all_cells((16, 16)))
    host = random_free_matrix((16, 16), [ones], make_rng(0, "ex:greedy-16x16"))
    assert host.weight == 255


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
