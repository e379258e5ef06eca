import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetmatrix import (
    HyperMatrix,
    InvariantError,
    all_cells,
    block_analyze,
    contains,
    dump_matrix,
    ex_exact,
    identity_matrix,
    is_permutation_matrix,
    load_matrix,
    loomis_whitney_holds,
    projection,
    random_free_matrix,
    wide_block_limit,
)
from posetmatrix import hypermatrix
from posetmatrix.rng import make_rng

from conftest import brute_contains, mat


def test_construction_normalizes_and_validates():
    m = HyperMatrix((2, 2), ((2, 2), (1, 1)))
    assert m.ones == ((1, 1), (2, 2))
    assert m.weight == 2 and m.cell_count == 4 and m.d == 2
    with pytest.raises(InvariantError, match="duplicate"):
        HyperMatrix((2, 2), ((1, 1), (1, 1)))
    with pytest.raises(InvariantError, match="within dims"):
        HyperMatrix((2, 2), ((3, 1),))
    with pytest.raises(InvariantError, match="arity"):
        HyperMatrix((2, 2), ((1, 1, 1),))
    with pytest.raises(InvariantError, match="side lengths"):
        HyperMatrix((0, 2), ())
    with pytest.raises(InvariantError, match="positive dimension"):
        HyperMatrix((), ())


def test_cell_lookup():
    m = mat("10", "01")
    assert m.cell((1, 1)) == 1 and m.cell((1, 2)) == 0


def test_contains_small_known():
    id2 = identity_matrix(2)
    assert contains(mat("10", "01"), id2)
    assert not contains(mat("01", "10"), id2)
    assert contains(mat("100", "000", "001"), id2)
    # the pattern spans rows 1 and 3 of a height-3 box, so its 1s need a
    # full empty host row between them
    tall = HyperMatrix((3, 2), ((1, 1), (3, 2)))
    host = HyperMatrix((3, 2), ((1, 1), (2, 2)))
    assert contains(host, id2)
    assert not contains(host, tall)
    assert contains(HyperMatrix((3, 2), ((1, 1), (3, 2))), tall)


def test_contains_rejects_bad_args():
    with pytest.raises(ValueError, match="dimension mismatch"):
        contains(identity_matrix(2), HyperMatrix((1,), ((1,),)))
    with pytest.raises(ValueError, match="at least one 1"):
        contains(identity_matrix(2), HyperMatrix((1, 1), ()))


def test_contains_matches_brute_force_2dim():
    rng = make_rng(7, "hm:2dim")
    id2 = identity_matrix(2)
    patterns = [
        id2,
        mat("11"),
        mat("1", "1"),
        mat("10", "01", "10"),
        mat("101", "010"),
        HyperMatrix((2, 2), ((1, 2), (2, 1))),
    ]
    for _ in range(150):
        dims = (rng.randint(1, 4), rng.randint(1, 4))
        ones = tuple(c for c in all_cells(dims) if rng.random() < 0.45)
        host = HyperMatrix(dims, ones)
        for a in patterns:
            assert contains(host, a) == brute_contains(host, a)


def test_contains_matches_brute_force_3dim():
    rng = make_rng(11, "hm:3dim")
    diag = HyperMatrix((2, 2, 2), ((1, 1, 1), (2, 2, 2)))
    corner = HyperMatrix((2, 2, 1), ((1, 1, 1), (2, 2, 1)))
    for _ in range(60):
        dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
        ones = tuple(c for c in all_cells(dims) if rng.random() < 0.4)
        host = HyperMatrix(dims, ones)
        for a in (diag, corner):
            assert contains(host, a) == brute_contains(host, a)


@st.composite
def host_and_pattern(draw):
    """A host of dimension 1..3 and a nonzero pattern of the same dimension;
    small patterns often leave whole slices of the last axis without 1s."""
    d = draw(st.integers(1, 3))
    side = 4 if d < 3 else 3
    hdims = tuple(draw(st.integers(1, side)) for _ in range(d))
    pdims = tuple(draw(st.integers(1, side)) for _ in range(d))
    host = draw(st.sets(st.sampled_from(all_cells(hdims))))
    ones = draw(st.sets(st.sampled_from(all_cells(pdims)), min_size=1, max_size=4))
    return HyperMatrix(hdims, tuple(host)), HyperMatrix(pdims, tuple(ones))


@settings(max_examples=300, deadline=None, database=None)
@given(host_and_pattern())
# the pattern's middle column is empty: it needs a free host column between
@example((HyperMatrix((2, 3), ((1, 1), (2, 2))), HyperMatrix((2, 3), ((1, 1), (2, 3)))))
@example((HyperMatrix((2, 4), ((1, 1), (2, 3))), HyperMatrix((2, 3), ((1, 1), (2, 3)))))
@example((HyperMatrix((3,), ((1,), (3,))), HyperMatrix((3,), ((1,), (3,)))))
@example((HyperMatrix((3,), ((1,), (2,))), HyperMatrix((3,), ((1,), (3,)))))
def test_contains_matches_brute_force_any_dimension(instance):
    host, pattern = instance
    assert contains(host, pattern) == brute_contains(host, pattern)


def test_construction_rejects_non_integers():
    # int() would read 2.7 as 2 and 1.2 as 1
    with pytest.raises(InvariantError, match="integer matrix side length"):
        HyperMatrix((2.7, 2), [(1, 1)])
    with pytest.raises(InvariantError, match="integer matrix coordinate"):
        HyperMatrix((2, 2), [(1.2, 1)])


@pytest.mark.parametrize(
    "args, what", [((2, 2.0), "dimension"), ((2.0,), "size")], ids=["d", "k"]
)
def test_identity_matrix_rejects_non_integers(args, what):
    with pytest.raises(InvariantError, match=f"integer {what}"):
        identity_matrix(*args)


def test_permutation_matrices():
    assert is_permutation_matrix(identity_matrix(3))
    assert is_permutation_matrix(HyperMatrix((2, 2), ((1, 2), (2, 1))))
    assert not is_permutation_matrix(mat("11", "00"))
    # four 1s fill every row and column of a 2x2: only the weight tells
    assert not is_permutation_matrix(mat("11", "11"))
    with pytest.raises(ValueError, match="cubic"):
        is_permutation_matrix(mat("10"))
    assert identity_matrix(2, 3).ones == ((1, 1, 1), (2, 2, 2))


def test_projection_drops_one_axis():
    m = HyperMatrix((2, 3), ((1, 1), (1, 3), (2, 1)))
    p1 = projection(m, 1)
    assert p1.dims == (3,) and p1.ones == ((1,), (3,))
    p2 = projection(m, 2)
    assert p2.dims == (2,) and p2.ones == ((1,), (2,))
    with pytest.raises(ValueError):
        projection(m, 3)
    with pytest.raises(ValueError):
        projection(HyperMatrix((2,), ((1,),)), 1)


def test_loomis_whitney_random():
    rng = make_rng(3, "hm:lw")
    for _ in range(100):
        dims = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        ones = tuple(c for c in all_cells(dims) if rng.random() < rng.uniform(0.1, 0.6))
        assert loomis_whitney_holds(HyperMatrix(dims, ones))


def test_block_analysis_hand_example():
    # one 2x2 block holding a full row pair: wide along axis 1 only
    host = HyperMatrix((4, 4), ((1, 1), (1, 2)))
    rep = block_analyze(host, identity_matrix(2), 2)
    assert rep.grid == (2, 2)
    assert rep.wide == {(1, 1): (1,)}
    assert rep.classify((1, 1)) == "wide"
    assert rep.classify((2, 2)) == "empty"
    assert rep.coarse.weight == 0
    assert rep.wide_count(1) == {(1,): 1}
    assert rep.wide_count(2) == {}


def test_block_analysis_thin_and_ragged():
    # 5x5 host, side 2: ragged final blocks, diagonal singletons stay thin
    host = HyperMatrix((5, 5), ((1, 1), (3, 3), (5, 5)))
    rep = block_analyze(host, identity_matrix(2), 2)
    assert rep.grid == (3, 3)
    assert rep.wide == {}
    assert sorted(rep.thin_blocks()) == [(1, 1), (2, 2), (3, 3)]
    assert rep.classify((1, 2)) == "empty"
    assert rep.classify((1, 1)) == "thin"
    # the coarse matrix records only blocks that really hold a 1
    assert rep.coarse.ones == ((1, 1), (2, 2), (3, 3))


def test_block_side_one_keeps_host():
    host = mat("110", "001", "000")
    rep = block_analyze(host, identity_matrix(2), 1)
    assert rep.grid == (3, 3)
    assert rep.wide == {}
    assert rep.coarse.ones == host.ones


def test_wide_block_limit_values():
    id2 = identity_matrix(2)
    assert wide_block_limit(id2, 1) == 0
    assert wide_block_limit(id2, 2) == 1
    assert wide_block_limit(identity_matrix(3), 3) == 2 * 1  # C(3,3)=1
    assert wide_block_limit(identity_matrix(2, 3), 2) == 1 * 6  # C(4,2)
    with pytest.raises(ValueError, match="permutation"):
        wide_block_limit(mat("11"), 2)


@pytest.mark.parametrize("side", [0, -1])
def test_wide_block_limit_refuses_a_side_below_one(side):
    # side 0 used to give a limit of 0, and side -1 the error of `comb`
    with pytest.raises(ValueError) as info:
        wide_block_limit(identity_matrix(2), side)
    assert str(info.value) == "block side must be positive"


def test_block_analyze_rejects_bad_args():
    id2 = identity_matrix(2)
    with pytest.raises(ValueError, match="same dimension"):
        block_analyze(identity_matrix(2, 3), id2, 2)
    with pytest.raises(ValueError, match="side"):
        block_analyze(mat("10", "01"), id2, 0)
    with pytest.raises(ValueError, match="permutation"):
        block_analyze(mat("10", "01"), mat("11"), 1)


def test_matrix_file_round_trip(tmp_path):
    m = HyperMatrix((2, 3), ((1, 2), (2, 3)))
    path = tmp_path / "m.json"
    dump_matrix(m, path)
    assert load_matrix(path) == m
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvariantError, match="valid JSON"):
        load_matrix(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"dims": [2, 2]}))
    with pytest.raises(InvariantError):
        load_matrix(wrong)


def test_all_cells_lex_order():
    cells = all_cells((2, 2))
    assert cells == [(1, 1), (1, 2), (2, 1), (2, 2)]


LAYOUT_BOXES = [dims for d in (1, 2, 3) for dims in product(range(1, 5), repeat=d)]


@pytest.mark.parametrize("dims", LAYOUT_BOXES, ids=str)
def test_box_layout_matches_its_definitions(dims):
    cells = all_cells(dims)
    position = {c: i for i, c in enumerate(cells)}
    layout = hypermatrix.box_layout(*dims)
    assert list(layout.cells) == cells
    assert [side for side, _, _ in layout.axes] == list(dims)
    for j, (side, stride, first) in enumerate(layout.axes):
        # one index up on axis j moves a cell `stride` positions on
        for c in cells:
            if c[j] < side:
                up = c[:j] + (c[j] + 1,) + c[j + 1 :]
                assert position[up] == position[c] + stride
        assert first == sum(1 << i for i, c in enumerate(cells) if c[j] == 1)
    # each axis pairs with the next axis of its length, if that is above 1
    pairs = [
        (i, next(j for j in range(i + 1, len(dims)) if dims[j] == n))
        for i, n in enumerate(dims)
        if n > 1 and n in dims[i + 1 :]
    ]
    assert len(layout.swaps) == len(pairs)
    for (swap, sym), (i, j) in zip(layout.swaps, pairs):
        for k, c in enumerate(cells):
            swapped = list(c)
            swapped[i], swapped[j] = c[j], c[i]
            assert swap(c) == tuple(swapped)
            assert sym[k] == position[tuple(swapped)]


@pytest.mark.parametrize("dims, odd", [((2.0, 2), 2.0), ((True, 2), True), ((2, 2.0), 2.0), ((2, True), True)])
def test_box_layout_cache_cannot_be_fooled(dims, odd):
    # (2.0, 2) equals (2, 2) and (True, 2) equals (1, 2) as cache keys; once
    # those boxes are laid out, the look-alikes are still refused, and
    # `occurrence_masks` treats them as before any layout was cached: a
    # float side is no range, and True is the side 1
    pats = [identity_matrix(2)]
    for box in ((2, 2), (1, 2), (2, 1)):
        assert hypermatrix.occurrence_masks(box, pats) == ([9] if box == (2, 2) else [])
    for refused in (
        lambda: ex_exact(dims, pats),
        lambda: random_free_matrix(dims, pats, make_rng(0, "layout")),
    ):
        with pytest.raises(InvariantError) as exc:
            refused()
        assert str(exc.value) == f"integer matrix side length: {odd!r}"
    if odd is True:
        assert hypermatrix.occurrence_masks(dims, pats) == []
        assert hypermatrix.occurrence_masks(dims, [mat("1")]) == [1, 2]
    else:
        with pytest.raises(TypeError):
            hypermatrix.occurrence_masks(dims, pats)


# (dims, ones) breaking several rules at once -> the rule reported, and its message
FIRST_FAULT = [
    # a non-integer coordinate anywhere is named before any range fault
    ((2, 2), ((3, 1), (True, 1)), "integer matrix coordinate: True"),
    ((2, 2), ((1, 9), (1, 2.0)), "integer matrix coordinate: 2.0"),
    # a non-integer side length before a non-integer coordinate
    ((2, 2.0), ((1, 1.5),), "integer matrix side length: 2.0"),
    # a non-integer coordinate before the axis rules
    ((), ((False,),), "integer matrix coordinate: False"),
    ((0, 2), ((1, 1.0),), "integer matrix coordinate: 1.0"),
    ((), ((1, 1),), "positive dimension: at least one axis is required"),
    ((2, 0), ((3, 1),), "positive side lengths: dims=(2, 0)"),
    # arity and range are checked per entry, in input order
    ((2, 2), ((3, 1), (1, 1, 1)), "coordinate within dims: (3, 1) outside (2, 2)"),
    ((2, 2), ((1, 1, 1), (3, 1)), "coordinate arity: (1, 1, 1) in a 2-dimensional matrix"),
    ((2, 2), ([1, 0], (1,)), "coordinate within dims: (1, 0) outside (2, 2)"),
    # duplicates come last
    ((2, 2), ((1, 1), (1, 1), (3, 1)), "coordinate within dims: (3, 1) outside (2, 2)"),
    ((2, 2), ((1, 1), (1, 1), (1,)), "coordinate arity: (1,) in a 2-dimensional matrix"),
    ((2, 2), ((1, 2), [1, 2]), "duplicate coordinates: 1-entries must be distinct"),
]


@pytest.mark.parametrize("dims, ones, message", FIRST_FAULT)
def test_construction_names_the_first_fault(dims, ones, message):
    with pytest.raises(InvariantError) as info:
        HyperMatrix(dims, ones)
    assert str(info.value) == message
    assert info.value.invariant == message.split(":")[0]


@st.composite
def any_matrix(draw):
    """A 2- to 4-dim matrix with sides 1..3, any set of 1s."""
    dims = tuple(draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 4))))
    return HyperMatrix(dims, tuple(draw(st.sets(st.sampled_from(all_cells(dims))))))


@settings(max_examples=200, deadline=None, database=None)
@given(any_matrix())
def test_loomis_whitney_matches_projection_weights(m):
    rhs = 1
    for axis in range(1, m.d + 1):
        rhs *= projection(m, axis).weight
    assert loomis_whitney_holds(m) == (m.weight ** (m.d - 1) <= rhs)


def _block_oracle(host, pattern, side):
    """(wide, nonempty, coarse) with each block a matrix of its own, tested
    with `projection` and `contains`."""
    d = host.d
    grid = tuple(-(-n // side) for n in host.dims)
    wide, nonempty = {}, set()
    for b in all_cells(grid):
        lo = tuple((c - 1) * side for c in b)
        bdims = tuple(min(n, l + side) - l for n, l in zip(host.dims, lo))
        ones = tuple(
            tuple(c - l for c, l in zip(o, lo))
            for o in host.ones
            if all(l < c <= l + s for c, l, s in zip(o, lo, bdims))
        )
        if not ones:
            continue
        nonempty.add(b)
        block = HyperMatrix(bdims, ones)
        axes = tuple(
            ax
            for ax in range(1, d + 1)
            if contains(projection(block, ax), projection(pattern, ax))
        )
        if axes:
            wide[b] = axes
    coarse = HyperMatrix(grid, tuple(b for b in nonempty if b not in wide))
    return wide, frozenset(nonempty), coarse


@st.composite
def blocked_host(draw):
    """A 2- or 3-dim host, a permutation pattern of the same dimension and a
    block side 1..3."""
    d = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(1, 6 if d == 2 else 4)) for _ in range(d))
    host = HyperMatrix(dims, tuple(draw(st.sets(st.sampled_from(all_cells(dims))))))
    k = draw(st.integers(1, 3))
    # axis 1 runs 1..k; each other axis is a permutation of 1..k
    columns = [list(range(1, k + 1))] + [draw(st.permutations(range(1, k + 1))) for _ in range(d - 1)]
    pattern = HyperMatrix((k,) * d, tuple(zip(*columns)))
    return host, pattern, draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None, database=None)
@given(blocked_host())
# a 1x2 block is narrower than k=2 on axis 1, yet wide along axis 1: its
# projection deleting axis 1 holds both 1s of the pattern's
@example((HyperMatrix((1, 2), ((1, 1), (1, 2))), identity_matrix(2), 2))
# block (1, 2) holds the host's first 1, yet block (1, 1) comes first in `wide`
@example((HyperMatrix((2, 4), ((1, 3), (1, 4), (2, 1), (2, 2))), identity_matrix(2), 2))
def test_block_analyze_matches_per_block_matrices(instance):
    host, pattern, side = instance
    rep = block_analyze(host, pattern, side)
    assert (rep.wide, rep.nonempty, rep.coarse) == _block_oracle(host, pattern, side)
    assert list(rep.wide) == sorted(rep.wide)


# pairs of permutation patterns of equal dims; in 2 dims every projection of
# a k x k permutation is a line of k 1s, so only the 3-dim pair gives blocks
# of one content different wide axes
PATTERN_PAIRS = [
    (identity_matrix(2), mat("01", "10")),
    (identity_matrix(2, 3), HyperMatrix((2, 2, 2), ((1, 1, 2), (2, 2, 1)))),
]


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("pair", PATTERN_PAIRS)
def test_block_verdict_cache_cannot_be_fooled(pair, first):
    # one host under both patterns, in either order: a verdict cached for one
    # pattern must not answer for the other
    rng = make_rng(1, "hm:verdicts")
    d = pair[0].d
    dims = (6, 6) if d == 2 else (4, 4, 4)
    host = HyperMatrix(dims, tuple(c for c in all_cells(dims) if rng.random() < 0.5))
    order = pair if first == 0 else pair[::-1]
    hypermatrix._wide_axes.cache_clear()
    for side in (1, 2, 3):
        reports = [block_analyze(host, pattern, side) for pattern in order]
        for pattern, rep in zip(order, reports):
            assert (rep.wide, rep.nonempty, rep.coarse) == _block_oracle(host, pattern, side)
        if d == 3 and side == 2:
            assert reports[0].wide != reports[1].wide
