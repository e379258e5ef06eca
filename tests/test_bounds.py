from fractions import Fraction
from math import comb

import pytest

from posetmatrix import (
    CapExceeded,
    InvariantError,
    Poset,
    SetFamily,
    antichain,
    best_chen_li,
    best_gmt,
    binomial_shift_check,
    block_analyze,
    bounds_table,
    bukh_tree_coefficient,
    butterfly,
    chain,
    chen_li_bound,
    count_partitions_with_prefix,
    derive_seed,
    diamond,
    dimension,
    e_estimate,
    enumerate_partitions,
    enumerate_patterns,
    erdos_bound,
    gmt_bound,
    hasse_is_tree,
    identity_matrix,
    induced_bound_pipeline,
    make_rng,
    marcus_tardos_constant,
    middle_levels,
    middle_levels_free,
    partition_count,
    prefix_matrix_freeness_check,
    projection,
    shifted_lubell,
    vee,
    weak_chain_coefficient,
    wide_block_limit,
)
from posetmatrix.bounds import E_ESTIMATE_N_MAX
from posetmatrix.family import cube_order, cube_swaps, occurrence_masks


def test_erdos_bound_values():
    assert erdos_bound(4, 3) == 10
    assert erdos_bound(5, 2) == comb(5, 2)
    assert erdos_bound(3, 5) == 8
    assert erdos_bound(4, 1) == 0
    with pytest.raises(ValueError):
        erdos_bound(-1, 2)


# int() arithmetic would read True as 1, and a float would fail deep inside
# with a bare TypeError (or, for a block side, name a matrix side length)
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chen_li_bound(diamond(), True), "integer Chen-Li parameter m: True"),
        (lambda: chen_li_bound(diamond(), 1.5), "integer Chen-Li parameter m: 1.5"),
        (lambda: gmt_bound(diamond(), 2.5), "integer GMT parameter k: 2.5"),
        (lambda: erdos_bound(4.0, 2), "integer ground set size: 4.0"),
        (lambda: erdos_bound(4, 2.5), "integer chain size: 2.5"),
        (lambda: marcus_tardos_constant(2.0), "integer pattern size: 2.0"),
        (lambda: binomial_shift_check(4, 1.5), "integer dimension: 1.5"),
        (lambda: middle_levels(3, True), "integer level count: True"),
        (lambda: middle_levels(3.0, 2), "integer ground set size: 3.0"),
        (lambda: shifted_lubell(SetFamily(2, (1,)), True), "integer dimension: True"),
        (lambda: shifted_lubell(SetFamily(2, (1,)), 1.5), "integer dimension: 1.5"),
        (lambda: enumerate_partitions(2, True), "integer part count: True"),
        (lambda: partition_count(3, 2.0), "integer part count: 2.0"),
        (lambda: count_partitions_with_prefix(3, 2, 1.0), "integer prefix set size: 1.0"),
        (lambda: wide_block_limit(identity_matrix(2), 1.5), "integer block side: 1.5"),
        (
            lambda: block_analyze(identity_matrix(4), identity_matrix(2), 1.5),
            "integer block side: 1.5",
        ),
        (
            lambda: prefix_matrix_freeness_check(diamond(), dimension(diamond())[1], 2.5, 5, 0),
            "integer trial count: 2.5",
        ),
        # "0.0:tag" and "True:tag" hash to other streams than seeds 0 and 1
        (lambda: make_rng(0.0, "tag"), "integer seed: 0.0"),
        (lambda: make_rng(True, "tag"), "integer seed: True"),
        (lambda: derive_seed(1.0, "tag"), "integer seed: 1.0"),
        (
            lambda: prefix_matrix_freeness_check(diamond(), dimension(diamond())[1], 2, 5, 0.0),
            "integer seed: 0.0",
        ),
        # 2.0 == 2 and True == 1 would pass the range checks as the integers
        (lambda: enumerate_patterns(diamond(), 2.0), "integer dimension: 2.0"),
        (lambda: projection(identity_matrix(3), True), "integer axis: True"),
        (lambda: projection(identity_matrix(3), 1.0), "integer axis: 1.0"),
        (
            lambda: block_analyze(identity_matrix(4), identity_matrix(2), 2).wide_count(True),
            "integer axis: True",
        ),
        (
            lambda: block_analyze(identity_matrix(4), identity_matrix(2), 2).wide_count(1.0),
            "integer axis: 1.0",
        ),
        (lambda: cube_order(True), "integer ground set size: True"),
        (lambda: cube_order(3.0), "integer ground set size: 3.0"),
        (lambda: cube_swaps(True), "integer ground set size: True"),
        (lambda: occurrence_masks(True, chain(2), False), "integer ground set size: True"),
        (lambda: identity_matrix(3).cell((True, True)), "integer matrix coordinate: True"),
        (lambda: identity_matrix(3).cell((1.0, 1)), "integer matrix coordinate: 1.0"),
        (lambda: identity_matrix(3).cell((1.5, 1)), "integer matrix coordinate: 1.5"),
    ],
    ids=[
        "chen_li_bound-bool",
        "chen_li_bound-float",
        "gmt_bound",
        "erdos_bound-n",
        "erdos_bound-k",
        "marcus_tardos_constant",
        "binomial_shift_check",
        "middle_levels-bool",
        "middle_levels-float",
        "shifted_lubell-bool",
        "shifted_lubell-float",
        "enumerate_partitions",
        "partition_count",
        "count_partitions_with_prefix",
        "wide_block_limit",
        "block_analyze",
        "prefix_matrix_freeness_check",
        "make_rng-float",
        "make_rng-bool",
        "derive_seed",
        "prefix_matrix_freeness_check-seed",
        "enumerate_patterns",
        "projection-bool",
        "projection-float",
        "wide_count-bool",
        "wide_count-float",
        "cube_order-bool",
        "cube_order-float",
        "cube_swaps",
        "occurrence_masks",
        "cell-bool",
        "cell-float",
        "cell-non-integer",
    ],
)
def test_library_integer_arguments_reject_floats_and_bools(call, message):
    with pytest.raises(InvariantError) as exc:
        call()
    assert str(exc.value) == message


def test_weak_chain_coefficient():
    assert weak_chain_coefficient(diamond()) == 3
    assert weak_chain_coefficient(chain(2)) == 1


def test_chen_li_values():
    assert chen_li_bound(diamond(), 1) == Fraction(5, 2)
    assert chen_li_bound(chain(2), 1) == 1
    assert chen_li_bound(butterfly(), 1) == 2
    assert best_chen_li(diamond()) == (1, Fraction(5, 2))
    with pytest.raises(ValueError):
        chen_li_bound(diamond(), 0)


def test_gmt_values():
    assert gmt_bound(diamond(), 2) == Fraction(5, 2)
    assert gmt_bound(diamond(), 3) == Fraction(19, 4)
    assert best_gmt(diamond()) == (2, Fraction(5, 2))
    with pytest.raises(ValueError):
        gmt_bound(diamond(), 1)


def test_marcus_tardos_constant():
    assert marcus_tardos_constant(1) == 2
    assert marcus_tardos_constant(2) == 192
    assert marcus_tardos_constant(3) == 13608
    with pytest.raises(ValueError):
        marcus_tardos_constant(0)


def test_binomial_shift_small():
    lhs, rhs, ok = binomial_shift_check(4, 2)
    assert (lhs, rhs, ok) == (20, 24, True)
    for n in range(0, 10):
        lhs, rhs, ok = binomial_shift_check(n, 1)
        assert ok and lhs == rhs


def test_hasse_tree_detection():
    assert hasse_is_tree(chain(4))
    assert hasse_is_tree(vee(3))
    assert hasse_is_tree(antichain(1))
    assert not hasse_is_tree(diamond())
    assert not hasse_is_tree(butterfly())
    assert not hasse_is_tree(antichain(2))  # disconnected
    assert bukh_tree_coefficient(vee(2)) == 1
    assert bukh_tree_coefficient(chain(3)) == 2
    with pytest.raises(ValueError, match="tree"):
        bukh_tree_coefficient(diamond())


def test_middle_levels_free_and_estimate():
    assert middle_levels_free(3, 2, diamond(), induced=True)
    assert not middle_levels_free(3, 3, diamond(), induced=True)
    assert e_estimate(diamond(), induced=True) == 2
    assert e_estimate(diamond(), induced=False) == 2
    assert e_estimate(chain(2), induced=False) == 1
    assert e_estimate(antichain(2), induced=False) == 0
    # chain:8 needs 8 levels, more than any scanned cube has, so the scan
    # ends at its ceiling in both modes
    assert E_ESTIMATE_N_MAX + 1 == 7
    assert e_estimate(chain(8), induced=False) == e_estimate(chain(8), induced=True) == 7


def test_pipeline_diamond_routes():
    pipe = induced_bound_pipeline(diamond())
    assert pipe["dimension"] == 2
    mt = pipe["mt"]
    assert mt["dimension"] == 2
    assert mt["K"] == "192"
    assert mt["coefficient"] == "768"
    assert mt["refined_coefficient"] == "768"
    exact = pipe["exact"]
    assert exact["K"] == "15/4"
    assert exact["coefficient"] == "15"
    assert "not a proof" in exact["K_provenance"]


def test_pipeline_rejects_misuse():
    with pytest.raises(ValueError, match="chain"):
        induced_bound_pipeline(chain(3))
    # the Marcus-Tardos constant is for 2-dimensional posets only
    pipe = induced_bound_pipeline(_standard_example_3())
    assert pipe["dimension"] == 3 and "mt" not in pipe


def test_pipeline_dim3_exact_route():
    got = induced_bound_pipeline(_standard_example_3())["exact"]
    assert got["dimension"] == 3
    # the 6^3 pattern never fits in a 3^3 box, so the empirical K is the
    # full cube density
    assert got["K"] == "3"
    assert got["coefficient"] == "24"


def test_bounds_table_diamond():
    table = bounds_table(diamond())
    assert table["schema"] == 1
    assert table["weak_chain_coefficient"] == "3"
    assert table["chen_li_m1"] == "5/2"
    assert table["gmt_k2"] == "5/2"
    assert table["marcus_tardos_k2"] == "192"
    assert table["bukh_tree"] == {"applies": False}
    assert table["induced_pipeline"]["mt"]["coefficient"] == "768"
    assert table["diamond_direct"] == {"K": "4", "coefficient": "16"}
    assert table["e_estimate_weak"] == 2


def test_bounds_table_other_posets():
    v = bounds_table(vee(2))
    assert v["bukh_tree"]["applies"] and v["bukh_tree"]["coefficient"] == "1"
    assert v["diamond_direct"] is None
    c = bounds_table(chain(3))
    assert c["induced_pipeline"]["available"] is False
    assert "chain" in c["induced_pipeline"]["reason"]


def _standard_example_3() -> Poset:
    bots = ["1", "2", "3"]
    tops = ["12", "13", "23"]
    pairs = [(b, t) for b in bots for t in tops if b in t]
    return Poset.from_pairs(bots + tops, pairs)
