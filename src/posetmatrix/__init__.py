"""Exact desk-scale toolkit linking forbidden-poset problems on set
families to forbidden-pattern problems on 0-1 hypermatrices."""

from .bounds import (
    best_chen_li,
    best_gmt,
    binomial_shift_check,
    bounds_table,
    bukh_tree_coefficient,
    chen_li_bound,
    e_estimate,
    erdos_bound,
    gmt_bound,
    hasse_is_tree,
    induced_bound_pipeline,
    marcus_tardos_constant,
    middle_levels_free,
    weak_chain_coefficient,
)
from .cache import ResultCache
from .doublecount import (
    DoubleCountResult,
    FreenessReport,
    PermutationPartition,
    all_prefix_union_masks,
    count_partitions_with_prefix,
    double_count_identity,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_count,
    prefix_matrix_freeness_check,
    prefix_union,
    prefix_union_counts,
    prefix_union_matrix,
)
from .errors import CapExceeded, InvariantError
from .extremal import (
    DiamondBoundResult,
    ExResult,
    LaResult,
    MonotonicityResult,
    ex_exact,
    ex_monotonicity_check,
    la_exact,
    random_free_matrix,
    tardos_diamond_check,
)
from .family import (
    SetFamily,
    family_contains,
    find_embedding,
    load_family,
    lubell,
    middle_levels,
    shifted_lubell,
)
from .hypermatrix import (
    BlockReport,
    HyperMatrix,
    all_cells,
    block_analyze,
    contains,
    dump_matrix,
    identity_matrix,
    is_permutation_matrix,
    load_matrix,
    loomis_whitney_holds,
    projection,
    wide_block_limit,
)
from .poset import (
    Poset,
    Realizer,
    antichain,
    boolean_lattice,
    builtin,
    butterfly,
    chain,
    diamond,
    dimension,
    enumerate_patterns,
    height,
    is_isomorphic,
    is_realizer,
    linear_extensions,
    load_poset,
    pattern_order,
    realizer_to_matrix,
    subposet_embeds,
    vee,
)
from .rng import derive_seed, make_rng

__all__ = [name for name in dir() if not name.startswith("_")]
