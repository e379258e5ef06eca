"""The `verify` self-checks: the paper's lemmas tested on exhaustive small
cases and on seeded random instances.

Every check is a runner `(trials, seed, cap_override) -> dict` whose
result carries an "ok" field.  `CHECKS` registers each under its command
line name with its default trial counts, run alone and under `verify all`;
a check without trials has None there and ignores the argument.  No
runner reads or writes the result cache: each runs its own searches.
"""

from __future__ import annotations

from math import prod

from .doublecount import (
    count_partitions_with_prefix,
    double_count_identity,
    prefix_matrix_freeness_check,
    prefix_union_counts,
)
from .extremal import _random_free_ones, ex_exact, tardos_diamond_check
from .family import SetFamily, elements
from .hypermatrix import _block_classes, _match, _wide_count
from .hypermatrix import all_cells, identity_matrix, wide_block_limit
from .poset import dimension, load_poset
from .rng import make_rng


def _prefix_count_formula(trials, seed, cap_override) -> dict:
    """Exhaustive check of the fixed-prefix partition count formula."""
    failures = []
    for n in range(0, 5):
        for d in range(1, 4):
            for mask, got in enumerate(prefix_union_counts(n, d)):
                want = count_partitions_with_prefix(n, d, mask.bit_count())
                if got != want:
                    failures.append(
                        {"n": n, "d": d, "set": elements(mask), "got": got, "want": want}
                    )
    return {"check": "prefix-count-formula", "ok": not failures, "failures": failures[:5]}


def _prefix_matrix_freeness(trials, seed, cap_override) -> dict:
    """Randomized: matrices of induced-free families avoid the poset matrix."""
    runs = []
    ok = True
    for spec in ("diamond", "vee:2", "butterfly"):
        p = load_poset(spec)
        d, realizer = dimension(p)
        report = prefix_matrix_freeness_check(p, realizer, trials, n=5, seed=seed)
        runs.append(
            {
                "poset": spec,
                "orders": d,
                "trials": report.trials,
                "violations": report.violations[:5],
            }
        )
        ok = ok and not report.violations
    return {"check": "prefix-matrix-freeness", "ok": ok, "runs": runs}


def _double_count(trials, seed, cap_override) -> dict:
    """Pair counts by formula vs enumeration: exhaustive small, random larger."""
    failures = []
    for n in range(0, 4):
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily(n, masks)
            res = double_count_identity(fam, 2)
            if not res.equal:
                failures.append({"n": n, "d": 2, "family": fam.to_obj()["sets"]})
    rng = make_rng(seed, "verify:doublecount")
    for trial in range(trials):
        d = 2 + trial % 2
        masks = tuple(m for m in range(16) if rng.random() < 0.5)
        fam = SetFamily(4, masks)
        res = double_count_identity(fam, d)
        if not res.equal:
            failures.append({"n": 4, "d": d, "family": fam.to_obj()["sets"]})
    return {
        "check": "double-count-identity",
        "trials": trials,
        "ok": not failures,
        "failures": failures[:5],
    }


def _first_layers(dims) -> list[tuple[int, int, int]]:
    """Per axis of a box whose cells are bits in `all_cells` order: its side,
    its bit stride, and the mask of the cells at index 1 on it."""
    cells = all_cells(dims)
    return [
        (side, prod(dims[j + 1 :]), sum(1 << i for i, c in enumerate(cells) if c[j] == 1))
        for j, side in enumerate(dims)
    ]


def _projection_sizes(kept: int, layers) -> list[int]:
    """The weight of each axis's projection of the matrix whose 1s are the
    set bits of `kept`: its layers shifted onto the first one and ORed."""
    sizes = []
    for side, stride, first in layers:
        union = 0
        for v in range(side):
            union |= kept >> v * stride
        sizes.append((union & first).bit_count())
    return sizes


def _projection_product(trials, seed, cap_override) -> dict:
    """Random 3-dim matrices satisfy the projection product inequality,
    |M|^2 <= the product of the projections' weights.  A matrix is one
    bitset over the cells; only a failure lists its 1s."""
    rng = make_rng(seed, "verify:lw")
    dims = (6, 6, 6)
    cells = all_cells(dims)
    bits = [1 << i for i in range(len(cells))]
    layers = _first_layers(dims)
    failures = []
    for trial in range(trials):
        density = rng.uniform(0.02, 0.3)
        kept = sum(bit for bit in bits if rng.random() < density)
        if kept.bit_count() ** 2 > prod(_projection_sizes(kept, layers)):
            ones = [list(c) for c, bit in zip(cells, bits) if kept & bit]
            failures.append({"trial": trial, "ones": ones})
    return {
        "check": "projection-product",
        "trials": trials,
        "ok": not failures,
        "failures": failures[:3],
    }


def _block_decomposition(trials, seed, cap_override) -> dict:
    """Random pattern-free hosts: wide-block counts under the cap, coarse
    matrix still free.  Hosts and coarse matrices stay lists of their 1s."""
    rng = make_rng(seed, "verify:blocks")
    pattern = identity_matrix(2)
    limits = {side: wide_block_limit(pattern, side) for side in (1, 2)}
    failures = []
    for trial in range(trials):
        dims = (rng.randint(2, 8), rng.randint(2, 8))
        ones = _random_free_ones(dims, (pattern,), rng)
        side = rng.choice((1, 2))
        grid, wide, thin = _block_classes(dims, ones, pattern.dims, pattern.ones, side)
        for axis in (1, 2):
            for key, count in _wide_count(wide, axis).items():
                if count > limits[side]:
                    failures.append(
                        {
                            "trial": trial,
                            "dims": list(dims),
                            "side": side,
                            "axis": axis,
                            "column": list(key),
                            "count": count,
                            "limit": limits[side],
                        }
                    )
        if thin and _match(grid, thin, pattern.dims, pattern.ones):
            failures.append(
                {"trial": trial, "dims": list(dims), "side": side, "coarse_not_free": True}
            )
    return {
        "check": "block-decomposition",
        "trials": trials,
        "ok": not failures,
        "failures": failures[:5],
    }


def _density_constant(trials, seed, cap_override) -> dict:
    """Exact grid values against the linear density bound for the 2x2 diagonal."""
    pattern = identity_matrix(2)
    rows = []
    ok = True
    for n in range(1, 6):
        value = ex_exact((n, n), [pattern]).value
        bound = 192 * n
        rows.append({"n": n, "value": value, "bound": bound})
        ok = ok and value <= bound
    return {"check": "density-constant", "ok": ok, "values": rows}


def _diamond_pattern_set(trials, seed, cap_override) -> dict:
    """Forbidding all diamond-ordered patterns keeps grids at 4n ones."""
    top = 4 if cap_override else 3
    rows = []
    ok = True
    for n in range(1, top + 1):
        res = tardos_diamond_check(n)
        rows.append({"n": n, "value": res.value, "bound": res.bound})
        ok = ok and res.holds
    return {"check": "diamond-pattern-set", "ok": ok, "values": rows}


# name -> (runner, default trials alone, default trials under `verify all`)
CHECKS = {
    "countp": (_prefix_count_formula, None, None),
    "counta": (_prefix_matrix_freeness, 334, 50),
    "doublecount": (_double_count, 50, 25),
    "lw": (_projection_product, 1000, 1000),
    "blocks": (_block_decomposition, 100, 100),
    "mt": (_density_constant, None, None),
    "tardos-diamond": (_diamond_pattern_set, None, None),
}
