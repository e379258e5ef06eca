"""The `verify` self-checks: the paper's lemmas tested on exhaustive small
cases and on seeded random instances.

Every check is a runner `(trials, seed) -> dict` whose result carries an
"ok" field.  `CHECKS` registers each under its command line name with its
default trial counts, run alone and under `verify all` (None for a check
without trials); `run_checks` is the one reader of that table.  No runner
reads or writes the result cache or lifts a size cap: each runs its own
searches inside the default caps.
"""

from __future__ import annotations

from math import prod

from .bounds import MT_K2
from .doublecount import (
    count_partitions_with_prefix,
    double_count_identity,
    prefix_matrix_freeness_check,
    prefix_union_counts,
)
from .extremal import _random_free_ones, ex_exact, tardos_diamond_check
from .family import SetFamily, elements
from .hypermatrix import _block_classes, _match, _wide_count
from .hypermatrix import box_layout, identity_matrix, wide_block_limit
from .poset import dimension, load_poset
from .rng import make_rng


def _report(check: str, failures: list, keep: int, trials=None) -> dict:
    """A trial check's result: its name, whether it found no failure, the
    first `keep` failures and, for a check that has trials, their number."""
    out = {"check": check, "ok": not failures, "failures": failures[:keep]}
    if trials is not None:
        out["trials"] = trials
    return out


def _prefix_count_formula(trials, seed) -> dict:
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
    return _report("prefix-count-formula", failures, 5)


def _prefix_matrix_freeness(trials, seed) -> dict:
    """Randomized: matrices of induced-free families avoid the poset matrix."""
    runs = []
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
    ok = not any(run["violations"] for run in runs)
    return {"check": "prefix-matrix-freeness", "ok": ok, "runs": runs}


def _double_count(trials, seed) -> dict:
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
    return _report("double-count-identity", failures, 5, trials)


def _projection_sizes(kept: int, layers) -> list[int]:
    """The weight of each axis's projection of the matrix whose 1s are the
    set bits of `kept`: its layers shifted onto the first one and ORed.
    `layers` is the box's `hypermatrix.box_layout` axes."""
    sizes = []
    for side, stride, first in layers:
        union = 0
        for v in range(side):
            union |= kept >> v * stride
        sizes.append((union & first).bit_count())
    return sizes


def _projection_product(trials, seed) -> dict:
    """Random 3-dim matrices satisfy the projection product inequality,
    |M|^2 <= the product of the projections' weights.  A matrix is one
    bitset over the cells; only a failure lists its 1s."""
    rng = make_rng(seed, "verify:lw")
    cells, layers, _ = box_layout(6, 6, 6)
    bits = [1 << i for i in range(len(cells))]
    random = rng.random
    failures = []
    for trial in range(trials):
        density = rng.uniform(0.02, 0.3)
        kept = sum(bit for bit in bits if random() < density)
        if kept.bit_count() ** 2 > prod(_projection_sizes(kept, layers)):
            ones = [list(c) for c, bit in zip(cells, bits) if kept & bit]
            failures.append({"trial": trial, "ones": ones})
    return _report("projection-product", failures, 3, trials)


def _block_decomposition(trials, seed) -> dict:
    """Random I2-free hosts cut into 2x2 blocks: at most one wide block per
    blockcolumn, the limit every trial reaches, and the coarse matrix of the
    thin blocks still free.  Hosts and coarse matrices stay lists of their 1s."""
    rng = make_rng(seed, "verify:blocks")
    pattern = identity_matrix(2)
    side = 2
    limit = wide_block_limit(pattern, side)
    failures = []
    for trial in range(trials):
        dims = (rng.randint(2, 8), rng.randint(2, 8))
        ones = _random_free_ones(dims, (pattern,), rng)
        grid, wide, thin = _block_classes(dims, ones, pattern.dims, pattern.ones, side)
        for axis in (1, 2) if wide else ():
            for key, count in _wide_count(wide, axis).items():
                if count > limit:
                    failures.append(
                        {
                            "trial": trial,
                            "dims": list(dims),
                            "side": side,
                            "axis": axis,
                            "column": list(key),
                            "count": count,
                            "limit": limit,
                        }
                    )
        if thin and _match(grid, thin, pattern.dims, pattern.ones):
            failures.append(
                {"trial": trial, "dims": list(dims), "side": side, "coarse_not_free": True}
            )
    return _report("block-decomposition", failures, 5, trials)


def _budget(check: str, rows) -> dict:
    """A grid-budget check's result from its (n, value, bound) rows: exact
    values against linear bounds, ok when none is over its bound."""
    values = [{"n": n, "value": value, "bound": bound} for n, value, bound in rows]
    return {"check": check, "ok": all(r["value"] <= r["bound"] for r in values), "values": values}


def _density_constant(trials, seed) -> dict:
    """Exact grid values against the linear density bound for the 2x2 diagonal."""
    pattern = identity_matrix(2)
    rows = ((n, ex_exact((n, n), [pattern]).value, MT_K2 * n) for n in range(1, 6))
    return _budget("density-constant", rows)


def _diamond_pattern_set(trials, seed) -> dict:
    """Forbidding all diamond-ordered patterns keeps grids at 4n ones."""
    checks = map(tardos_diamond_check, range(1, 4))
    return _budget("diamond-pattern-set", ((n, r.value, r.bound) for n, r in enumerate(checks, 1)))


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


def run_checks(check: str, trials: int | None, seed: int) -> dict:
    """One check's result, or under "all" each check's in "checks" and "ok"
    over them; `trials` replaces the default (alone or under "all") of each
    check that has trials, and is refused below 1 or by one that has none."""
    if trials is not None and trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    alone = check != "all"
    if alone and trials is not None and CHECKS[check][1] is None:
        raise ValueError(f"verify {check} takes no --trials")
    results = {}
    for name in [check] if alone else CHECKS:
        runner, default = CHECKS[name][0], CHECKS[name][1 if alone else 2]
        results[name] = runner(default if trials is None or default is None else trials, seed)
    if alone:
        return results[check]
    return {"ok": all(r["ok"] for r in results.values()), "checks": results}
