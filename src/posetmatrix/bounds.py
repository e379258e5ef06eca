"""Closed-form bounds, bound pipelines, and the per-poset summary table.

Everything is exact rational arithmetic; coefficients are reported as
strings like "5/2" so tables serialize without float noise.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import CapExceeded
from .extremal import DEFAULT_CELL_CAP, ex_exact
from .family import family_contains, middle_levels
from .hypermatrix import HyperMatrix
from .poset import Poset, diamond, dimension, height, is_isomorphic, realizer_to_matrix


def erdos_bound(n: int, k: int) -> int:
    """Largest chain-free family: sum of the k-1 biggest binomials C(n, i)."""
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n} k={k}")
    sizes = sorted((comb(n, i) for i in range(n + 1)), reverse=True)
    return sum(sizes[: k - 1])


def weak_chain_coefficient(p: Poset) -> int:
    """Every family with a |p|-chain weakly contains p, so the chain bound
    applies with coefficient |p| - 1."""
    if p.n == 0:
        raise ValueError("empty poset")
    return p.n - 1


def chen_li_bound(p: Poset, m: int) -> Fraction:
    """Middle-binomial coefficient (1/(m+1)) (|p| + (m^2+3m-2)/2 (h-1) - 1)."""
    if m < 1:
        raise ValueError("m must be positive")
    h = height(p)
    return Fraction(1, m + 1) * (p.n + Fraction(m * m + 3 * m - 2, 2) * (h - 1) - 1)


def _best(bound, p: Poset, params) -> tuple[int, Fraction]:
    """The parameter minimizing bound(p, parameter), the least on ties,
    with that bound."""
    value, param = min((bound(p, t), t) for t in params)
    return param, value


def best_chen_li(p: Poset) -> tuple[int, Fraction]:
    return _best(chen_li_bound, p, range(1, max(1, p.n) + 1))


def gmt_bound(p: Poset, k: int) -> Fraction:
    """Middle-binomial coefficient (1/2^(k-1)) (|p| + (3k-5) 2^(k-2) (h-1) - 1)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    h = height(p)
    return Fraction(1, 2 ** (k - 1)) * (p.n + (3 * k - 5) * 2 ** (k - 2) * (h - 1) - 1)


def best_gmt(p: Poset) -> tuple[int, Fraction]:
    return _best(gmt_bound, p, range(2, p.n + 3))


def marcus_tardos_constant(k: int) -> int:
    """2 k^4 C(k^2, k): per-row-of-blocks cost in the permutation pattern
    density argument."""
    if k < 1:
        raise ValueError("k must be positive")
    return 2 * k**4 * comb(k * k, k)


MT_K2 = marcus_tardos_constant(2)


def binomial_shift_check(n: int, d: int) -> tuple[int, int, bool]:
    """C(n+2d-2, floor(n/2)+d-1) <= 4^(d-1) C(n, floor(n/2)), with equality
    at d=1."""
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n} d={d}")
    lhs = comb(n + 2 * d - 2, n // 2 + d - 1)
    rhs = 4 ** (d - 1) * comb(n, n // 2)
    return lhs, rhs, lhs <= rhs


def hasse_is_tree(p: Poset) -> bool:
    """Whether the cover graph is a tree (connected, n-1 edges)."""
    if p.n == 0:
        raise ValueError("empty poset")
    edges = p.covers
    if len(edges) != p.n - 1:
        return False
    adj = [[] for _ in range(p.n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == p.n


def bukh_tree_coefficient(p: Poset) -> int:
    """Leading middle-binomial coefficient h-1 for posets whose cover graph
    is a tree."""
    if not hasse_is_tree(p):
        raise ValueError("the cover graph is not a tree")
    return height(p) - 1


def middle_levels_free(n: int, m: int, p: Poset, induced: bool) -> bool:
    return not family_contains(middle_levels(n, m), p, induced)


E_ESTIMATE_N_MAX = 6  # largest ground set `e_estimate` tests


def e_estimate(p: Poset, induced: bool) -> int:
    """Largest m whose m middle levels avoid p at every tested ground size.

    An estimate only: tested for n up to E_ESTIMATE_N_MAX, so it can
    overshoot the true all-n value.
    """
    est = 0
    m = 1
    while m <= E_ESTIMATE_N_MAX + 1:
        ns = range(max(1, m - 1), E_ESTIMATE_N_MAX + 1)
        if not all(middle_levels_free(n, m, p, induced) for n in ns):
            break
        est = m
        m += 1
    return est


def _pattern_side_cap(d: int) -> int:
    """Largest side n <= 4 whose d-dim cube is within the cell cap."""
    n = 1
    while (n + 1) ** d <= DEFAULT_CELL_CAP:
        n += 1
    return min(4, n)


def induced_bound_pipeline(p: Poset, *, cache=None) -> dict:
    """Middle-binomial induced-bound coefficients via the poset's permutation
    matrix: its dimension d, then per source of a density constant K for the
    matrix, the realizer, the matrix, K and the transfer coefficients 2^d K
    and 4^(d-1) (d-1)!/(d-1)^(d-1) K.

    "exact" takes K as the empirical max of ex/n^(d-1) at small n (not a
    proof); "mt", present when d = 2, the k=2 Marcus-Tardos constant.
    """
    d, realizer = dimension(p)
    if d < 2:
        raise ValueError(
            "total orders stay 1-dimensional; use the chain bound directly"
        )
    pattern = realizer_to_matrix(p, realizer)

    def route(k_value: Fraction, provenance: str) -> dict:
        refined = Fraction(4 ** (d - 1) * factorial(d - 1), (d - 1) ** (d - 1)) * k_value
        return {
            "dimension": d,
            "realizer": [list(ext) for ext in realizer.labelled(p)],
            "pattern": pattern.to_obj(),
            "K": str(k_value),
            "K_provenance": provenance,
            "coefficient": str(2**d * k_value),
            "refined_coefficient": str(refined),
        }

    n_hi = _pattern_side_cap(d)
    k_exact = max(
        Fraction(ex_exact((n,) * d, [pattern], cache=cache).value, n ** (d - 1))
        for n in range(1, n_hi + 1)
    )
    out = {
        "dimension": d,
        "exact": route(k_exact, f"empirical max ex/n^(d-1) over n<={n_hi}; not a proof"),
    }
    if d == 2:
        out["mt"] = route(Fraction(MT_K2), "marcus-tardos-constant(k=2)")
    return out


def bounds_table(p: Poset, *, cache=None) -> dict:
    """All bound coefficients for one poset, JSON-ready, exact strings."""
    if p.n == 0:
        raise ValueError("empty poset")
    h = height(p)
    cl_m, cl_v = best_chen_li(p)
    g_k, g_v = best_gmt(p)
    table: dict = {
        "schema": 1,
        "poset": p.to_obj(),
        "size": p.n,
        "height": h,
        "weak_chain_coefficient": str(weak_chain_coefficient(p)),
        "chen_li_m1": str(chen_li_bound(p, 1)),
        "chen_li_best": {"m": cl_m, "coefficient": str(cl_v)},
        "gmt_k2": str(gmt_bound(p, 2)),
        "gmt_best": {"k": g_k, "coefficient": str(g_v)},
        "marcus_tardos_k2": str(MT_K2),
        "e_estimate_weak": e_estimate(p, induced=False),
        "e_estimate_induced": e_estimate(p, induced=True),
        "e_estimate_note": "middle-levels scan for n <= 6; estimate only",
    }
    if hasse_is_tree(p):
        table["bukh_tree"] = {
            "applies": True,
            "coefficient": str(bukh_tree_coefficient(p)),
            "note": "tree cover graphs only, leading term",
        }
    else:
        table["bukh_tree"] = {"applies": False}
    try:
        table["induced_pipeline"] = {"available": True, **induced_bound_pipeline(p, cache=cache)}
    except (ValueError, CapExceeded) as exc:
        table["induced_pipeline"] = {"available": False, "reason": str(exc)}
    if is_isomorphic(p, diamond()):
        # forbidding all sixteen 2-dimensional diamond patterns caps the
        # grid density at 4n, giving a sharper transfer constant
        table["diamond_direct"] = {"K": "4", "coefficient": "16"}
    else:
        table["diamond_direct"] = None
    return table
