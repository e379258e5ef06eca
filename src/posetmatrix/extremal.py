"""Exact extremal search: most 1s avoiding patterns, largest families
avoiding a poset.

Both are one engine: list every forbidden copy once, as a bitmask over a
fixed order of positions, then find the largest set of positions that holds
no mask.  For `ex` the positions are the host cells in `all_cells` order and
the masks every copy of every pattern (`hypermatrix.occurrence_masks`); for
`la` they are the subsets of {1..n}, smaller first (`family.cube_order`),
and the masks the image sets of every weak or induced embedding of the
poset (`family.occurrence_masks`).

The search is include-first branch and bound deciding positions in order,
so ties break the same way every run and the reported witness is the
lexicographically least maximum one.  A position may be taken unless it is
the last of a mask whose other positions are all taken.  The bound counts
live masks (no position decided out) whose undecided positions are pairwise
disjoint: each forces one more position out.  Each node holds its live
masks as one int bitset over mask indices, so the include test and the
bound are a few bitset operations rather than a scan of the masks.  No mask
may be empty.

The search also takes symmetries of the mask set, position permutations
that are involutions, and cuts a node whose every completion one of them
maps to a set the search reaches first (lex-leader symmetry breaking,
Crawford, Ginsberg, Luks and Roy 1996); each node keeps one bitset of the
symmetries it still ties with.  The first maximum set found leads its own
orbit, so values and witnesses do not depend on the symmetries given.
`la_exact` passes the swaps of adjacent elements of {1..n}
(`family.cube_swaps`), which map every poset's copies onto themselves and
decide their comparisons in order; `ex_exact` passes none.

Both also share one solve path (`_solve`) around the search: the size cap,
the optional on-disk cache, and an independent re-check of every witness,
fresh or cached.  `ex_exact` and `la_exact` supply only their cache key,
search, entry codec and re-check.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .cache import ResultCache
from .errors import CapExceeded
from .family import SetFamily, cube_order, cube_swaps, family_contains
from .family import occurrence_masks as family_masks
from .hypermatrix import HyperMatrix, all_cells, contains, occurrence_masks
from .poset import Poset, diamond, enumerate_patterns

ENGINE_VERSION = 1
DEFAULT_CELL_CAP = 36
DEFAULT_LA_CAP = 5

# what a corrupt cached entry raises while it is decoded or re-checked; json
# reads Infinity and 1e999 as inf, on which int() raises OverflowError
_BAD_ENTRY = (RuntimeError, ValueError, KeyError, TypeError, OverflowError)


class ExResult(NamedTuple):
    value: int
    witness: HyperMatrix


class LaResult(NamedTuple):
    value: int
    witness: SetFamily


class MonotonicityResult(NamedTuple):
    holds: bool
    small_value: int
    big_value: int


class DiamondBoundResult(NamedTuple):
    value: int
    bound: int
    holds: bool


def _check_patterns(dims, patterns) -> tuple[HyperMatrix, ...]:
    pats = tuple(patterns)
    if not pats:
        raise ValueError("need at least one forbidden pattern")
    for a in pats:
        if a.d != len(dims):
            raise ValueError(f"pattern dimension {a.d} does not match host {len(dims)}")
        if a.weight == 0:
            raise ValueError("forbidden patterns must have at least one 1")
    return pats


def ex_exact(
    dims,
    patterns,
    *,
    allow_over_cap: bool = False,
    cache: ResultCache | None = None,
) -> ExResult:
    """Maximum number of 1s in a dims-shaped 0-1 matrix containing none of
    the patterns, with a witness attaining it."""
    dims = tuple(int(x) for x in dims)
    if not dims or any(x < 1 for x in dims):
        raise ValueError(f"bad dims {dims}")
    pats = _check_patterns(dims, patterns)
    total = 1
    for x in dims:
        total *= x
    key = {
        "kind": "ex",
        "engine": ENGINE_VERSION,
        "dims": list(dims),
        "patterns": [a.to_obj() for a in pats],
    }

    def search() -> ExResult:
        cells = all_cells(dims)
        value, chosen = _mask_search(len(cells), occurrence_masks(dims, pats))
        ones = tuple(c for i, c in enumerate(cells) if chosen >> i & 1)
        return ExResult(value, HyperMatrix(dims, ones))

    def decode(hit) -> ExResult:
        ones = tuple(tuple(c) for c in hit["witness"])
        return ExResult(int(hit["value"]), HyperMatrix(dims, ones))

    def encode(result: ExResult) -> dict:
        return {"value": result.value, "witness": result.witness.to_obj()["ones"]}

    def recheck(result: ExResult) -> None:
        if result.witness.weight != result.value:
            raise RuntimeError("extremal witness does not attain the reported value")
        if any(contains(result.witness, a) for a in pats):
            raise RuntimeError("extremal witness contains a forbidden pattern")

    return _solve(
        total, DEFAULT_CELL_CAP, f"{total} cells", allow_over_cap,
        key, cache, search, decode, encode, recheck,
    )


def la_exact(
    n: int,
    p: Poset,
    induced: bool,
    *,
    allow_over_cap: bool = False,
    cache: ResultCache | None = None,
) -> LaResult:
    """Largest family of subsets of {1..n} with no copy of p in the
    inclusion order (no induced copy when induced=True)."""
    if n < 0:
        raise ValueError(f"bad ground set size {n}")
    if p.n == 0:
        raise ValueError("the forbidden poset must be nonempty")
    key = {
        "kind": "la",
        "engine": ENGINE_VERSION,
        "n": n,
        "poset": p.to_obj(),
        "induced": induced,
    }

    def search() -> LaResult:
        ground = cube_order(n)
        value, chosen = _mask_search(
            len(ground), family_masks(n, p, induced), cube_swaps(n)
        )
        masks = tuple(s for i, s in enumerate(ground) if chosen >> i & 1)
        return LaResult(value, SetFamily(n, masks))

    def decode(hit) -> LaResult:
        return LaResult(int(hit["value"]), SetFamily.from_sets(n, hit["witness"]))

    def encode(result: LaResult) -> dict:
        return {"value": result.value, "witness": result.witness.to_obj()["sets"]}

    def recheck(result: LaResult) -> None:
        if result.witness.size != result.value:
            raise RuntimeError("family witness does not attain the reported value")
        if family_contains(result.witness, p, induced):
            raise RuntimeError("family witness contains the forbidden poset")

    return _solve(
        n, DEFAULT_LA_CAP, f"ground set size {n}", allow_over_cap,
        key, cache, search, decode, encode, recheck,
    )


def _solve(size, cap, size_text, allow_over_cap, key, cache, search, decode, encode, recheck):
    """The size cap, cache policy and witness re-check of `ex_exact` and
    `la_exact` around their `search`.

    A cached entry is returned only if `decode` reads it and `recheck`
    passes it; one that raises `_BAD_ENTRY` either way counts as a miss, and
    the recomputed result overwrites it.  A fresh result that fails
    `recheck` raises and is not stored.
    """
    if size > cap and not allow_over_cap:
        raise CapExceeded(
            f"{size_text} exceeds the exact search cap ({cap}); "
            "pass allow_over_cap=True (CLI: --cap-override) to run anyway"
        )
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            try:
                result = decode(hit)
                recheck(result)
                return result
            except _BAD_ENTRY:
                pass
    result = search()
    recheck(result)
    if cache is not None:
        cache.put(key, encode(result))
    return result


def _mask_search(total: int, masks: list[int], syms=()) -> tuple[int, int]:
    """Largest set of cells 0..total-1, as a bitmask, that contains no mask.

    `masks` must be sorted, and none may be empty: every set holds an empty
    mask, so one raises ValueError.  `syms` are symmetries of the masks:
    permutations of the cells, sym taking cell c to sym[c], each an
    involution that maps the masks onto themselves.  Neither is checked
    here; `la_exact`'s swaps have both by construction.

    Include-first search on an explicit stack, deciding cells in order, so
    the result is the first maximum set in search order: the
    lexicographically least.  It cuts two kinds of node:

    - Bound: the node cannot beat the best so far.
    - Symmetry (lex-leader): for some sym, the decided cells already show
      that sym maps every completion X to a set the search reaches first.
      That holds when, at the first position where X and sym(X) differ,
      sym(X) takes the cell.  Every sym maps a maximum set to a maximum
      set, none of which the search reaches before the first one it finds,
      so that one is never cut: the result does not depend on `syms`.

    Each node carries `live`, the masks with no cell decided out, as a
    bitset over mask indices.  A cell may be taken unless a live mask has it
    as its highest cell: every other cell of such a mask is taken.  The
    bound takes the live masks in index order, skipping any that shares an
    undecided cell with one already taken; each forces one more cell out.

    X and sym(X) can first differ only at a cell c < sym[c], where X at c
    is compared with X at sym[c].  A sym's comparisons are used in order of
    c while their higher cells sym[c] also increase, each decided at its
    higher cell; those after the first out of order are dropped, which only
    weakens the cut.  `waits[pos]` holds (sym bit, lower cell) for each
    comparison decided at pos, and each node carries `tied`, the bitset of
    the syms whose comparisons so far all tie.  At pos, a tied sym whose
    lower cell is taken loses to X in the child leaving pos out (its bit is
    cleared); one whose lower cell is left out cuts the child taking pos.
    """
    if 0 in masks:
        raise ValueError("every mask must hold at least one cell")
    waits = [[] for _ in range(total)]
    for k, sym in enumerate(syms):
        last = -1
        for c, d in enumerate(sym):
            if c < d:
                if d < last:
                    break
                waits[d].append((1 << k, c))
                last = d
    cells = []  # the cells of each mask, highest first
    # through[c]: the masks that hold cell c, one bit per mask index; bytes
    # keep building linear in the number of masks
    through = [bytearray((len(masks) + 7) // 8) for _ in range(total)]
    for i, m in enumerate(masks):
        held = []
        while m:
            c = m.bit_length() - 1
            held.append(c)
            m ^= 1 << c
            through[c][i >> 3] |= 1 << (i & 7)
        cells.append(held)
    # out[c] = ~through[c] clears the masks that hold cell c
    out = [~int.from_bytes(row, "little") for row in through]
    # masks are sorted, so those with highest cell pos are a range of indices
    start = [bisect_left(masks, 1 << pos) for pos in range(total + 1)]
    top = [(1 << start[pos + 1]) - (1 << start[pos]) for pos in range(total)]
    best, best_cur = -1, 0
    # next cell, chosen cells, their number, live masks, tied syms
    stack = [(0, 0, 0, (1 << len(masks)) - 1, (1 << len(syms)) - 1)]
    while stack:
        pos, cur, ones, live, tied = stack.pop()
        slack = ones + total - pos - best
        if slack <= 0:
            continue
        if pos == total:
            best, best_cur = ones, cur
            continue
        # live masks sharing no undecided cell with a counted one; fewer
        # live masks than slack cannot cut the node
        free = live if live.bit_count() >= slack else 0
        while free:
            slack -= 1
            if not slack:
                break
            for c in cells[(free & -free).bit_length() - 1]:
                if c < pos:
                    break
                free &= out[c]
        if not slack:
            continue
        left = tied
        take = not live & top[pos]
        for bit, c in waits[pos]:
            if tied & bit:
                if cur >> c & 1:
                    left ^= bit
                else:
                    take = False
        stack.append((pos + 1, cur, ones, live & out[pos], left))
        if take:
            stack.append((pos + 1, cur | 1 << pos, ones + 1, live, tied))
    return best, best_cur


def ex_monotonicity_check(pattern: HyperMatrix, small, big, **caps) -> MonotonicityResult:
    """Exact check that the 1-density of the extremal value does not grow
    when every side length grows: ex(big)/cells(big) <= ex(small)/cells(small)."""
    small = tuple(int(x) for x in small)
    big = tuple(int(x) for x in big)
    if len(small) != len(big) or len(small) != pattern.d:
        raise ValueError("dimension mismatch between pattern and the two shapes")
    if any(a > b for a, b in zip(small, big)):
        raise ValueError(f"{small} must be coordinatewise at most {big}")
    exs = ex_exact(small, [pattern], **caps).value
    exb = ex_exact(big, [pattern], **caps).value
    cs = 1
    for x in small:
        cs *= x
    cb = 1
    for x in big:
        cb *= x
    return MonotonicityResult(exb * cs <= exs * cb, exs, exb)


def tardos_diamond_check(n: int, **caps) -> DiamondBoundResult:
    """Forbid every 2-dimensional pattern whose 1s order like the diamond;
    the extremal value on the n x n grid is then at most 4n."""
    if n < 1:
        raise ValueError("n must be positive")
    pats = enumerate_patterns(diamond(), 2)
    value = ex_exact((n, n), pats, **caps).value
    return DiamondBoundResult(value, 4 * n, value <= 4 * n)


def random_free_matrix(dims, patterns, rng) -> HyperMatrix:
    """Greedy random maximal pattern-free matrix: shuffle the cells, keep
    each one that does not complete a forbidden pattern."""
    dims = tuple(int(x) for x in dims)
    pats = _check_patterns(dims, patterns)
    cells = all_cells(dims)
    through: list[list[int]] = [[] for _ in cells]  # the masks holding each cell
    for m in occurrence_masks(dims, pats):
        for i in range(m.bit_length()):
            if m >> i & 1:
                through[i].append(m)
    # shuffling positions permutes exactly as shuffling the cells would
    order = list(range(len(cells)))
    rng.shuffle(order)
    cur = 0
    for i in order:
        bit = 1 << i
        if all(m & cur != m ^ bit for m in through[i]):
            cur |= bit
    return HyperMatrix(dims, tuple(c for i, c in enumerate(cells) if cur >> i & 1))
