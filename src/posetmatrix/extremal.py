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
bound are a few bitset operations rather than a scan of the masks.  The
bitset holds the masks in reverse order, the first at the highest bit: a
live mask's last position is still undecided, so the live masks are the
low bits, and the bitsets shrink as the search goes deeper and as the bound
clears masks.  No mask may be empty.

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
the optional on-disk cache, and a re-check of every witness, fresh or
cached.  Its one codec names each position by a label, a cell's coordinates
for `ex` and a set's sorted elements for `la`: a cache entry is the value
and the labels of the chosen positions, and is read back by looking each
label up.  `ex_exact` and `la_exact` supply only their cache key, their
labels, their search and a witness builder that re-checks what it builds.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .cache import ResultCache
from .errors import CapExceeded, json_int
from .family import SetFamily, cube_order, cube_swaps, elements, family_contains
from .family import occurrence_masks as family_masks
from .hypermatrix import HyperMatrix, all_cells, contains, occurrence_masks
from .poset import Poset, diamond, enumerate_patterns

ENGINE_VERSION = 1
DEFAULT_CELL_CAP = 36
DEFAULT_LA_CAP = 5

# what a corrupt cached entry raises while it is decoded or re-checked: an
# unknown label is a KeyError, an unhashable one a TypeError
_BAD_ENTRY = (RuntimeError, ValueError, KeyError, TypeError)


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
    dims = tuple(json_int(x, "matrix side length") for x in dims)
    if not dims or any(x < 1 for x in dims):
        raise ValueError(f"bad dims {dims}")
    pats = _check_patterns(dims, patterns)
    total = prod(dims)
    key = {
        "kind": "ex",
        "engine": ENGINE_VERSION,
        "dims": list(dims),
        "patterns": [a.to_obj() for a in pats],
    }

    def witness(ones) -> HyperMatrix:
        host = HyperMatrix(dims, ones)
        if any(contains(host, a) for a in pats):
            raise RuntimeError("extremal witness contains a forbidden pattern")
        return host

    return ExResult(*_solve(
        key, cache, total, DEFAULT_CELL_CAP, f"{total} cells", allow_over_cap,
        lambda: all_cells(dims),
        lambda: _mask_search(total, occurrence_masks(dims, pats)),
        witness,
    ))


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
    if json_int(n, "ground set size") < 0:
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

    def witness(sets) -> SetFamily:
        fam = SetFamily.from_sets(n, sets)
        if family_contains(fam, p, induced):
            raise RuntimeError("family witness contains the forbidden poset")
        return fam

    return LaResult(*_solve(
        key, cache, n, DEFAULT_LA_CAP, f"ground set size {n}", allow_over_cap,
        lambda: [elements(s) for s in cube_order(n)],
        lambda: _mask_search(1 << n, family_masks(n, p, induced), cube_swaps(n)),
        witness,
    ))


def _solve(key, cache, size, cap, size_text, allow_over_cap, labels, search, witness):
    """(value, witness) for `ex_exact` and `la_exact`: the size cap, the
    cache and the witness check around their search.

    `labels()` lists a JSON label per position, `search()` returns the value
    and the bitmask of the positions it chose, and `witness(chosen)` builds
    the witness from the labels of the chosen positions, raising
    RuntimeError if it holds a forbidden copy.  None of them runs on an
    instance over the cap.

    A cache entry is the value and the chosen labels in position order.  An
    entry whose labels are not distinct known positions, whose value is not
    their number, or whose witness raises counts as a miss, and the
    recomputed result overwrites it.  A fresh result that fails raises and
    is not stored.
    """
    if size > cap and not allow_over_cap:
        raise CapExceeded(
            f"{size_text} exceeds the exact search cap ({cap}); "
            "pass allow_over_cap=True (CLI: --cap-override) to run anyway"
        )
    labels = labels()
    if cache is not None and (hit := cache.get(key)) is not None:
        try:
            index = {tuple(label): i for i, label in enumerate(labels)}
            chosen = 0
            for label in hit["witness"]:
                chosen |= 1 << index[tuple(label)]
            if chosen.bit_count() != len(hit["witness"]):
                raise ValueError("cached witness repeats a position")
            return _attained(json_int(hit["value"], "cached value"), chosen, labels, witness)
        except _BAD_ENTRY:
            pass
    value, chosen = search()
    result = _attained(value, chosen, labels, witness)
    if cache is not None:
        cache.put(key, {"value": value, "witness": _picked(labels, chosen)})
    return result


def _attained(value: int, chosen: int, labels, witness) -> tuple:
    """(value, witness) for the positions in bitmask `chosen`, which must
    number `value`; `witness` re-checks what it builds."""
    if chosen.bit_count() != value:
        raise RuntimeError("witness does not attain the reported value")
    return value, witness(_picked(labels, chosen))


def _picked(labels, chosen: int) -> list:
    """The labels of the positions in bitmask `chosen`, in position order."""
    return [label for i, label in enumerate(labels) if chosen >> i & 1]


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
    bitset with mask i at bit M-1-i (M masks): the reverse of index order.
    A cell may be taken unless a live mask has it as its highest cell: every
    other cell of such a mask is taken.  So a live mask's highest cell is
    at least pos, and as the masks are sorted, the live ones sit in the low
    bits and `live` gets shorter as pos advances.  The bound takes the live
    masks in index order, skipping any that shares an undecided cell with
    one already taken; each forces one more cell out.  The least index left
    is the highest bit, found without building a new int, and the bitsets
    that clear masks are non-negative, so each step costs only the length
    of what is left.

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
    size = len(masks)
    full = (1 << size) - 1
    cells = []  # the cells of each mask, highest first, by bit
    # through[c]: the masks that hold cell c, mask i at bit size-1-i; bytes
    # keep building linear in the number of masks
    through = [bytearray((size + 7) // 8) for _ in range(total)]
    for bit, m in enumerate(reversed(masks)):
        held = []
        while m:
            c = m.bit_length() - 1
            held.append(c)
            m ^= 1 << c
            through[c][bit >> 3] |= 1 << (bit & 7)
        cells.append(held)
    # out[c] clears the masks that hold cell c
    out = [full ^ int.from_bytes(row, "little") for row in through]
    # masks are sorted, so those with highest cell at least pos are the bits
    # below start[pos], and those with highest cell pos a range of bits
    start = [size - bisect_left(masks, 1 << pos) for pos in range(total + 1)]
    top = [(1 << start[pos]) - (1 << start[pos + 1]) for pos in range(total)]
    best, best_cur = -1, 0
    # next cell, chosen cells, their number, live masks, tied syms
    stack = [(0, 0, 0, full, (1 << len(syms)) - 1)]
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
            for c in cells[free.bit_length() - 1]:
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


def _greedy(through, blocked: int, order) -> int:
    """A maximal set of cells holding no mask, as a bitmask: take the cells in
    `order`, each unless `blocked` (it would complete a mask).  `through[c]`
    lists the masks holding cell c, and `blocked` starts as the one-cell
    masks; taking a cell blocks the last cell left out of a mask through it."""
    cur = 0
    for i in order:
        if blocked >> i & 1:
            continue
        cur |= 1 << i
        for m in through[i]:
            rest = m ^ (m & cur)
            if not rest & (rest - 1):
                blocked |= rest
    return cur


def ex_monotonicity_check(pattern: HyperMatrix, small, big, **caps) -> MonotonicityResult:
    """Exact check that the 1-density of the extremal value does not grow
    when every side length grows: ex(big)/cells(big) <= ex(small)/cells(small)."""
    small = tuple(json_int(x, "matrix side length") for x in small)
    big = tuple(json_int(x, "matrix side length") for x in big)
    if len(small) != len(big) or len(small) != pattern.d:
        raise ValueError("dimension mismatch between pattern and the two shapes")
    if any(a > b for a, b in zip(small, big)):
        raise ValueError(f"{small} must be coordinatewise at most {big}")
    exs = ex_exact(small, [pattern], **caps).value
    exb = ex_exact(big, [pattern], **caps).value
    return MonotonicityResult(exb * prod(small) <= exs * prod(big), exs, exb)


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
    each one that does not complete a forbidden pattern (`_greedy`)."""
    dims = tuple(json_int(x, "matrix side length") for x in dims)
    return HyperMatrix(dims, _random_free_ones(dims, _check_patterns(dims, patterns), rng))


def _random_free_ones(dims, pats, rng) -> list[tuple[int, ...]]:
    """The 1s of `random_free_matrix` in order, for checked dims and patterns;
    shuffling positions permutes exactly as shuffling the cells would."""
    cells = all_cells(dims)
    order = list(range(len(cells)))
    rng.shuffle(order)
    return _picked(cells, _greedy(*_masks_through_cells(dims, pats), order))


@lru_cache(maxsize=64)  # `verify blocks` draws at most 49 shapes
def _masks_through_cells(dims, pats) -> tuple[tuple[tuple[int, ...], ...], int]:
    """`_greedy`'s table of the patterns' copies (`occurrence_masks`): per cell
    the copies holding it, and the union of the one-cell copies.  Kept per
    (dims, patterns), since random hosts are drawn from few shapes."""
    through: list[list[int]] = [[] for _ in range(prod(dims))]
    singles = 0
    for m in occurrence_masks(dims, pats):
        singles |= 0 if m & (m - 1) else m
        rest = m
        while rest:
            through[(rest & -rest).bit_length() - 1].append(m)
            rest &= rest - 1
    return tuple(map(tuple, through)), singles
