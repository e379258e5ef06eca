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
disjoint: each forces one more position out.  When none of the masks a
node counts holds its position, both children would count the same masks,
so the node hands the count down and they skip it.  A position that no
live mask holds gets no exclude child (dominated exclusion): a free set
leaving it out stays free with it added, as the masks through it are dead
and the others do not hold it, so no maximum set lies under that child.
Each node holds its live masks as one int bitset over mask indices, so the
include test, the bound and the dominated exclusion are a few bitset
operations rather than a scan of the masks.  The bitset holds the masks in
reverse order, the first at the highest bit: a live mask's last position is
still undecided, so the live masks are the low bits, and the bitsets shrink
as the search goes deeper and as the bound clears masks.  No mask may be
empty.  The search builds its per-position bitsets in one bulk
transposition of the masks (`embed.columns`) and lists a mask's positions
only when the bound first takes it, so a long copy list costs little more
than the copies the search touches.

The search also takes symmetries of the mask set, position permutations
that are involutions, and cuts a node whose every completion one of them
maps to a set the search reaches first (lex-leader symmetry breaking,
Crawford, Ginsberg, Luks and Roy 1996); each node keeps one bitset of the
symmetries it still ties with.  The first maximum set found leads its own
orbit, so values and witnesses do not depend on the symmetries given.
`la_exact` passes the swaps of adjacent elements of {1..n}
(`family.cube_swaps`), which map every poset's copies onto themselves and
decide their comparisons in order; `ex_exact` passes the box's axis swaps
under which its patterns map onto themselves (`hypermatrix.box_swaps`),
which about halve the search nodes on the larger boxes.  Likewise a floor
below the size of a free set already known moves no value or witness; only
`la_exact` gives one (`_la_incumbent`).

Both also share one solve path (`_solve`) around the search: the size cap,
the optional on-disk cache, the one call of the search, and a re-check of
every witness, fresh or cached.  Its one codec names each position by a
label, a cell's coordinates for `ex` and a set's sorted elements for `la`:
a cache entry is the value and the labels of the chosen positions, and is
read back by looking each label up.  `ex_exact` and `la_exact` supply only
their cache key, their labels, their problem (the masks, their symmetries
and a floor) and a witness builder that re-checks what it builds.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .cache import ResultCache
from .embed import columns
from .errors import CapExceeded, json_int
from .family import SetFamily, cube_order, cube_swaps, elements, family_contains, middle_window
from .family import occurrence_masks as family_masks
from .hypermatrix import HyperMatrix, box_layout, box_swaps, contains, occurrence_masks
from .poset import Poset, diamond, enumerate_patterns
from .rng import make_rng

ENGINE_VERSION = 1
DEFAULT_CELL_CAP = 36
DEFAULT_LA_CAP = 5
# below this n, the greedy runs cost more than the search time they save
# (n=5 `vee:2`: 2.0 ms of runs save 1.2 ms of search)
_LA_GREEDY_FROM = 6

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
        lambda: box_layout(*dims).cells,
        lambda: (occurrence_masks(dims, pats), box_swaps(dims, pats)),
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

    def problem() -> tuple[list[int], list[list[int]], int]:
        masks = family_masks(n, p, induced)
        return masks, cube_swaps(n), _la_incumbent(n, masks).bit_count() - 1

    return LaResult(*_solve(
        key, cache, n, DEFAULT_LA_CAP, f"ground set size {n}", allow_over_cap,
        lambda: [elements(s) for s in cube_order(n)],
        problem, witness,
    ))


def _la_incumbent(n: int, masks: list[int]) -> int:
    """A set of `cube_order` positions holding none of the sorted masks, as a
    bitmask: the largest free band of middle levels (the runs of positions
    `family.middle_window` gives, nested as m grows), or for n >= 6 the best
    of 32 greedy runs from a fixed rng if larger, so node counts repeat."""
    best = 0
    for m in range(1, n + 2):
        start, stop = middle_window(n, m)
        low, high = 1 << start, 1 << stop
        band = high - low
        # only a mask whose highest position is in the band can lie in it
        inside = masks[bisect_left(masks, low) : bisect_left(masks, high)]
        if any(mask & band == mask for mask in inside):
            break
        best = band
    if n >= _LA_GREEDY_FROM:
        sets, rng = cube_order(n), make_rng(0, f"la-greedy:{n}")
        table = _greedy_table(len(sets), masks)
        for run in range(32):
            order = list(range(len(sets)))
            if run % 2:
                rng.shuffle(order)
            else:
                order.sort(key=lambda i: (abs(2 * sets[i].bit_count() - n), rng.random()))
            best = max(best, _greedy(*table, order), key=int.bit_count)
    return best


def _solve(key, cache, size, cap, size_text, allow_over_cap, labels, problem, witness):
    """(value, witness) for `ex_exact` and `la_exact`: the size cap, the
    cache and the witness check around their one search.

    `labels()` lists a JSON label per position, `problem()` returns the
    arguments of `_mask_search` over those positions after their number (the
    sorted masks, their symmetries and optionally a floor), and
    `witness(chosen)` builds the witness from the labels of the chosen
    positions, raising RuntimeError if it holds a forbidden copy.  None of
    them runs on an instance over the cap.

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
    value, chosen = _mask_search(len(labels), *problem())
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


def _mask_search(total: int, masks: list[int], syms=(), floor: int = -1) -> tuple[int, int]:
    """Largest set of cells 0..total-1, as a bitmask, that contains no mask.

    `floor` is a size to beat, below that of a known free set: the result is
    then the same as from -1.  A floor of the optimum or more returns (floor, 0).

    `masks` must be sorted, and none may be empty: every set holds an empty
    mask, so one raises ValueError.  `syms` are symmetries of the masks:
    permutations of the cells, sym taking cell c to sym[c], each an
    involution that maps the masks onto themselves.  Neither is checked
    here; the swaps of `la_exact` (`family.cube_swaps`) and of `ex_exact`
    (`hypermatrix.box_swaps`) have both by construction.

    Include-first search on an explicit stack, deciding cells in order, so
    the result is the first maximum set in search order: the
    lexicographically least.  It cuts three kinds of node, and often makes
    the first cut without packing afresh:

    - Bound: the node cannot beat the best so far.
    - Dominated exclusion: the child leaving pos out, when no live mask
      holds pos.  Every completion X of that child extends to the larger
      free set X | {pos}: the masks through pos are dead, and the others do
      not hold it.  So no maximum set lies under that child, whether or not
      a symmetry cuts the child taking pos.  This one test against
      `live & out[pos]` about halves the `ex` nodes, and it is what brings
      the 3-dim 2x2x2 identity on 5x5x5 into reach.
    - Symmetry (lex-leader): for some sym, the decided cells already show
      that sym maps every completion X to a set the search reaches first.
      That holds when, at the first position where X and sym(X) differ,
      sym(X) takes the cell.  Every sym maps a maximum set to a maximum
      set, none of which the search reaches before the first one it finds,
      so that one is never cut: the result does not depend on `syms`.
    - Packing handed down: a node whose bound counted masks that hold no
      cell at pos hands their number, and the lowest cell they hold at or
      above pos, to both children, which cut exactly when that number
      reaches their own slack and skip their own packing.  That packing would count the same masks
      in the same order and end with no free mask left.  In the child taking
      pos, `live` is the same and each counted mask has the same cells at or
      above pos + 1.  In the child leaving pos out, the counted masks miss
      pos, so they stay live, and at each step the one counted is still the
      highest free bit, as the child's free masks are among the parent's.
      So a child hands the packing on while its lowest cell is above the
      child's pos; a node whose packing holds pos has its children pack
      afresh.  A node with fewer live masks than slack packs too, though it
      cannot cut: like every packing that does not cut, it runs until no
      free mask is left, so its count is handed down like any other.  Node
      decisions do not change, and the packing is skipped at 19% to 73% of
      the `ex` nodes that reach the bound (6x6 I2: 132 of 458; 3x3x3 I2: 24
      of 34).

    Each node carries `live`, the masks with no cell decided out, as a
    bitset with mask i at bit M-1-i (M masks): the reverse of index order.
    A cell may be taken unless a live mask has it as its highest cell: every
    other cell of such a mask is taken.  So a live mask's highest cell is
    at least pos, and as the masks are sorted, the live ones sit in the low
    bits and `live` gets shorter as pos advances: pos may be taken when
    `live` is no longer than the bits of the masks ending after pos.  The
    bound takes the live masks in index order, skipping any that shares an
    undecided cell with one already taken; each forces one more cell out.
    The least index left is the highest bit, found without building a new
    int, and the bitsets that clear masks are non-negative, so each step
    costs only the length of what is left.

    `out[c]`, the live masks kept when cell c is decided out, is the
    complement of column c of the masks (`embed.columns`, built in bulk).
    A mask's cells, highest first, are listed the first time the bound takes
    the mask, and kept: most masks never reach the bound (71 of 570 for n=5
    `chain:3`, 822 of 185,136 for n=5 `vee:5` weak).

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
    if masks and not masks[0]:
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
    # out[c] clears the masks that hold cell c
    out = [full ^ held for held in columns(masks, total)]
    cells = [None] * size  # by bit, each mask's cells once `_list_cells` lists them
    # masks are sorted, so those with highest cell at least pos are the bits
    # below start[pos], and those with highest cell pos a range of bits
    start = [size - bisect_left(masks, 1 << pos) for pos in range(total + 1)]
    best, best_cur = floor, 0
    # next cell, chosen cells, their number, live masks, tied syms, and the
    # packing handed down: its number of masks (-1: pack afresh) and the
    # lowest cell they hold at or above pos
    stack = [(0, 0, 0, full, (1 << len(syms)) - 1, -1, total)]
    while stack:
        pos, cur, ones, live, tied, packed, low = stack.pop()
        slack = ones + total - pos - best
        if slack <= 0:
            continue
        if pos == total:
            best, best_cur = ones, cur
            continue
        # live masks sharing no undecided cell with a counted one, unless
        # the parent handed its packing down
        if packed < 0:
            free, packed, low = live, 0, total
            while free:
                packed += 1
                if packed == slack:
                    break
                for c in cells[free.bit_length() - 1] or _list_cells(cells, masks, free):
                    if c < pos:
                        break
                    free &= out[c]
                    last = c
                if last < low:
                    low = last
        if packed >= slack:
            continue
        # a packing that holds no cell at pos is each child's own
        hand = packed if low > pos else -1
        left = tied
        # no live mask ends at pos
        take = live.bit_length() <= start[pos + 1]
        for bit, c in waits[pos]:
            if tied & bit:
                if cur >> c & 1:
                    left ^= bit
                else:
                    take = False
        kept = live & out[pos]
        if kept != live:  # else a dominated exclusion
            stack.append((pos + 1, cur, ones, kept, left, hand, low))
        if take:
            stack.append((pos + 1, cur | 1 << pos, ones + 1, live, tied, hand, low))
    return best, best_cur


def _list_cells(cells: list, masks: list[int], free: int) -> list[int]:
    """`_mask_search`'s cells of the mask at the highest bit of `free`,
    highest first, listed into `cells` the first time they are asked for."""
    bit = free.bit_length() - 1
    m = masks[len(masks) - 1 - bit]
    held = cells[bit] = []
    while m:
        c = m.bit_length() - 1
        held.append(c)
        m ^= 1 << c
    return held


def _greedy(held, counts, order) -> int:
    """A maximal set of cells holding no mask, as a bitmask: take the cells in
    `order`, each unless it completes a mask, that is unless `held[c]`, the
    masks through it, meets `counts[1]`, the masks with one cell not taken;
    taking it moves each mask through it down one count (`_greedy_table`)."""
    counts = list(counts)
    cur = 0
    for i in order:
        through = held[i]
        if through & counts[1]:
            continue
        cur |= 1 << i
        k = 1
        while through:
            k += 1
            moved = through & counts[k]
            counts[k] ^= moved
            counts[k - 1] |= moved
            through ^= moved
    return cur


def _greedy_table(total: int, masks) -> tuple[list[int], list[int]]:
    """`_greedy`'s table of the masks over cells 0..total-1 as `embed.columns`
    bitsets: per cell the masks holding it, and per size k from 0 to at least
    1 the masks of k cells (the columns of each mask's 1 << size)."""
    sizes = [1 << m.bit_count() for m in masks]
    return columns(masks, total), columns(sizes, max([2, *sizes]).bit_length())


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
    value = ex_exact((n, n), _diamond_patterns(), **caps).value
    return DiamondBoundResult(value, 4 * n, value <= 4 * n)


@lru_cache(maxsize=1)
def _diamond_patterns() -> tuple[HyperMatrix, ...]:
    """The 16 diamond patterns, enumerated once per process."""
    return tuple(enumerate_patterns(diamond(), 2))


def random_free_matrix(dims, patterns, rng) -> HyperMatrix:
    """Greedy random maximal pattern-free matrix: shuffle the cells, keep
    each one that does not complete a forbidden pattern (`_greedy`)."""
    dims = tuple(json_int(x, "matrix side length") for x in dims)
    return HyperMatrix(dims, _random_free_ones(dims, _check_patterns(dims, patterns), rng))


def _random_free_ones(dims, pats, rng) -> list[tuple[int, ...]]:
    """The 1s of `random_free_matrix` in order, for checked dims and patterns;
    shuffling positions permutes exactly as shuffling the cells would."""
    cells = box_layout(*dims).cells
    order = list(range(len(cells)))
    rng.shuffle(order)
    return _picked(cells, _greedy(*_masks_through_cells(dims, pats), order))


@lru_cache(maxsize=64)  # `verify blocks` draws at most 49 shapes
def _masks_through_cells(dims, pats) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`_greedy_table` of the copies, kept as random hosts come in few shapes."""
    return tuple(map(tuple, _greedy_table(prod(dims), occurrence_masks(dims, pats))))
