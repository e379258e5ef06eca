"""d-dimensional 0-1 hypermatrices with sub-grid pattern containment.

A matrix is stored sparsely as the lexicographically sorted tuple of its
1-entry coordinates, 1-based on every axis.  A host "contains" a pattern when
strictly increasing index selections, one per axis and of the pattern's full
side length, map every 1 of the pattern onto a 1 of the host.  The matcher
(`contains`) tries every selection on the axes but the last and scans the
last axis greedily, one slice of the pattern at a time.  It shares no code
with `occurrence_masks`, which the `ex` search and the random sampler use to
take every copy a box can hold at once, as bitmasks over its cells.

Every bitset over a box in the package numbers the cells in `all_cells`
order, lexicographic in their coordinates: the cell at position i is bit i.
`box_layout` builds that layout once per box shape: the cells, and per axis
its side, its bit stride (the position step of one index on it) and the
bits of its index-1 layer.  It also holds, for each axis, the swap with the
next axis of the same length above 1, as a swap of coordinates and as a map
of positions.  `box_swaps` keeps those under which a set of patterns maps
onto itself; such a swap maps the box's copies (`occurrence_masks`) onto
themselves, and the `ex` search takes them as symmetries.  The `ex`
witnesses and cache labels, the random sampler, `verify lw`, the
prefix-union matrices and the pattern census read their cells or strides
from the same layout.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, prod
from operator import getitem, itemgetter
from typing import NamedTuple

from .errors import InvariantError, json_int, load_json_file

Coord = tuple[int, ...]


@dataclass(frozen=True)
class HyperMatrix:
    """Sparse 0-1 hypermatrix: positive side lengths plus sorted 1-entries."""

    dims: tuple[int, ...]
    ones: tuple[Coord, ...]

    def __post_init__(self) -> None:
        dims = tuple(json_int(s, "matrix side length") for s in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ones", _checked_entries(dims, tuple(self.ones)))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def weight(self) -> int:
        return len(self.ones)

    @property
    def cell_count(self) -> int:
        return prod(self.dims)

    @cached_property
    def ones_set(self) -> frozenset[Coord]:
        return frozenset(self.ones)

    def cell(self, coord) -> int:
        return 1 if tuple(json_int(c, "matrix coordinate") for c in coord) in self.ones_set else 0

    def to_obj(self) -> dict:
        return {"dims": list(self.dims), "ones": [list(o) for o in self.ones]}

    @classmethod
    def from_obj(cls, obj) -> "HyperMatrix":
        if not isinstance(obj, dict) or "dims" not in obj or "ones" not in obj:
            raise InvariantError("matrix object shape", 'need "dims" and "ones" keys')
        return cls(obj["dims"], obj["ones"])


def _checked_entries(dims, ones) -> tuple[Coord, ...]:
    """The entries as sorted tuples.  Raises InvariantError for the first
    rule broken: non-integer coordinates, then the axes, then each entry's
    arity and range in input order, then duplicates."""
    ones = tuple(tuple(json_int(c, "matrix coordinate") for c in o) for o in ones)
    if not dims:
        raise InvariantError("positive dimension", "at least one axis is required")
    if min(dims) < 1:
        raise InvariantError("positive side lengths", f"dims={dims}")
    d = len(dims)
    for o in ones:
        if len(o) != d:
            raise InvariantError("coordinate arity", f"{o} in a {d}-dimensional matrix")
        if any(not 1 <= c <= n for c, n in zip(o, dims)):
            raise InvariantError("coordinate within dims", f"{o} outside {dims}")
    if len(set(ones)) != len(ones):
        raise InvariantError("duplicate coordinates", "1-entries must be distinct")
    return tuple(sorted(ones))


def load_matrix(path) -> HyperMatrix:
    return load_json_file(path, "matrix", HyperMatrix.from_obj)


def dump_matrix(m: HyperMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(m.to_obj(), fh, sort_keys=True)
        fh.write("\n")


# --- containment -----------------------------------------------------------


def _match(m_dims, m_ones, a_dims, a_ones) -> bool:
    """Core matcher (see the module docstring).  On the last axis each pattern
    slice takes the least host index past the previous slice's that holds all
    its 1s; the least leaves every option open for the later slices."""
    if any(k > n for k, n in zip(a_dims, m_dims)):
        return False
    fibres: dict = {}  # host 1s by all but the last coordinate, as index bitsets
    for o in m_ones:
        fibres[o[:-1]] = fibres.get(o[:-1], 0) | 1 << o[-1]
    slices = [[] for _ in range(a_dims[-1])]  # the pattern's 1s by last index
    for o in a_ones:
        slices[o[-1] - 1].append(o[:-1])
    picks = [combinations(range(1, n + 1), k) for n, k in zip(m_dims[:-1], a_dims[:-1])]
    for pick in product(*picks):
        later = (1 << (m_dims[-1] + 1)) - 2  # host indices 1..n on the last axis
        for ones in slices:
            fit = later
            for o in ones:
                fit &= fibres.get(tuple(pick[j][u - 1] for j, u in enumerate(o)), 0)
            if not fit:
                break
            low = fit & -fit
            later &= ~((low << 1) - 1)  # the indices above the least fit
        else:
            return True
    return False


def contains(host: HyperMatrix, pattern: HyperMatrix) -> bool:
    """Whether `pattern` occurs in `host` on a strictly increasing sub-grid."""
    if host.d != pattern.d:
        raise ValueError(f"dimension mismatch: host is {host.d}-dim, pattern {pattern.d}-dim")
    if pattern.weight == 0:
        raise ValueError("pattern must have at least one 1-entry")
    return _match(host.dims, host.ones, pattern.dims, pattern.ones)


def occurrence_masks(dims, patterns) -> list[int]:
    """Every copy of every pattern in a dims-shaped box, as a bitmask over the
    box's cells in `all_cells` order (bit i stands for the i-th cell).

    A copy is the image of a pattern's 1s under one strictly increasing index
    choice per axis, so a host contains some pattern exactly when some mask is
    a subset of its 1s.  Duplicates are dropped, patterns larger than the box
    have no copy, and the masks come sorted, hence grouped by highest cell.
    """
    dims = tuple(dims)
    layout = box_layout(*dims)
    masks: set[int] = set()
    for a in patterns:
        if any(k > n for k, n in zip(a.dims, dims)):
            continue
        # per leading axis, each index choice as the bit offsets of the
        # pattern's indices; the last axis has stride 1, so its choices shift
        axes = [
            [tuple(v * stride for v in pick) for pick in combinations(range(side), k)]
            for (side, stride, _), k in zip(layout.axes[:-1], a.dims)
        ]
        lasts = list(combinations(range(dims[-1]), a.dims[-1]))
        for offsets in product(*axes):
            # the bits of the pattern's 1s at each last index, at last index 0
            slices = [0] * a.dims[-1]
            for one in a.ones:
                slices[one[-1] - 1] |= 1 << sum(offsets[j][u - 1] for j, u in enumerate(one[:-1]))
            for pick in lasts:
                m = 0
                for bits, v in zip(slices, pick):
                    m |= bits << v
                masks.add(m)
    return sorted(masks)


def box_swaps(dims, patterns) -> list[tuple[int, ...]]:
    """The position maps of the layout's axis swaps (see `box_layout`) under
    which the set of patterns maps onto itself.  Swapping two axes of equal
    length maps a copy of pattern a to a copy of a swapped, so each such
    swap maps the box's copies onto themselves."""
    shapes = {(a.dims, a.ones) for a in patterns}
    return [
        sym
        for swap, sym in box_layout(*dims).swaps
        if shapes == {(swap(s), tuple(sorted(map(swap, ones)))) for s, ones in shapes}
    ]


# --- structural predicates -------------------------------------------------


def is_permutation_matrix(m: HyperMatrix) -> bool:
    """k ones in a k^d cube, exactly one per axis-parallel hyperplane."""
    k = m.dims[0]
    if any(s != k for s in m.dims):
        raise ValueError(f"permutation matrices must be cubic, got dims {m.dims}")
    if m.weight != k:
        return False
    return all(len({o[j] for o in m.ones}) == k for j in range(m.d))


def identity_matrix(k: int, d: int = 2) -> HyperMatrix:
    """The diagonal permutation matrix of size k^d."""
    if json_int(k, "size") < 1 or json_int(d, "dimension") < 1:
        raise ValueError("k and d must be positive")
    return HyperMatrix((k,) * d, tuple((i,) * d for i in range(1, k + 1)))


def projection(m: HyperMatrix, axis: int) -> HyperMatrix:
    """Delete coordinate `axis` (1-based) from every 1; duplicates collapse."""
    if m.d < 2:
        raise ValueError("projection needs dimension >= 2")
    if not 1 <= json_int(axis, "axis") <= m.d:
        raise ValueError(f"axis {axis} out of range 1..{m.d}")
    j = axis - 1
    dims = m.dims[:j] + m.dims[j + 1 :]
    ones = {o[:j] + o[j + 1 :] for o in m.ones}
    return HyperMatrix(dims, tuple(ones))


def loomis_whitney_holds(m: HyperMatrix) -> bool:
    """|M|^(d-1) <= product over axes of |projection|; exact integers."""
    if m.d < 2:
        raise ValueError("the projection inequality needs dimension >= 2")
    rhs = prod(len({o[:j] + o[j + 1 :] for o in m.ones}) for j in range(m.d))
    return m.weight ** (m.d - 1) <= rhs


# --- block decomposition ---------------------------------------------------


@dataclass(frozen=True)
class BlockReport:
    """Classification of every side-s block of a host against a permutation pattern.

    A block is "wide" in axis i when its projection along i contains the
    pattern's projection along i; it is "thin" when it holds at least one 1
    but is wide in no axis.  Blocks without 1s are reported separately as
    "empty": they are trivially not wide, but only blocks that actually hold
    a 1 can contribute an occurrence, so the coarse matrix marks exactly the
    thin blocks.  The final blocks on each axis may be smaller than s.
    """

    side: int
    grid: tuple[int, ...]
    wide: dict[Coord, tuple[int, ...]]
    nonempty: frozenset[Coord]
    coarse: HyperMatrix

    def classify(self, block: Coord) -> str:
        if block in self.wide:
            return "wide"
        if block in self.nonempty:
            return "thin"
        return "empty"

    def thin_blocks(self) -> list[Coord]:
        return list(self.coarse.ones)

    def wide_count(self, axis: int) -> dict[Coord, int]:
        """Number of axis-wide blocks in each blockcolumn along `axis`.

        Blockcolumns are keyed by the block coordinate with `axis` deleted.
        """
        if not 1 <= json_int(axis, "axis") <= len(self.grid):
            raise ValueError(f"axis {axis} out of range")
        return _wide_count(self.wide, axis)


def _wide_count(wide, axis: int) -> dict[Coord, int]:
    """`BlockReport.wide_count` of a `wide` map, for a valid axis."""
    return Counter(b[: axis - 1] + b[axis:] for b, axes in wide.items() if axis in axes)


def wide_block_limit(pattern: HyperMatrix, side: int) -> int:
    """Cap on axis-wide blocks per blockcolumn of a pattern-free host:
    (k-1) * C(side^(d-1), k) for a permutation pattern with k ones."""
    if json_int(side, "block side") < 1:
        raise ValueError("block side must be positive")
    if not is_permutation_matrix(pattern):
        raise ValueError("the wide-block limit needs a permutation pattern")
    k = pattern.dims[0]
    return (k - 1) * comb(side ** (pattern.d - 1), k)


def block_analyze(host: HyperMatrix, pattern: HyperMatrix, side: int) -> BlockReport:
    """Cut the host into side-s blocks and classify each against the pattern."""
    if host.d != pattern.d:
        raise ValueError("host and pattern must have the same dimension")
    if host.d < 2:
        raise ValueError("block analysis needs dimension >= 2")
    if json_int(side, "block side") < 1:
        raise ValueError("block side must be positive")
    if not is_permutation_matrix(pattern):
        raise ValueError("block analysis is defined against a permutation pattern")
    grid, wide, thin = _block_classes(host.dims, host.ones, pattern.dims, pattern.ones, side)
    return BlockReport(side, grid, wide, frozenset(wide).union(thin), HyperMatrix(grid, thin))


def _block_classes(dims, ones, a_dims, a_ones, side: int):
    """`block_analyze` on checked, plain (dims, ones) arguments: the grid, the
    wide blocks with their axes in block order, and the thin blocks.  Each 1
    finds its block and its place inside it in the per-axis cut tables.  A
    block with fewer 1s than the pattern is wide along no axis; any other
    takes its wide axes from `_wide_axes`, which tests each content once."""
    blocks, places, lengths = zip(*(_cuts(n, side) for n in dims))
    held: dict[Coord, list[Coord]] = {}
    for o in ones:
        held.setdefault(tuple(map(getitem, blocks, o)), []).append(tuple(map(getitem, places, o)))
    wide: dict[Coord, tuple[int, ...]] = {}
    for b, locs in held.items():
        if len(locs) >= len(a_ones):
            axes = _wide_axes(tuple(map(getitem, lengths, b)), tuple(locs), a_dims, a_ones)
            if axes:
                wide[b] = axes
    grid = tuple(len(t) - 1 for t in lengths)
    return grid, dict(sorted(wide.items())), [b for b in held if b not in wide]


@lru_cache(maxsize=64)
def _cuts(n: int, side: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """An axis of length n cut into side-s blocks: per coordinate 1..n its
    block and its index inside that block, and per block its length (each
    table 1-based, entry 0 unused)."""
    coords = range(n)
    return (
        (0, *(c // side + 1 for c in coords)),
        (0, *(c % side + 1 for c in coords)),
        (0, *(min(side, n - lo) for lo in range(0, n, side))),
    )


@lru_cache(maxsize=256)  # `verify blocks` meets under ten contents in 2,000 hosts
def _wide_axes(bdims, locs, a_dims, a_ones) -> tuple[int, ...]:
    """The axes along which a block of sides `bdims` holding the 1s `locs`
    is wide: its projection along the axis contains the pattern's.  Side
    lengths are left to `_match`, since a 1x2 block can be wide along axis 1."""
    return tuple(
        j + 1
        for j in range(len(bdims))
        if _match(
            bdims[:j] + bdims[j + 1 :],
            [o[:j] + o[j + 1 :] for o in locs],
            a_dims[:j] + a_dims[j + 1 :],
            [o[:j] + o[j + 1 :] for o in a_ones],
        )
    )


def all_cells(dims) -> list[Coord]:
    """Every coordinate of the given box, in lexicographic order."""
    return list(product(*(range(1, s + 1) for s in dims)))


class BoxLayout(NamedTuple):
    cells: tuple[Coord, ...]  # every cell, in `all_cells` order
    axes: tuple[tuple[int, int, int], ...]  # per axis: side, bit stride, index-1 layer bits
    swaps: tuple[tuple[itemgetter, tuple[int, ...]], ...]  # (coordinate swap, position map)


# typed: each side is an argument, so (2.0, 2) and (True, 2) get entries of
# their own rather than those of (2, 2) and (1, 2); a CLI session meets about
# 50 shapes (its `verify blocks` hosts come in up to 49), so none is evicted
@lru_cache(maxsize=128, typed=True)
def box_layout(*dims) -> BoxLayout:
    """The layout of the box with these sides, built once per shape (see the
    module docstring).  A swap pairs axis i with the next axis j > i of the
    same length, if that length is above 1; its position map takes each
    cell's position to that of the cell with coordinates i and j exchanged."""
    cells = tuple(all_cells(dims))
    axes = tuple(
        (side, prod(dims[j + 1 :]), sum(1 << i for i, c in enumerate(cells) if c[j] == 1))
        for j, side in enumerate(dims)
    )
    index = {c: k for k, c in enumerate(cells)}
    swaps = []
    for i, n in enumerate(dims):
        j = next((j for j in range(i + 1, len(dims)) if dims[j] == n), None)
        if n > 1 and j is not None:
            order = list(range(len(dims)))
            order[i], order[j] = j, i
            swap = itemgetter(*order)
            swaps.append((swap, tuple(index[swap(c)] for c in cells)))
    return BoxLayout(cells, axes, tuple(swaps))
