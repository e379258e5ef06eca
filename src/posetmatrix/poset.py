"""Finite strict partial orders: realizers, dimension, and order patterns.

A poset holds labelled elements and, per element, the bitmask of elements
strictly above it.  Construction always validates irreflexivity, antisymmetry
and transitivity, so every Poset in the system is a genuine strict order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, count, product
from operator import or_

from .embed import find_order_embedding, order_embeddings
from .errors import CapExceeded, InvariantError, json_int, load_json_file
from .family import cube_order, elements, inclusion_tables
from .hypermatrix import HyperMatrix, all_cells


@dataclass(frozen=True)
class Poset:
    """Strict order; up[i] is the bitmask of elements strictly above element i."""

    elements: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        elements = tuple(str(e) for e in self.elements)
        up = tuple(int(m) for m in self.up)
        n = len(elements)
        if len(set(elements)) != n:
            raise InvariantError("distinct element labels", f"{elements}")
        if len(up) != n:
            raise InvariantError("relation table size", f"{len(up)} rows for {n} elements")
        if any(m < 0 or m >> n for m in up):
            raise InvariantError("relation table range", "mask bits outside the element range")
        for i in range(n):
            if up[i] >> i & 1:
                raise InvariantError("irreflexive", f"{elements[i]} < itself")
            m = up[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if up[j] >> i & 1:
                    raise InvariantError(
                        "antisymmetric", f"{elements[i]} and {elements[j]} below each other"
                    )
                if up[j] & ~up[i]:
                    raise InvariantError(
                        "transitive",
                        f"{elements[i]} < {elements[j]} but not everything above {elements[j]}",
                    )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "up", up)

    @property
    def n(self) -> int:
        return len(self.elements)

    def less(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        dn = [0] * self.n
        for i, m in enumerate(self.up):
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                dn[j] |= 1 << i
        return tuple(dn)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise KeyError(f"no element labelled {label!r}") from None

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.less(i, j)]

    def incomparable_pairs(self) -> list[tuple[int, int]]:
        """Unordered incomparable pairs as (i, j) with i < j."""
        return [
            (i, j)
            for i, j in combinations(range(self.n), 2)
            if not self.less(i, j) and not self.less(j, i)
        ]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i, j in self.relation_pairs():
            if not any(self.less(i, k) and self.less(k, j) for k in range(self.n)):
                out.append((i, j))
        return tuple(out)

    def to_obj(self) -> dict:
        return {
            "elements": list(self.elements),
            "covers": sorted([self.elements[i], self.elements[j]] for i, j in self.covers),
        }

    @classmethod
    def from_pairs(cls, elements, pairs) -> "Poset":
        """Build from (below, above) label pairs, closed transitively, so a
        cover list is enough."""
        elements = tuple(str(e) for e in elements)
        pos = {e: i for i, e in enumerate(elements)}
        if len(pos) != len(elements):
            raise InvariantError("distinct element labels", f"{elements}")
        up = [0] * len(elements)
        for a, b in pairs:
            a, b = str(a), str(b)
            if a not in pos or b not in pos:
                raise InvariantError("relation over listed elements", f"({a}, {b})")
            up[pos[a]] |= 1 << pos[b]
        # Warshall: after step k, i is below j whenever a chain from i to j
        # passes only through elements 0..k
        for k in range(len(up)):
            for i in range(len(up)):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return cls(elements, tuple(up))


def load_poset_obj(obj) -> Poset:
    if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
        raise InvariantError("poset object shape", 'need "elements" and "covers" keys')
    elements, covers = obj["elements"], obj["covers"]
    if not _strings(elements):
        raise InvariantError("poset elements are a list of strings", repr(elements))
    if not isinstance(covers, list) or not all(_strings(c) and len(c) == 2 for c in covers):
        raise InvariantError("poset covers are [below, above] string pairs", repr(covers))
    return Poset.from_pairs(elements, covers)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(e, str) for e in value)


def load_poset_file(path) -> Poset:
    return load_json_file(path, "poset", load_poset_obj)


# --- builtins --------------------------------------------------------------


def chain(k: int) -> Poset:
    _positive(k)
    up = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            up[i] |= 1 << j
    return Poset(tuple(f"a{i + 1}" for i in range(k)), tuple(up))


def antichain(k: int) -> Poset:
    _positive(k)
    return Poset(tuple(f"a{i + 1}" for i in range(k)), (0,) * k)


def diamond() -> Poset:
    # a < b, c < d with b, c incomparable
    return Poset.from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def vee(r: int) -> Poset:
    """One minimum below r pairwise incomparable elements."""
    _positive(r)
    tops = [f"b{i + 1}" for i in range(r)]
    return Poset.from_pairs(["a"] + tops, [("a", t) for t in tops])


def butterfly() -> Poset:
    return Poset.from_pairs(
        ["a1", "a2", "b1", "b2"],
        [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")],
    )


def boolean_lattice(m: int) -> Poset:
    """All subsets of {1..m} ordered by strict inclusion, in `cube_order`."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    masks = cube_order(m)
    label = ["{" + ",".join(map(str, elements(s))) + "}" for s in masks]
    return Poset(tuple(label), tuple(inclusion_tables(masks)[0]))


_BUILTIN = re.compile(r"^(chain|antichain|vee|boolean):(\d+)$")


def builtin(name: str) -> Poset:
    if name == "diamond":
        return diamond()
    if name == "butterfly":
        return butterfly()
    m = _BUILTIN.match(name)
    if not m:
        raise ValueError(
            f"unknown poset {name!r}; use chain:k, antichain:k, diamond, vee:r, "
            "butterfly, boolean:m, or a JSON file path"
        )
    kind, arg = m.group(1), int(m.group(2))
    if kind == "chain":
        return chain(arg)
    if kind == "antichain":
        return antichain(arg)
    if kind == "vee":
        return vee(arg)
    return boolean_lattice(arg)


def load_poset(spec: str) -> Poset:
    """Accept a builtin name or a JSON file path."""
    if spec == "diamond" or spec == "butterfly" or _BUILTIN.match(spec):
        return builtin(spec)
    return load_poset_file(spec)


def _positive(k: int) -> None:
    if k < 1:
        raise ValueError("size must be positive")


# --- chains and extensions -------------------------------------------------


def height(p: Poset) -> int:
    """Number of elements in a longest chain."""
    if p.n == 0:
        raise ValueError("empty poset")
    memo: dict[int, int] = {}

    def climb(i: int) -> int:
        if i in memo:
            return memo[i]
        best = 1
        m = p.up[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            best = max(best, 1 + climb(j))
        memo[i] = best
        return best

    return max(climb(i) for i in range(p.n))


def linear_extensions(p: Poset):
    """All linear extensions as index tuples, lexicographic by index sequence."""
    n = p.n
    down = p.down
    seq: list[int] = []

    def rec(placed: int):
        if len(seq) == n:
            yield tuple(seq)
            return
        for i in range(n):
            if not placed >> i & 1 and down[i] & ~placed == 0:
                seq.append(i)
                yield from rec(placed | 1 << i)
                seq.pop()

    yield from rec(0)


@dataclass(frozen=True)
class Realizer:
    """Ordered tuple of linear orders whose intersection is the poset."""

    extensions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        extensions = tuple(
            tuple(json_int(e, "realizer entry") for e in ext) for ext in self.extensions
        )
        object.__setattr__(self, "extensions", extensions)

    @property
    def order_count(self) -> int:
        return len(self.extensions)

    def labelled(self, p: Poset) -> list[list[str]]:
        return [[p.elements[i] for i in ext] for ext in self.extensions]


def _positions(ext) -> list[int]:
    """pos[e]: the rank of element e in the linear order ext, from 0."""
    pos = [0] * len(ext)
    for rank, e in enumerate(ext):
        pos[e] = rank
    return pos


def _reversal_masks(p: Poset, exts) -> tuple[int, list[int]]:
    """Per linear order, its reversal mask: bit t is set when the order puts
    y before x for the t-th ordered incomparable pair (x, y) of p.  Also
    returns the mask with a bit for every such pair.  Linear extensions
    realize p exactly when the OR of their reversal masks is that mask."""
    inc = [pair for x, y in p.incomparable_pairs() for pair in ((x, y), (y, x))]
    masks = []
    for ext in exts:
        pos = _positions(ext)
        masks.append(sum(1 << t for t, (x, y) in enumerate(inc) if pos[y] < pos[x]))
    return (1 << len(inc)) - 1, masks


def is_realizer(p: Poset, r: Realizer) -> bool:
    """Whether r is a nonempty tuple of linear extensions of p that
    together reverse every ordered incomparable pair."""
    if not r.extensions:
        return False
    relations = p.relation_pairs()
    for ext in r.extensions:
        if sorted(ext) != list(range(p.n)):
            return False
        pos = _positions(ext)
        if any(pos[i] > pos[j] for i, j in relations):
            return False
    full, masks = _reversal_masks(p, r.extensions)
    return reduce(or_, masks) == full


DIMENSION_SIZE_CAP = 8


def dimension(p: Poset) -> tuple[int, Realizer]:
    """Least t with a t-order realizer, plus the lexicographically least witness.

    Iterative deepening on t.  A tuple of extensions realizes p exactly when,
    for every ordered incomparable pair (x, y), some extension puts y before
    x; so the search is a minimum cover of the reversal requirements by the
    extensions' reversal masks, explored in enumeration order.
    """
    if p.n == 0:
        raise ValueError("empty poset")
    if p.n > DIMENSION_SIZE_CAP:
        raise CapExceeded(
            f"poset has {p.n} elements, dimension search cap is {DIMENSION_SIZE_CAP}"
        )
    exts = list(linear_extensions(p))
    full, cover = _reversal_masks(p, exts)
    max_cover = max((c.bit_count() for c in cover), default=0)
    choice: list[int] = []

    def dfs(start: int, covered: int, slots: int) -> bool:
        if covered == full:
            # only reachable with slots left when there is nothing to cover
            if slots:
                if start + slots > len(exts):
                    return False
                choice.extend(range(start, start + slots))
            return True
        if slots == 0:
            return False
        if max_cover * slots < (full & ~covered).bit_count():
            return False
        for e in range(start, len(exts) - slots + 1):
            if cover[e] & ~covered == 0:
                continue  # contributes nothing; minimal witnesses never need it
            choice.append(e)
            if dfs(e + 1, covered | cover[e], slots - 1):
                return True
            choice.pop()
        return False

    # every poset has a realizer of at most p.n orders, so this returns
    for t in count(1):
        choice.clear()
        if dfs(0, 0, t):
            return t, Realizer(tuple(exts[e] for e in choice))


def realizer_to_matrix(p: Poset, r: Realizer) -> HyperMatrix:
    """Permutation matrix of the poset: element -> its rank in each order.

    Coordinatewise strict dominance between 1s then mirrors the order
    relation exactly, because the orders form a realizer.
    """
    if p.n == 0:
        raise ValueError("empty poset")
    if not is_realizer(p, r):
        raise ValueError("the given orders do not realize the poset")
    positions = [_positions(ext) for ext in r.extensions]
    ones = tuple(tuple(pos[e] + 1 for pos in positions) for e in range(p.n))
    return HyperMatrix((p.n,) * len(r.extensions), ones)


# --- order patterns --------------------------------------------------------


def pattern_order(m: HyperMatrix) -> Poset:
    """Order of the 1s of a matrix under componentwise dominance.

    A 1 sits below another when no coordinate decreases.  Index maps in the
    containment relation are strictly increasing per axis, so they preserve
    this order and its incomparabilities exactly.
    """
    labels = tuple(",".join(map(str, o)) for o in m.ones)
    up = []
    for a in m.ones:
        mask = 0
        for j, b in enumerate(m.ones):
            if a != b and all(x <= y for x, y in zip(a, b)):
                mask |= 1 << j
        up.append(mask)
    return Poset(labels, tuple(up))


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """Brute-force order isomorphism for small posets."""
    if p.n != q.n:
        return False
    if p.n > 8:
        raise CapExceeded("isomorphism test supports at most 8 elements")

    def profile(r: Poset):
        return sorted((r.up[i].bit_count(), r.down[i].bit_count()) for i in range(r.n))

    # an induced injection between equal-sized posets is an isomorphism
    return profile(p) == profile(q) and subposet_embeds(p, q, True)


def enumerate_patterns(p: Poset, d: int = 2) -> list[HyperMatrix]:
    """All 2-dimensional 0-1 matrices with |p| ones, no all-zero row or
    column, whose dominance order is isomorphic to p: in each box, the
    induced copies of p in the dominance order of its cells that use every
    row and column.  Deterministic order: by (rows, cols), then by 1-set."""
    if d != 2:
        raise ValueError("pattern enumeration is only supported in 2 dimensions")
    m = p.n
    if m == 0 or m > 6:
        raise ValueError("pattern enumeration supports 1..6 elements")
    out: list[HyperMatrix] = []
    for rows, cols in product(range(1, m + 1), repeat=2):
        cells = all_cells((rows, cols))
        grid = pattern_order(HyperMatrix((rows, cols), cells))
        embeddings = order_embeddings(p, grid.up, grid.down, (1 << len(cells)) - 1, True)
        # cells come in lexicographic order, so sorted images are sorted 1-sets
        for image in sorted({tuple(sorted(e)) for e in embeddings}):
            ones = [cells[t] for t in image]
            if len({i for i, _ in ones}) == rows and len({j for _, j in ones}) == cols:
                out.append(HyperMatrix((rows, cols), ones))
    return out


def subposet_embeds(p: Poset, q: Poset, induced: bool) -> bool:
    """Whether p embeds into q (order-preserving; both ways when induced)."""
    if p.n > q.n:
        return False
    found = find_order_embedding(p, list(q.up), list(q.down), (1 << q.n) - 1, induced)
    return found is not None
