"""Finite strict partial orders: realizers, dimension, and order patterns.

A poset holds labelled elements and, per element, the bitmask of elements
strictly above it.  Construction always validates irreflexivity, antisymmetry
and transitivity, so every Poset in the system is a genuine strict order.
The dimension search reads its per-pair bitsets off `embed.columns`.  The
builtin posets, by name or sized kind, are one table, `_BUILTINS`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import count, product
from operator import or_

from .embed import columns, find_order_embedding, inclusion_tables, order_embeddings
from .errors import CapExceeded, InvariantError, json_int, load_json_file
from .family import cube_order, elements
from .hypermatrix import HyperMatrix, box_layout


@dataclass(frozen=True)
class Poset:
    """Strict order; up[i] is the bitmask of elements strictly above element i.

    Construction also sets down[i], the elements strictly below i, and
    covers, the pairs (i, j) with j covering i, in ascending order."""

    elements: tuple[str, ...]
    up: tuple[int, ...]
    down: tuple[int, ...] = field(init=False, repr=False, compare=False)
    covers: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(str(e) for e in self.elements)
        up = tuple(json_int(m, "relation mask") for m in self.up)
        n = len(elements)
        if len(set(elements)) != n:
            raise InvariantError("distinct element labels", f"{elements}")
        if len(up) != n:
            raise InvariantError("relation table size", f"{len(up)} rows for {n} elements")
        if any(m < 0 or m >> n for m in up):
            raise InvariantError("relation table range", "mask bits outside the element range")
        # one walk over the related pairs checks the axioms and fills down
        # and covers: j covers i when it lies above no other element above i
        down = [0] * n
        covers = []
        for i in range(n):
            if up[i] >> i & 1:
                raise InvariantError("irreflexive", f"{elements[i]} < itself")
            m, beyond = up[i], 0
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
                down[j] |= 1 << i
                beyond |= up[j]
            m = up[i] & ~beyond
            while m:
                covers.append((i, (m & -m).bit_length() - 1))
                m &= m - 1
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "covers", tuple(covers))

    @property
    def n(self) -> int:
        return len(self.elements)

    def less(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def height(self) -> int:
        """Number of elements in a longest chain: one pass over the covers
        (i, j), by how many elements lie below j, so every cover into i
        comes before those out of i; chain[j] is the longest chain ending
        at j."""
        below = [d.bit_count() for d in self.down]
        chain = [1] * self.n
        for i, j in sorted(self.covers, key=lambda c: below[c[1]]):
            chain[j] = max(chain[j], chain[i] + 1)
        return max(chain, default=0)

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
    up = tuple((1 << k) - (2 << i) for i in range(k))  # bits i+1..k-1
    return Poset(tuple(f"a{i + 1}" for i in range(k)), up)


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
    if json_int(m, "size") < 0:
        raise ValueError("m must be nonnegative")
    masks = cube_order(m)
    label = ["{" + ",".join(map(str, elements(s))) + "}" for s in masks]
    return Poset(tuple(label), tuple(inclusion_tables(masks)[0]))


# the builtins by spelling, in the order the `poset` help and the
# unknown-name message list them: a named poset maps to (builder, None), a
# sized kind, spelled kind:k, to (builder of size k, its number of elements)
_BUILTINS = {
    "chain:k": (chain, lambda k: k),
    "antichain:k": (antichain, lambda k: k),
    "diamond": (diamond, None),
    "vee:r": (vee, lambda r: r + 1),
    "butterfly": (butterfly, None),
    "boolean:m": (boolean_lattice, lambda m: 1 << m),
}
BUILTIN_SPELLINGS = ", ".join(_BUILTINS)
_KINDS = {spelling.partition(":")[0]: entry for spelling, entry in _BUILTINS.items()}
_SIZED = re.compile(r"(\w+):(\d+)")
_BUILTIN_CAP = 2048  # elements


def _builtin_entry(name: str):
    """(builder, size, digits) if name spells a builtin, digits None if named."""
    kind, digits = m.groups() if (m := _SIZED.fullmatch(name)) else (name, None)
    build, size = _KINDS.get(kind, (None, None))
    return (build, size, digits) if build and (size is None) == (digits is None) else None


def builtin(name: str) -> Poset:
    """The poset that a builtin spelling names, looked up in `_BUILTINS`."""
    if not (found := _builtin_entry(name)):
        raise ValueError(f"unknown poset {name!r}; use {BUILTIN_SPELLINGS}, or a JSON file path")
    build, size, digits = found
    if digits is None:
        return build()
    # sized by its digits first: int() refuses strings of over 4,300 digits
    digits = digits.lstrip("0")
    arg = int(digits or "0") if len(digits) <= len(str(_BUILTIN_CAP)) else _BUILTIN_CAP + 1
    if size(arg) > _BUILTIN_CAP:
        raise ValueError(f"poset {name} has more than {_BUILTIN_CAP} elements")
    return build(arg)


def load_poset(spec: str) -> Poset:
    """Accept a builtin name or a JSON file path."""
    return builtin(spec) if _builtin_entry(spec) else load_poset_file(spec)


def _positive(k: int) -> None:
    if json_int(k, "size") < 1:
        raise ValueError("size must be positive")


# --- chains and extensions -------------------------------------------------


def height(p: Poset) -> int:
    """Number of elements in a longest chain."""
    if p.n == 0:
        raise ValueError("empty poset")
    return p.height


def linear_extensions(p: Poset):
    """All linear extensions as index tuples, lexicographic by index sequence.

    Depth-first on an explicit stack: minimal[k] holds the minimal elements
    of what seq[:k] leaves, and left[k] those of them not yet tried k-th.
    An element is minimal once all its lower covers are placed; pending[j]
    counts j's unplaced lower covers, so a step touches only the upper
    covers of the element it places or takes back."""
    upper: list[list[int]] = [[] for _ in range(p.n)]
    pending = [0] * p.n
    for i, j in p.covers:
        upper[i].append(j)
        pending[j] += 1
    seq: list[int] = []
    minimal = [sum(1 << j for j, count in enumerate(pending) if not count)]
    left = minimal[:]
    while left:
        if len(seq) == p.n:
            yield tuple(seq)
        if cand := left[-1]:
            low = cand & -cand
            left[-1] = cand ^ low
            i = low.bit_length() - 1
            seq.append(i)
            free = minimal[-1] ^ low
            for j in upper[i]:
                pending[j] -= 1
                if not pending[j]:
                    free |= 1 << j
            minimal.append(free)
            left.append(free)
        else:
            left.pop()
            minimal.pop()
            if seq:
                for j in upper[seq.pop()]:
                    pending[j] += 1


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


def _order_masks(p: Poset, orders) -> tuple[int, int, list[int]]:
    """Precedence masks over the n*n ordered pairs: bit x*n + y is set when
    x comes before y.  Returns p's related pairs (x < y in p), its
    incomparable pairs in both directions, and each order's mask."""
    n = p.n
    related = incomparable = 0
    for x in range(n):
        related |= p.up[x] << x * n
        incomparable |= ((1 << n) - 1 & ~(p.up[x] | p.down[x] | 1 << x)) << x * n
    masks = []
    for order in orders:
        mask = after = 0
        for x in reversed(order):
            mask |= after << x * n
            after |= 1 << x
        masks.append(mask)
    return related, incomparable, masks


def is_realizer(p: Poset, r: Realizer) -> bool:
    """Whether r is a nonempty tuple of linear orders of p's elements whose
    intersection is p: each order holds every related pair, and together
    they hold every incomparable pair both ways round."""
    if not r.extensions or any(sorted(ext) != list(range(p.n)) for ext in r.extensions):
        return False
    related, incomparable, masks = _order_masks(p, r.extensions)
    if any(m & related != related for m in masks):
        return False
    return reduce(or_, masks) & incomparable == incomparable


DIMENSION_SIZE_CAP = 8


def dimension(p: Poset) -> tuple[int, Realizer]:
    """Least t with a t-order realizer, plus the lexicographically least witness.

    Iterative deepening on t from 1.  A pair (a, b) is critical when a ∥ b,
    D(a) ⊆ D(b) and U(b) ⊆ U(a); linear extensions realize p exactly when
    some of them puts b before a for every critical pair (Trotter,
    *Combinatorics and Partially Ordered Sets: Dimension Theory*, 1992).  So
    the search is a minimum cover of the critical pairs by the extensions'
    precedence masks, explored in enumeration order.  The last order of a
    tuple is read off per-pair bitsets of extensions: the first one left
    that holds every pair still uncovered.  A chain has no critical pair, so
    its first extension is the answer at t = 1.

    The witness is the lexicographically least realizing t-tuple, as for a
    cover of all incomparable pairs: at the minimal t, each member of a
    realizing tuple reverses a critical pair that no other member reverses
    (else t - 1 orders would do), so no member is skipped for adding nothing.
    """
    if p.n == 0:
        raise ValueError("empty poset")
    if p.n > DIMENSION_SIZE_CAP:
        raise CapExceeded(
            f"poset has {p.n} elements, dimension search cap is {DIMENSION_SIZE_CAP}"
        )
    exts = list(linear_extensions(p))
    _, incomparable, masks = _order_masks(p, exts)
    # bit b*n + a for each critical pair (a, b): some order must put b first
    full = sum(
        1 << b * p.n + a
        for a, b in product(range(p.n), repeat=2)
        if incomparable >> a * p.n + b & 1 and not p.down[a] & ~p.down[b] | p.up[b] & ~p.up[a]
    )
    # by_pair[b]: bit e set when masks[e] holds pair b
    by_pair = columns(masks[::-1], p.n * p.n)
    choice: list[int] = []

    def dfs(start: int, covered: int, slots: int) -> bool:
        if slots == 1:
            # the lowest e >= start whose mask holds every uncovered pair
            fits, left = -1 << start, full & ~covered
            while left:
                fits &= by_pair[(left & -left).bit_length() - 1]
                left &= left - 1
            if fits:
                choice.append((fits & -fits).bit_length() - 1)
            return fits != 0
        for e in range(start, len(exts) - slots + 1):
            if masks[e] & full & ~covered == 0:
                continue  # contributes nothing; minimal witnesses never need it
            choice.append(e)
            if dfs(e + 1, covered | masks[e], slots - 1):
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
    ones = tuple(tuple(ext.index(e) + 1 for ext in r.extensions) for e in range(p.n))
    return HyperMatrix((p.n,) * len(r.extensions), ones)


# --- order patterns --------------------------------------------------------


def _unary_codes(dims, coords) -> list[int]:
    """Each coordinate as a set: value v on an axis is the lowest v bits of
    that axis's block of bits, so coordinatewise dominance is inclusion."""
    offsets = [sum(dims[:j]) for j in range(len(dims))]
    return [sum(((1 << v) - 1) << at for v, at in zip(c, offsets)) for c in coords]


def pattern_order(m: HyperMatrix) -> Poset:
    """Order of the 1s of a matrix under componentwise dominance.

    A 1 sits below another when no coordinate decreases.  Index maps in the
    containment relation are strictly increasing per axis, so they preserve
    this order and its incomparabilities exactly.
    """
    labels = tuple(",".join(map(str, o)) for o in m.ones)
    return Poset(labels, tuple(inclusion_tables(_unary_codes(m.dims, m.ones))[0]))


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """Order isomorphism for small posets: equal sizes and (up, down)
    degree profiles, then one induced-embedding search of p into q."""
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
    column, whose dominance order is isomorphic to p.

    Such a matrix has at most m = |p| rows and columns, so each one is an
    induced copy of p in the dominance order of the m x m grid's cells, one
    whose rows are exactly 1..r and columns exactly 1..c: the copies are
    enumerated once, in that grid, and each such copy is kept as an r x c
    pattern.  Deterministic order: by (rows, cols), then by 1-set.
    """
    if json_int(d, "dimension") != 2:
        raise ValueError("pattern enumeration is only supported in 2 dimensions")
    m = p.n
    if m == 0 or m > 6:
        raise ValueError("pattern enumeration supports 1..6 elements")
    cells = box_layout(m, m).cells
    embeddings = order_embeddings(p, _unary_codes((m, m), cells), True)
    found = []
    # each induced copy comes once, and cells come in lexicographic order,
    # so sorted images are sorted 1-sets
    for e in embeddings:
        ones = [cells[t] for t in sorted(e)]
        rows, cols = {i for i, _ in ones}, {j for _, j in ones}
        if max(rows) == len(rows) and max(cols) == len(cols):
            found.append(((len(rows), len(cols)), ones))
    return [HyperMatrix(dims, ones) for dims, ones in sorted(found)]


def subposet_embeds(p: Poset, q: Poset, induced: bool) -> bool:
    """Whether p embeds into q (order-preserving; both ways when induced)."""
    # x <= y in q exactly when x's principal down-set lies inside y's
    down_sets = [q.down[x] | 1 << x for x in range(q.n)]
    return find_order_embedding(p, down_sets, induced) is not None
