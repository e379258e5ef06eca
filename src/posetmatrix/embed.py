"""Backtracking injection search shared by order-into-order and order-into-family
embedding, by the enumeration of every copy of a poset in the cube, and by
the census of 2-dim patterns ordering like a poset.

The targets are distinct sets under inclusion, given as bitmasks: a family,
the n-cube, the cells of a grid as unions of unary codes, or the principal
down-sets of a poset.  `inclusion_tables` turns them into the bitmask tables
sup[t] / sub[t] of the targets strictly above / below t, which the search
reads; `columns`, the package's one bulk bit-column builder, supplies their
per-element bitsets.  It transposes the rows in 8x8 bit blocks, all the
blocks of a byte column in the same few big-int operations.  The source is
a poset-like object exposing n and its up and down bitmasks.  Weak mode
preserves relations one way (x < y forces image above image); induced mode
preserves both relations and incomparabilities.

Embeddings that differ by an automorphism of the source have the same image,
so the search yields one per automorphism orbit, the lexicographically least
(lex-leader symmetry breaking, Crawford, Ginsberg, Luks and Roy 1996): for an
automorphism whose least moved element is i, e is below e∘σ exactly when
e(i) < e(σ(i)).  The pairs (i, σ(i)) come from the same search run of the
source into itself, once per poset.

Whether an element's image must lie above, below or apart from each earlier
element's image depends only on the source and the mode: it is worked out
once per poset, and each search binds it to its tables once, so a candidate
set is one AND per earlier element.

The search yields an embedding as a tuple of target indices
(`order_embeddings`), or as its image, the bitset of targets it already
holds (`order_images`, which lists the copies of a poset in the cube
without building a tuple per embedding).
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

# the delta-swap masks of an 8x8 bit transpose in one 64-bit word, for the
# shifts 7, 14 and 28
_M7, _M14, _M28 = 0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0


def columns(rows, width: int) -> list[int]:
    """The bit columns of `rows`, ints below 2**width: for each bit c <
    width, the bitset of the rows holding bit c, row 0 at the highest bit
    (row i of L at bit L-1-i).

    Built in bulk.  The rows, last first, are laid side by side as
    little-endian bytes (8 per row from an `array('Q')` up to 64 bits, else
    `int.to_bytes`).  Per byte column, one stride slice read as an int puts 8
    rows x 8 bit columns in each 64-bit word; three masked delta swaps
    transpose every word at once (Warren, Hacker's Delight, 2nd ed., §7-3),
    after which byte k of each word holds bit column k of its 8 rows, and
    that column is one more stride slice of the word bytes."""
    if width <= 64:
        laid = array("Q", rows)
        laid.reverse()
        if sys.byteorder == "big":
            laid.byteswap()
        data = laid.tobytes()
        size = 8
    else:
        size = (width + 7) // 8
        data = b"".join([r.to_bytes(size, "little") for r in reversed(rows)])
    words = (len(data) // size + 7) // 8
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * words, "little")  # bit 0 of each word
    m7, m14, m28 = _M7 * ones, _M14 * ones, _M28 * ones
    frombytes = int.from_bytes
    out = []
    for c in range(0, width, 8):
        x = frombytes(data[c >> 3 :: size], "little")
        t = (x ^ x >> 7) & m7
        x ^= t ^ t << 7
        t = (x ^ x >> 14) & m14
        x ^= t ^ t << 14
        t = (x ^ x >> 28) & m28
        x ^= t ^ t << 28
        flat = x.to_bytes(8 * words, "little")
        out += [frombytes(flat[k::8], "little") for k in range(min(8, width - c))]
    return out


def inclusion_tables(masks):
    """sup[i] / sub[i]: bitsets of the members strictly above / below member
    i under inclusion (masks distinct).  With holds[e] the members holding
    element e (`columns` of the masks, last first, so member i is bit i),
    i's supersets are in holds[e] for every e in i, and its subsets in
    holds[e] for no e outside i: O(k·n) big-int operations."""
    full = (1 << len(masks)) - 1
    holds = columns(masks[::-1], max(masks, default=0).bit_length())
    sup = []
    sub = []
    bit = 1
    for m in masks:
        above, outside = full, 0
        for members in holds:
            if m & 1:
                above &= members
            else:
                outside |= members
            m >>= 1
        # member i is in `above` and not in `outside`: the XORs drop it
        sup.append(above ^ bit)
        sub.append(full ^ outside ^ bit)
        bit <<= 1
    return sup, sub


def degree_filter(p, sup: list[int], sub: list[int]) -> list[int]:
    """For each source element x, the bitmask of targets whose up/down
    degrees can accommodate x.

    Valid for both modes: any embedding maps the up-set of x injectively
    into the up-set of its image, and likewise below.
    """
    degrees = [(1 << t, sup[t].bit_count(), sub[t].bit_count()) for t in range(len(sup))]
    out = []
    for x in range(p.n):
        need_up = p.up[x].bit_count()
        need_dn = p.down[x].bit_count()
        mask = 0
        for bit, up, dn in degrees:
            if up >= need_up and dn >= need_dn:
                mask |= bit
        out.append(mask)
    return out


def order_embeddings(p, targets, induced: bool):
    """One embedding of p into the targets (distinct bitmasks, ordered by
    inclusion) per automorphism orbit of p, as tuples of target indices: the
    lexicographically least of each orbit, in lexicographic order.  Every
    image of an embedding is the image of one that is yielded; in induced
    mode each image is yielded exactly once.
    """
    return _embeddings(p, targets, induced, False)


def order_images(p, targets, induced: bool):
    """The image of each of `order_embeddings`, in the same order, as the
    bitset of its target indices: the one the search already holds."""
    return _embeddings(p, targets, induced, True)


def _embeddings(p, targets, induced: bool, images: bool):
    if len(targets) < p.n:
        return iter(())
    sup, sub = inclusion_tables(targets)
    up, down = tuple(p.up), tuple(p.down)
    allowed = degree_filter(p, sup, sub)
    return _search(up, down, sup, sub, allowed, induced, _orbit_cuts(up, down), images)


@lru_cache(maxsize=1024)
def _orbit_cuts(up: tuple[int, ...], down: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """For each source element j, the elements i < j that some automorphism
    fixing 0..i-1 maps to j: a lex-least embedding puts j above i.

    Each pair is one existence search of the poset into itself, with y
    pinned to y for y < i and i pinned to j; an automorphism keeps up and
    down degrees, so every element may go only to elements like it."""
    k = len(up)
    degrees = [(u.bit_count(), d.bit_count()) for u, d in zip(up, down)]
    alike = [sum(1 << y for y in range(k) if degrees[y] == degrees[x]) for x in range(k)]
    none = ((),) * k
    after: list[list[int]] = [[] for _ in range(k)]
    for i in range(k):
        rest = alike[i] >> i + 1 << i + 1
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            pinned = [1 << y for y in range(i)] + [1 << j] + alike[i + 1 :]
            if next(_search(up, down, up, down, pinned, True, none), None) is not None:
                after[j].append(i)
    return tuple(map(tuple, after))


@lru_cache(maxsize=1024)
def _cut_kinds(up: tuple[int, ...], down: tuple[int, ...], induced: bool) -> tuple:
    """For each source element x, a pair (kind, y) per earlier element y
    that constrains x's image: kind 0 when x is above y (the image lies in
    sup of y's image), 1 when below (in sub), 2 when the two are apart and
    the mode is induced (in neither).  Worked out once per poset and mode."""
    return tuple(
        tuple(
            (0 if down[x] >> y & 1 else 1 if up[x] >> y & 1 else 2, y)
            for y in range(x)
            if induced or (up[x] | down[x]) >> y & 1
        )
        for x in range(len(up))
    )


def _search(up, down, sup, sub, allowed: list[int], induced: bool, after, images=False):
    """The embeddings of the source (tables up, down) into the targets,
    element x going into allowed[x] and above the image of every element of
    after[x], in lexicographic order: as tuples of targets, or with `images`
    as the bitsets of their targets.

    The source's cut kinds (`_cut_kinds`) are bound once to this call's
    sup, sub and, in induced mode, `~(sup | sub)`, so a candidate set is
    one AND per earlier element.  Each candidate of the last element
    completes an embedding; they are yielded in one inner loop."""
    k = len(up)
    if k == 0:
        yield 0 if images else ()
        return
    kinds = _cut_kinds(up, down, induced)
    tables = [sup, sub]
    if induced:
        tables.append([~(a | b) for a, b in zip(sup, sub)])
    ties = [[(tables[kind], y) for kind, y in row] for row in kinds]
    assign = [0] * k
    # depth-first on an explicit stack over elements 0..last-1: left[x]
    # holds the untried candidates of element x, used the targets of
    # elements 0..x-1, cand the candidates of x
    last = k - 1
    left = [0] * k
    x, used = -1, 0
    while True:
        x += 1
        cand = allowed[x] & ~used
        for i in after[x]:
            cand &= -(2 << assign[i])
        for table, y in ties[x]:
            cand &= table[assign[y]]
            if not cand:
                break
        if x == last:
            if images:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    yield used | low
            else:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    assign[x] = low.bit_length() - 1
                    yield tuple(assign)
        while not cand:
            x -= 1
            if x < 0:
                return
            used ^= 1 << assign[x]
            cand = left[x]
        low = cand & -cand
        left[x] = cand ^ low
        assign[x] = low.bit_length() - 1
        used |= low


def find_order_embedding(p, targets, induced: bool) -> tuple[int, ...] | None:
    """First embedding of p into the targets, or None: the first of
    `order_embeddings`, so the witness is deterministic."""
    return next(order_embeddings(p, targets, induced), None)
