"""Backtracking injection search shared by order-into-order and order-into-family
embedding, by the enumeration of every copy of a poset in the cube, and by
the census of 2-dim patterns ordering like a poset.

The target side is abstract: indices 0..T-1 with bitmask tables sup[t] / sub[t]
listing the targets strictly above / below t.  The source is a poset-like
object exposing n, less(i, j), up and down bitmasks.  Weak mode preserves
relations one way (x < y forces image above image); induced mode preserves
both relations and incomparabilities.
"""

from __future__ import annotations


def degree_filter(p, sup: list[int], sub: list[int], universe: int) -> list[int]:
    """For each source element x, the bitmask of targets in `universe` whose
    up/down degrees inside `universe` can accommodate x.

    Valid for both modes: any embedding into `universe` maps the up-set of x
    injectively into the up-set of its image there, and likewise below.
    """
    degrees = [  # (target bit, up degree, down degree) inside universe
        (1 << t, (sup[t] & universe).bit_count(), (sub[t] & universe).bit_count())
        for t in range(len(sup))
        if universe >> t & 1
    ]
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


def order_embeddings(p, sup: list[int], sub: list[int], universe: int, induced: bool):
    """Every embedding of p into the targets of `universe`, as tuples.

    Source elements are placed in order and each one's candidates are
    scanned in increasing target order, so the embeddings come in
    lexicographic order.
    """
    k = p.n
    if k == 0:
        yield ()
        return
    if universe.bit_count() < k:
        return
    allowed = degree_filter(p, sup, sub, universe)
    assign = [0] * k
    less = p.less

    def candidates(x: int, used: int) -> int:
        cand = allowed[x] & ~used
        for y in range(x):
            t = assign[y]
            if less(y, x):
                cand &= sup[t]
            elif less(x, y):
                cand &= sub[t]
            elif induced:
                cand &= ~(sup[t] | sub[t])
            if not cand:
                break
        return cand

    # depth-first on an explicit stack: left[x] holds the untried candidates
    # of element x, used the targets of elements 0..x-1
    left = [0] * k
    left[0] = candidates(0, 0)
    x, used = 0, 0
    while x >= 0:
        cand = left[x]
        if not cand:
            x -= 1
            if x >= 0:
                used ^= 1 << assign[x]
            continue
        low = cand & -cand
        left[x] = cand ^ low
        assign[x] = low.bit_length() - 1
        if x + 1 == k:
            yield tuple(assign)
        else:
            used |= low
            x += 1
            left[x] = candidates(x, used)


def find_order_embedding(
    p, sup: list[int], sub: list[int], universe: int, induced: bool
) -> tuple[int, ...] | None:
    """First embedding of p into the targets of `universe`, or None: the
    first of `order_embeddings`, so the witness is deterministic."""
    return next(order_embeddings(p, sup, sub, universe, induced), None)
