"""Shared brute-force oracles, written independently of the library search
code so the two can disagree."""

from collections import deque
from itertools import combinations, permutations, product

import pytest

from posetmatrix import HyperMatrix, SetFamily


def mat(*rows: str) -> HyperMatrix:
    """2-dim matrix from strings of 0/1, row-major."""
    dims = (len(rows), len(rows[0]))
    ones = tuple(
        (i + 1, j + 1)
        for i, row in enumerate(rows)
        for j, ch in enumerate(row)
        if ch == "1"
    )
    return HyperMatrix(dims, ones)


def brute_contains(host: HyperMatrix, pattern: HyperMatrix) -> bool:
    """Containment by trying every strictly increasing index selection."""
    if host.d != pattern.d:
        raise ValueError("dimension mismatch")
    axis_choices = []
    for j in range(host.d):
        axis_choices.append(
            list(combinations(range(1, host.dims[j] + 1), pattern.dims[j]))
        )
    hset = host.ones_set
    for pick in product(*axis_choices):
        if all(
            tuple(pick[j][one[j] - 1] for j in range(host.d)) in hset
            for one in pattern.ones
        ):
            return True
    return False


def brute_patterns(p) -> list[HyperMatrix]:
    """The 2-dim matrices with p.n 1s, no all-zero row or column, whose 1s
    order like p under componentwise dominance: every p.n-subset of every
    box, tried against every bijection onto p.  Same order as
    `enumerate_patterns`: by (rows, cols), then by 1-set."""
    m = p.n

    def below(a, b) -> bool:
        return a != b and a[0] <= b[0] and a[1] <= b[1]

    out = []
    for rows in range(1, m + 1):
        for cols in range(1, m + 1):
            cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
            for combo in combinations(cells, m):
                if len({c[0] for c in combo}) != rows or len({c[1] for c in combo}) != cols:
                    continue
                if any(
                    all(
                        below(combo[f[x]], combo[f[y]]) == p.less(x, y)
                        for x in range(m)
                        for y in range(m)
                    )
                    for f in permutations(range(m))
                ):
                    out.append(HyperMatrix((rows, cols), combo))
    return out


def brute_family_contains(fam: SetFamily, p, induced: bool) -> bool:
    """Poset containment by trying every injection of p into the family."""
    if p.n > fam.size:
        return False
    masks = fam.masks

    def below(a: int, b: int) -> bool:
        return a != b and a & ~b == 0

    for image in permutations(range(fam.size), p.n):
        good = True
        for x in range(p.n):
            for y in range(p.n):
                if x == y:
                    continue
                rel = below(masks[image[x]], masks[image[y]])
                if p.less(x, y) and not rel:
                    good = False
                elif induced and not p.less(x, y) and rel:
                    good = False
                if not good:
                    break
            if not good:
                break
        if good:
            return True
    return False


def brute_covers(p) -> list[tuple[int, int]]:
    """Pairs i < j with no k strictly between, ordered by (i, j)."""
    return [
        (i, j)
        for i in range(p.n)
        for j in range(p.n)
        if p.less(i, j) and not any(p.less(i, k) and p.less(k, j) for k in range(p.n))
    ]


def brute_height(p) -> int:
    """Size of the largest subset whose elements are pairwise comparable."""
    return max(
        len(s)
        for r in range(1, p.n + 1)
        for s in combinations(range(p.n), r)
        if all(p.less(a, b) or p.less(b, a) for a, b in combinations(s, 2))
    )


def brute_hasse_is_tree(p) -> bool:
    """n-1 cover edges, and a breadth-first search over them from element
    0 reaches every element."""
    edges = brute_covers(p)
    if len(edges) != p.n - 1:
        return False
    seen, queue = {0}, deque([0])
    while queue:
        a = queue.popleft()
        for b in [j for i, j in edges if i == a] + [i for i, j in edges if j == a]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return len(seen) == p.n


def brute_dimension(p, exts) -> tuple[int, tuple]:
    """Least t and the first t-tuple of the linear extensions exts, in
    `combinations` order, whose orders intersect to p: a pair comes before
    in every order exactly when it is related in p."""
    pairs = [(a, b) for a in range(p.n) for b in range(p.n) if a != b]
    relations = sum(1 << t for t, (a, b) in enumerate(pairs) if p.less(a, b))

    def before(ext) -> int:
        rank = {e: r for r, e in enumerate(ext)}
        return sum(1 << t for t, (a, b) in enumerate(pairs) if rank[a] < rank[b])

    masks = [before(ext) for ext in exts]
    for t in range(1, p.n + 1):
        for combo in combinations(range(len(exts)), t):
            meet = -1
            for e in combo:
                meet &= masks[e]
            if meet == relations:
                return t, tuple(exts[e] for e in combo)
    raise AssertionError("no realizer among the linear extensions")


@pytest.fixture
def tmp_cache(tmp_path):
    from posetmatrix import ResultCache

    return ResultCache(tmp_path / "cache")
