"""Shared brute-force oracles, written independently of the library search
code so the two can disagree."""

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


@pytest.fixture
def tmp_cache(tmp_path):
    from posetmatrix import ResultCache

    return ResultCache(tmp_path / "cache")
