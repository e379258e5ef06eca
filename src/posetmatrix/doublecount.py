"""Ordered partitions of a permutation and their prefix-union matrices.

A partition splits a permutation of 1..n into d ordered runs.  Picking an
index into each run and collecting the elements before it yields a prefix
union; the 0-1 matrix of which index vectors land inside a set family is the
bridge between family problems and pattern problems.  The randomized
freeness check builds a family's inclusion tables once and deletes a member
by clearing its bit in the embedding search's universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial
from typing import NamedTuple

from .errors import CapExceeded, InvariantError, json_int
from .embed import find_order_embedding
from .family import SetFamily, elements, inclusion_tables
from .hypermatrix import HyperMatrix, contains
from .poset import Poset, Realizer, realizer_to_matrix
from .rng import make_rng

PARTITION_CAP = 10_000_000


@dataclass(frozen=True)
class PermutationPartition:
    """d ordered runs whose concatenation is a permutation of 1..n."""

    n: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = json_int(self.n, "partition size")
        parts = tuple(tuple(json_int(x, "partition entry") for x in part) for part in self.parts)
        if not parts:
            raise InvariantError("at least one part", "no parts given")
        flat = [x for part in parts for x in part]
        if sorted(flat) != list(range(1, n + 1)):
            raise InvariantError(
                "parts form a permutation", f"concatenation {flat} is not 1..{n}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", parts)

    @property
    def d(self) -> int:
        return len(self.parts)


def parse_partition(text: str) -> PermutationPartition:
    """Parse "142|5|3" (digits, n <= 9) or "1,4,2|5|3"; empty runs allowed."""
    parts = []
    for chunk in text.split("|"):
        if not chunk:
            parts.append(())
        elif "," in chunk:
            parts.append(tuple(int(x) for x in chunk.split(",")))
        else:
            parts.append(tuple(int(ch) for ch in chunk))
    n = sum(len(p) for p in parts)
    return PermutationPartition(n, tuple(parts))


def format_partition(q: PermutationPartition) -> str:
    joiner = "" if q.n <= 9 else ","
    return "|".join(joiner.join(str(x) for x in part) for part in q.parts)


def prefix_union(q: PermutationPartition, idx) -> frozenset[int]:
    """Union of the first idx[j]-1 entries of each part; idx[j] ranges over
    1..len(part)+1."""
    idx = tuple(json_int(i, "prefix index") for i in idx)
    if len(idx) != q.d:
        raise ValueError(f"index vector has {len(idx)} entries for {q.d} parts")
    union = 0
    for row, i in zip(_prefix_mask_lists(q), idx):
        if i < 1 or i > len(row):
            raise ValueError(f"index {i} out of range 1..{len(row)}")
        union |= row[i - 1]
    return frozenset(elements(union))


def partition_count(n: int, d: int) -> int:
    """Number of d-part partitions of a permutation of 1..n."""
    return factorial(n) * comb(n + d - 1, d - 1)


def enumerate_partitions(n: int, d: int):
    """All partitions, permutation-major lexicographic then cut positions
    ascending.  Raises at once when there are more than PARTITION_CAP."""
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n} d={d}")
    total = partition_count(n, d)
    if total > PARTITION_CAP:
        raise CapExceeded(f"{total} partitions exceeds the enumeration cap ({PARTITION_CAP})")
    cut_tuples = list(combinations_with_replacement(range(n + 1), d - 1))
    perms = permutations(range(1, n + 1))
    return (_split(perm, cuts) for perm in perms for cuts in cut_tuples)


def _split(perm, cuts) -> PermutationPartition:
    """perm cut into runs before each position in the ascending cuts."""
    bounds = (0, *cuts, len(perm))
    runs = tuple(tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:]))
    return PermutationPartition(len(perm), runs)


def count_partitions_with_prefix(n: int, d: int, f: int) -> int:
    """Number of d-part partitions of 1..n having a given f-set among their
    prefix unions: the set fills the run prefixes, its complement the rest."""
    if not 0 <= f <= n:
        raise ValueError(f"need 0 <= f <= n, got f={f} n={n}")
    return (
        factorial(f + d - 1)
        // factorial(d - 1)
        * (factorial(n - f + d - 1) // factorial(d - 1))
    )


def _prefix_mask_lists(q: PermutationPartition) -> list[list[int]]:
    """Per part, the masks of its first 0, 1, .., len(part) entries."""
    lists = []
    for part in q.parts:
        acc = 0
        row = [0]
        for x in part:
            acc |= 1 << (x - 1)
            row.append(acc)
        lists.append(row)
    return lists


def _prefix_unions(q: PermutationPartition) -> list[int]:
    """Each index vector's prefix union as a mask, vectors in lexicographic order."""
    unions = [0]
    for row in _prefix_mask_lists(q):
        unions = [u | m for u in unions for m in row]
    return unions


def all_prefix_union_masks(q: PermutationPartition) -> set[int]:
    return set(_prefix_unions(q))


def prefix_union_matrix(q: PermutationPartition, fam: SetFamily) -> HyperMatrix:
    """0-1 matrix over index vectors, with a 1 where the prefix union is a
    member of the family."""
    if fam.n != q.n:
        raise ValueError(f"family ground set {fam.n} does not match partition {q.n}")
    member = set(fam.masks)
    dims = tuple(len(part) + 1 for part in q.parts)
    vectors = product(*(range(1, s + 1) for s in dims))
    ones = tuple(idx for idx, u in zip(vectors, _prefix_unions(q)) if u in member)
    return HyperMatrix(dims, ones)


class FreenessReport(NamedTuple):
    trials: int
    seed: int
    violations: list


def prefix_matrix_freeness_check(
    p: Poset, r: Realizer, trials: int, n: int = 5, seed: int = 0
) -> FreenessReport:
    """Randomized check: a family with no induced copy of p yields a
    prefix-union matrix avoiding the poset's permutation matrix.

    Each trial draws a random family, deletes a random member of the first
    induced copy of p until there is none, draws a random partition, and
    tests the matrix.
    """
    d = r.order_count
    if d < 2:
        raise ValueError("need a realizer with at least 2 linear orders")
    pattern = realizer_to_matrix(p, r)
    rng = make_rng(seed, f"freeness:{n}:{d}")
    violations = []
    for trial in range(trials):
        masks = tuple(m for m in range(1 << n) if rng.random() < 0.5)
        sup, sub = inclusion_tables(masks)
        keep = (1 << len(masks)) - 1
        while (emb := find_order_embedding(p, sup, sub, keep, True)) is not None:
            keep ^= 1 << rng.choice(emb)
        fam = SetFamily(n, tuple(m for i, m in enumerate(masks) if keep >> i & 1))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        marks = sorted(rng.sample(range(n + d - 1), d - 1))
        q = _split(perm, [m - j for j, m in enumerate(marks)])
        matrix = prefix_union_matrix(q, fam)
        if contains(matrix, pattern):
            violations.append(
                {
                    "trial": trial,
                    "partition": format_partition(q),
                    "family": fam.to_obj()["sets"],
                }
            )
    return FreenessReport(trials, seed, violations)


class DoubleCountResult(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def double_count_identity(fam: SetFamily, d: int) -> DoubleCountResult:
    """Count (partition, member) pairs where the member is a prefix union,
    once by the per-size formula and once by enumeration."""
    if d < 1:
        raise ValueError("d must be positive")
    lhs = sum(count_partitions_with_prefix(fam.n, d, m.bit_count()) for m in fam.masks)
    member = set(fam.masks)
    rhs = 0
    for q in enumerate_partitions(fam.n, d):
        rhs += len(all_prefix_union_masks(q) & member)
    return DoubleCountResult(lhs, rhs, lhs == rhs)
