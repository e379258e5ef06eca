"""Ordered partitions of a permutation and their prefix-union matrices.

A partition splits a permutation of 1..n into d ordered runs.  Picking an
index into each run and collecting the elements before it yields a prefix
union; the 0-1 matrix of which index vectors land inside a set family is the
bridge between family problems and pattern problems.  The randomized
freeness check reads the n-cube's induced copies of a poset from one table
per (n, poset) (`embed.columns` of the copies), so its trials run no
embedding search; a trial whose matrix is too small for the pattern makes
its draws and stops, building no matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, permutations
from math import comb, factorial
from typing import NamedTuple

from .errors import CapExceeded, InvariantError, json_int
from .embed import columns, order_embeddings
from .family import SetFamily, elements
from .hypermatrix import HyperMatrix, _match, box_layout
from .poset import Poset, Realizer, realizer_to_matrix
from .rng import bernoulli_bits, make_rng

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
    for row, i in zip(_prefix_mask_lists(q.parts), idx):
        if i < 1 or i > len(row):
            raise ValueError(f"index {i} out of range 1..{len(row)}")
        union |= row[i - 1]
    return frozenset(elements(union))


def partition_count(n: int, d: int) -> int:
    """Number of d-part partitions of a permutation of 1..n."""
    n, d = json_int(n, "partition size"), json_int(d, "part count")
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
    return (PermutationPartition(n, _runs(perm, cuts)) for perm in perms for cuts in cut_tuples)


def _runs(perm, cuts) -> tuple[tuple[int, ...], ...]:
    """perm cut into runs before each position in the ascending cuts."""
    bounds = (0, *cuts, len(perm))
    return tuple(tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:]))


def count_partitions_with_prefix(n: int, d: int, f: int) -> int:
    """Number of d-part partitions of 1..n having a given f-set among their
    prefix unions: the set fills the run prefixes, its complement the rest."""
    n, d = json_int(n, "partition size"), json_int(d, "part count")
    f = json_int(f, "prefix set size")
    if not 0 <= f <= n:
        raise ValueError(f"need 0 <= f <= n, got f={f} n={n}")
    return (
        factorial(f + d - 1)
        // factorial(d - 1)
        * (factorial(n - f + d - 1) // factorial(d - 1))
    )


def _prefix_mask_lists(parts) -> list[list[int]]:
    """Per part, the masks of its first 0, 1, .., len(part) entries."""
    lists = []
    for part in parts:
        acc = 0
        row = [0]
        for x in part:
            acc |= 1 << (x - 1)
            row.append(acc)
        lists.append(row)
    return lists


def _prefix_unions(parts) -> list[int]:
    """Each index vector's prefix union as a mask, vectors in lexicographic order."""
    unions = [0]
    for row in _prefix_mask_lists(parts):
        unions = [u | m for u in unions for m in row]
    return unions


def all_prefix_union_masks(q: PermutationPartition) -> set[int]:
    return set(_prefix_unions(q.parts))


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def prefix_union_counts(n: int, d: int) -> tuple[int, ...]:
    """For each mask of 1..n, how many d-part partitions have it among their
    prefix unions, by enumeration: 2^n ints, kept once per (n, d).  The
    partition cap bounds n, hence the table."""
    counts = Counter(chain.from_iterable(map(all_prefix_union_masks, enumerate_partitions(n, d))))
    return tuple(counts[m] for m in range(1 << n))


def prefix_union_matrix(q: PermutationPartition, fam: SetFamily) -> HyperMatrix:
    """0-1 matrix over index vectors, with a 1 where the prefix union is a
    member of the family."""
    if fam.n != q.n:
        raise ValueError(f"family ground set {fam.n} does not match partition {q.n}")
    return HyperMatrix(*_prefix_union_ones(q.parts, set(fam.masks).__contains__))


def _prefix_union_ones(parts, member) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The dims of the prefix-union matrix of these runs, and its 1s: the
    index vectors, in lexicographic order, whose union mask u has member(u)."""
    dims = tuple(len(part) + 1 for part in parts)
    cells = box_layout(*dims).cells
    return dims, [idx for idx, u in zip(cells, _prefix_unions(parts)) if member(u)]


class FreenessReport(NamedTuple):
    trials: int
    seed: int
    violations: list


def prefix_matrix_freeness_check(
    p: Poset, r: Realizer, trials: int, n: int, seed: int
) -> FreenessReport:
    """Randomized check: a family with no induced copy of p yields a
    prefix-union matrix avoiding the poset's permutation matrix.

    Each trial makes the draws of `_draw_trials` (a pruned random family and
    a random partition) and tests the matrix.  A trial whose matrix is too
    small for the pattern along some axis (see `_fits`) stops after its
    draws: it cannot contain the pattern, so it builds no matrix.  The family
    stays a bitset over the masks and the matrix a list of index vectors;
    only a violation is reported as a partition and sets.
    """
    if json_int(trials, "trial count") < 1:
        raise ValueError(f"need trials >= 1, got trials={trials}")
    if json_int(n, "ground set size") < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    d = r.order_count
    if d < 2:
        raise ValueError("need a realizer with at least 2 linear orders")
    pattern = realizer_to_matrix(p, r)
    rng = make_rng(seed, f"freeness:{n}:{d}")
    violations = []
    for trial, (keep, perm, marks) in enumerate(_draw_trials(rng, trials, n, d, p)):
        if not _fits(pattern.dims, marks, n):
            continue
        parts = _runs(perm, [m - j for j, m in enumerate(marks)])
        dims, ones = _prefix_union_ones(parts, lambda u: keep >> u & 1)
        if _match(dims, ones, pattern.dims, pattern.ones):
            violations.append(
                {
                    "trial": trial,
                    "partition": format_partition(PermutationPartition(n, parts)),
                    "family": [elements(m) for m in range(1 << n) if keep >> m & 1],
                }
            )
    return FreenessReport(trials, seed, violations)


def _draw_trials(rng, trials: int, n: int, d: int, p: Poset):
    """Each trial's draws, in stream order: `keep`, a random family of
    subsets of {1..n} as a bitset over the masks, pruned by deleting a random
    member of its first induced copy of p until there is none (the first
    cube copy holding no absent set, see `_cube_copies`); `perm`, a shuffled
    permutation of 1..n; and `marks`, the d-1 sorted bar positions among
    n+d-1 slots that cut perm into d runs.

    `keep` is one `bernoulli_bits` call, the bits of a `random() < 0.5` test
    per mask in order.  The copies an absent set kills are ORed per group of
    4 masks from a table over the group's 16 absence patterns."""
    copies, holding = _cube_copies(n, p)
    total = len(copies)
    full = (1 << total) - 1
    size = 1 << n
    tables = []
    for g in range(0, size, 4):
        table = [0]
        for held in holding[g : g + 4]:
            table += [t | held for t in table]
        tables.append(table)
    spare = [full ^ held for held in holding]
    for _ in range(trials):
        keep = bernoulli_bits(rng, 0.5, size)
        absent = keep ^ (1 << size) - 1
        dead = 0
        for table in tables:
            dead |= table[absent & 15]
            absent >>= 4
        live = full ^ dead
        while live:
            t = rng.choice(copies[total - live.bit_length()])
            keep ^= 1 << t
            live &= spare[t]
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield keep, perm, sorted(rng.sample(range(n + d - 1), d - 1))


def _fits(pattern_dims, marks, n: int) -> bool:
    """Whether the prefix-union matrix of the runs cut at these bar positions
    (among n + len(marks) slots) is at least as long as the pattern on every
    axis: run i lies between bars i-1 and i (sentinels -1 and n + len(marks)),
    and its side, one more than its length, is their distance.  This is the
    size test `_match` makes first."""
    bars = (-1, *marks, n + len(marks))
    return all(k <= b - a for k, a, b in zip(pattern_dims, bars, bars[1:]))


@lru_cache(maxsize=16)  # `verify counta` checks three posets at one n
def _cube_copies(n: int, p: Poset) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The induced embeddings of p into the subsets of {1..n}, as mask
    tuples in lexicographic order, one per automorphism orbit (a family's own
    search has the same order and leaders, its masks being ascending); and
    per mask, the embeddings using it as `embed.columns` of their images
    (embedding i at bit L-1-i of L, so the first one left is L - bit_length)."""
    size = 1 << n
    copies = tuple(order_embeddings(p, range(size), True))
    return copies, tuple(columns([sum(1 << s for s in emb) for emb in copies], size))


class DoubleCountResult(NamedTuple):
    lhs: int
    rhs: int
    equal: bool


def double_count_identity(fam: SetFamily, d: int) -> DoubleCountResult:
    """Count (partition, member) pairs where the member is a prefix union,
    once by the per-size formula and once by enumeration (summed per member
    from the enumerated `prefix_union_counts` table)."""
    if d < 1:
        raise ValueError("d must be positive")
    lhs = sum(count_partitions_with_prefix(fam.n, d, m.bit_count()) for m in fam.masks)
    counts = prefix_union_counts(fam.n, d)
    rhs = sum(counts[m] for m in fam.masks)
    return DoubleCountResult(lhs, rhs, lhs == rhs)
