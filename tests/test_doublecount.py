from itertools import product
from math import prod

import pytest

from posetmatrix import (
    CapExceeded,
    InvariantError,
    PermutationPartition,
    SetFamily,
    all_prefix_union_masks,
    builtin,
    chain,
    count_partitions_with_prefix,
    diamond,
    dimension,
    double_count_identity,
    enumerate_partitions,
    find_embedding,
    format_partition,
    parse_partition,
    partition_count,
    prefix_matrix_freeness_check,
    prefix_union,
    prefix_union_matrix,
)
from posetmatrix import doublecount
from posetmatrix.rng import make_rng


def test_partition_validation():
    PermutationPartition(3, ((2,), (), (1, 3)))
    with pytest.raises(InvariantError, match="permutation"):
        PermutationPartition(3, ((1, 2), (2, 3)))
    with pytest.raises(InvariantError, match="permutation"):
        PermutationPartition(2, ((1,),))
    with pytest.raises(InvariantError, match="part"):
        PermutationPartition(0, ())


def test_partition_rejects_non_integer_entries():
    # int() would build the run (1, 2) from (1.7, 2)
    with pytest.raises(InvariantError, match="integer partition entry"):
        PermutationPartition(2, ((1.7, 2),))


def test_parse_and_format():
    q = parse_partition("142|5|3")
    assert q.n == 5 and q.parts == ((1, 4, 2), (5,), (3,))
    assert format_partition(q) == "142|5|3"
    assert parse_partition("|12").parts == ((), (1, 2))
    big = parse_partition("10,1,2|3,4,5,6,7,8,9")
    assert big.n == 10
    assert format_partition(big) == "10,1,2|3,4,5,6,7,8,9"
    with pytest.raises(InvariantError):
        parse_partition("11|2")


def test_prefix_union_frozen_example():
    q = parse_partition("142|5|3")
    assert prefix_union(q, (3, 1, 2)) == {1, 3, 4}
    assert prefix_union(q, (1, 1, 1)) == set()
    assert prefix_union(q, (4, 2, 2)) == {1, 2, 3, 4, 5}
    with pytest.raises(ValueError, match="out of range"):
        prefix_union(q, (5, 1, 1))
    with pytest.raises(ValueError, match="entries"):
        prefix_union(q, (1, 1))


def test_prefix_union_rejects_non_integer_indices():
    # int() would read (2.9, True, 1) as (2, 1, 1) and return {1}
    with pytest.raises(InvariantError, match="integer prefix index"):
        prefix_union(parse_partition("142|5|3"), (2.9, True, 1))


def test_enumerate_partitions_small():
    got = {format_partition(q) for q in enumerate_partitions(2, 2)}
    assert got == {"12|", "1|2", "|12", "21|", "2|1", "|21"}
    for n, d in product(range(0, 4), range(1, 4)):
        seen = list(enumerate_partitions(n, d))
        assert len(seen) == partition_count(n, d)
        assert len({(q.parts) for q in seen}) == len(seen)


def test_enumerate_partitions_cap():
    # 10! * C(12, 2) = 239,500,800 partitions, over PARTITION_CAP
    with pytest.raises(CapExceeded, match="cap"):
        enumerate_partitions(10, 3)


def test_prefix_unions_are_distinct_per_partition():
    # one union per index vector: disjoint runs cannot collide
    for n, d in ((3, 2), (4, 2), (4, 3)):
        for q in enumerate_partitions(n, d):
            expect = prod(len(part) + 1 for part in q.parts)
            assert len(all_prefix_union_masks(q)) == expect


def test_prefix_unions_preserve_incomparability():
    q = parse_partition("14|23")
    vectors = list(product(range(1, 4), range(1, 4)))
    unions = {v: prefix_union(q, v) for v in vectors}
    for u in vectors:
        for v in vectors:
            le = all(a <= b for a, b in zip(u, v))
            assert le == (unions[u] <= unions[v])


def test_count_formula_matches_enumeration():
    for n, d in product(range(0, 4), range(1, 4)):
        counter = {}
        for q in enumerate_partitions(n, d):
            for mask in all_prefix_union_masks(q):
                counter[mask] = counter.get(mask, 0) + 1
        for mask in range(1 << n):
            assert counter.get(mask, 0) == count_partitions_with_prefix(
                n, d, mask.bit_count()
            )


def _union_of_prefixes(q, idx) -> frozenset:
    # definition: the first idx[j]-1 entries of each part j, as a set
    return frozenset(x for part, i in zip(q.parts, idx) for x in part[: i - 1])


def _index_vectors(q):
    return product(*(range(1, len(part) + 2) for part in q.parts))


def test_prefix_union_matches_set_definition():
    for n, d in product(range(0, 5), range(1, 4)):
        for q in enumerate_partitions(n, d):
            for idx in _index_vectors(q):
                assert prefix_union(q, idx) == _union_of_prefixes(q, idx)


def test_prefix_union_matrix_matches_set_definition():
    rng = make_rng(0, "test:prefix-union-matrix")
    for _ in range(60):
        n, d = rng.randint(0, 5), rng.randint(1, 3)
        fam = SetFamily(n, tuple(m for m in range(1 << n) if rng.random() < 0.5))
        members = set(fam.sets())
        q = rng.choice(list(enumerate_partitions(n, d)))
        m = prefix_union_matrix(q, fam)
        want = {v for v in _index_vectors(q) if _union_of_prefixes(q, v) in members}
        assert m.dims == tuple(len(part) + 1 for part in q.parts)
        assert set(m.ones) == want


def test_prefix_union_matrix_small():
    q = parse_partition("12|")
    fam = SetFamily.from_sets(2, [{1}])
    m = prefix_union_matrix(q, fam)
    assert m.dims == (3, 1)
    assert m.ones == ((2, 1),)
    with pytest.raises(ValueError, match="ground set"):
        prefix_union_matrix(q, SetFamily(3, ()))


def test_prefix_union_matrix_weight_counts_members():
    # distinct unions mean each family member is hit at most once per
    # partition, so the weight counts the members that occur as unions
    fam = SetFamily.from_sets(3, [set(), {1, 2}, {1, 2, 3}])
    for q in enumerate_partitions(3, 2):
        m = prefix_union_matrix(q, fam)
        hits = all_prefix_union_masks(q) & set(fam.masks)
        assert m.weight == len(hits)


def test_double_count_identity_exhaustive_tiny():
    for n in (0, 1, 2):
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            res = double_count_identity(SetFamily(n, masks), 2)
            assert res.equal, (n, masks, res)


def test_double_count_identity_d3():
    fam = SetFamily.from_sets(3, [{1}, {2, 3}, {1, 2, 3}])
    res = double_count_identity(fam, 3)
    assert res.equal
    assert res.lhs == sum(
        count_partitions_with_prefix(3, 3, len(s)) for s in ({1}, {2, 3}, {1, 2, 3})
    )


def test_freeness_check_runs_clean():
    p = diamond()
    _, realizer = dimension(p)
    report = prefix_matrix_freeness_check(p, realizer, trials=25, n=4, seed=1)
    assert report.trials == 25
    assert report.violations == []


def test_freeness_check_needs_two_orders():
    p = chain(3)
    _, realizer = dimension(p)
    with pytest.raises(ValueError, match="2 linear orders"):
        prefix_matrix_freeness_check(p, realizer, trials=1)


def _delete_and_rebuild(p, d, trials, n, seed):
    """The freeness check's trials done the plain way: rebuild the family
    after every deletion and search it with `find_embedding`.  Returns the
    (partition, family) pair of each trial and the number of deletions."""
    rng = make_rng(seed, f"freeness:{n}:{d}")
    out = []
    drops = 0
    for _ in range(trials):
        fam = SetFamily(n, tuple(m for m in range(1 << n) if rng.random() < 0.5))
        while (emb := find_embedding(fam, p, induced=True)) is not None:
            drop = rng.choice(emb)
            fam = SetFamily(n, tuple(m for i, m in enumerate(fam.masks) if i != drop))
            drops += 1
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        marks = sorted(rng.sample(range(n + d - 1), d - 1))
        bounds = (0,) + tuple(m - j for j, m in enumerate(marks)) + (n,)
        parts = tuple(tuple(perm[bounds[j] : bounds[j + 1]]) for j in range(d))
        out.append((PermutationPartition(n, parts), fam))
    return out, drops


def test_freeness_check_matches_delete_and_rebuild(monkeypatch):
    seen = []

    def record(q, fam):
        seen.append((q, fam))
        return prefix_union_matrix(q, fam)

    monkeypatch.setattr(doublecount, "prefix_union_matrix", record)
    drops = 0
    for name in ("diamond", "vee:2", "butterfly"):
        p = builtin(name)
        _, realizer = dimension(p)
        for n in (4, 5):
            for seed in range(4):
                seen.clear()
                prefix_matrix_freeness_check(p, realizer, 6, n=n, seed=seed)
                want, dropped = _delete_and_rebuild(p, realizer.order_count, 6, n, seed)
                assert seen == want, (name, n, seed)
                drops += dropped
    assert drops > 0
