from collections import Counter
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmatrix import (
    CapExceeded,
    HyperMatrix,
    InvariantError,
    PermutationPartition,
    Poset,
    SetFamily,
    all_prefix_union_masks,
    builtin,
    chain,
    contains,
    count_partitions_with_prefix,
    diamond,
    dimension,
    double_count_identity,
    enumerate_partitions,
    find_embedding,
    format_partition,
    identity_matrix,
    parse_partition,
    partition_count,
    prefix_matrix_freeness_check,
    prefix_union,
    prefix_union_counts,
    prefix_union_matrix,
    realizer_to_matrix,
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
    for n, d in product(range(0, 5), range(1, 4)):
        counter = {}
        for q in enumerate_partitions(n, d):
            for mask in all_prefix_union_masks(q):
                counter[mask] = counter.get(mask, 0) + 1
        for mask in range(1 << n):
            assert counter.get(mask, 0) == count_partitions_with_prefix(
                n, d, mask.bit_count()
            )
        # the shared count table is the same enumeration, one entry per mask
        assert prefix_union_counts(n, d) == tuple(counter.get(m, 0) for m in range(1 << n))
    # a float d is refused, not served from the entry for the int
    with pytest.raises(InvariantError, match="integer part count: 2.0"):
        prefix_union_counts(2, 2.0)


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


def test_freeness_check_rejects_bad_trials_and_n():
    # no trials would be a vacuous pass; a negative n must be named, not
    # surface as a negative shift count
    p = diamond()
    _, realizer = dimension(p)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials >= 1"):
            prefix_matrix_freeness_check(p, realizer, trials=trials, n=4, seed=0)
    with pytest.raises(ValueError, match="n >= 0"):
        prefix_matrix_freeness_check(p, realizer, trials=5, n=-1, seed=0)


def test_prefix_union_ones_match_the_matrix_and_contains():
    # the freeness check's trial matrix (runs, bitset family, `_match`)
    # against the validated objects and `contains`
    rng = make_rng(0, "test:prefix-union-ones")
    patterns = {
        2: [identity_matrix(2)]
        + [realizer_to_matrix(p, dimension(p)[1]) for p in (diamond(), builtin("vee:2"))],
        3: [identity_matrix(2, 3), HyperMatrix((1, 2, 2), ((1, 1, 2), (1, 2, 1)))],
    }
    verdicts = Counter()
    for _ in range(400):
        n, d = rng.randint(3, 6), rng.randint(2, 3)
        perm = rng.sample(range(1, n + 1), n)
        cuts = sorted(rng.randint(0, n) for _ in range(d - 1))
        density = rng.random()
        keep = sum(1 << m for m in range(1 << n) if rng.random() < density)
        parts = doublecount._runs(perm, cuts)
        dims, ones = doublecount._prefix_union_ones(parts, lambda u: keep >> u & 1)
        fam = SetFamily(n, tuple(m for m in range(1 << n) if keep >> m & 1))
        matrix = prefix_union_matrix(PermutationPartition(n, parts), fam)
        assert (dims, tuple(ones)) == (matrix.dims, matrix.ones)
        for pattern in patterns[d]:
            got = doublecount._match(dims, ones, pattern.dims, pattern.ones)
            assert got == contains(matrix, pattern)
            verdicts[d, got] += 1
    assert min(verdicts[d, fits] for d in (2, 3) for fits in (False, True)) >= 20, verdicts


def test_freeness_check_needs_two_orders():
    p = chain(3)
    _, realizer = dimension(p)
    with pytest.raises(ValueError, match="2 linear orders"):
        prefix_matrix_freeness_check(p, realizer, trials=1, n=5, seed=0)


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


def _stars_and_bars(perm, marks) -> tuple[tuple[int, ...], ...]:
    """perm read into runs across len(perm) + len(marks) slots: a slot in
    marks is a bar that starts the next run, any other takes perm's next entry."""
    entries = iter(perm)
    parts = [[]]
    for slot in range(len(perm) + len(marks)):
        if slot in marks:
            parts.append([])
        else:
            parts[-1].append(next(entries))
    return tuple(map(tuple, parts))


def _record_draws(monkeypatch) -> list:
    """The (partition, family) pair of every trial the freeness check runs,
    as it goes, rebuilt from the draws it consumes, whether or not the trial
    goes on to build a matrix."""
    seen = []
    draw = doublecount._draw_trials

    def record(rng, trials, n, d, p):
        for keep, perm, marks in draw(rng, trials, n, d, p):
            fam = SetFamily(n, tuple(m for m in range(1 << n) if keep >> m & 1))
            seen.append((PermutationPartition(n, _stars_and_bars(perm, marks)), fam))
            yield keep, perm, marks

    monkeypatch.setattr(doublecount, "_draw_trials", record)
    return seen


def _fits_sides(q, sides) -> bool:
    """Whether the prefix-union matrix of q is at least as long as the
    pattern on every axis: a run of length l gives l+1 indices."""
    return all(len(part) + 1 >= side for part, side in zip(q.parts, sides))


def test_freeness_check_matches_delete_and_rebuild(monkeypatch):
    seen = _record_draws(monkeypatch)
    drops = 0
    for name in ("diamond", "vee:2", "butterfly", "antichain:2"):
        p = builtin(name)
        _, realizer = dimension(p)
        for n in (3, 4, 5, 6):
            for seed in (0, 1, 3, 7, 11):
                seen.clear()
                prefix_matrix_freeness_check(p, realizer, 6, n=n, seed=seed)
                want, dropped = _delete_and_rebuild(p, realizer.order_count, 6, n, seed)
                assert seen == want, (name, n, seed)
                drops += dropped
    assert drops > 0


def test_freeness_check_builds_a_matrix_only_for_fitting_trials(monkeypatch):
    # a trial too small for the pattern on some axis stops after its draws;
    # every other trial builds its matrix, in trial order
    seen = _record_draws(monkeypatch)
    built = []
    ones = doublecount._prefix_union_ones

    def record(parts, member):
        built.append(parts)
        return ones(parts, member)

    monkeypatch.setattr(doublecount, "_prefix_union_ones", record)
    counts = Counter()
    for name in ("diamond", "vee:2", "butterfly"):
        p = builtin(name)
        _, realizer = dimension(p)
        sides = realizer_to_matrix(p, realizer).dims
        for n in (4, 5, 6):
            seen.clear()
            built.clear()
            prefix_matrix_freeness_check(p, realizer, 40, n=n, seed=n)
            assert len(seen) == 40
            fits = [q.parts for q, _ in seen if _fits_sides(q, sides)]
            assert built == fits, (name, n)
            counts["built"] += len(fits)
            counts["skipped"] += 40 - len(fits)
    assert min(counts.values()) >= 40, counts


def test_freeness_check_reports_exactly_the_fitting_trials(monkeypatch):
    # with every matrix taken for a violation, the report lists each trial
    # that fits, in order and in the check's report format; at n=6 some
    # 2-part matrices fit diamond's 4x4 pattern and some do not
    monkeypatch.setattr(doublecount, "_match", lambda *args: True)
    p = diamond()
    _, realizer = dimension(p)
    sides = realizer_to_matrix(p, realizer).dims
    report = prefix_matrix_freeness_check(p, realizer, 60, n=6, seed=0)
    draws, _ = _delete_and_rebuild(p, 2, 60, 6, 0)
    want = [
        {"trial": trial, "partition": format_partition(q), "family": fam.to_obj()["sets"]}
        for trial, (q, fam) in enumerate(draws)
        if _fits_sides(q, sides)
    ]
    assert 0 < len(want) < 60
    assert report == (60, 0, want)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_fit_from_the_marks_is_the_matrix_size_test(data):
    n, d = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 3))
    marks = sorted(data.draw(st.permutations(range(n + d - 1)))[: d - 1])
    perm = data.draw(st.permutations(range(1, n + 1)))
    pattern_dims = tuple(data.draw(st.lists(st.integers(1, n + 2), min_size=d, max_size=d)))
    parts = doublecount._runs(perm, [m - j for j, m in enumerate(marks)])
    assert parts == _stars_and_bars(perm, marks)
    dims, _ = doublecount._prefix_union_ones(parts, lambda u: True)
    too_small = any(k > s for k, s in zip(pattern_dims, dims))
    assert doublecount._fits(pattern_dims, marks, n) is not too_small


@pytest.mark.parametrize("name", ["diamond", "vee:2", "butterfly", "antichain:2"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_cube_copies_holding_matches_copies(name, n):
    p = builtin(name)
    copies, holding = doublecount._cube_copies(n, p)
    total = len(copies)
    assert list(copies) == sorted(set(copies))
    assert len(holding) == 1 << n
    for i, emb in enumerate(copies):
        bit = 1 << total - 1 - i
        assert [s for s in range(1 << n) if holding[s] & bit] == sorted(emb)
    assert all(h >> total == 0 for h in holding)
    # one copy per induced image, each an induced copy of p
    assert len({frozenset(emb) for emb in copies}) == total
    for emb in copies:
        fam = SetFamily(n, tuple(sorted(emb)))
        assert find_embedding(fam, p, induced=True) is not None


def test_freeness_check_memo_keeps_no_state(monkeypatch):
    seen = _record_draws(monkeypatch)
    p = diamond()
    _, realizer = dimension(p)
    labels = p.elements
    pairs = [(labels[i], labels[j]) for i in range(p.n) for j in range(p.n) if p.up[i] >> j & 1]
    copy = Poset.from_pairs(labels, pairs)
    assert copy == p and copy is not p
    doublecount._cube_copies.cache_clear()
    runs = []
    for q in (p, p, copy):
        seen.clear()
        report = prefix_matrix_freeness_check(q, realizer, 40, n=5, seed=3)
        runs.append((report, list(seen)))
    assert doublecount._cube_copies.cache_info().hits == 2
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1] == _delete_and_rebuild(p, 2, 40, 5, 3)[0]
