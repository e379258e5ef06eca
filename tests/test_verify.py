import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmatrix import HyperMatrix, PermutationPartition, SetFamily, all_cells, projection
from posetmatrix import block_analyze, identity_matrix, random_free_matrix
from posetmatrix import hypermatrix, verify
from posetmatrix.cli import run
from posetmatrix.rng import make_rng


@st.composite
def boxes_with_ones(draw):
    dims = draw(st.sampled_from([(6, 6, 6)]) | st.lists(st.integers(1, 4), min_size=2, max_size=3))
    cells = all_cells(dims)
    kept = draw(st.integers(0, (1 << len(cells)) - 1))
    return tuple(dims), kept


@settings(max_examples=200, deadline=None, database=None)
@given(boxes_with_ones())
def test_projection_sizes_match_projection_weights(box):
    dims, kept = box
    ones = tuple(c for i, c in enumerate(all_cells(dims)) if kept >> i & 1)
    m = HyperMatrix(dims, ones)
    want = [projection(m, j).weight for j in range(1, len(dims) + 1)]
    assert verify._projection_sizes(kept, hypermatrix.box_layout(*dims).axes) == want


@pytest.mark.parametrize("seed", [0, 3])
def test_lw_failure_reports_the_drawn_ones(monkeypatch, seed):
    # every nonempty matrix fails once its projections weigh nothing; the
    # report must list the 1s of the draw as one tuple of cells per trial
    monkeypatch.setattr(verify, "_projection_sizes", lambda kept, layers: [0, 0, 0])
    rng = make_rng(seed, "verify:lw")
    cells = all_cells((6, 6, 6))
    want = []
    for trial in range(8):
        density = rng.uniform(0.02, 0.3)
        ones = tuple(c for c in cells if rng.random() < density)
        if ones:
            want.append({"trial": trial, "ones": [list(c) for c in ones]})
    got = verify._projection_product(8, seed)
    assert got["ok"] is False
    assert got["failures"] == want[:3] and len(want) >= 3


def test_countp_failure_reports_each_disagreeing_set(monkeypatch, capsys):
    # a formula one too high disagrees with the enumeration at every set;
    # the report lists the first five in (n, d, mask) order
    formula = verify.count_partitions_with_prefix
    monkeypatch.setattr(verify, "count_partitions_with_prefix", lambda n, d, f: formula(n, d, f) + 1)
    assert run(["--no-cache", "verify", "countp"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and "trials" not in out
    sets = [(0, 1, []), (0, 2, []), (0, 3, []), (1, 1, []), (1, 1, [1])]
    assert out["failures"] == [{"n": n, "d": d, "set": e, "got": 1, "want": 2} for n, d, e in sets]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("random_only", [False, True])
def test_doublecount_failure_reports_each_family(monkeypatch, capsys, seed, random_only):
    # an identity that fails on every family (or only on the random n=4 ones)
    # lists the exhaustive families in order, then the random draws
    identity = verify.double_count_identity

    def failing(fam, d):
        return identity(fam, d)._replace(equal=random_only and fam.n < 4)

    monkeypatch.setattr(verify, "double_count_identity", failing)
    assert run(["--no-cache", "--seed", str(seed), "verify", "doublecount", "--trials", "8"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["trials"] == 8
    rng = make_rng(seed, "verify:doublecount")
    want = [
        {"n": n, "d": 2, "family": family}
        for n, family in ((0, []), (0, [[]]), (1, []), (1, [[]]), (1, [[1]]))
        if not random_only
    ]
    for trial in range(8):
        d = 2 + trial % 2
        masks = tuple(m for m in range(16) if rng.random() < 0.5)
        want.append({"n": 4, "d": d, "family": SetFamily(4, masks).to_obj()["sets"]})
    assert out["failures"] == want[:5]


@pytest.mark.parametrize("forced", ["limit", "coarse", "both"])
@pytest.mark.parametrize("seed", [0, 3])
def test_blocks_failure_reports_match_the_public_api(monkeypatch, seed, forced):
    # a limit of 0 fails every blockcolumn holding a wide block, and a forced
    # coarse test every trial with a thin block; the report must list them
    # in the order and with the fields of a loop over the public API
    if forced != "coarse":
        monkeypatch.setattr(verify, "wide_block_limit", lambda pattern, side: 0)
    if forced != "limit":
        monkeypatch.setattr(verify, "_match", lambda *args: True)
    rng = make_rng(seed, "verify:blocks")
    id2 = identity_matrix(2)
    want = []
    for trial in range(40):
        dims = (rng.randint(2, 8), rng.randint(2, 8))
        host = random_free_matrix(dims, [id2], rng)
        report = block_analyze(host, id2, 2)
        head = {"trial": trial, "dims": list(dims), "side": 2}
        if forced != "coarse":
            for axis in (1, 2):
                for key, count in report.wide_count(axis).items():
                    want.append(
                        head | {"axis": axis, "column": list(key), "count": count, "limit": 0}
                    )
        if forced != "limit" and report.coarse.weight:
            want.append(head | {"coarse_not_free": True})
    got = verify._block_decomposition(40, seed)
    assert got["ok"] is False
    assert got["failures"] == want[:5] and len(want) >= 5


@pytest.mark.parametrize("seed", [0, 3])
def test_every_blocks_trial_reaches_its_limit(monkeypatch, seed):
    # each trial cuts its host into blocks of a side where some blockcolumn
    # holds as many wide blocks as the lemma allows, so each can fail
    calls = []
    classes = verify._block_classes

    def recording(dims, ones, pdims, pones, side):
        out = classes(dims, ones, pdims, pones, side)
        calls.append((side, out[1]))
        return out

    monkeypatch.setattr(verify, "_block_classes", recording)
    assert verify._block_decomposition(100, seed)["ok"] is True
    assert len(calls) == 100
    for side, wide in calls:
        limit = verify.wide_block_limit(identity_matrix(2), side)
        counts = [c for axis in (1, 2) for c in verify._wide_count(wide, axis).values()]
        assert limit >= 1 and max(counts, default=0) == limit


def _block_contents(trials, seed) -> set:
    """The distinct (sides, local 1s) of the 2x2 blocks holding at least two
    1s over a `verify blocks` run's hosts, cut by hand."""
    rng = make_rng(seed, "verify:blocks")
    contents: dict = {}
    for _ in range(trials):
        dims = (rng.randint(2, 8), rng.randint(2, 8))
        blocks: dict = {}
        for o in random_free_matrix(dims, [identity_matrix(2)], rng).ones:
            b = tuple((c - 1) // 2 for c in o)
            blocks.setdefault(b, []).append(tuple((c - 1) % 2 + 1 for c in o))
        for b, locs in blocks.items():
            if len(locs) >= 2:
                sides = tuple(min(2, n - 2 * i) for n, i in zip(dims, b))
                contents[sides, tuple(locs)] = True
    return set(contents)


@pytest.mark.parametrize("seed", [0, 3])
def test_blocks_run_tests_each_block_content_once(monkeypatch, seed):
    # the wide axes of a block depend only on its sides and local 1s, so a
    # run tests each distinct content once (two projections) and each trial's
    # coarse matrix once; testing every block took about 770 `_match` calls
    contents = _block_contents(100, seed)
    calls = 0
    match = hypermatrix._match

    def counting(*args):
        nonlocal calls
        calls += 1
        return match(*args)

    hypermatrix._wide_axes.cache_clear()
    monkeypatch.setattr(hypermatrix, "_match", counting)
    monkeypatch.setattr(verify, "_match", counting)
    assert verify._block_decomposition(100, seed)["ok"] is True
    assert 0 < len(contents) <= 16
    assert calls <= 100 + 2 * len(contents)


def _constructions(monkeypatch, capsys, *argv) -> int:
    """How many validated matrices, families and partitions a CLI run builds."""
    count = 0

    def counting(check):
        def post_init(self):
            nonlocal count
            count += 1
            check(self)

        return post_init

    with monkeypatch.context() as mp:
        for cls in (HyperMatrix, SetFamily, PermutationPartition):
            mp.setattr(cls, "__post_init__", counting(cls.__post_init__))
        assert run(["--no-cache", *argv]) == 0
    capsys.readouterr()
    return count


@pytest.mark.parametrize("check", ["lw", "counta", "blocks"])
def test_verify_trials_build_no_objects(monkeypatch, capsys, check):
    # what a trial builds grows with the trial count; set-up alone does not
    _constructions(monkeypatch, capsys, "verify", check, "--trials", "10")
    few = _constructions(monkeypatch, capsys, "verify", check, "--trials", "10")
    many = _constructions(monkeypatch, capsys, "verify", check, "--trials", "200")
    assert few == many
