from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmatrix import HyperMatrix, PermutationPartition, SetFamily, all_cells, projection
from posetmatrix import block_analyze, identity_matrix, random_free_matrix
from posetmatrix import verify
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
    assert verify._projection_sizes(kept, verify._first_layers(dims)) == want


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
        side = rng.choice((1, 2))
        report = block_analyze(host, id2, side)
        head = {"trial": trial, "dims": list(dims), "side": side}
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
