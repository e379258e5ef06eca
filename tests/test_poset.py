import hashlib
import json
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetmatrix import (
    CapExceeded,
    HyperMatrix,
    InvariantError,
    Poset,
    Realizer,
    antichain,
    boolean_lattice,
    builtin,
    butterfly,
    chain,
    diamond,
    dimension,
    enumerate_patterns,
    hasse_is_tree,
    height,
    identity_matrix,
    is_isomorphic,
    is_realizer,
    linear_extensions,
    load_poset,
    pattern_order,
    realizer_to_matrix,
    subposet_embeds,
    vee,
)
from posetmatrix.family import cube_order
from posetmatrix.hypermatrix import all_cells
from posetmatrix.poset import BUILTIN_SPELLINGS, DIMENSION_SIZE_CAP, _order_masks, load_poset_obj
from posetmatrix.rng import make_rng

from conftest import (
    brute_covers,
    brute_dimension,
    brute_hasse_is_tree,
    brute_height,
    brute_patterns,
    mat,
)

DATA = Path(__file__).parent / "data"

def standard_example_3() -> Poset:
    """Three atoms under the three 2-subsets of {1,2,3}; order dimension 3."""
    bots = ["1", "2", "3"]
    tops = ["12", "13", "23"]
    pairs = [(b, t) for b in bots for t in tops if b in t]
    return Poset.from_pairs(bots + tops, pairs)


def test_builtin_shapes():
    assert chain(3).n == 3 and height(chain(3)) == 3
    assert antichain(4).n == 4 and height(antichain(4)) == 1
    d = diamond()
    assert d.n == 4 and height(d) == 3
    assert sum(map(int.bit_count, d.up)) == 5
    assert not (d.up[1] | d.down[1]) >> 2 & 1  # the one incomparable pair: b, c
    v = vee(3)
    assert v.n == 4 and height(v) == 2 and sum(map(int.bit_count, v.up)) == 3
    b = butterfly()
    assert b.n == 4 and sum(map(int.bit_count, b.up)) == 4
    bl = boolean_lattice(3)
    assert bl.n == 8 and height(bl) == 4
    assert bl.elements[0] == "{}" and bl.elements[-1] == "{1,2,3}"


def test_boolean_lattice_is_strict_inclusion():
    for m in range(6):
        order = cube_order(m)
        bl = boolean_lattice(m)
        assert bl.n == len(order)
        for i, s in enumerate(order):
            assert bl.elements[i] == "{" + ",".join(str(e) for e in range(1, m + 1) if s >> e - 1 & 1) + "}"
            assert bl.up[i] == sum(1 << j for j, t in enumerate(order) if s != t and s & t == s)


def test_builtin_parser():
    assert builtin("chain:4").n == 4
    assert builtin("vee:2").n == 3
    assert builtin("boolean:2").n == 4
    with pytest.raises(ValueError, match="unknown poset"):
        builtin("zigzag:3")
    with pytest.raises(ValueError):
        builtin("chain:0")
    # leading zeros are not digits of the size
    assert builtin("chain:007") == chain(7)
    assert builtin("chain:" + "0" * 5000 + "7") == chain(7)


def builtin_fingerprint(load, spec: str) -> str:
    """sha256 of the sorted-key JSON of load(spec).to_obj(), or the text of
    the ValueError that load raises."""
    try:
        text = json.dumps(load(spec).to_obj(), sort_keys=True)
    except ValueError as exc:
        return str(exc)
    return hashlib.sha256(text.encode()).hexdigest()


UNKNOWN = "unknown poset 'zigzag'; use chain:k, antichain:k, diamond, vee:r, butterfly, boolean:m, or a JSON file path"


@pytest.mark.parametrize(
    "spec, want",
    [
        ("chain:007", "e2bc2638e11d14d73f5f441a122bfaadda45b9ac29dcbca3de190a937a99f270"),
        pytest.param(
            "chain:" + "0" * 5000 + "7",
            "e2bc2638e11d14d73f5f441a122bfaadda45b9ac29dcbca3de190a937a99f270",
            id="chain:<5000 zeros>7",
        ),
        ("boolean:11", "1b62ce4c66b199e2639f24a38c5ce710bd8bcf76ceaef2e96b61e33cfd3dc064"),
        ("vee:2047", "c6dce9d2828d18edecd88acef05ace63b8d2889a958c85ff135da92927a57fc2"),
        ("diamond", "17670dc91813f9071f6299b3e977fbcccc679bf7dc4ed29ea2f8e3f8e3d86dbb"),
        ("butterfly", "bd003af4a20f4007072f419cb1c9e60e2b462f2749bc6c3de1a5b8ffab97a8b0"),
        ("zigzag", UNKNOWN),
        pytest.param(
            "chain:" + "9" * 5000,
            "poset chain:" + "9" * 5000 + " has more than 2048 elements",
            id="chain:<5000 nines>",
        ),
    ],
)
def test_builtin_spellings_are_frozen(spec, want):
    # every spelling goes through the one builtin table, by name or by
    # load_poset (which reads an unknown name as a file path instead)
    assert builtin_fingerprint(builtin, spec) == want
    if want != UNKNOWN:
        assert builtin_fingerprint(load_poset, spec) == want


def test_builtin_spellings_match_whole_names():
    # `$` matches before a trailing newline too: "chain:3\n" once named
    # chain(3), while "diamond\n" was read as a file name
    for spec in ("chain:3\n", "diamond\n", "vee:2\n"):
        with pytest.raises(ValueError, match="unknown poset"):
            builtin(spec)


def test_listed_builtin_spellings_all_build():
    # the help and the unknown-name message list the one table's spellings
    for spelling in BUILTIN_SPELLINGS.split(", "):
        kind, _, size = spelling.partition(":")
        assert builtin(f"{kind}:2" if size else kind).n >= 2


def test_validation_catches_bad_orders():
    with pytest.raises(InvariantError, match="irreflexive"):
        Poset(("a",), (1,))
    with pytest.raises(InvariantError, match="antisymmetric"):
        Poset(("a", "b"), (2, 1))
    with pytest.raises(InvariantError, match="transitive"):
        # a < b < c recorded without a < c
        Poset(("a", "b", "c"), (2, 4, 0))
    with pytest.raises(InvariantError, match="labels"):
        Poset(("a", "a"), (0, 0))
    with pytest.raises(InvariantError, match="table size"):
        Poset(("a", "b"), (0,))


# tables that break several axioms: the message names the first fault met
# walking i, then j above i in ascending order (irreflexive at i, then
# antisymmetric and transitive at each j)
@pytest.mark.parametrize(
    "up, message",
    [
        ((0b0110, 0b1000, 0b0001, 0), "transitive: a < b but not everything above b"),
        ((0b0110, 0b0001, 0b1000, 0), "antisymmetric: a and b below each other"),
        ((0b010, 0b011, 0), "antisymmetric: a and b below each other"),
        ((0b011, 0b001, 0), "irreflexive: a < itself"),
        ((0b010, 0b101, 0), "antisymmetric: a and b below each other"),
        ((0b00100, 0b01011, 0b00010, 0b10100, 0), "transitive: a < c but not everything above c"),
        ((0b1100, 0b0110, 0b1000, 0b0100), "irreflexive: b < itself"),
    ],
)
def test_validation_names_the_first_fault(up, message):
    with pytest.raises(InvariantError) as exc:
        Poset(tuple("abcde"[: len(up)]), up)
    assert str(exc.value) == message


# int() would read 2.5 as 2 and build a < b; True would be read as 1 and
# reported as a below itself
@pytest.mark.parametrize("mask", [2.5, True])
def test_validation_rejects_non_integer_masks(mask):
    with pytest.raises(InvariantError, match="integer relation mask"):
        Poset(("a", "b"), (mask, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: chain(2.5),
        lambda: antichain(2.0),
        lambda: boolean_lattice(2.0),
        lambda: vee(True),
    ],
    ids=["chain", "antichain", "boolean_lattice", "vee"],
)
def test_builtin_sizes_reject_non_integers(call):
    with pytest.raises(InvariantError, match="integer size"):
        call()


def test_from_pairs_closure():
    p = Poset.from_pairs("abc", [("a", "b"), ("b", "c")])
    assert p.less(0, 2)
    assert height(p) == 3
    # covers given in any order close to the whole chain
    q = Poset.from_pairs("abcd", [("c", "d"), ("a", "b"), ("b", "c")])
    assert q.up == (0b1110, 0b1100, 0b1000, 0)
    # the same table given directly, without closure, is rejected
    with pytest.raises(InvariantError, match="transitive"):
        Poset(("a", "b", "c"), (0b010, 0b100, 0))
    # a cycle closes to an element below itself
    with pytest.raises(InvariantError, match="irreflexive"):
        Poset.from_pairs("ab", [("a", "b"), ("b", "a")])


def test_from_pairs_labels_pairs_like_elements():
    # element labels are str()-ed, so the pair labels are too
    p = Poset.from_pairs([1, 2], [(1, 2)])
    assert p.elements == ("1", "2") and p.up == (0b10, 0)
    with pytest.raises(InvariantError, match="over listed elements"):
        Poset.from_pairs([1, 2], [(1, 3)])
    # JSON files still need string labels
    with pytest.raises(InvariantError, match="string pairs"):
        load_poset_obj({"elements": ["1", "2"], "covers": [[1, 2]]})


def test_covers_and_round_trip():
    d = diamond()
    assert set(d.covers) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    again = Poset.from_pairs(
        d.to_obj()["elements"], [tuple(c) for c in d.to_obj()["covers"]]
    )
    assert again.up == d.up


@st.composite
def shuffled_posets(draw):
    """A poset on at most 7 elements, from relations a < b between labels
    closed transitively, with the labels listed in a random order so that
    element indices need not follow the order."""
    k = draw(st.integers(1, 7))
    pairs = draw(st.sets(st.sampled_from(list(combinations(range(k), 2))))) if k > 1 else set()
    order = draw(st.permutations(range(k)))
    return Poset.from_pairs([str(x) for x in order], [(str(a), str(b)) for a, b in pairs])


@settings(max_examples=150, deadline=None, database=None)
@given(shuffled_posets())
# dimension 3: the standard example S_3 beside one more element
@example(Poset.from_pairs(
    ["1", "2", "3", "12", "13", "23", "x"],
    [(b, t) for b in "123" for t in ("12", "13", "23") if b in t],
))
def test_order_facts_match_brute_force(p):
    assert list(p.covers) == brute_covers(p)
    assert p.down == tuple(sum(1 << i for i in range(p.n) if p.less(i, j)) for j in range(p.n))
    assert height(p) == brute_height(p)
    assert hasse_is_tree(p) == brute_hasse_is_tree(p)
    t, r = dimension(p)
    assert (t, r.extensions) == brute_dimension(p, list(linear_extensions(p)))


@settings(max_examples=100, deadline=None, database=None)
@given(shuffled_posets())
def test_each_extension_orders_each_incomparable_pair_one_way(p):
    # the masks `is_realizer` reads: each linear extension holds every
    # related pair and puts each incomparable pair one way round (only
    # `is_realizer` covers the incomparable pairs; `dimension` covers the
    # critical ones)
    n = p.n
    related, incomparable, masks = _order_masks(p, list(linear_extensions(p)))
    for m in masks:
        assert m & related == related
        for x, y in combinations(range(n), 2):
            if incomparable >> x * n + y & 1:
                assert (m >> x * n + y & 1) + (m >> y * n + x & 1) == 1


def test_height_of_a_long_chain():
    # one recursion level per element would pass Python's recursion limit
    assert height(chain(1200)) == 1200


def test_linear_extensions():
    exts = list(linear_extensions(diamond()))
    assert exts == [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert len(list(linear_extensions(antichain(3)))) == 6
    assert list(linear_extensions(chain(3))) == [(0, 1, 2)]
    assert list(linear_extensions(Poset((), ()))) == [()]


def test_linear_extensions_of_a_long_chain():
    # one recursion level per element would pass Python's recursion limit
    gen = linear_extensions(chain(1100))
    assert next(gen) == tuple(range(1100))
    assert next(gen, None) is None


def test_dimension_known_values():
    for k in range(1, 5):
        t, r = dimension(chain(k))
        assert t == 1 and is_realizer(chain(k), r)
    t, r = dimension(antichain(2))
    assert t == 2 and r.extensions == ((0, 1), (1, 0))
    t, r = dimension(diamond())
    assert t == 2
    assert r.labelled(diamond()) == [["a", "b", "c", "d"], ["a", "c", "b", "d"]]
    assert dimension(vee(2))[0] == 2
    assert dimension(butterfly())[0] == 2
    assert dimension(boolean_lattice(2))[0] == 2
    assert dimension(standard_example_3())[0] == 3


def test_dimension_caps():
    with pytest.raises(CapExceeded, match="cap"):
        dimension(boolean_lattice(4))


def test_realizer_checks():
    d = diamond()
    good = ((0, 1, 2, 3), (0, 2, 1, 3))
    assert is_realizer(d, Realizer(good))
    # both orders agree on b before c, so the intersection adds b < c
    assert not is_realizer(d, Realizer(((0, 1, 2, 3), (0, 1, 2, 3))))
    assert not is_realizer(d, Realizer(((0, 1, 2, 3),)))
    assert not is_realizer(d, Realizer(()))
    # orders that are not permutations: an element twice (and one missing),
    # too short, too long
    assert not is_realizer(d, Realizer(((0, 1, 1, 3), (0, 2, 1, 3))))
    assert not is_realizer(d, Realizer(good + ((0, 0, 0, 0),)))
    assert not is_realizer(d, Realizer(((0, 1, 2), (0, 2, 1, 3))))
    assert not is_realizer(d, Realizer(good + ((0, 1, 2, 3, 0),)))
    # an antichain has no relation to break: only the permutation check
    # refuses these
    a = antichain(3)
    assert not is_realizer(a, Realizer(((0, 1, 2), (2, 1, 0), (1, 1, 1))))
    assert not is_realizer(a, Realizer(((0, 1, 2), (2, 1, 0), (0, 1))))


@pytest.mark.parametrize(
    "p, t, extensions, ones",
    [
        (
            boolean_lattice(3),
            3,
            (
                (0, 1, 2, 4, 3, 5, 6, 7),
                (0, 1, 3, 5, 2, 4, 6, 7),
                (0, 2, 3, 6, 1, 4, 5, 7),
            ),
            (
                (1, 1, 1), (2, 2, 5), (3, 5, 2), (4, 6, 6),
                (5, 3, 3), (6, 4, 7), (7, 7, 4), (8, 8, 8),
            ),
        ),
        (
            antichain(8),
            2,
            ((0, 1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1, 0)),
            ((1, 8), (2, 7), (3, 6), (4, 5), (5, 4), (6, 3), (7, 2), (8, 1)),
        ),
    ],
    ids=["boolean:3", "antichain:8"],
)
def test_dimension_witness_at_the_size_cap(p, t, extensions, ones):
    # frozen: the lexicographically least realizer and its permutation matrix
    # at DIMENSION_SIZE_CAP elements
    d, r = dimension(p)
    assert (d, r.extensions) == (t, extensions)
    m = realizer_to_matrix(p, r)
    assert m.dims == (p.n,) * t and m.ones == ones


def test_dimension_of_the_standard_example_beside_two_points():
    # frozen from the search before the last order was read off per-pair
    # bitsets (over 3 minutes there): S_3 with two isolated elements has
    # 2,688 linear extensions
    p = load_poset(str(DATA / "s3_plus_2.json"))
    d, r = dimension(p)
    assert d == 3
    assert r.labelled(p) == [
        ["a1", "a2", "b3", "a3", "b1", "b2", "c1", "c2"],
        ["a1", "a3", "b2", "a2", "b1", "b3", "c1", "c2"],
        ["c2", "c1", "a2", "a3", "b1", "a1", "b2", "b3"],
    ]


def test_dimension_of_the_standard_example_s4():
    # frozen from the search that covered every incomparable pair (about
    # 13 s there): S_4 has dimension 4, and each order reverses one a_i b_i
    p = load_poset(str(DATA / "s4.json"))
    d, r = dimension(p)
    assert d == 4
    assert r.labelled(p) == [
        ["a1", "a2", "a3", "b4", "a4", "b1", "b2", "b3"],
        ["a1", "a2", "a4", "b3", "a3", "b1", "b2", "b4"],
        ["a1", "a3", "a4", "b2", "a2", "b1", "b3", "b4"],
        ["a2", "a3", "a4", "b1", "a1", "b2", "b3", "b4"],
    ]


def test_dimension_realizes_random_posets_at_the_size_cap():
    # brute_dimension is too slow at 8 elements; the definitional
    # is_realizer, on incomparable pairs, still checks the witness
    rng = make_rng(0, "poset:dimension-at-cap")
    for _ in range(24):
        labels = [str(x) for x in range(DIMENSION_SIZE_CAP)]
        rng.shuffle(labels)
        prob = rng.choice((0.2, 0.35, 0.5))
        pairs = [(a, b) for a, b in combinations(labels, 2) if rng.random() < prob]
        p = Poset.from_pairs(sorted(labels), pairs)
        t, r = dimension(p)
        assert r.order_count == t and is_realizer(p, r), p


@pytest.mark.parametrize(
    "spec", ["chain:3", "antichain:3", "diamond", "vee:2", "butterfly", "boolean:2"]
)
def test_is_realizer_matches_intersection_definition(spec):
    # a realizer is a tuple of linear orders whose intersection is p: the
    # pairs (a, b) with a before b in every order are exactly p's relations
    p = builtin(spec)
    relations = {(i, j) for i in range(p.n) for j in range(p.n) if p.less(i, j)}

    def realizes(orders) -> bool:
        before = [{(a, b) for k, a in enumerate(o) for b in o[k + 1 :]} for o in orders]
        return set.intersection(*before) == relations

    exts = list(linear_extensions(p))
    perms = list(permutations(range(p.n)))
    tuples = [t for k in (1, 2, 3) for t in product(exts, repeat=k)]
    # orders that are not linear extensions, too
    tuples += [t for k in (1, 2) for t in product(perms, repeat=k)]
    assert any(realizes(t) for t in tuples)
    for orders in tuples:
        assert is_realizer(p, Realizer(orders)) == realizes(orders), orders


def test_realizer_to_matrix_diamond():
    d = diamond()
    t, r = dimension(d)
    m = realizer_to_matrix(d, r)
    assert m.dims == (4, 4)
    assert m.ones == ((1, 1), (2, 3), (3, 2), (4, 4))
    from posetmatrix import is_permutation_matrix

    assert is_permutation_matrix(m)
    with pytest.raises(ValueError, match="realize"):
        realizer_to_matrix(d, Realizer(((0, 1, 2, 3), (0, 1, 2, 3))))


def test_pattern_order_uses_componentwise_dominance():
    # sharing a row keeps 1s comparable: this is a 2-chain, not an antichain
    assert is_isomorphic(pattern_order(mat("11")), chain(2))
    assert is_isomorphic(pattern_order(mat("11", "11")), diamond())
    assert is_isomorphic(pattern_order(identity_matrix(3)), chain(3))
    assert is_isomorphic(
        pattern_order(HyperMatrix((2, 2), ((1, 2), (2, 1)))), antichain(2)
    )


def test_pattern_order_matches_pairwise_dominance():
    # the definition pair by pair: a is below b when no coordinate decreases
    rng = make_rng(5, "poset:pattern-order")
    for _ in range(400):
        dims = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        cells = all_cells(dims)
        m = HyperMatrix(dims, rng.sample(cells, rng.randint(0, min(len(cells), 30))))
        up = tuple(
            sum(1 << j for j, b in enumerate(m.ones) if a != b and all(x <= y for x, y in zip(a, b)))
            for a in m.ones
        )
        assert pattern_order(m).up == up, m


def test_realizer_matrix_order_matches_poset():
    for p in (diamond(), vee(2), butterfly(), antichain(3)):
        t, r = dimension(p)
        assert is_isomorphic(pattern_order(realizer_to_matrix(p, r)), p)


def test_is_isomorphic():
    assert is_isomorphic(boolean_lattice(2), diamond())
    assert not is_isomorphic(diamond(), butterfly())
    assert not is_isomorphic(chain(3), vee(2))
    with pytest.raises(CapExceeded):
        is_isomorphic(boolean_lattice(4), boolean_lattice(4))


def test_enumerate_patterns_counts():
    assert len(enumerate_patterns(diamond(), 2)) == 16
    assert len(enumerate_patterns(chain(2), 2)) == 3
    assert len(enumerate_patterns(antichain(2), 2)) == 1
    with pytest.raises(ValueError):
        enumerate_patterns(diamond(), 3)


def test_enumerate_patterns_are_valid():
    pats = enumerate_patterns(vee(2), 2)
    assert len(pats) == len({(a.dims, a.ones) for a in pats})
    for a in pats:
        assert is_isomorphic(pattern_order(a), vee(2))
        # no empty row or column
        for axis in range(2):
            assert len({o[axis] for o in a.ones}) == a.dims[axis]


@pytest.mark.parametrize(
    "spec",
    ["chain:1", "chain:2", "chain:3", "chain:4", "antichain:1", "antichain:2",
     "antichain:3", "antichain:4", "vee:1", "vee:2", "vee:3", "diamond",
     "butterfly", "boolean:2"],
)
def test_enumerate_patterns_matches_brute_force(spec):
    p = builtin(spec)
    assert [(a.dims, a.ones) for a in enumerate_patterns(p, 2)] == [
        (a.dims, a.ones) for a in brute_patterns(p)
    ]


@pytest.mark.parametrize("k", range(1, 7))
def test_chain_pattern_count_closed_form(k):
    # read in order, each step between consecutive 1s of a chain pattern
    # goes right, down or diagonally, and the steps fix the matrix
    assert len(enumerate_patterns(chain(k), 2)) == 3 ** (k - 1)


def test_realizer_rejects_non_integer_entries():
    # unchecked, is_realizer would index a list with 0.0 and raise TypeError
    with pytest.raises(InvariantError, match="integer realizer entry"):
        is_realizer(chain(2), Realizer(((0.0, 1.0),)))


def test_subposet_embeds():
    d = diamond()
    assert subposet_embeds(vee(2), d, induced=False)
    assert subposet_embeds(vee(2), d, induced=True)
    assert subposet_embeds(chain(3), d, induced=False)
    assert not subposet_embeds(butterfly(), d, induced=False)
    # weak copy of a 3-antichain needs any 3 elements; induced needs them
    # pairwise incomparable, which the diamond lacks
    assert subposet_embeds(antichain(3), d, induced=False)
    assert not subposet_embeds(antichain(3), d, induced=True)
    # a 4-chain weakly absorbs the diamond through any linear extension but
    # cannot host it induced
    assert subposet_embeds(d, chain(4), induced=False)
    assert not subposet_embeds(d, chain(4), induced=True)
    assert subposet_embeds(chain(2), chain(4), induced=True)


def test_load_poset_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(diamond().to_obj()))
    p = load_poset(str(path))
    assert is_isomorphic(p, diamond())
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    with pytest.raises(InvariantError, match="valid JSON"):
        load_poset(str(bad))
    with pytest.raises(OSError):
        load_poset(str(tmp_path / "missing.json"))
