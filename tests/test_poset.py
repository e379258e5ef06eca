import json
from itertools import permutations, product

import pytest

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
from posetmatrix.poset import load_poset_obj

from conftest import brute_patterns, mat


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
    assert len(d.relation_pairs()) == 5
    assert d.incomparable_pairs() == [(1, 2)]
    v = vee(3)
    assert v.n == 4 and height(v) == 2 and len(v.relation_pairs()) == 3
    b = butterfly()
    assert b.n == 4 and len(b.relation_pairs()) == 4
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


def test_linear_extensions():
    exts = list(linear_extensions(diamond()))
    assert exts == [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert len(list(linear_extensions(antichain(3)))) == 6
    assert list(linear_extensions(chain(3))) == [(0, 1, 2)]


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
    good = Realizer(((0, 1, 2, 3), (0, 2, 1, 3)))
    assert is_realizer(d, good)
    # both orders agree on b before c, so the intersection adds b < c
    assert not is_realizer(d, Realizer(((0, 1, 2, 3), (0, 1, 2, 3))))
    assert not is_realizer(d, Realizer(((0, 1, 2, 3),)))
    assert not is_realizer(d, Realizer(()))


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
