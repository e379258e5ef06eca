"""Families of subsets of {1..n} under inclusion, and Lubell-style weights.

Sets are bitmasks (bit i-1 = element i).  A family keeps insertion order so
witnesses round-trip byte-identically, but equality of content is what the
containment routines care about.  `inclusion_tables` is the one builder of
the inclusion order: containment, the copies of a poset in the cube and
`poset.boolean_lattice` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .embed import find_order_embedding, order_embeddings
from .errors import InvariantError, json_int, load_json_file


def elements(mask: int) -> list[int]:
    """The elements of the set with this mask, ascending."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of {1..n}, kept in the order given."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = json_int(self.n, "ground set size")
        masks = tuple(json_int(m, "set mask") for m in self.masks)
        if n < 0:
            raise InvariantError("ground set size", f"n={n}")
        if len(set(masks)) != len(masks):
            raise InvariantError("duplicate set in family", f"{masks}")
        for m in masks:
            if m < 0 or m >> n:
                raise InvariantError("set element out of range", f"mask {m} with n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)

    @property
    def size(self) -> int:
        return len(self.masks)

    def sets(self) -> list[frozenset[int]]:
        return [frozenset(elements(m)) for m in self.masks]

    def to_obj(self) -> dict:
        return {"n": self.n, "sets": [elements(m) for m in self.masks]}

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        """From sets of elements of {1..n}; a float or bool n or element raises."""
        n = json_int(n, "ground set size")
        masks = []
        for s in sets:
            m = 0
            for e in s:
                e = json_int(e, "set element")
                if e < 1 or e > n:
                    raise InvariantError("set element out of range", f"{e} with n={n}")
                m |= 1 << (e - 1)
            masks.append(m)
        return cls(n, tuple(masks))


def load_family_obj(obj) -> SetFamily:
    if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
        raise InvariantError("family object shape", 'need "n" and "sets" keys')
    return SetFamily.from_sets(obj["n"], obj["sets"])


def load_family(path) -> SetFamily:
    return load_json_file(path, "family", load_family_obj)


def inclusion_tables(masks):
    """sup[i] / sub[i]: bitsets of the members strictly above / below member
    i under inclusion (masks distinct).  With holds[e] the members holding
    element e, i's supersets are in holds[e] for every e in i, and its
    subsets in holds[e] for no e outside i: O(k·n) big-int operations."""
    full = (1 << len(masks)) - 1
    holds = [0] * max(masks, default=0).bit_length()
    bit = 1
    for m in masks:
        e = 0
        while m:
            if m & 1:
                holds[e] |= bit
            m >>= 1
            e += 1
        bit <<= 1
    sup = []
    sub = []
    bit = 1
    for m in masks:
        above, outside = full, 0
        for members in holds:
            if m & 1:
                above &= members
            else:
                outside |= members
            m >>= 1
        # member i is in `above` and not in `outside`: the XORs drop it
        sup.append(above ^ bit)
        sub.append(full ^ outside ^ bit)
        bit <<= 1
    return sup, sub


def find_embedding(fam: SetFamily, p, induced: bool):
    """An injection of poset p into the family (subset order), or None.

    induced=True also forbids extra inclusions between image sets.
    """
    sup, sub = inclusion_tables(fam.masks)
    return find_order_embedding(p, sup, sub, (1 << fam.size) - 1, induced)


def family_contains(fam: SetFamily, p, induced: bool) -> bool:
    return find_embedding(fam, p, induced) is not None


def cube_order(n: int) -> list[int]:
    """Every subset of {1..n} as a mask, smaller sets first, then by mask
    value: the order in which `la_exact` decides the sets."""
    return sorted(range(1 << n), key=lambda s: (s.bit_count(), s))


def cube_swaps(n: int) -> list[list[int]]:
    """The swaps of elements i and i+1 of {1..n}, i = 1..n-1, as maps of
    `cube_order` positions: entry j is the position of the image of the
    j-th set.  Each is an involution, and each maps the copies of any poset
    onto themselves."""
    order = cube_order(n)
    index = [0] * len(order)
    for j, s in enumerate(order):
        index[s] = j
    # a set with exactly one of bits i, i+1 moves to the set with the other
    return [
        [index[s ^ 3 << i] if (s >> i ^ s >> i + 1) & 1 else j for j, s in enumerate(order)]
        for i in range(n - 1)
    ]


def occurrence_masks(n: int, p, induced: bool) -> list[int]:
    """Every copy of poset p among the subsets of {1..n}, as a bitmask over
    the subsets in `cube_order` (bit i stands for the i-th set).

    A copy is the image set of one embedding, weak or induced.  Whether a set
    of members is an induced copy depends only on those members, so a family
    contains p exactly when some mask is a subset of its members.  The images
    of embeddings that differ by an automorphism of p coincide and are kept
    once; the masks come sorted, hence grouped by highest set.
    """
    sup, sub = inclusion_tables(cube_order(n))
    embeddings = order_embeddings(p, sup, sub, (1 << len(sup)) - 1, induced)
    return sorted({sum(1 << t for t in image) for image in embeddings})


def lubell(fam: SetFamily) -> Fraction:
    """Sum of 1/C(n, |S|) over members; at most the number of maximal chains
    through any one set, so antichains give at most 1."""
    return shifted_lubell(fam, 1)


def shifted_lubell(fam: SetFamily, d: int) -> Fraction:
    """Weight with each member's size shifted by d-1 inside a ground set
    padded by 2d-2, matching the prefix-union construction in d parts."""
    if d < 1:
        raise ValueError("d must be positive")
    big = fam.n + 2 * d - 2
    return sum(
        (Fraction(1, comb(big, m.bit_count() + d - 1)) for m in fam.masks), Fraction(0)
    )


def middle_levels(n: int, m: int) -> SetFamily:
    """Union of the m middle size-levels of the n-cube, smaller sizes first."""
    if n < 0 or m < 1 or m > n + 1:
        raise ValueError(f"need 0 <= n and 1 <= m <= n+1, got n={n} m={m}")
    # center the window: lowest included size is ceil((n-m+1)/2)
    lo = max(0, -(-(n - m + 1) // 2))
    hi = lo + m - 1
    return SetFamily(n, tuple(s for s in cube_order(n) if lo <= s.bit_count() <= hi))
