"""Families of subsets of {1..n} under inclusion, and Lubell-style weights.

Sets are bitmasks (bit i-1 = element i).  A family keeps insertion order so
witnesses round-trip byte-identically, but equality of content is what the
containment routines care about.  Containment and the copies of a poset in
the cube hand their sets to the embedder as they are: its targets are sets
under inclusion.

The n-cube's layout is built once per n per process: `cube_order` (the
order in which `la_exact` decides the sets) and the position of each set in
it, which `cube_swaps` reads.  `middle_window` is the one place the centred
band of middle levels is computed, as a run of those positions:
`middle_levels` slices the order with it and `extremal._la_incumbent` takes
its bands from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .embed import find_order_embedding, order_images
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
        """From sets of elements of {1..n}; a float or bool n or element, or an
        element listed twice in one set, raises."""
        n = json_int(n, "ground set size")
        masks = []
        for s in sets:
            m = 0
            for e in s:
                e = json_int(e, "set element")
                if e < 1 or e > n:
                    raise InvariantError("set element out of range", f"{e} with n={n}")
                if m >> (e - 1) & 1:
                    raise InvariantError("duplicate set element", f"{e} twice in {list(s)}")
                m |= 1 << (e - 1)
            masks.append(m)
        return cls(n, tuple(masks))


def load_family_obj(obj) -> SetFamily:
    if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
        raise InvariantError("family object shape", 'need "n" and "sets" keys')
    return SetFamily.from_sets(obj["n"], obj["sets"])


def load_family(path) -> SetFamily:
    return load_json_file(path, "family", load_family_obj)


def find_embedding(fam: SetFamily, p, induced: bool):
    """An injection of poset p into the family (subset order), or None.

    induced=True also forbids extra inclusions between image sets.
    """
    return find_order_embedding(p, fam.masks, induced)


def family_contains(fam: SetFamily, p, induced: bool) -> bool:
    return find_embedding(fam, p, induced) is not None


class _Layout(NamedTuple):
    order: tuple[int, ...]  # every mask, in `cube_order`
    index: tuple[int, ...]  # index[s]: the position of mask s in `order`


@lru_cache(maxsize=32)  # more n than any cube that fits in memory
def _layout(n: int) -> _Layout:
    """The n-cube's layout, built once per n; called only with an n that
    `json_int` has accepted, so True never gets the entry for 1."""
    order = tuple(sorted(range(1 << n), key=lambda s: (s.bit_count(), s)))
    index = [0] * len(order)
    for j, s in enumerate(order):
        index[s] = j
    return _Layout(order, tuple(index))


def cube_order(n: int) -> tuple[int, ...]:
    """Every subset of {1..n} as a mask, smaller sets first, then by mask
    value: the order in which `la_exact` decides the sets."""
    return _layout(json_int(n, "ground set size")).order


def middle_window(n: int, m: int) -> tuple[int, int]:
    """The m middle size-levels of the n-cube as the `cube_order` positions
    range(start, stop): sizes lo..lo+m-1, centred with lo = ceil((n-m+1)/2)."""
    if json_int(n, "ground set size") < 0 or json_int(m, "level count") < 1 or m > n + 1:
        raise ValueError(f"need 0 <= n and 1 <= m <= n+1, got n={n} m={m}")
    lo = (n - m + 2) // 2
    start = sum(comb(n, k) for k in range(lo))
    return start, start + sum(comb(n, k) for k in range(lo, lo + m))


def cube_swaps(n: int) -> list[list[int]]:
    """The swaps of elements i and i+1 of {1..n}, i = 1..n-1, as maps of
    `cube_order` positions: entry j is the position of the image of the
    j-th set.  Each is an involution, and each maps the copies of any poset
    onto themselves."""
    order, index = _layout(json_int(n, "ground set size"))
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
    contains p exactly when some mask is a subset of its members.  The
    search yields one embedding per automorphism orbit of p, each as its
    image bitset.  An induced copy orders its members exactly like p, so
    its embeddings are one orbit and it comes once: its images are sorted as
    they are.  Weak embeddings from different orbits can share an image,
    which is kept once.  The masks come sorted, hence grouped by highest
    set.
    """
    images = order_images(p, cube_order(n), induced)
    return sorted(images if induced else set(images))


def lubell(fam: SetFamily) -> Fraction:
    """Sum of 1/C(n, |S|) over members; at most the number of maximal chains
    through any one set, so antichains give at most 1."""
    return shifted_lubell(fam, 1)


def shifted_lubell(fam: SetFamily, d: int) -> Fraction:
    """Weight with each member's size shifted by d-1 inside a ground set
    padded by 2d-2, matching the prefix-union construction in d parts."""
    if json_int(d, "dimension") < 1:
        raise ValueError("d must be positive")
    big = fam.n + 2 * d - 2
    return sum(
        (Fraction(1, comb(big, m.bit_count() + d - 1)) for m in fam.masks), Fraction(0)
    )


def middle_levels(n: int, m: int) -> SetFamily:
    """Union of the m middle size-levels of the n-cube, smaller sizes first:
    the `middle_window` run of `cube_order`."""
    start, stop = middle_window(n, m)
    return SetFamily(n, cube_order(n)[start:stop])
