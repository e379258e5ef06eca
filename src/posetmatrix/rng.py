"""Deterministic seed derivation and bulk draws for the randomized
verification suites.

Every randomized check owns a tag; the effective 64-bit seed is derived from
(user seed, tag) so that checks are independent of each other and reproducible
from the single seed echoed in reports.

A check that draws one Bernoulli bit per cell or set takes all of them from
`bernoulli_bits`, which reads the Mersenne Twister words that as many
`random()` calls would read, in one `getrandbits` call.  CPython's `random()`
is (a * 2**26 + b) / 2**53 with a = w0 >> 5 and b = w1 >> 6 for two
consecutive 32-bit words, and `getrandbits(64 * k)` consumes the same 2k
words, word j at bits 32j..32j+31; so the bits, and the generator's state
after them, are those of the `random()` loop.
"""

from __future__ import annotations

import hashlib
import random
from math import ceil

from .errors import json_int


def derive_seed(seed: int, tag: str) -> int:
    json_int(seed, "seed")  # "0.0:tag" would name another stream than seed 0
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, tag: str) -> random.Random:
    return random.Random(derive_seed(seed, tag))


# per top byte t8 of the threshold, the flag of each top byte of a draw:
# below t8 a draw is below the threshold, above t8 it is not, and at t8 ("?")
# the rest of the draw decides
_TOP_BYTE_FLAGS = tuple(b"1" * t8 + b"?" + b"0" * (255 - t8) for t8 in range(256))


def bernoulli_bits(rng: random.Random, p: float, count: int) -> int:
    """The bitset of the i < count with `rng.random() < p`, drawn in order,
    leaving `rng` where those `count` calls would.

    Draw i is x / 2**53 with x = (w[2i] >> 5) << 26 | w[2i+1] >> 6, and it is
    below p exactly when x < T = ceil(p * 2**53) (the product is exact).  In
    the big-endian bytes of the words, draw i is the 8 bytes at 8j, j =
    count-1-i, and the top byte of w[2i], at 8j+4, is x >> 45: it decides
    every draw but those whose byte equals T >> 45, about 1 in 256, which are
    compared in full.  The flags come out last draw first, as the bitset's
    binary digits."""
    data = rng.getrandbits(64 * count).to_bytes(8 * count, "big")
    threshold = max(ceil(p * 2**53), 0)
    if threshold >= 2**53:  # p >= 1: every draw is below it
        return (1 << count) - 1
    flags = bytearray(data[4::8].translate(_TOP_BYTE_FLAGS[threshold >> 45]))
    j = flags.find(b"?")
    while j >= 0:
        u = int.from_bytes(data[8 * j : 8 * j + 8], "big")  # w[2i+1] << 32 | w[2i]
        x = (u & 0xFFFFFFFF) >> 5 << 26 | u >> 38
        flags[j] = 49 if x < threshold else 48  # b"1", b"0"
        j = flags.find(b"?", j + 1)
    return int(flags or b"0", 2)
