"""Deterministic seed derivation for the randomized verification suites.

Every randomized check owns a tag; the effective 64-bit seed is derived from
(user seed, tag) so that checks are independent of each other and reproducible
from the single seed echoed in reports.
"""

from __future__ import annotations

import hashlib
import random

from .errors import json_int


def derive_seed(seed: int, tag: str) -> int:
    json_int(seed, "seed")  # "0.0:tag" would name another stream than seed 0
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, tag: str) -> random.Random:
    return random.Random(derive_seed(seed, tag))
