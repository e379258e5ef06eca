"""The benchmark's three workloads: inputs, ops, slots and reference checks.

A workload is built from the imported package `pm` (a fresh import each
set-up round), a scratch directory and the workload seed.  The seed orders
the ops inside a pass and is passed as `--seed` to the CLI's randomized
`verify` commands; the instances themselves are fixed.

Each op returns its raw output.  The checks run after the timed loop, once per
distinct output, against frozen reference values and an independent
brute-force re-check of every witness.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, permutations, product
from pathlib import Path
from typing import Callable, NamedTuple

SLOTS = ("op1_s", "op2_s", "op3_s", "op4_s")


def reference() -> dict:
    """Frozen values and CLI output digests (see README.md)."""
    return json.loads(Path(__file__).with_name("reference.json").read_text())


class Op(NamedTuple):
    name: str
    fn: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


class Workload(NamedTuple):
    ops: list[Op]  # one pass, in seeded order
    slots: dict[str, tuple[str, ...]]  # slot metric -> ops summed per pass
    labels: dict[str, str]  # slot metric -> what it measures
    before_pass: Callable[[], None]
    after_pass: Callable[[], None]


def _noop() -> None:
    pass


# --- independent re-checks --------------------------------------------------


def brute_contains(dims, ones, pattern) -> bool:
    """Pattern occurrence by trying every increasing index choice per axis."""
    hset = set(ones)
    axes = [combinations(range(1, dims[j] + 1), pattern.dims[j]) for j in range(len(dims))]
    for pick in product(*(list(a) for a in axes)):
        if all(tuple(pick[j][o[j] - 1] for j in range(len(dims))) in hset for o in pattern.ones):
            return True
    return False


def brute_family_contains(masks, p, induced: bool) -> bool:
    """Poset copy by trying every injection of p into the family."""
    def below(a: int, b: int) -> bool:
        return a != b and a & ~b == 0

    pairs = [(x, y) for x in range(p.n) for y in range(p.n) if x != y]
    for image in permutations(masks, p.n):
        if all(
            below(image[x], image[y]) if p.less(x, y) else not (induced and below(image[x], image[y]))
            for x, y in pairs
        ):
            return True
    return False


def _ex_check(ref: int, patterns):
    def check(out) -> str | None:
        value, dims, ones = out
        if value != ref or len(ones) != value:
            return f"value {value} with {len(ones)} ones, want {ref}"
        if any(brute_contains(dims, ones, a) for a in patterns):
            return "witness contains a forbidden pattern"
        return None

    return check


def _la_check(ref: int, p, induced: bool):
    def check(out) -> str | None:
        value, masks = out
        if value != ref or len(set(masks)) != value:
            return f"value {value} with {len(set(masks))} sets, want {ref}"
        if brute_family_contains(masks, p, induced):
            return "witness family contains the forbidden poset"
        return None

    return check


# --- ex-grid ----------------------------------------------------------------


def ex_grid(pm, work: Path, seed: int) -> Workload:
    ref = reference()["ex"]
    i2, i3, i2_3 = pm.identity_matrix(2), pm.identity_matrix(3), pm.identity_matrix(2, 3)
    ops = []
    for name, dims, pats in (
        ("ex.6x6-I2", (6, 6), [i2]),
        ("ex.5x5-I3", (5, 5), [i3]),
        ("ex.3x3x3-I2", (3, 3, 3), [i2_3]),
        ("ex.2x3x4-I2", (2, 3, 4), [i2_3]),
    ):
        def solve(dims=dims, pats=pats):
            res = pm.extremal.ex_exact(dims, pats, cache=None)
            return res.value, res.witness.dims, res.witness.ones

        ops.append(Op(name, solve, _ex_check(ref[name], pats)))

    # the diamond set is enumerated inside the op; its witness stays internal
    # to ex_exact, which re-checks it, so the op checks value, bound and holds
    want = (ref["ex.4x4-diamondset"], 16, True)

    def tardos():
        return tuple(pm.extremal.tardos_diamond_check(4))

    ops.append(Op("ex.4x4-diamondset", tardos, lambda out: None if out == want else f"got {out}, want {want}"))
    random.Random(seed).shuffle(ops)
    slots = {"op1_s": ("ex.6x6-I2",), "op2_s": ("ex.5x5-I3",), "op3_s": ("ex.3x3x3-I2",), "op4_s": ("ex.4x4-diamondset",)}
    return Workload(ops, slots, {k: v[0] for k, v in slots.items()}, _noop, _noop)


# --- la-family --------------------------------------------------------------


def la_family(pm, work: Path, seed: int) -> Workload:
    ref = reference()["la"]
    ops = []
    for name, n, poset, induced in (
        ("la.5-chain3-weak", 5, pm.chain(3), False),
        ("la.5-vee2-weak", 5, pm.vee(2), False),
        ("la.5-antichain3-induced", 5, pm.antichain(3), True),
        ("la.4-diamond-weak", 4, pm.diamond(), False),
        ("la.4-diamond-induced", 4, pm.diamond(), True),
        ("la.4-butterfly-induced", 4, pm.butterfly(), True),
    ):
        def solve(n=n, poset=poset, induced=induced):
            res = pm.extremal.la_exact(n, poset, induced, cache=None)
            return res.value, res.witness.masks

        ops.append(Op(name, solve, _la_check(ref[name], poset, induced)))
    random.Random(seed).shuffle(ops)
    n4 = ("la.4-diamond-weak", "la.4-diamond-induced", "la.4-butterfly-induced")
    slots = {
        "op1_s": ("la.5-chain3-weak",),
        "op2_s": ("la.5-vee2-weak",),
        "op3_s": ("la.5-antichain3-induced",),
        "op4_s": n4,
    }
    labels = {k: v[0] for k, v in slots.items()}
    labels["op4_s"] = "la.4-set (sum of " + ", ".join(n4) + ")"
    return Workload(ops, slots, labels, _noop, _noop)


# --- cli-session ------------------------------------------------------------

VERIFY = (("verify", "all"), ("verify", "counta"), ("verify", "blocks"))
BOUNDS = tuple(("bounds", "--poset", p) for p in ("diamond", "vee:2", "butterfly", "boolean:2"))
# ex shapes differ from the (n, n) grids `verify all` solves, so no command of
# one group can turn a solve of another group into a cache hit
OTHER = (
    ("patterns", "--poset", "diamond"),
    ("poset", "matrix", "diamond"),
    ("ex", "--dims", "4,5", "--pattern", "{pat}/id2.json"),
    ("ex", "--dims", "4,4", "--pattern", "{pat}/id3.json"),
    ("ex", "--dims", "2,2,3", "--pattern", "{pat}/id2-3d.json"),
    ("ex", "--dims", "3,4", "--pattern-set", "{pat}/diamond"),
    ("la", "--n", "4", "--poset", "diamond"),
    ("la", "--n", "4", "--poset", "vee:2", "--mode", "induced"),
    ("la", "--n", "4", "--poset", "butterfly", "--mode", "induced"),
)
SEED_LINE = re.compile(r'^  "seed": (-?\d+)(,?)$', re.M)


def normalize_output(text: str, seed: int) -> str:
    """CLI output with the echoed top-level seed set to 0, or unchanged when
    it echoes another seed."""
    return SEED_LINE.sub(lambda m: '  "seed": 0' + m.group(2) if m.group(1) == str(seed) else m.group(0), text)


def cli_digest(text: str, seed: int) -> str:
    return hashlib.sha256(normalize_output(text, seed).encode()).hexdigest()


def write_patterns(pm, pat: Path) -> None:
    (pat / "diamond").mkdir(parents=True)
    pm.dump_matrix(pm.identity_matrix(2), pat / "id2.json")
    pm.dump_matrix(pm.identity_matrix(3), pat / "id3.json")
    pm.dump_matrix(pm.identity_matrix(2, 3), pat / "id2-3d.json")
    for i, a in enumerate(pm.enumerate_patterns(pm.diamond(), 2)):
        pm.dump_matrix(a, pat / "diamond" / f"d{i:02d}.json")


def run_cli(pm, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pm.cli.run(list(argv))
    return code, out.getvalue() + err.getvalue()


def cli_session(pm, work: Path, seed: int) -> Workload:
    pat = work / "patterns"
    write_patterns(pm, pat)
    caches = work / "caches"
    caches.mkdir()
    state = {"cache": None, "count": 0}

    def before_pass() -> None:
        state["count"] += 1
        state["cache"] = caches / f"session-{state['count']}"

    def after_pass() -> None:
        shutil.rmtree(state["cache"], ignore_errors=True)

    want = reference()["cli_sha256"]
    commands = list(VERIFY + BOUNDS + OTHER)
    random.Random(seed).shuffle(commands)
    ops = []
    for phase in ("cold", "warm"):
        for cmd in commands:
            key = " ".join(cmd)
            argv = [a.format(pat=pat) for a in cmd]

            def call(argv=argv):
                return run_cli(pm, ["--cache-dir", str(state["cache"]), "--seed", str(seed)] + argv)

            def check(out, key=key) -> str | None:
                code, text = out
                if code != 0:
                    return f"exit code {code}: {text[-200:]}"
                if cli_digest(text, seed) != want[key]:
                    return "output bytes differ from the reference"
                return None

            ops.append(Op(f"{phase}:{key}", call, check))
    cold = lambda group: tuple("cold:" + " ".join(c) for c in group)
    slots = {
        "op1_s": cold(VERIFY),
        "op2_s": cold(BOUNDS),
        "op3_s": cold(OTHER),
        "op4_s": tuple(op.name for op in ops if op.name.startswith("warm:")),
    }
    labels = {
        "op1_s": "cold verify commands (all, counta, blocks), summed",
        "op2_s": "cold bounds commands (4 posets), summed",
        "op3_s": "cold patterns/poset/ex/la commands, summed",
        "op4_s": "warm pass: every command again on the filled cache, summed",
    }
    return Workload(ops, slots, labels, before_pass, after_pass)


WORKLOADS = {"ex-grid": ex_grid, "la-family": la_family, "cli-session": cli_session}
