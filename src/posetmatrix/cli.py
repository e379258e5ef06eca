"""Command line front end.

Every command prints one JSON object (or a flattened TSV of it) with a
top-level "schema" field.  Randomized verification commands echo their seed
and report counterexamples in the output; exit status is 0 for ok, 1 for a
failed verification, 2 for bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import bounds_table
from .cache import ResultCache
from .doublecount import (
    SetFamily,
    all_prefix_union_masks,
    count_partitions_with_prefix,
    double_count_identity,
    enumerate_partitions,
    prefix_matrix_freeness_check,
)
from .errors import CapExceeded, InvariantError
from .extremal import (
    ex_exact,
    la_exact,
    random_free_matrix,
    tardos_diamond_check,
)
from .family import load_family, lubell, shifted_lubell
from .hypermatrix import (
    HyperMatrix,
    all_cells,
    block_analyze,
    contains,
    identity_matrix,
    load_matrix,
    loomis_whitney_holds,
    wide_block_limit,
)
from .poset import (
    dimension,
    enumerate_patterns,
    height,
    load_poset,
    realizer_to_matrix,
)
from .rng import make_rng


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetmatrix",
        description="exact extremal values and bounds for forbidden posets "
        "and forbidden 0-1 patterns",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--cache-dir", default=None, help="result cache directory")
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument(
        "--cap-override",
        action="store_true",
        help="run exact searches past their size caps",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="inspect a poset")
    p.add_argument("action", choices=("info", "dimension", "matrix"))
    p.add_argument("spec", help="builtin name (chain:k, antichain:k, diamond, vee:r, butterfly, boolean:m) or JSON file")

    p = sub.add_parser("patterns", help="all 2-dim matrices ordering like a poset")
    p.add_argument("--poset", required=True)

    p = sub.add_parser("ex", help="max 1s avoiding the given patterns")
    p.add_argument("--dims", required=True, help="comma-separated side lengths")
    p.add_argument("--pattern", action="append", default=[], help="pattern JSON file")
    p.add_argument("--pattern-set", action="append", default=[], help="directory of pattern JSON files")

    p = sub.add_parser("la", help="largest family avoiding a poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poset", required=True)
    p.add_argument("--mode", choices=("weak", "induced"), default="weak")

    p = sub.add_parser("lubell", help="chain-weight of a family")
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--shifted", type=int, default=None, metavar="D")

    p = sub.add_parser("bounds", help="bound table for a poset")
    p.add_argument("--poset", required=True)

    p = sub.add_parser("verify", help="randomized and exhaustive self-checks")
    p.add_argument(
        "check",
        choices=(
            "all",
            "countp",
            "counta",
            "doublecount",
            "lw",
            "blocks",
            "mt",
            "tardos-diamond",
        ),
    )
    p.add_argument("--trials", type=int, default=None)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = _dispatch(args)
    except (InvariantError, CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return code


def main() -> None:
    sys.exit(run())


def _dispatch(args):
    cache = _cache(args)
    if args.command == "poset":
        return _cmd_poset(args), 0
    if args.command == "patterns":
        return _cmd_patterns(args), 0
    if args.command == "ex":
        return _cmd_ex(args, cache), 0
    if args.command == "la":
        return _cmd_la(args, cache), 0
    if args.command == "lubell":
        return _cmd_lubell(args), 0
    if args.command == "bounds":
        poset = load_poset(args.poset)
        return bounds_table(poset, cache=cache), 0
    return _cmd_verify(args, cache)


def _cache(args) -> ResultCache | None:
    if args.no_cache:
        return None
    root = args.cache_dir or os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "posetmatrix",
    )
    return ResultCache(root)


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
        return
    lines = []
    _flatten(obj, "", lines)
    for path, value in sorted(lines):
        print(f"{path}\t{value}")


def _flatten(obj, prefix: str, out: list) -> None:
    if isinstance(obj, dict):
        for k in obj:
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    elif obj is True:
        out.append((prefix, "true"))
    elif obj is False:
        out.append((prefix, "false"))
    elif obj is None:
        out.append((prefix, "null"))
    else:
        out.append((prefix, str(obj)))


# --- plain commands --------------------------------------------------------


def _cmd_poset(args) -> dict:
    p = load_poset(args.spec)
    if args.action == "info":
        return {
            "schema": 1,
            "poset": p.to_obj(),
            "size": p.n,
            "height": height(p),
            "relations": len(p.relation_pairs()),
            "incomparable_pairs": len(p.incomparable_pairs()),
        }
    d, realizer = dimension(p)
    out = {"schema": 1, "dimension": d, "realizer": realizer.labelled(p)}
    if args.action == "matrix":
        out["matrix"] = realizer_to_matrix(p, realizer).to_obj()
    return out


def _cmd_patterns(args) -> dict:
    p = load_poset(args.poset)
    patterns = enumerate_patterns(p, 2)
    return {
        "schema": 1,
        "poset": p.to_obj(),
        "count": len(patterns),
        "patterns": [a.to_obj() for a in patterns],
    }


def _cmd_ex(args, cache) -> dict:
    dims = tuple(int(x) for x in args.dims.split(","))
    patterns = [load_matrix(path) for path in args.pattern]
    for directory in args.pattern_set:
        for path in sorted(Path(directory).glob("*.json")):
            patterns.append(load_matrix(path))
    if not patterns:
        raise ValueError("need at least one pattern (--pattern or --pattern-set)")
    result = ex_exact(dims, patterns, allow_over_cap=args.cap_override, cache=cache)
    return {
        "schema": 1,
        "dims": list(dims),
        "pattern_count": len(patterns),
        "value": result.value,
        "witness": result.witness.to_obj(),
    }


def _cmd_la(args, cache) -> dict:
    p = load_poset(args.poset)
    result = la_exact(
        args.n, p, args.mode == "induced", allow_over_cap=args.cap_override, cache=cache
    )
    return {
        "schema": 1,
        "n": args.n,
        "poset": p.to_obj(),
        "mode": args.mode,
        "value": result.value,
        "witness": result.witness.to_obj(),
    }


def _cmd_lubell(args) -> dict:
    fam = load_family(args.family)
    out = {
        "schema": 1,
        "n": fam.n,
        "size": fam.size,
        "lubell": str(lubell(fam)),
    }
    if args.shifted is not None:
        out["shifted_d"] = args.shifted
        out["shifted_lubell"] = str(shifted_lubell(fam, args.shifted))
    return out


# --- verification runners --------------------------------------------------


def _cmd_verify(args, cache):
    name = args.check
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")

    def trials(default: int) -> int:
        return default if args.trials is None else args.trials

    if name == "all":
        checks = {}
        checks["countp"] = _verify_countp()
        checks["counta"] = _verify_counta(trials(50), args.seed)
        checks["doublecount"] = _verify_doublecount(trials(25), args.seed)
        checks["lw"] = _verify_lw(trials(1000), args.seed)
        checks["blocks"] = _verify_blocks(trials(100), args.seed)
        checks["mt"] = _verify_mt(cache)
        checks["tardos-diamond"] = _verify_tardos(args.cap_override, cache)
        ok = all(c["ok"] for c in checks.values())
        return {"schema": 1, "seed": args.seed, "ok": ok, "checks": checks}, 0 if ok else 1
    if name == "countp":
        result = _verify_countp()
    elif name == "counta":
        result = _verify_counta(trials(334), args.seed)
    elif name == "doublecount":
        result = _verify_doublecount(trials(50), args.seed)
    elif name == "lw":
        result = _verify_lw(trials(1000), args.seed)
    elif name == "blocks":
        result = _verify_blocks(trials(100), args.seed)
    elif name == "mt":
        result = _verify_mt(cache)
    else:
        result = _verify_tardos(args.cap_override, cache)
    out = {"schema": 1, "seed": args.seed}
    out.update(result)
    return out, 0 if result["ok"] else 1


def _verify_countp() -> dict:
    """Exhaustive check of the fixed-prefix partition count formula."""
    failures = []
    for n in range(0, 5):
        for d in range(1, 4):
            counter: dict[int, int] = {}
            for q in enumerate_partitions(n, d):
                for mask in all_prefix_union_masks(q):
                    counter[mask] = counter.get(mask, 0) + 1
            for mask in range(1 << n):
                want = count_partitions_with_prefix(n, d, mask.bit_count())
                got = counter.get(mask, 0)
                if got != want:
                    failures.append(
                        {"n": n, "d": d, "set": _mask_set(mask), "got": got, "want": want}
                    )
    return {"check": "prefix-count-formula", "ok": not failures, "failures": failures[:5]}


def _verify_counta(trials: int, seed: int) -> dict:
    """Randomized: matrices of induced-free families avoid the poset matrix."""
    runs = []
    ok = True
    for spec in ("diamond", "vee:2", "butterfly"):
        p = load_poset(spec)
        d, realizer = dimension(p)
        report = prefix_matrix_freeness_check(p, realizer, trials, n=5, seed=seed)
        runs.append(
            {
                "poset": spec,
                "orders": d,
                "trials": report.trials,
                "violations": report.violations[:5],
            }
        )
        ok = ok and not report.violations
    return {"check": "prefix-matrix-freeness", "ok": ok, "runs": runs}


def _verify_doublecount(trials: int, seed: int) -> dict:
    """Pair counts by formula vs enumeration: exhaustive small, random larger."""
    failures = []
    for n in range(0, 4):
        for bits in range(1 << (1 << n)):
            masks = tuple(m for m in range(1 << n) if bits >> m & 1)
            fam = SetFamily(n, masks)
            res = double_count_identity(fam, 2)
            if not res.equal:
                failures.append({"n": n, "d": 2, "family": fam.to_obj()["sets"]})
    rng = make_rng(seed, "verify:doublecount")
    for trial in range(trials):
        d = 2 + trial % 2
        masks = tuple(m for m in range(16) if rng.random() < 0.5)
        fam = SetFamily(4, masks)
        res = double_count_identity(fam, d)
        if not res.equal:
            failures.append({"n": 4, "d": d, "family": fam.to_obj()["sets"]})
    return {
        "check": "double-count-identity",
        "trials": trials,
        "ok": not failures,
        "failures": failures[:5],
    }


def _verify_lw(trials: int, seed: int) -> dict:
    """Random 3-dim matrices satisfy the projection product inequality."""
    rng = make_rng(seed, "verify:lw")
    dims = (6, 6, 6)
    cells = all_cells(dims)
    failures = []
    for trial in range(trials):
        density = rng.uniform(0.02, 0.3)
        ones = tuple(c for c in cells if rng.random() < density)
        m = HyperMatrix(dims, ones)
        if not loomis_whitney_holds(m):
            failures.append({"trial": trial, "ones": [list(c) for c in ones]})
    return {
        "check": "projection-product",
        "trials": trials,
        "ok": not failures,
        "failures": failures[:3],
    }


def _verify_blocks(trials: int, seed: int) -> dict:
    """Random pattern-free hosts: wide-block counts under the cap, coarse
    matrix still free."""
    rng = make_rng(seed, "verify:blocks")
    pattern = identity_matrix(2)
    failures = []
    for trial in range(trials):
        dims = (rng.randint(2, 8), rng.randint(2, 8))
        host = random_free_matrix(dims, [pattern], rng)
        side = rng.choice((1, 2))
        report = block_analyze(host, pattern, side)
        limit = wide_block_limit(pattern, side)
        for axis in (1, 2):
            for key, count in report.wide_count(axis).items():
                if count > limit:
                    failures.append(
                        {
                            "trial": trial,
                            "dims": list(dims),
                            "side": side,
                            "axis": axis,
                            "column": list(key),
                            "count": count,
                            "limit": limit,
                        }
                    )
        if report.coarse.weight and contains(report.coarse, pattern):
            failures.append(
                {"trial": trial, "dims": list(dims), "side": side, "coarse_not_free": True}
            )
    return {
        "check": "block-decomposition",
        "trials": trials,
        "ok": not failures,
        "failures": failures[:5],
    }


def _verify_mt(cache) -> dict:
    """Exact grid values against the linear density bound for the 2x2 diagonal."""
    pattern = identity_matrix(2)
    rows = []
    ok = True
    for n in range(1, 6):
        value = ex_exact((n, n), [pattern], cache=cache).value
        bound = 192 * n
        rows.append({"n": n, "value": value, "bound": bound})
        ok = ok and value <= bound
    return {"check": "density-constant", "ok": ok, "values": rows}


def _verify_tardos(cap_override: bool, cache) -> dict:
    """Forbidding all diamond-ordered patterns keeps grids at 4n ones."""
    top = 4 if cap_override else 3
    rows = []
    ok = True
    for n in range(1, top + 1):
        res = tardos_diamond_check(n, cache=cache)
        rows.append({"n": n, "value": res.value, "bound": res.bound})
        ok = ok and res.holds
    return {"check": "diamond-pattern-set", "ok": ok, "values": rows}


def _mask_set(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
