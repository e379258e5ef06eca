"""Command line front end.

Every command prints one JSON object (or a flattened TSV of it) with a
top-level "schema" field.  Randomized verification commands echo their seed
and report counterexamples in the output; exit status is 0 for ok, 1 for a
failed verification, 2 for bad input or an instance that does not fit in
memory, 141 when the reader of stdout closes it early.  The parser is
built once per process; `verify` runs through `verify.run_checks`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .bounds import bounds_table
from .cache import ResultCache
from .errors import CapExceeded
from .extremal import ex_exact, la_exact
from .family import load_family, lubell, shifted_lubell
from .hypermatrix import load_matrix
from .poset import (
    BUILTIN_SPELLINGS,
    dimension,
    enumerate_patterns,
    height,
    load_poset,
    realizer_to_matrix,
)
from .verify import CHECKS, run_checks


@cache  # built once per process: building it costs most of a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetmatrix",
        description="exact extremal values and bounds for forbidden posets "
        "and forbidden 0-1 patterns",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--cache-dir", default=None, help="cache ex and la results in this directory (no cache without it; verify and bounds always search)")
    parser.add_argument("--no-cache", action="store_true", help="cancel --cache-dir: read and write no cache")
    parser.add_argument(
        "--cap-override",
        action="store_true",
        help="run exact searches past their size caps",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="inspect a poset")
    p.set_defaults(handler=_cmd_poset)
    p.add_argument("action", choices=("info", "dimension", "matrix"))
    p.add_argument("spec", help=f"builtin name ({BUILTIN_SPELLINGS}) or JSON file")

    p = sub.add_parser("patterns", help="all 2-dim matrices ordering like a poset")
    p.set_defaults(handler=_cmd_patterns)
    p.add_argument("--poset", required=True)

    p = sub.add_parser("ex", help="max 1s avoiding the given patterns")
    p.set_defaults(handler=_cmd_ex)
    p.add_argument("--dims", required=True, help="comma-separated side lengths")
    p.add_argument("--pattern", action="append", default=[], help="pattern JSON file")
    p.add_argument("--pattern-set", action="append", default=[], help="directory of pattern JSON files")

    p = sub.add_parser("la", help="largest family avoiding a poset")
    p.set_defaults(handler=_cmd_la)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poset", required=True)
    p.add_argument("--mode", choices=("weak", "induced"), default="weak")

    p = sub.add_parser("lubell", help="chain-weight of a family")
    p.set_defaults(handler=_cmd_lubell)
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--shifted", type=int, default=None, metavar="D")

    p = sub.add_parser("bounds", help="bound table for a poset")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("--poset", required=True)

    p = sub.add_parser("verify", help="randomized and exhaustive self-checks")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("check", choices=("all", *CHECKS))
    p.add_argument("--trials", type=int, default=None)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except (CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an oversized --cap-override instance; str(MemoryError()) is empty
        print("error: out of memory: the instance is too large to hold", file=sys.stderr)
        return 2
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): point stdout at devnull so the
        # flush at exit stays quiet, and exit as SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 1 if payload.get("ok") is False else 0


def main() -> None:
    sys.exit(run())


def _cache(args) -> ResultCache | None:
    if args.no_cache or args.cache_dir is None:
        return None
    if not args.cache_dir:
        raise ValueError("--cache-dir needs a directory name")
    # refused before any search runs, rather than at the first write
    root = Path(args.cache_dir)
    if not next((p for p in (root, *root.parents) if p.exists()), root).is_dir():
        raise ValueError(f"--cache-dir {args.cache_dir}: not a directory")
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
        relations = sum(m.bit_count() for m in p.up)
        return {
            "schema": 1,
            "poset": p.to_obj(),
            "size": p.n,
            "height": height(p),
            "relations": relations,
            "incomparable_pairs": p.n * (p.n - 1) // 2 - relations,
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


def _cmd_ex(args) -> dict:
    dims = tuple(int(x) for x in args.dims.split(","))
    patterns = [load_matrix(path) for path in args.pattern]
    for directory in args.pattern_set:
        paths = sorted(Path(directory).glob("*.json"))
        if not paths:
            raise ValueError(f"--pattern-set {directory}: not a directory of *.json pattern files")
        patterns.extend(load_matrix(path) for path in paths)
    if not patterns:
        raise ValueError("need at least one pattern (--pattern or --pattern-set)")
    result = ex_exact(dims, patterns, allow_over_cap=args.cap_override, cache=_cache(args))
    return {
        "schema": 1,
        "dims": list(dims),
        "pattern_count": len(patterns),
        "value": result.value,
        "witness": result.witness.to_obj(),
    }


def _cmd_la(args) -> dict:
    p = load_poset(args.poset)
    result = la_exact(
        args.n, p, args.mode == "induced", allow_over_cap=args.cap_override, cache=_cache(args)
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


def _cmd_bounds(args) -> dict:
    return bounds_table(load_poset(args.poset))


def _cmd_verify(args) -> dict:
    return {"schema": 1, "seed": args.seed, **run_checks(args.check, args.trials, args.seed)}


if __name__ == "__main__":
    main()
