"""posetmatrix benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ex-grid --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the checkout's src/.  Set-up
(package import, inputs, pattern files, cache directory) is repeated a few
times and reported as a median.  The run then makes closed-loop passes over
the workload's ops, one after another in one thread, until --seconds have
gone by and at least MIN_PASSES passes are done, and checks every output
afterwards.  With --trace 1 it makes one
untraced pass, then traced passes, and prints the per-layer metrics instead.

Times are reference seconds (see probe.py): wall time rescaled to the box's
uncontended speed.  The wall-clock figures are printed on the `#` lines.  The
last line of standard output is the result object; --out FILE also appends a
fuller record (environment, wall-clock metrics, per-op output digests) to
FILE for compare.py and selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from probe import SpeedProbe
from spans import Tracer
from workloads import SLOTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 25
MIN_PASSES = 2  # so that every per-op median has at least two samples
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s"}
END_TO_END.update({slot: "s" for slot in SLOTS})


def _found(result) -> bool:
    return result is not None


def _pinned(args, kwargs) -> bool:
    return kwargs.get("pin_last", args[4] if len(args) > 4 else None) is not None


# Traced layer functions: metric prefix, module, attribute, import sites
# (None: every posetmatrix module holding it), ratio metric and the outcome
# that counts towards it, and which calls are traced (None: all).
# `_match` is traced only where the ex search imports it and only when pinned,
# so `hypermatrix.match` is the search's incremental node test; the full
# matches inside `contains` and `random_free_matrix` count as their time.
LAYERS = (
    ("hypermatrix.match", "hypermatrix", "_match", ("extremal",), "found_ratio", bool, _pinned),
    ("hypermatrix.contains", "hypermatrix", "contains", None, None, None, None),
    ("hypermatrix.block_analyze", "hypermatrix", "block_analyze", None, None, None, None),
    ("hypermatrix.loomis_whitney_holds", "hypermatrix", "loomis_whitney_holds", None, None, None, None),
    ("embed.find_order_embedding", "embed", "find_order_embedding", None, "found_ratio", _found, None),
    ("embed.degree_filter", "embed", "degree_filter", None, None, None, None),
    ("extremal.ex_exact", "extremal", "ex_exact", None, None, None, None),
    ("extremal.la_exact", "extremal", "la_exact", None, None, None, None),
    ("extremal.random_free_matrix", "extremal", "random_free_matrix", None, None, None, None),
    ("family.find_embedding", "family", "find_embedding", None, None, None, None),
    ("family.family_contains", "family", "family_contains", None, None, None, None),
    ("poset.dimension", "poset", "dimension", None, None, None, None),
    ("poset.enumerate_patterns", "poset", "enumerate_patterns", None, None, None, None),
    ("poset.is_isomorphic", "poset", "is_isomorphic", None, None, None, None),
    ("doublecount.prefix_union_matrix", "doublecount", "prefix_union_matrix", None, None, None, None),
    ("doublecount.all_prefix_union_masks", "doublecount", "all_prefix_union_masks", None, None, None, None),
    ("doublecount.double_count_identity", "doublecount", "double_count_identity", None, None, None, None),
    (
        "doublecount.prefix_matrix_freeness_check",
        "doublecount", "prefix_matrix_freeness_check", None, None, None, None,
    ),
    ("bounds.bounds_table", "bounds", "bounds_table", None, None, None, None),
    ("cache.get", "cache", "ResultCache.get", None, "hit_ratio", _found, None),
    ("cache.put", "cache", "ResultCache.put", None, None, None, None),
    ("cli.run", "cli", "run", None, None, None, None),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix, *_, ratio, _outcome, _when in LAYERS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        if ratio:
            units[f"{prefix}.{ratio}"] = "ratio"
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


class OpError(NamedTuple):
    text: str


class Measured(NamedTuple):
    values: dict  # metric -> value
    units: dict  # metric -> unit
    wall: dict  # end-to-end metric -> wall-clock value
    attempted: int
    problems: list  # one message per failure
    digests: dict  # op -> sha256 of its first output


class Pass(NamedTuple):
    span: tuple[float, float]  # perf_counter at the pass's start and end
    ops: dict  # op name -> (start, end)
    outputs: dict  # op name -> output or OpError
    layers: dict  # traced aggregates over this pass: name -> (calls, self_s, hits)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="posetmatrix benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="append the full run record to this JSON-lines file")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_package(src: Path):
    """A fresh import of posetmatrix and its CLI from src/."""
    for key in [k for k in sys.modules if k == "posetmatrix" or k.startswith("posetmatrix.")]:
        del sys.modules[key]
    pm = importlib.import_module("posetmatrix")
    importlib.import_module("posetmatrix.cli")
    if not Path(pm.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported posetmatrix from {pm.__file__}, not from {src}")
    return pm


def set_up(src: Path, work: Path, name: str, seed: int):
    """The workload from the last of SETUP_ROUNDS set-ups, and each round's
    (start, end)."""
    rounds = []
    for r in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        pm = import_package(src)
        wdir = work / f"setup-{r}"
        wdir.mkdir(parents=True)
        workload = WORKLOADS[name](pm, wdir, seed)
        rounds.append((t0, time.perf_counter()))
        if r:
            shutil.rmtree(work / f"setup-{r - 1}")
    return workload, rounds


def run_pass(workload, tracer: Tracer | None) -> Pass:
    clock = time.perf_counter
    workload.before_pass()
    before = tracer.snapshot() if tracer else {}
    ops, outputs = {}, {}
    try:
        t0 = clock()
        for op in workload.ops:
            s = clock()
            try:
                out = tracer.span("op:" + op.name, op.fn) if tracer else op.fn()
            except Exception:  # a failing op is counted, and the run goes on
                out = OpError(traceback.format_exc(limit=-3))
            ops[op.name] = (s, clock())
            outputs[op.name] = out
        span = (t0, clock())
    finally:
        workload.after_pass()
    layers = {}
    if tracer:
        for k, (c, t, h) in tracer.snapshot().items():
            c0, t0_, h0 = before.get(k, (0, 0.0, 0))
            layers[k] = (c - c0, t - t0_, h - h0)
    return Pass(span, ops, outputs, layers)


def check_outputs(workload, passes) -> tuple[int, list[str]]:
    """(ops attempted, one message per failed op): each op output against its
    reference, once per distinct output, and against the first pass's output."""
    verdicts: dict = {}
    attempted = 0
    problems = []
    for op in workload.ops:
        first = repr(passes[0].outputs[op.name])
        for p in passes:
            out = p.outputs[op.name]
            attempted += 1
            if isinstance(out, OpError):
                err = out.text.strip().splitlines()[-1]
            else:
                key = repr(out)
                if key not in verdicts:
                    verdicts[key] = op.check(out)
                err = verdicts[key] or (None if key == first else "output differs between passes")
            if err:
                problems.append(f"{op.name}: {err}")
    return attempted, problems


def end_to_end(workload, passes, rounds, measure) -> dict[str, float]:
    """The end-to-end metrics, with measure(start, end) as the clock."""
    per_op = [statistics.median(measure(*p.ops[op.name]) for p in passes) for op in workload.ops]
    pass_times = [measure(*p.span) for p in passes]
    values = {
        "setup_s": statistics.median(measure(*r) for r in rounds),
        "pass_s": statistics.median(pass_times),
        "op_s.p50": statistics.median(per_op),
        "op_s.p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "ops_per_s": len(workload.ops) * len(passes) / sum(pass_times),
    }
    for slot, names in workload.slots.items():
        values[slot] = statistics.median(sum(measure(*p.ops[n]) for n in names) for p in passes)
    return values


def per_layer(base: Pass, traced: list[Pass], probe: SpeedProbe) -> tuple[dict[str, float], list[str]]:
    first = traced[0].layers
    values, problems = {}, []
    for prefix, *_, ratio, _outcome, _when in LAYERS:
        calls, _, hits = first.get(prefix, (0, 0.0, 0))
        values[f"{prefix}.calls"] = calls
        values[f"{prefix}.self_s"] = statistics.median(
            p.layers.get(prefix, (0, 0.0, 0))[1] * probe.factor(*p.span) for p in traced
        )
        if ratio:
            values[f"{prefix}.{ratio}"] = hits / calls if calls else 0.0
        if any(p.layers.get(prefix, (0,))[0] != calls for p in traced):
            problems.append(f"{prefix}: call counts differ between traced passes")
    values["cli.output_bytes"] = sum(
        len(out[1].encode())
        for name, out in traced[0].outputs.items()
        if name.startswith(("cold:", "warm:")) and not isinstance(out, OpError)
    )
    traced_s = statistics.median(probe.scale(*p.span) for p in traced)
    values["trace.overhead_ratio"] = traced_s / probe.scale(*base.span)
    return values, problems


def install_layers(tracer: Tracer) -> None:
    for prefix, module, attr, sites, _ratio, outcome, when in LAYERS:
        tracer.install(
            prefix,
            f"posetmatrix.{module}",
            attr,
            sites=tuple(f"posetmatrix.{s}" for s in sites) if sites else None,
            outcome=outcome,
            when=when,
        )


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def measure_run(args, src: Path, work: Path, probe: SpeedProbe) -> Measured:
    workload, rounds = set_up(src, work, args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        passes = [run_pass(workload, None)]
        tracer = Tracer()
        install_layers(tracer)
        try:
            while len(passes) < 2 or time.perf_counter() < deadline:
                passes.append(run_pass(workload, tracer))
        finally:
            tracer.uninstall()
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(run_pass(workload, None))
    attempted, problems = check_outputs(workload, passes)
    digests = {
        name: hashlib.sha256(repr(out).encode()).hexdigest() for name, out in passes[0].outputs.items()
    }
    if args.trace:
        values, trace_problems = per_layer(passes[0], passes[1:], probe)
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"# spans: {spans_path} ({tracer.dropped} past the cap not kept)")
        return Measured(values, per_layer_units(), {}, attempted, problems + trace_problems, digests)
    for slot in SLOTS:
        print(f"# {slot}: {workload.labels[slot]}")
    speed = statistics.median(probe.factor(*p.span) for p in passes)
    print(
        f"# {len(passes)} passes of {len(workload.ops)} ops, {len(rounds)} set-up rounds, "
        f"{len(probe.took)} speed probes, reference seconds per wall second {speed:.3f}"
    )
    values = end_to_end(workload, passes, rounds, probe.scale)
    wall = end_to_end(workload, passes, rounds, lambda s, e: e - s)
    return Measured(values, END_TO_END, wall, attempted, problems, digests)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "posetmatrix" / "__init__.py").is_file():
        print(f"error: no posetmatrix package under {src}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    # the CLI falls back to $XDG_CACHE_HOME or ~/.cache when --cache-dir is
    # missing; point both into the run directory and fail the run if used
    fallback = (work / "xdg-cache", work / "home")
    os.environ["XDG_CACHE_HOME"], os.environ["HOME"] = map(str, fallback)
    sys.path.insert(0, str(src))
    try:
        with SpeedProbe() as probe:
            run = measure_run(args, src.resolve(), work, probe)
        if any(path.exists() for path in fallback):
            run.problems.append("a command used the default cache directory")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    for msg, times in Counter(run.problems).items():
        print(f"# FAILED {times}x {msg}")
    for key, unit in run.units.items():
        extra = f"  (wall clock {run.wall[key]:.6g})" if key in run.wall else ""
        print(f"# {key} = {run.values[key]:.6g} {unit}{extra}")
    print(f"# env {json.dumps(env)}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.problems),
        "metrics": {k: {"value": run.values[k], "unit": u} for k, u in run.units.items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "wall_clock": run.wall,
            "digests": run.digests,
            "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
