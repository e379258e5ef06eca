"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py                           # every workload
    python3 perfbench/selftest.py --workload cli-session    # one workload

For each workload it makes two traced runs and one untraced run with the same
seed, each as short as the run loop allows, and checks that
  - every run is correct,
  - the two traced runs report identical `*.calls` counts and cli.output_bytes,
  - all three runs give identical op outputs, so traced values equal untraced,
  - each run prints exactly the metrics BENCHMARK.json lists for its mode.
It checks the speed probe in-process: an op with an allocating busy loop
added must grow by the same ratio in reference seconds as in wall seconds.
Then it copies only BENCHMARK.json and perfbench/ into a scratch directory and
checks that run.py exits non-zero there without printing a result.
Exit status 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
PROBE_PAIRS = 9
PROBE_TOLERANCE = 0.1  # largest relative gap between the two growth ratios


def bench(script: Path, workload: str, seed: int, trace: int, out: Path, cwd: Path):
    cmd = [
        sys.executable, str(script), "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--out", str(out),
    ]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def check_workload(spec: dict, workload: str, seed: int, tmp: Path) -> list[str]:
    out = tmp / f"{workload}.jsonl"
    errors = []
    for trace in (1, 1, 0):
        proc = bench(HERE / "run.py", workload, seed, trace, out, ROOT)
        if proc.returncode != 0:
            return [f"{workload}: run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}"]
    traced_a, traced_b, plain = [json.loads(line) for line in out.read_text().splitlines()]
    for rec in (traced_a, traced_b, plain):
        result = rec["result"]
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload} trace={rec['trace']}: {result['failed']} of {result['attempted']} ops failed")
        want = [m["name"] for m in spec["per_layer" if rec["trace"] else "end_to_end"]]
        if list(result["metrics"]) != want:
            errors.append(f"{workload} trace={rec['trace']}: metric names differ from BENCHMARK.json")
    ma, mb = traced_a["result"]["metrics"], traced_b["result"]["metrics"]
    for name in ma:
        if (name.endswith(".calls") or name == "cli.output_bytes") and ma[name] != mb.get(name):
            errors.append(f"{workload}: {name} differs between traced runs: {ma[name]} vs {mb.get(name)}")
    if not traced_a["digests"] == traced_b["digests"] == plain["digests"]:
        errors.append(f"{workload}: op outputs differ between traced and untraced runs")
    return errors


def check_probe() -> list[str]:
    """Time an ex solve alone and with a busy loop that builds a large heap of
    GC-tracked objects and keeps it alive during the solve, in alternating
    pairs, and compare how much longer the second is in each clock."""
    sys.path.insert(0, str(ROOT / "src"))
    import posetmatrix as pm

    pats = [pm.identity_matrix(2, 3)]

    def plain() -> None:
        pm.extremal.ex_exact((3, 3, 3), pats, cache=None)

    def busy() -> None:
        heap = [[i, (i, i + 1)] for i in range(300_000)]
        plain()
        del heap

    ratios = {"reference": [], "wall": []}
    with SpeedProbe() as probe:
        for _ in range(PROBE_PAIRS):
            spans = []
            for fn in (plain, busy):
                t0 = time.perf_counter()
                fn()
                spans.append((t0, time.perf_counter()))
            ratios["reference"].append(probe.scale(*spans[1]) / probe.scale(*spans[0]))
            ratios["wall"].append((spans[1][1] - spans[1][0]) / (spans[0][1] - spans[0][0]))
    ref, wall = (statistics.median(ratios[k]) for k in ("reference", "wall"))
    print(f"probe: busy/plain {ref:.3f} in reference seconds, {wall:.3f} in wall seconds", flush=True)
    if abs(ref / wall - 1) > PROBE_TOLERANCE:
        return [f"probe: added work grows reference seconds {ref:.3f}x but wall seconds {wall:.3f}x"]
    return []


def check_bare_copy(spec: dict, tmp: Path) -> list[str]:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc = bench(bare / "perfbench" / "run.py", workload, 1, 0, tmp / "bare.jsonl", bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py did not refuse to run without the package sources"]
    return []


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    tmp = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    errors = []
    try:
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            found = check_workload(spec, workload, SEED, tmp)
            print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
        errors += check_probe()
        errors += check_bare_copy(spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for e in errors:
        print(f"FAILED {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
