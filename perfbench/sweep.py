"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --out .perfbench/before.jsonl --runs 10
    python3 perfbench/sweep.py --out .perfbench/trace.jsonl --runs 2 --trace 1 --workload la-family

Runs one `run.py` process at a time, seeds 1..runs for each workload, each for
BENCHMARK.json's run_seconds, appends every record to --out, then prints the
summary of compare.py for that file.  Exit status 1 means a run failed or a
bounded spread reached a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        for seed in range(1, args.runs + 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace), "--out", args.out,
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} seed {seed}: exit {proc.returncode} {last[:100]}", flush=True)
            ok = ok and proc.returncode == 0
    return 0 if compare.summarize(compare.load(args.out)) and ok else 1


if __name__ == "__main__":
    sys.exit(main())
