"""Summarize or compare benchmark result files.

    python3 perfbench/compare.py RESULTS.jsonl             # spread of each metric
    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl  # verdict per metric

A result file holds the records that `run.py --out FILE` (or sweep.py)
appends, one per run.  Records are grouped by workload and by traced or
untraced run; for every metric the table gives each side's median and
quartiles over its runs.  Bounds come from BENCHMARK.json.

Verdicts, for metrics with a bound:
  worse      the after median is worse than the before median by more than the bound
  better     the medians differ by more than either side's quartile spread and
             the interquartile ranges do not overlap
  unresolved a side's quartile spread is wider than the bound
  unchanged  otherwise
Per-layer metrics have no bound; their rows show the change only.
Next to each end-to-end verdict the `wall` column gives the change of the
wall-clock medians, so a gap between reference and wall seconds shows.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def metric_specs() -> dict[str, dict]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def stats(recs, name) -> tuple[float, float, float] | None:
    xs = [r["result"]["metrics"][name]["value"] for r in recs if name in r["result"]["metrics"]]
    if not xs:
        return None
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(s) -> float:
    q1, med, q3 = s
    return (q3 - q1) / med if med else 0.0


def verdict(spec, a, b) -> str:
    if "bound" not in spec:
        return "-"
    sign = 1 if spec["better"] == "lower" else -1
    worse_by = sign * (b[1] - a[1]) / a[1]
    if worse_by > spec["bound"]:
        return "worse"
    noise = max(spread(a), spread(b))
    apart = b[2] < a[0] if sign == 1 else b[0] > a[2]
    if -worse_by > noise and apart:
        return "better"
    if noise > spec["bound"]:
        return "unresolved"
    return "unchanged"


def wall_change(before, after, name) -> str:
    a = [r["wall_clock"][name] for r in before if name in r.get("wall_clock", {})]
    b = [r["wall_clock"][name] for r in after if name in r.get("wall_clock", {})]
    if not a or not b:
        return "-"
    ma = statistics.median(a)
    return f"{(statistics.median(b) - ma) / ma:+.3f}"


def fmt(s) -> str:
    return f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}]"


def summarize(groups) -> bool:
    """Print median, quartiles and spread per metric; True when every
    bounded spread is below a third of its bound."""
    specs = metric_specs()
    steady = True
    for (workload, trace), recs in sorted(groups.items()):
        bad = sum(1 for r in recs if not r["result"]["correct"])
        print(f"== {workload} trace={trace}: {len(recs)} runs, {bad} not correct")
        steady = steady and not bad
        for name in recs[0]["result"]["metrics"]:
            s = stats(recs, name)
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread(s) >= bound / 3:
                flag = "  <- spread above bound/3"
                steady = False
            b = "" if bound is None else f"  bound {bound}"
            print(f"  {name:45s} {fmt(s):40s} spread {spread(s):.3f}{b}{flag}")
    return steady


def compare(before, after) -> None:
    specs = metric_specs()
    print(f"{'workload':19s} {'metric':42s} {'before median [q1, q3]':34s} {'after median [q1, q3]':34s} {'change':>8s} {'bound':>6s}  {'verdict':10s} {'wall':>7s}")
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        for name in before[key][0]["result"]["metrics"]:
            a, b = stats(before[key], name), stats(after[key], name)
            if a is None or b is None:
                continue
            change = (b[1] - a[1]) / a[1] if a[1] else 0.0
            bound = specs.get(name, {}).get("bound", "-")
            label = workload + ("" if trace == 0 else "/traced")
            print(
                f"{label:19s} {name:42s} {fmt(a):34s} {fmt(b):34s} {change:+8.3f} {bound!s:>6s}  "
                f"{verdict(specs.get(name, {}), a, b):10s} {wall_change(before[key], after[key], name):>7s}"
            )
    for key in sorted(set(before) ^ set(after)):
        print(f"# {key[0]} trace={key[1]}: runs on one side only")


def main(argv) -> int:
    if len(argv) == 1:
        return 0 if summarize(load(argv[0])) else 1
    if len(argv) == 2:
        compare(load(argv[0]), load(argv[1]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
