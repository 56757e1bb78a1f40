#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/sweep.py                      # every workload, seed 0
    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9 --out a.json
    python3 perfbench/sweep.py --seeds 10 11 12 --compare a.json

Runs the command in BENCHMARK.json once per workload and seed, one after
another, and prints every end-to-end metric by name and unit: the median
over seeds and the quartile spread as a share of it, next to the metric's
bound. `--trace-seed` adds one traced run per workload. `--compare` prints
each median's change against an earlier `--out` file and flags changes for
the worse beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    record = json.loads(lines[-2])["record"]
    return {"seed": seed, "trace": trace, "machine": record["machine"],
            "digests": record["digests"], **json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and the distance between the quartiles as a share of it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--compare", type=Path, default=None)
    args = ap.parse_args(argv)

    before = json.loads(args.compare.read_text())["summary"] if args.compare else {}
    runs, summary = {}, {}
    for w in (w["name"] for w in bench["workloads"]):
        runs[w] = [run(bench, w, s, 0) for s in args.seeds]
        if args.trace_seed is not None:
            runs[w].append(run(bench, w, args.trace_seed, 1))
        plain = [r for r in runs[w] if not r["trace"]]
        print(f"{w}: seeds {args.seeds}, attempted "
              f"{sum(r['attempted'] for r in plain)}, ops_failed "
              f"{sum(r['failed'] for r in plain)}, digests "
              f"{sorted({r['digests'] for r in plain})}")
        summary[w] = {}
        for m in bench["end_to_end"]:
            med, iqr = spread([r["metrics"][m["name"]]["value"] for r in plain])
            summary[w][m["name"]] = {"median": med, "iqr_share": iqr}
            line = (f"  {m['name']:<12} {med:12.5g} {m['unit']:<6} spread {iqr:6.3f}"
                    f" (bound {m['bound']})")
            if w in before:
                change = med / before[w][m["name"]]["median"] - 1
                worse = change if m["better"] == "lower" else -change
                line += f"  change {change:+.3f}{'  WORSE' if worse > m['bound'] else ''}"
            print(line)
    if args.out is not None:
        args.out.write_text(json.dumps({"benchmark": bench,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
