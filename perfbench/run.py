#!/usr/bin/env python3
"""End-to-end benchmark of the duplexsim CLI pipeline.

    python3 perfbench/run.py --workload interact_long --seed 0 --seconds 20 --trace 0

Runs one workload's stages (synth -> train -> interact|continue -> eval,
each a `duplexsim.cli.main(argv)` call in this process) in rounds until
`--seconds` have passed, and at least three times. Every round checks the
outputs of every stage. Times are read on a reference clock (refclock.py)
that corrects wall time for the host's changing speed. `--trace 0` reports
the end-to-end metrics over the rounds (see `end_to_end`); `--trace 1`
alternates untraced rounds with rounds that record spans around each layer
(see layers.py) and reports the per-layer metrics. The last line of stdout is the result JSON; the line
before it is the full record: machine, seed, every round and the digests.

The workload runs in `.perfbench/<workload>-seed<n>-trace<t>/` under the
repository root, which is removed afterwards; records and spans are kept in
`.perfbench/results/`.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: the benchmark measures
# one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import refclock
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 3
# Fewer reference-clock samples than this during one kind of stage, and
# that kind's time is scaled by the samples of its whole round.
MIN_SAMPLES = 5
DEFAULT_SEED = 0  # the seed whose output digests digests.json pins


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def call_cli(argv: list[str]):
    """Exit code of one CLI stage, or a description of how it crashed."""
    import duplexsim.cli

    try:
        return duplexsim.cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return "uncaught exception"


def check(stage, checks, digests: dict[str, str], out: dict) -> str | None:
    """Why the stage's outputs are wrong, or None. A check that raises
    counts as a failed check."""
    try:
        problem = checks.check_stage(stage, out["estimates"])
        for path in stage.digests if problem is None else ():
            digest = checks.sha256(path)
            if digests.setdefault(path, digest) != digest:
                problem = f"{path}: digest {digest} differs from {digests[path]}"
                out["digest_mismatches"] += 1
        return problem
    except Exception as exc:
        traceback.print_exc()
        return f"check raised {exc!r}"


def run_round(plan, checks, digests: dict[str, str], clock, traced: bool) -> dict:
    """Run every stage once, stopping at the first that exits non-zero, then
    check the outputs of the stages that ran. `<kind>_s` is the time of the
    round's stages of that kind on the reference clock, `wall_s` their wall
    times. `rss_mb` is the process's peak resident memory before this
    round's checks load any output."""
    wall = {"setup": 0.0, "generate": 0.0, "eval": 0.0}
    samples = {kind: [] for kind in wall}
    out = {"traced": traced, "attempted": 0, "failed": 0, "digest_mismatches": 0,
           "output_bytes": 0, "model_bytes": 0, "estimates": [0, 0, 0]}
    gc.collect()
    ran = []
    for stage in plan.stages:
        out["attempted"] += 1
        first = len(clock.samples)
        start = time.perf_counter()
        rc = call_cli(stage.argv)
        wall[stage.kind] += time.perf_counter() - start
        samples[stage.kind] += clock.samples[first:]
        if rc != 0:
            print(f"stage {' '.join(stage.argv)} failed: exit code {rc}", file=sys.stderr)
            out["failed"] += 1
            break
        ran.append(stage)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for stage in ran:
        problem = check(stage, checks, digests, out)
        if problem is not None:
            print(f"stage {' '.join(stage.argv)} failed: {problem}", file=sys.stderr)
            out["failed"] += 1
            continue
        out["output_bytes"] += sum(os.path.getsize(p) for p in stage.outputs)
        out["model_bytes"] += sum(os.path.getsize(p) for p in stage.models)
    in_round = [x for xs in samples.values() for x in xs]
    for kind, t in wall.items():
        kind_samples = samples[kind] if len(samples[kind]) >= MIN_SAMPLES else in_round
        out[f"{kind}_s"] = refclock.seconds(t, kind_samples)
    out["total_s"] = out["setup_s"] + out["generate_s"] + out["eval_s"]
    out["rtf"] = out["generate_s"] / plan.generated_s
    out["wall_s"] = wall
    out["chunk_us"] = statistics.median(in_round) * 1e6 if in_round else None
    return out


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Times are on the reference clock. setup_s is the median over rounds,
    as the benchmark's contract asks of set-up time; the other times are
    means over rounds, which spread less across runs (README.md, "Noise").
    peak_rss_mb is read in the first round, before any check has loaded an
    output into this process."""
    def mean(key):
        return statistics.fmean(r[key] for r in rounds)

    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "generate_s": (mean("generate_s"), "s"),
        "eval_s": (mean("eval_s"), "s"),
        "total_s": (mean("total_s"), "s"),
        "rtf": (mean("rtf"), "ratio"),
        "output_mb": (mean("output_bytes") / 1e6, "MB"),
        "model_mb": (mean("model_bytes") / 1e6, "MB"),
        "peak_rss_mb": (rounds[0]["rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every stage at a toy size, for the benchmark's test")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "duplexsim" / "cli.py").is_file():
        print(json.dumps({"error": f"duplexsim sources not found under {src}"}),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import checks
    import layers

    if args.seed < 0:
        ap.error("--seed must be >= 0")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        label += f"-{args.size}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / label
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    pinned = {}
    if args.seed == DEFAULT_SEED and args.size == "full":
        recorded = json.loads((BENCH_DIR / "digests.json").read_text())
        pinned = dict(recorded["workloads"].get(args.workload, {}))
    digests = dict(pinned)

    tracer = layers.Tracer()
    clock = refclock.RefClock()
    rounds: list[dict] = []
    layer_rounds: list[dict] = []
    os.chdir(workdir)
    clock.start()
    try:
        plan = workloads.prepare(args.workload, args.seed, args.size)
        start = time.perf_counter()
        while True:
            rounds.append(run_round(plan, checks, digests, clock, traced=False))
            if args.trace and not rounds[-1]["failed"]:
                tracer.install()
                try:
                    rounds.append(run_round(plan, checks, digests, clock, traced=True))
                finally:
                    tracer.restore()
                layer_rounds.append(layers.round_metrics(tracer, tracer.run,
                                                         rounds[-1]["estimates"]))
                tracer.run += 1
            if rounds[-1]["failed"]:
                break
            if time.perf_counter() - start >= args.seconds and \
                    sum(not r["traced"] for r in rounds) >= MIN_ROUNDS:
                break
    finally:
        clock.stop()
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if not pinned:
        digest_status = "unpinned"
    elif any(r["digest_mismatches"] for r in rounds):
        digest_status = "mismatch"
    elif failed:
        digest_status = "unverified"
    else:
        digest_status = "match"
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics = {}
        if layer_rounds:
            traced_total = statistics.median(r["total_s"] for r in rounds if r["traced"])
            plain_total = statistics.median(r["total_s"] for r in plain)
            medians = {k: statistics.median(r[k] for r in layer_rounds)
                       for k in layer_rounds[0]}
            medians["trace.overhead_share"] = traced_total / plain_total - 1
            metrics = {k: (medians[k], unit) for k, unit in layers.PER_LAYER.items()}
        spans_path = results / f"{label}.spans.jsonl"
        tracer.dump(spans_path)
    else:
        metrics = end_to_end(plain)
        spans_path = None

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "machine": machine(),
        "digests": digest_status, "output_digests": digests, "rounds": rounds,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / f"{label}.json").write_text(json.dumps({**record, "result": result},
                                                      indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
