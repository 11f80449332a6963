"""kfree benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it times the CLI start-up
(``setup_s``) and then one untraced pass of the workload for T seconds in a
fresh interpreter, and prints the end-to-end metrics.  With ``--trace 1`` it
runs an untraced pass for T/2 seconds and then a traced pass of the same
rounds, each in a fresh interpreter, and prints the per-layer metrics; the
tracing overhead is the traced round time minus the untraced one.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it, and a file under ``.bench_out/``,
hold the run's metadata: src/ line count, Python version, core count, seed,
job list and output digests.  Without kfree's sources under ``src/`` it exits
with code 2 and prints no result.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED, WORK

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("window-max", "count-sweep", "construct-mix")

SETUP_COMMAND = ("-m", "kfree.cli", "sieve-count", "--x", "1")
SETUP_RUNS = 9
# Every run must end within 180 s, builds and all.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def tail(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 jobs beyond it, and the
    job time there (nearest rank).  Below 20 jobs that percentile would not
    exceed the median, so the slowest job is reported, as percentile 100."""
    times = sorted(times)
    n = len(times)
    if n < 20:
        return 100, times[-1]
    percentile = 100 * (n - 10) // n
    return percentile, times[math.ceil(percentile * n / 100) - 1]


def end_to_end(record: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same job statistics in seconds.

    Job times are in reference-loop units: on a shared host the seconds of
    identical work drift by a quarter or more from run to run, and the ratio
    to the reference loop timed alongside cancels most of that drift.
    """
    jobs = [job for job in record["jobs"] if job["round"] >= 0]
    percentile, tail_norm = tail([job["norm"] for job in jobs])
    _, tail_s = tail([job["s"] for job in jobs])
    values = {
        "wall_norm": (statistics.median(r["wall_norm"] for r in record["rounds"]), "ref"),
        "job_p50_norm": (statistics.median(job["norm"] for job in jobs), "ref"),
        "job_tail_norm": (tail_norm, "ref"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    seconds = {
        "wall_s": statistics.median(r["wall_s"] for r in record["rounds"]),
        "job_p50_s": statistics.median(job["s"] for job in jobs),
        "job_tail_s": tail_s,
        "tail_percentile": percentile,
        "jobs_timed": len(jobs),
    }
    return values, seconds


def per_layer(traced: dict, untraced: dict) -> dict:
    rounds = len(traced["rounds"])
    layers = traced["layers"]
    values = {}
    for layer, names in TRACED.items():
        for name in names:
            entry = layers["functions"].get(f"{layer}.{name}", {"calls": 0, "self_s": 0.0})
            values[f"{layer}.{name}.calls"] = (entry["calls"] / rounds, "count")
            values[f"{layer}.{name}.self_s"] = (entry["self_s"] / rounds, "s")
        values[f"{layer}.errors"] = (layers["errors"].get(layer, 0), "count")
    for function, metric, _ in WORK:
        total = layers["work"].get(f"{function}.{metric}", 0)
        if metric == "exact":
            calls = layers["functions"].get(function, {"calls": 0})["calls"]
            values[f"{function}.exact_ratio"] = (total / calls if calls else 0.0, "ratio")
        else:
            values[f"{function}.{metric}"] = (total / rounds, "count")

    def median_wall(record):
        return statistics.median(r["wall_s"] for r in record["rounds"])

    values["trace.overhead_s"] = (median_wall(traced) - median_wall(untraced), "s")
    return values


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def measure_setup(deadline: float) -> tuple[list[float], int]:
    """Wall times of fresh interpreters running the CLI, after one warm-up run
    that leaves compiled bytecode behind, and how many of them misbehaved.

    An installed package has its bytecode compiled once, so bytecode writing
    is allowed here even where the environment turns it off.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, *SETUP_COMMAND]
    times, failed = [], 0
    for attempt in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining(deadline)
        )
        elapsed = time.perf_counter() - start
        if attempt:
            times.append(elapsed)
            failed += bool(done.returncode or done.stdout != "1\n")
    return times, failed


def run_worker(workload: str, seed: int, extra: list[str], deadline: float) -> dict:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining(deadline))
    if done.returncode:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description="kfree benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "kfree" / "__init__.py").is_file():
        print(f"error: no kfree sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    try:
        if args.trace == 0:
            setup_times, setup_failed = measure_setup(deadline)
            record = run_worker(args.workload, args.seed, ["--seconds", str(args.seconds)], deadline)
            metrics, extra = end_to_end(record, setup_times)
            meta.update(extra, setup_runs=setup_times)
            passes = [record]
        else:
            setup_failed = 0
            untraced = run_worker(args.workload, args.seed, ["--seconds", str(args.seconds / 2)], deadline)
            spans = OUT / f"spans-{tag}.json"
            rounds = str(len(untraced["rounds"]))
            record = run_worker(
                args.workload, args.seed, ["--rounds", rounds, "--traced", "--spans", str(spans)], deadline
            )
            metrics = per_layer(record, untraced)
            meta.update(spans=str(spans.relative_to(ROOT)), span_count=record["layers"]["spans"])
            passes = [untraced, record]
    except (BenchError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes) + len(meta.get("setup_runs", ()))
    failed = sum(p["failed"] for p in passes) + setup_failed
    meta.update(
        rounds=len(record["rounds"]),
        reference_loop_s=record["reference_s"],
        jobs=[[j["key"], j["round"], j["s"], j["norm"], j["digest"]] for j in record["jobs"]],
        digest_checked=sum(j["digest_checked"] for j in record["jobs"]),
        failures=[[j["key"], j["error"]] for p in passes for j in p["jobs"] if j["error"]],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="ascii") as handle:
        json.dump({"meta": meta, **result}, handle, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
