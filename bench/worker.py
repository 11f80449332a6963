"""One pass of a workload, in an interpreter of its own.

    python3 bench/worker.py --workload NAME --seed N (--seconds T | --rounds R) [--traced] [--spans PATH]

The pass first runs the layer probe (the tiny round of every workload), then
runs rounds of the workload as a closed loop with one client: one job at a
time, each started when the previous one has returned.  With ``--seconds`` it
starts another round only while that round is expected to end within T
seconds; with ``--rounds`` it runs exactly R rounds.

Throughout the pass a timer signal interrupts the loop every 20 ms to time a
short fixed pure-Python reference loop.  A job's time is given net of those
interruptions, and also divided by the median reference time over the job and
the moments before it, which tracks how fast the shared host runs just then.

Every output is hashed and compared with the reference digest recorded for
the same job, where there is one, and checked against the benchmark's own
oracles.  The pass prints one JSON record as its last line of output.
"""

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

sys.path.insert(0, str(SRC))

import kfree  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SAMPLE_INTERVAL_S = 0.02
SAMPLE_ITERATIONS = 2000  # about 0.2 ms, so sampling costs about 1% of the loop
# A job's reference time also uses this many samples from just before it, so
# a job shorter than the interval still has a reference.
SAMPLES_BEFORE = 8


def reference_loop(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class HostSampler:
    """Times the reference loop on a wall-clock timer signal while active."""

    def __init__(self):
        self.samples = [reference_loop() for _ in range(SAMPLES_BEFORE)]
        self.spent = 0.0  # seconds spent in timer-driven samples

    def _tick(self, signum, frame) -> None:
        elapsed = reference_loop()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, first: int) -> float:
        """Median reference time over the samples from index ``first`` on,
        together with the few taken just before it."""
        return statistics.median(self.samples[max(0, first - SAMPLES_BEFORE) :])


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="ascii") as handle:
        return json.load(handle)


def run_pass(
    workload: str,
    seed: int,
    seconds: float | None = None,
    rounds: int | None = None,
    traced: bool = False,
    tiny: bool = False,
    digests: dict[str, str] | None = None,
) -> tuple[dict, Tracer | None]:
    """Run the probe and then rounds of ``workload``; return the pass record
    and, for a traced pass, the tracer holding its spans."""
    if (seconds is None) == (rounds is None):
        raise ValueError("give exactly one of seconds and rounds")
    digests = load_digests() if digests is None else digests
    tracer = Tracer() if traced else None
    checking = tracer.paused if tracer else nullcontext
    sampler = HostSampler()
    jobs = []

    def run(job, round_index: int) -> None:
        first, spent = len(sampler.samples), sampler.spent
        start = time.perf_counter()
        with tracer.span("probe" if round_index < 0 else "job") if tracer else nullcontext():
            try:
                result, error = job.call(), None
            except Exception as exc:  # a failed job is counted, the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - (sampler.spent - spent)
        norm = elapsed / sampler.reference(first)
        output = None
        if error is None:
            with checking():
                try:
                    output = workloads.digest(result)
                    expected = digests.get(job.key)
                    if expected is not None and expected != output:
                        error = f"digest {output}, reference {expected}"
                    else:
                        error = job.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
        jobs.append(
            {
                "key": job.key,
                "round": round_index,
                "s": elapsed,
                "norm": norm,
                "digest": output,
                "digest_checked": job.key in digests,
                "error": error,
            }
        )

    if tracer:
        tracer.install()
    try:
        with sampler:
            for job in workloads.probe_jobs():
                run(job, -1)
            round_records = []
            loop_start = time.perf_counter()
            while True:
                done = len(round_records)
                if rounds is not None:
                    if done >= rounds:
                        break
                elif done and (time.perf_counter() - loop_start) * (done + 1) / done > seconds:
                    break
                first = len(jobs)
                for job in workloads.round_jobs(workload, seed, done, tiny):
                    run(job, done)
                ran = jobs[first:]
                round_records.append(
                    {"wall_s": sum(j["s"] for j in ran), "wall_norm": sum(j["norm"] for j in ran)}
                )
    finally:
        if tracer:
            tracer.uninstall()

    record = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "traced": traced,
        "rounds": round_records,
        "jobs": jobs,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["error"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_s": statistics.median(sampler.samples),
    }
    if tracer:
        record["layers"] = {
            "functions": tracer.summary(),
            "work": dict(tracer.work),
            "errors": dict(tracer.errors),
            "spans": len(tracer.spans),
        }
    return record, tracer


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans as [name index, start, duration, parent index], times in
    microseconds from the first span."""
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        [index[name], round((start - origin) * 1e6), round((end - start) * 1e6), parent]
        for name, start, end, parent in tracer.spans
    ]
    with open(path, "w", encoding="ascii") as handle:
        json.dump({"names": names, "spans": rows}, handle, separators=(",", ":"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the traced pass's spans here")
    args = parser.parse_args()
    if Path(kfree.__file__).resolve().parent != (SRC / "kfree").resolve():
        print(f"error: imported kfree from {kfree.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record, tracer = run_pass(args.workload, args.seed, args.seconds, args.rounds, args.traced)
    if tracer and args.spans:
        write_spans(tracer, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
