"""Record the reference output digests of the default seed.

    python3 bench/record_digests.py

Runs the layer probe and the first rounds of every workload at seed 0, checks
each output against the oracles, and writes the digest of every job to
bench/digests.json.  The benchmark then fails any later run whose output for
the same job differs.  Recording refuses to write if any job failed.
"""

import json
import sys

import worker

SEED = 0
# More rounds than a run of the default length completes on a 2-core host.
ROUNDS = {"window-max": 6, "count-sweep": 10, "construct-mix": 60}


def main() -> int:
    digests = {}
    for workload, rounds in ROUNDS.items():
        record, _ = worker.run_pass(workload, SEED, rounds=rounds, digests={})
        failures = [(job["key"], job["error"]) for job in record["jobs"] if job["error"]]
        if failures:
            print(f"error: {workload} jobs failed: {failures}", file=sys.stderr)
            return 1
        digests.update((job["key"], job["digest"]) for job in record["jobs"])
        print(f"{workload}: {len(record['jobs'])} jobs", file=sys.stderr)
    with open(worker.DIGESTS, "w", encoding="ascii") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
