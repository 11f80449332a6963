"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload's tiny round in this interpreter, untraced and traced,
and checks that the metric names the benchmark prints are those BENCHMARK.json
lists, that a planted wrong reference digest counts as a failed job, and that
run.py exits with an error and prints no result when kfree's sources are
missing.  The file is not named test_*.py, so the repository's test suite does
not collect it.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import worker
import workloads
from tracer import TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


class BenchmarkSelfTest(unittest.TestCase):
    def test_tiny_rounds_pass_and_metric_names_match(self):
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                untraced, _ = worker.run_pass(workload, 1, rounds=1, tiny=True)
                traced, _ = worker.run_pass(workload, 1, rounds=1, tiny=True, traced=True)
                for record in (untraced, traced):
                    self.assertEqual(record["failed"], 0, [j for j in record["jobs"] if j["error"]])
                metrics, _ = run.end_to_end(untraced, [0.1])
                self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
                self.assertTrue(all(value > 0 for value, _ in metrics.values()))
                layers = run.per_layer(traced, untraced)
                self.assertEqual(set(layers), {m["name"] for m in SPEC["per_layer"]})
                # the layer probe reaches every traced function on every workload
                for layer, names in TRACED.items():
                    for name in names:
                        self.assertGreater(layers[f"{layer}.{name}.calls"][0], 0, f"{layer}.{name}")

    def test_planted_wrong_digest_is_a_failure(self):
        job = workloads.round_jobs("count-sweep", 1, 0, tiny=True)[0]
        record, _ = worker.run_pass("count-sweep", 1, rounds=1, tiny=True, digests={job.key: "0" * 16})
        failed = [j for j in record["jobs"] if j["error"]]
        self.assertEqual([j["key"] for j in failed], [job.key])
        self.assertIn("reference 0000000000000000", failed[0]["error"])
        self.assertGreater(record["failed"] / record["attempted"], 0)

    def test_tail_percentile_keeps_ten_jobs_beyond(self):
        self.assertEqual(run.tail([float(i) for i in range(19)]), (100, 18.0))
        times = [float(i) for i in range(1, 101)]
        percentile, value = run.tail(times)
        self.assertEqual(percentile, 90)
        self.assertEqual(sum(1 for t in times if t > value), 10)

    def test_run_refuses_without_kfree_sources(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "window-max", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=170,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
