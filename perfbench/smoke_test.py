#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the root of a checkout (it builds like run.py does). For each
workload it runs run.py in tiny mode (a few machines, one day) and checks
that every metric is emitted with its unit, both untraced and traced; that
each correctness check fires when its expectation is deliberately corrupted;
and that run.py fails, without printing a result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CATALOGUE = json.load(_handle)

# The end-to-end metrics each untraced run prints, per workload.
COMMON = {"setup_s": "s", "setup_wall_s": "s", "peak_rss_mb": "MiB", "throughput_per_s": "1/s",
          "failed_op_frac": "ratio"}
PRINTED = {
    "batch": {**COMMON, "simulate_machines_per_s": "1/s", "sweep_machines_per_s": "1/s",
              "replay_events_per_s": "1/s"},
    "serve_live": {**COMMON, "ingest_events_per_s": "1/s", "ingest_batch_p50_ms": "ms",
                   "ingest_batch_p99_ms": "ms", "admission_p50_us": "us",
                   "admission_p99_us": "us"},
    "cluster_ab": {**COMMON, "machine_steps_per_s": "1/s"},
}
# The per-layer metrics each traced run measures (the rest are 0 there).
LAYERS = {
    "batch": ["trace.load_s", "trace.eventlog_build_s", "core.oracle_s",
              "core.oracle_cache_hits", "core.oracle_cache_misses", "core.sweep_bank_s",
              "sim.simulate_warm_s", "sim.machine_ms_p50", "sim.machine_ms_max",
              "sim.parallel_efficiency", "serve.advance_day_ms_p50", "serve.advance_day_ms_max",
              "serve.checkpoint_ms", "serve.checkpoint_bytes", "serve.finish_ms",
              "serve.parallel_efficiency", "bench.trace_overhead_frac"],
    "serve_live": ["trace.load_s", "trace.emit_ns_per_event", "serve.shard_ingest_skew",
                   "net.bytes_per_event", "net.ingest_server_p99_us", "net.window_wait_s",
                   "net.client_busy_frac", "net.admission_server_p99_us",
                   "net.admission_send_lag_p99_us", "net.rejected_frames",
                   "bench.trace_overhead_frac"],
    "cluster_ab": ["cluster.control_s", "cluster.exp_s", "cluster.analyze_s",
                   "cluster.placement_attempts", "cluster.tasks_placed",
                   "cluster.attempts_per_placed", "cluster.parallel_efficiency",
                   "bench.trace_overhead_frac"],
}
# The failure each workload's correctness check reports when corrupted.
CORRUPTED = {
    "batch": ["replay differs from SimulateCell", "differs from SimulateCell"],
    "serve_live": ["served end state differs from the in-process replay"],
    "cluster_ab": ["differs from the first"],
}


def run(workload, trace, *extra, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--workload", workload, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace), "--tiny", *extra],
                          capture_output=True, text=True, cwd=cwd, timeout=900)


def printed_metrics(stdout):
    """name -> unit of every metric line run.py printed."""
    metrics = {}
    for line in stdout.splitlines():
        fields = line.split()
        if line.startswith("  ") and len(fields) == 4 and fields[3].startswith("n="):
            metrics[fields[0]] = fields[2]
    return metrics


class SmokeTest(unittest.TestCase):

    def check_result(self, process, catalogue_key):
        self.assertEqual(process.returncode, 0, process.stderr[-2000:])
        result = json.loads(process.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in CATALOGUE[catalogue_key]}
        self.assertEqual({n: v["unit"] for n, v in result["metrics"].items()}, expected)
        return result

    def test_untraced_runs_emit_every_metric(self):
        for workload in PRINTED:
            with self.subTest(workload=workload):
                process = run(workload, 0)
                result = self.check_result(process, "end_to_end")
                self.assertTrue(result["correct"], process.stdout)
                self.assertEqual(result["failed"], 0)
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)
                printed = printed_metrics(process.stdout)
                for name, unit in PRINTED[workload].items():
                    self.assertEqual(printed.get(name), unit, name)

    def test_traced_runs_emit_every_layer_metric(self):
        for workload in LAYERS:
            with self.subTest(workload=workload):
                process = run(workload, 1)
                result = self.check_result(process, "per_layer")
                self.assertTrue(result["correct"], process.stdout)
                printed = printed_metrics(process.stdout)
                for name in LAYERS[workload]:
                    self.assertIn(name, printed)

    def test_corrupted_expectations_fail(self):
        for workload, messages in CORRUPTED.items():
            with self.subTest(workload=workload):
                process = run(workload, 0, "--corrupt")
                result = self.check_result(process, "end_to_end")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["op_success_frac"]["value"], 1.0)
                for message in messages:
                    self.assertIn(message, process.stdout)

    def test_fails_without_the_repository(self):
        build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, build_root, "perfbench-smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            process = run("batch", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(process.returncode, 0)
        self.assertNotIn('"correct"', process.stdout)


if __name__ == "__main__":
    unittest.main()
