#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json and run.py agree on every metric, that
names, units and directions are well formed, that every per-layer
metric names the end-to-end metric and workload it should move, that
the failure rules reject what they should, and that a seed held out
from tuning passes every correctness check (this builds the driver).
"""

import importlib.util
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("perfbench_run",
                                              HERE / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Never used while choosing the workloads or tuning the windows.
HELD_OUT_SEED = 918273


class MetricTables(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_names_units_directions(self):
        for section in ("end_to_end", "per_layer"):
            for m in self.bench[section]:
                self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
                self.assertTrue(m["unit"], m["name"])
                self.assertIn(m["better"], ("lower", "higher"))

    def test_tables_match_benchmark_json(self):
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in self.bench["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: (m["unit"], m["better"])
                  for m in self.bench["per_layer"]}
        self.assertEqual(layers, {k: v[:2] for k, v in
                                  run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_every_layer_names_what_it_moves(self):
        workloads = set(run.WORKLOADS) | {"all"}
        for name, (_, _, moves, workload) in run.PER_LAYER.items():
            self.assertIn(moves, run.END_TO_END, name)
            self.assertIn(workload, workloads, name)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_model_unvalidated_statement(self):
        for w in self.bench["workloads"]:
            self.assertIn("model unvalidated", w["why"])
            self.assertIn("no error figure", w["why"])


def fake_run(**checks):
    base = {"audit_violations": 0, "invariant_violations": 0,
            "isolation_violations": 0, "ledger_violations": 0,
            "non_finite": 0, "export_failures": 0}
    base.update(checks)
    return {"checks": base, "host": {"wall_s": 1.0, "refs": 10,
                                     "epoch_ms": [1.0]},
            "fingerprint": {"t": {"slowdown": 0.01}}}


class FailureRules(unittest.TestCase):
    def test_clean_run_passes(self):
        r = fake_run()
        self.assertIsNone(run.failure(r, r["fingerprint"]))

    def test_violations_fail(self):
        for key in ("audit_violations", "invariant_violations",
                    "isolation_violations", "non_finite"):
            self.assertIsNotNone(run.failure(fake_run(**{key: 1}), None))

    def test_fingerprint_mismatch_fails(self):
        r = fake_run()
        self.assertIsNotNone(
            run.failure(r, {"t": {"slowdown": 0.02}}))

    def test_non_finite_timing_fails(self):
        r = fake_run()
        r["host"]["wall_s"] = float("nan")
        self.assertIsNotNone(run.failure(r, None))

    def test_draw_count_mismatch_fails(self):
        r = fake_run()
        r["layers"] = {"workload.draws": 11}
        self.assertIsNotNone(run.failure(r, None))

    def test_tail_leaves_ten_epochs_beyond(self):
        for per_run in (19, 20, 60):
            block = per_run * run.block_runs(per_run)
            self.assertGreaterEqual(block, run.BLOCK_EPOCHS)
            epochs = list(range(block))
            tail = run.nearest_rank(epochs, run.tail_fraction(block))
            self.assertEqual(sum(e > tail for e in epochs), 10)


class HeldOutSeed(unittest.TestCase):
    def test_held_out_seed_is_correct(self):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 "websearch-thermostat", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stderr[-2000:])
            self.assertEqual(result["failed"], 0)
            table = run.PER_LAYER if trace else run.END_TO_END
            self.assertEqual(set(result["metrics"]), set(table))


if __name__ == "__main__":
    unittest.main()
