#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at smoke size through its output checks (untraced
and traced), shows that a diverging optimizer fails the run, and checks
the trace layer table's busy/self arithmetic on a hand-made trace.
Takes about a minute once the binary is built.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = run.load_benchmark()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, trace=0, seconds=2):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return proc


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_run(self, workload, trace):
        proc = bench(workload, "--smoke", trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return proc

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, trace=0)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = self.check_run(workload, trace=1)
                self.assertIn("layer table", proc.stdout)

    def test_diverging_adam_fails_its_check(self):
        # Full-size char model: Adam at 0.2 blows the loss up (and the
        # step time with it); the loss check must refuse the run.
        proc = bench("train_char_1rank", "--adam-lr", "0.2", seconds=1)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("CHECK FAILED: loss did not go down", proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])

    def test_unknown_workload_is_refused(self):
        proc = bench("no_such_workload")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class LayerTable(unittest.TestCase):
    def test_busy_and_self_time(self):
        # Lane 1: core.run_epoch [0,100) holds train_step [10,60), which
        # holds forward [10,30) and pool_chunk [35,45).  Lane 2 runs
        # another pool_chunk [0,5).
        events = [
            {"name": "core.run_epoch", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0, "dur": 100},
            {"name": "train_step", "ph": "X", "pid": 1, "tid": 1,
             "ts": 10, "dur": 50},
            {"name": "forward", "ph": "X", "pid": 1, "tid": 1,
             "ts": 10, "dur": 20},
            {"name": "pool_chunk", "ph": "X", "pid": 1, "tid": 1,
             "ts": 35, "dur": 10},
            {"name": "pool_chunk", "ph": "X", "pid": 1, "tid": 2,
             "ts": 0, "dur": 5},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump({"traceEvents": events}, f)
            f.flush()
            table, dropped = run.layer_table(f.name)
        rows = {layer: (n, busy, own) for layer, n, busy, own in table}
        self.assertEqual(dropped, 0)
        # core: busy counts run_epoch only (train_step nests inside it);
        # self = (100 - 50) + (50 - 20 - 10).
        self.assertEqual(rows["core"], (2, 0.1, 0.07))
        self.assertEqual(rows["nn"], (1, 0.02, 0.02))
        self.assertEqual(rows["tensor"], (2, 0.015, 0.015))


if __name__ == "__main__":
    unittest.main(verbosity=2)
