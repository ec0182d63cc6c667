#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- known answers for genome_frac, misjoins, the round-robin makespan and
  the computed DP cells (perfbench_selftest, on hand-built layouts);
- BENCHMARK.json keeps the benchmark contract's shape and limits;
- a run attempts the calls of its schedule, which depends only on the
  workload and --seconds, and wall_s's trimmed mean;
- a parallel call without a serial reference counts as failed, and a run
  whose P=4 calls all fail still reports them but prints no result;
- every metric name and unit printed by run.py, traced and untraced,
  matches BENCHMARK.json (one short env run each, ~30 s in total);
- without the library sources run.py fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from io import StringIO
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class KnownAnswers(unittest.TestCase):
    def test_selftest(self):
        run.build()
        r = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)


class Spec(unittest.TestCase):
    def test_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


def fake_op(p4_error=None):
    """A stand-in for run_op: every call succeeds, except that P=4 calls
    throw `p4_error` when it is given."""
    def op(args, deadline):
        if args[0] == "prepare":
            return "ok", {"ok": True, "fragments": 1, "bytes": 1}
        if args[0] == "setup":
            return "ok", {"ok": True, "load_s": [0.001] * 10}
        ranks = int(args[args.index("--ranks") + 1])
        if ranks == 4 and p4_error:
            return "threw", {"ok": False, "error": p4_error}
        prefix = args[args.index("--out") + 1]
        for ext in (".partition", ".contigs"):
            with open(prefix + ext, "wb") as f:
                f.write(b"x")
        rec = {"ok": True, "wall_s": 1.0, "peak_rss_mb": 1.0}
        rec.update({k: 0 for k in run.RETRY_COUNTERS + run.QUALITY})
        return "ok", rec
    return op


def fake_main(seed, p4_error=None):
    """run.main() on env with fake_op; returns (exit code, stdout)."""
    argv = ["run.py", "--workload", "env", "--seed", str(seed),
            "--seconds", "36", "--trace", "0"]
    out = StringIO()
    with mock.patch.object(run, "run_op", fake_op(p4_error)), \
            mock.patch.object(run, "build", lambda: None), \
            mock.patch.object(sys, "argv", argv), redirect_stdout(out):
        code = run.main()
    return code, out.getvalue()


class Plan(unittest.TestCase):
    def test_schedule(self):
        for w in run.WORKLOADS:
            sets = run.PLAN[w][0]
            for seconds in (1, 36, 60):
                calls = run.schedule(w, seconds)
                ranks = [r for _, r in calls]
                self.assertEqual(ranks.count(2), 1)
                self.assertEqual(ranks.count(0), sets)
                self.assertGreaterEqual(ranks.count(4), sets)
                # each read set's calls start with its serial reference
                for d in range(sets):
                    self.assertEqual(
                        [r for dd, r in calls if dd == d][0], 0)
            self.assertLessEqual(len(run.schedule(w, 1)),
                                 len(run.schedule(w, 60)))

    def test_attempted_is_the_schedule(self):
        code, text = fake_main(990002)
        self.assertEqual(code, 0)
        out = last_json(text)
        self.assertEqual(out["attempted"], len(run.schedule("env", 36)))
        self.assertEqual(out["failed"], 0)

    def test_trimmed_mean(self):
        xs = [2, 0, 2, 100, 2, 3, 1, 2, 4, 2]
        self.assertEqual(run.trimmed_mean(xs, 0.1), 2.25)
        self.assertEqual(run.trimmed_mean([1.0, 3.0], 0.1), 2.0)


class OutputChecks(unittest.TestCase):
    def test_parallel_output_without_serial_reference_fails(self):
        r = run.Run.__new__(run.Run)
        r.reference = {}
        ledger = run.Ledger()
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "out")
            for ext in (".partition", ".contigs"):
                with open(prefix + ext, "wb") as f:
                    f.write(b"x")
            status = r.check_output(4, 0, prefix, {})
            self.assertEqual(status, "unchecked")
            ledger.add("P=4", status, {})
            self.assertEqual(r.check_output(0, 0, prefix, {}), "ok")
            self.assertEqual(r.check_output(4, 0, prefix, {}), "ok")
        self.assertEqual(ledger.totals(), (1, 1))

    def test_run_whose_p4_calls_all_fail_reports_them_without_result(self):
        code, text = fake_main(990001, p4_error="all workers lost")
        self.assertEqual(code, 1)
        self.assertIn("threw: all workers lost", text)
        self.assertNotIn('"correct"', text)
        result = os.path.join(run.BUILD_DIR, "out", "env-seed990001",
                              "result-trace0.json")
        with open(result) as f:
            saved = json.load(f)
        self.assertEqual(saved["missing"], ["peak_rss_mb", "wall_s"])
        self.assertEqual(saved["calls"]["P=4"]["failed"],
                         saved["calls"]["P=4"]["attempted"])


class PrintedNames(unittest.TestCase):
    def check(self, trace, section):
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", "env", "--seed", "304",
                            "--seconds", "1", "--trace", str(trace)],
                           capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(r.returncode, 0, r.stderr)
        out = last_json(r.stdout)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec()[section]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        self.assertEqual(got, want)
        for v in out["metrics"].values():
            self.assertEqual(set(v), {"value", "unit"})

    def test_end_to_end_names(self):
        self.check(0, "end_to_end")

    def test_per_layer_names(self):
        self.check(1, "per_layer")


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "wgs", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               capture_output=True, text=True, cwd=tmp,
                               timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn("correct", r.stdout)


if __name__ == "__main__":
    unittest.main()
