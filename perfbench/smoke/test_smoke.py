"""Toy-scale smoke test of the benchmark.

    python3 -m unittest discover -s perfbench/smoke -v

Runs perfbench/run.py on every workload shrunk to a few hundred peers and
checks that every metric BENCHMARK.json names is printed with its unit, that
the output checks run and can fail, and that the benchmark refuses to run
without the library sources.  Needs cmake and a C++ compiler; the first run
builds .bench_build/.
"""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
CHECKS = ["joins_complete", "repetitions_identical", "traced_matches_untraced",
          "attributed_fraction", "op_fail_ratio", "data_loss_ratio"]


def run_bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ToyBenchmark(unittest.TestCase):
    def test_all_workloads_print_every_metric_with_unit(self):
        done = run_bench("--workload", "all", "--scale", "toy", "--seed", "1",
                         "--seconds", "0")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.splitlines()
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4:
                printed[(parts[0], parts[1])] = parts[3]
        for workload in WORKLOADS:
            for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
                key = (workload, metric["name"])
                self.assertIn(key, printed)
                self.assertEqual(printed[key], metric["unit"], key)
            for check in CHECKS:
                self.assertIn("%s check %s: ok" % (workload, check), done.stdout)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], len(WORKLOADS))
        self.assertEqual(result["failed"], 0)

    def test_trace_flag_selects_the_metric_set(self):
        for trace, set_name in (("0", "end_to_end"), ("1", "per_layer")):
            done = run_bench("--workload", WORKLOADS[0], "--scale", "toy",
                             "--seed", "2", "--seconds", "0", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in BENCHMARK[set_name]})
            for metric in BENCHMARK[set_name]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"],
                                 metric["unit"])

    def test_checks_fail_on_perturbed_outputs(self):
        run = load_run_module()
        self.assertTrue(run.build())
        with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
            spec = json.load(f)["workloads"][WORKLOADS[0]]["toy"]
        record = run.measure(spec["args"], 3, 0, True)
        self.assertTrue(all(ok for _, ok, _ in run.checks(record, spec, 3)))

        def failing(mutate):
            broken = json.loads(json.dumps(record))
            mutate(broken)
            return {name for name, ok, _ in run.checks(broken, spec, 3) if not ok}

        def drop_join(r):
            r["untraced"][0]["joins_completed"] -= 1

        def perturb_traced(r):
            r["traced"]["events"] += 1

        def fail_lookups(r):
            r["untraced"][0]["lookups_failed"] = r["untraced"][0]["lookups_issued"]

        def lose_items(r):
            r["untraced"][0]["items_recoverable"] = 0

        self.assertIn("joins_complete", failing(drop_join))
        self.assertEqual({"traced_matches_untraced"}, failing(perturb_traced))
        self.assertIn("op_fail_ratio", failing(fail_lookups))
        self.assertIn("data_loss_ratio", failing(lose_items))

    def test_ceiling_is_the_seeds_recorded_value(self):
        run = load_run_module()
        recorded = {"first_seed": 5, "op_fail_ratio": [0.0, 0.25, 0.5]}
        self.assertEqual(run.ceiling(recorded, "op_fail_ratio", 6)[0], 0.25)
        self.assertEqual(run.ceiling(recorded, "op_fail_ratio", 5)[0], 0.0)
        self.assertEqual(run.ceiling(recorded, "op_fail_ratio", 4)[0], 0.5)
        self.assertEqual(run.ceiling(recorded, "op_fail_ratio", 8)[0], 0.5)

    def test_refuses_to_run_without_library_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
