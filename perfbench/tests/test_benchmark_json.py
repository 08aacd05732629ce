"""Checks of BENCHMARK.json and perfbench/pins.json against the benchmark's
own rules: metric-name and unit grammar, bounds, workloads, and agreement
with the metric names the benchmark binary reports.

Run with:  python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
(perfbench/run.py --self-test runs it too).
"""

import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def binary_per_layer_names():
    """The per-layer list compiled into the benchmark (bench_common.cpp)."""
    with open(os.path.join(PERFBENCH, "src", "bench_common.cpp"),
              encoding="utf-8") as f:
        text = f.read()
    body = text[text.index("per_layer_metrics()"):]
    body = body[:body.index("};")]
    return re.findall(r'\{"([^"]+)", "([^"]+)"\}', body)


class MetricNameGrammar(unittest.TestCase):
    def test_grammar_accepts_and_rejects(self):
        for good in ("setup_s", "serve.run_ms.p99", "pim.mvm_ns.block1",
                     "a-b", "9lives", "x" * 64):
            self.assertRegex(good, NAME)
        for bad in ("", ".x", "_x", "-x", "has space", "a/b", "x" * 65,
                    'q"uote'):
            self.assertNotRegex(bad, NAME)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertLessEqual(len(self.spec["command"]), 32)

    def test_workloads(self):
        workloads = self.spec["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = []
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "metric names repeat")
        self.assertTrue(1 <= len(self.spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.spec["per_layer"]) <= 128)

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_per_layer_matches_the_binary(self):
        want = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(want, binary_per_layer_names())

    def test_pins_cover_every_workload(self):
        pins = load(os.path.join(PERFBENCH, "pins.json"))
        self.assertEqual(set(pins), {w["name"] for w in self.spec["workloads"]})
        for workload, table in pins.items():
            self.assertTrue(table, workload)
            for key in table:
                self.assertRegex(key, NAME)


if __name__ == "__main__":
    unittest.main()
