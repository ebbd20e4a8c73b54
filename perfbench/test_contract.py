"""Keeps BENCHMARK.json, run.py and predictions.json in step.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def load(path):
    with open(path) as fh:
        return json.load(fh)


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(os.path.dirname(HERE),
                                      "BENCHMARK.json"))
        cls.predictions = load(os.path.join(HERE, "predictions.json"))

    def test_workloads_match(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(run.BATCH))

    def test_end_to_end_metrics_match(self):
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)

    def test_per_layer_metrics_match(self):
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER)

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_predictions_name_known_metrics(self):
        for entry in self.predictions["predictions"]:
            self.assertIn(entry["layer"], run.PER_LAYER)
            for moved in entry["moves"].split(", "):
                if moved != "none":
                    self.assertIn(moved, run.END_TO_END)
        layers = {e["layer"] for e in self.predictions["predictions"]}
        self.assertEqual(layers, set(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
