#!/usr/bin/env python3
"""Tests of the benchmark's Python helpers (compare verdicts, fingerprint
refusal, the end-to-end metric mapping).  The C++ helpers (percentile
rule, arrival schedules, rate ladder) are tested by perfbench_selftest.

    python3 perfbench/test_perfbench.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402


def record(workload, seed, value, fp=None, name="lat_us", unit="us"):
    return {"workload": workload, "seed": seed, "trace": 0, "correct": True,
            "fingerprint": fp or {"cpus_online": 4, "ndebug": 1,
                                  "git_sha": f"sha{seed}"},
            "metrics": {name: {"value": value, "unit": unit}},
            "measured": {}}


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_within_bound(self):
        new = [v * 1.03 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "within bound")

    def test_worse_beyond_bound(self):
        new = [v * 1.3 for v in self.BASE]
        # Every new run is worse but not every run is better: still worse.
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "worse")

    def test_better_needs_nine_tenths_of_pairs(self):
        new = [v * 0.9 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "better")
        # Higher-is-better metrics flip the direction.
        self.assertEqual(compare.verdict(self.BASE, new, "higher", 0.2),
                         "within bound")

    def test_small_gain_inside_noise_is_not_better(self):
        new = list(self.BASE)
        new[0] -= 0.5
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1),
                         "within bound")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50, 150, 80, 120, 60, 140, 100, 90, 110, 100]
        self.assertEqual(compare.verdict(self.BASE, noisy, "lower", 0.1),
                         "unresolved")

    def test_every_run_better_wins_despite_spread(self):
        base = [200, 300, 250, 400]
        new = [100, 150, 120, 180]
        self.assertEqual(compare.verdict(base, new, "lower", 0.05), "better")

    def test_every_run_better_by_less_than_spread_is_not_better(self):
        # Skewed base: its quartile spread (~0.07) is inside the bound but
        # wider than the uniform 1% shift of every new run.
        base = [100, 100, 100, 100, 100, 100, 100, 107, 108, 110]
        new = [98] * 10
        self.assertLess(compare.relative_spread(base), 0.1)
        self.assertEqual(compare.verdict(base, new, "lower", 0.1),
                         "within bound")

    def test_no_bound(self):
        self.assertEqual(compare.verdict([1, 2], [1, 2], "lower", None),
                         "no bound")

    def test_pairs_follow_seeds(self):
        seeds = list(range(1, 11))
        base = [100 + 0.1 * s for s in seeds]
        # 3% gains on nine seeds and one loss, listed in reverse seed order.
        new = [b - 3 if s < 10 else b + 1 for b, s in zip(base, seeds)]
        self.assertEqual(
            compare.verdict(base, new[::-1], "lower", 0.1, seeds,
                            seeds[::-1]),
            "better")
        # Two losses in ten pairs: not a gain.
        new[0] = base[0] + 1
        self.assertEqual(
            compare.verdict(base, new, "lower", 0.1, seeds, seeds),
            "within bound")


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        q1, med, q3 = compare.quartiles(values)
        self.assertEqual(med, 3.5)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))


class FingerprintTest(unittest.TestCase):
    def test_code_fields_do_not_block(self):
        runs = [record("rpc_echo", s, 10) for s in (1, 2)]
        self.assertIsNone(compare.fingerprint_mismatch(runs))

    def test_host_fields_refuse(self):
        a = record("rpc_echo", 1, 10)
        b = record("rpc_echo", 2, 10, fp={"cpus_online": 1, "ndebug": 1})
        self.assertIn("cpus_online", compare.fingerprint_mismatch([a, b]))

    def test_compare_rows(self):
        spec = {"end_to_end": [{"name": "lat_us", "unit": "us",
                                "better": "lower", "bound": 0.1}],
                "per_layer": []}
        base = [record("rpc_echo", s, 100 + s) for s in range(1, 11)]
        new = [record("rpc_echo", s, 200 + s) for s in range(1, 11)]
        rows = compare.compare(base, new, spec)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][2], "lat_us")
        self.assertEqual(rows[0][-1], "worse")


class ContractTest(unittest.TestCase):
    WANTED = [{"name": "lat_us", "unit": "us"},
              {"name": "setup_s", "unit": "s"}]

    def test_maps_workload_metrics(self):
        result = {"metrics": {"rpc_sync_p50_us": {"value": 12.5, "unit": "us"},
                              "setup_s": {"value": 0.001, "unit": "s"}}}
        out, missing = run.contract_metrics("rpc_echo", result, self.WANTED, 0)
        self.assertEqual(missing, [])
        self.assertEqual(out["lat_us"]["value"], 12.5)

    def test_missing_metric_is_reported(self):
        result = {"metrics": {"setup_s": {"value": 0.001, "unit": "s"}}}
        _, missing = run.contract_metrics("rpc_echo", result, self.WANTED, 0)
        self.assertEqual(len(missing), 1)

    def test_unit_drift_is_reported(self):
        result = {"metrics": {"rpc_sync_p50_us": {"value": 1, "unit": "ms"},
                              "setup_s": {"value": 0.001, "unit": "s"}}}
        _, missing = run.contract_metrics("rpc_echo", result, self.WANTED, 0)
        self.assertIn("ms", missing[0])

    def test_unexercised_layer_reads_zero(self):
        out, missing = run.contract_metrics(
            "spawn_tree", {"metrics": {}},
            [{"name": "pm2.mig.freeze_p50_us", "unit": "us"}], 1)
        self.assertEqual(missing, [])
        self.assertEqual(out["pm2.mig.freeze_p50_us"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
