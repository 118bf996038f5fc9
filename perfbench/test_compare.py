#!/usr/bin/env python3
"""Self-test of the result comparator: a 2x slowdown on any one time metric
must be flagged, and a repeat of the same code must pass.

    python3 perfbench/test_compare.py
"""

import random
import unittest

import compare

SPEC = compare.load_spec()
WORKLOADS = ("inject", "soak", "fleet")
BASE = {"setup_s": 0.004, "wall_s": 1.3, "cpu_s": 1.28, "units_per_s": 7600.0,
        "sim_cycles_per_s": 2.6e7, "sim_cycles": 3.5e7, "peak_rss_mb": 16.0}


def synthetic(seed, scale=None):
    """Ten runs per workload with 1% noise; `scale` multiplies one metric."""
    rng = random.Random(seed)
    out = {}
    for w in WORKLOADS:
        out[w] = {}
        for name in SPEC:
            base = BASE[name]
            vals = [base * (1 + rng.uniform(-0.01, 0.01)) for _ in range(10)]
            if scale and scale[0] == name:
                vals = [v * scale[1] for v in vals]
            out[w][name] = vals
    return out


class CompareSelfTest(unittest.TestCase):
    def test_spec_covers_synthetic_metrics(self):
        self.assertEqual(set(SPEC), set(BASE))

    def test_repeat_of_same_code_passes(self):
        rows = compare.diff(synthetic(1), synthetic(2), SPEC)
        self.assertTrue(rows)
        self.assertFalse([r for r in rows if r[-1]])

    def test_double_time_on_any_time_metric_is_flagged(self):
        time_metrics = [n for n, m in SPEC.items() if m["unit"] == "s"]
        self.assertIn("wall_s", time_metrics)
        for name in time_metrics:
            rows = compare.diff(synthetic(1), synthetic(2, (name, 2.0)), SPEC)
            flagged = {(r[0], r[1]) for r in rows if r[-1]}
            self.assertEqual(flagged, {(w, name) for w in WORKLOADS}, name)

    def test_halved_throughput_is_flagged(self):
        for name in ("units_per_s", "sim_cycles_per_s"):
            rows = compare.diff(synthetic(1), synthetic(2, (name, 0.5)), SPEC)
            self.assertEqual({r[1] for r in rows if r[-1]}, {name})

    def test_every_bound_catches_a_2x_change(self):
        for name, m in SPEC.items():
            self.assertLessEqual(m["bound"], 0.25, name)

    def test_quartile_spread_matches_statistics_quantiles(self):
        med, q1, q3, s = compare.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(s, 1.0)


if __name__ == "__main__":
    unittest.main()
