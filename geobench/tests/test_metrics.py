"""Unit tests for the benchmark's own metric code (geobench/metrics.py).

Run from the root of a checkout:

    python3 -m unittest discover -s geobench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
import run  # noqa: E402


class SampleCountRuleTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(metrics.tail_samples(1000, 99), 10)
        self.assertTrue(metrics.reportable(1000, 99))
        self.assertEqual(metrics.tail_samples(999, 99), 9)
        self.assertFalse(metrics.reportable(999, 99))

    def test_tail_count_is_exact_at_fractional_percentiles(self):
        # 10000 * 0.1% = 10 samples beyond p99.9, despite float rounding.
        self.assertEqual(metrics.tail_samples(10000, 99.9), 10)


def counters(**kw):
    return {k.replace("__", "."): v for k, v in kw.items()}


class RatioBaseTest(unittest.TestCase):
    def test_pdr_base_is_packets_sent(self):
        c = counters(app__sent=200, app__delivered=150)
        self.assertEqual(metrics.named_ratio("pdr", c), (0.75, 200))

    def test_phy_delivery_ratio_base_is_delivered_plus_corrupted(self):
        c = counters(phy__deliveries=90, phy__collisions=10, phy__transmissions=5)
        self.assertEqual(metrics.named_ratio("phy.delivery_ratio", c), (0.9, 100))

    def test_trapdoor_open_ratio_base_is_attempts(self):
        c = counters(agfw__trapdoor_opens=3, agfw__trapdoor_attempts=12)
        self.assertEqual(metrics.named_ratio("core.trapdoor_open_ratio", c), (0.25, 12))

    def test_ls_resolve_ratio_base_is_ok_plus_fail(self):
        c = counters(ls__resolved_ok=30, ls__resolved_fail=10, ls__queries_sent=99)
        self.assertEqual(metrics.named_ratio("routing.ls_resolve_ratio", c), (0.75, 40))

    def test_empty_base_reads_zero(self):
        self.assertEqual(metrics.named_ratio("routing.ls_resolve_ratio", {}), (0.0, 0))

    def test_fastest_run_sums_each_instance_minimum(self):
        runs = [[2.0, 5.0], [3.0, 4.0], [2.5, 4.5]]
        self.assertEqual(metrics.fastest_run_s(runs), 6.0)
        self.assertEqual(metrics.fastest_run_s([[4.2], [3.9], [4.4]]), 3.9)

    def test_share_of_run_time(self):
        # 1000 calls x 2000 ns = 2 ms of a 10 ms run.
        self.assertAlmostEqual(metrics.share(2000.0, 1000, 0.01), 0.2)
        self.assertEqual(metrics.share(2000.0, 1000, 0.0), 0.0)


def instance(counts, p50=10.0, p99=100.0, events=1000):
    return {
        "metrics": {"counters": counts, "gauges": {}, "histograms": {
            "app.latency_ms": {"count": counts.get("app.delivered", 0), "p50": p50,
                               "p99": p99}}},
        "events_processed": events,
        "resilience": {"recovery_latency_p95_s": 1.5},
        "attack": {"tracking_success_rate": 0.5},
    }


class LayerMetricsTest(unittest.TestCase):
    def setUp(self):
        c = counters(app__sent=1000, app__delivered=900, phy__transmissions=100,
                     phy__deliveries=80, phy__collisions=20, agfw__trapdoor_attempts=50,
                     agfw__trapdoor_opens=10, agfw__app_sent=1000, agfw__acks_sent=200,
                     mac__unicast_drop_retry=4)
        inst = [instance(c, p99=100.0), instance(c, p99=300.0), instance(c, p99=200.0)]
        self.trace = {
            "untraced": {"run_s": 2.0, "instances": inst},
            "traced": {"run_s": 3.0, "instances": [instance(counters(trace__recorded=7))]},
            "checked": {"run_s": 2.5, "instances": inst, "violations": [0, 0, 0]},
            "peak_queue_depth": 42,
            "attack_s": 0.5,
            "probe_ns": {"sim.event": 100.0, "phy.tx": 1000.0, "crypto.anonymize_uid": 10.0,
                         "crypto.make_trapdoor": 20.0, "crypto.try_open_trapdoor": 30.0,
                         "crypto.encrypt_for": 40.0},
            "phy_probe_events_per_tx": 2.0,
        }
        self.m = metrics.layer_metrics(self.trace)

    def value(self, name):
        return self.m[name][0]

    def test_counts_sum_over_instances(self):
        self.assertEqual(self.value("workload.sent"), 3000)
        self.assertEqual(self.value("sim.events"), 3000)
        self.assertEqual(self.value("mac.drop_retry"), 12)

    def test_ratios_use_their_bases(self):
        self.assertAlmostEqual(self.value("phy.delivery_ratio"), 0.8)
        self.assertIn("phy.deliveries + phy.collisions = 300", self.m["phy.delivery_ratio"][1])
        self.assertAlmostEqual(self.value("core.trapdoor_open_ratio"), 0.2)
        self.assertEqual(self.value("routing.ls_resolve_ratio"), 0.0)

    def test_overheads_are_over_the_untraced_run(self):
        self.assertAlmostEqual(self.value("obs.trace_overhead"), 1.5)
        self.assertAlmostEqual(self.value("analysis.check_overhead"), 1.25)
        self.assertAlmostEqual(self.value("sim.ns_per_event"), 2.0e9 / 3000)

    def test_shares_and_remainder_sum_to_one(self):
        # phy self time excludes the probe's own kernel events: 1000 - 2 x 100.
        self.assertAlmostEqual(self.value("phy.probe_share"), 800e-9 * 300 / 2.0)
        self.assertAlmostEqual(self.value("crypto.share_anonymize_uid"),
                               10e-9 * (3000 + 600) / 2.0)
        shares = [v for k, (v, _) in self.m.items()
                  if "share" in k and k != "workload.unattributed_share"]
        self.assertEqual(len(shares), 6)
        self.assertAlmostEqual(sum(shares) + self.value("workload.unattributed_share"), 1.0)

    def test_latency_tail_is_the_mean_over_instances(self):
        self.assertEqual(self.value("workload.latency_p99_ms"), 200.0)
        self.trace["untraced"]["instances"][0]["metrics"]["histograms"]["app.latency_ms"][
            "p99"] = 400.0
        self.assertEqual(metrics.layer_metrics(self.trace)["workload.latency_p99_ms"][0], 300.0)

    def test_every_declared_metric_is_produced(self):
        self.assertEqual(sorted(self.m), sorted(n for n, _ in metrics.PER_LAYER))


class PeakRssTest(unittest.TestCase):
    def test_kib_to_mb(self):
        self.assertEqual(metrics.rss_mb(2048), 2.0)

    def test_child_high_water_mark_is_its_own(self):
        code, out, rss = metrics.run_measured(
            [sys.executable, "-c", "b = bytearray(96 << 20); print(len(b))"], 60)
        self.assertEqual(code, 0)
        self.assertEqual(out.strip(), str(96 << 20))
        self.assertGreaterEqual(rss, 96.0)
        # A second, small child does not inherit the first one's peak.
        _, _, small = metrics.run_measured([sys.executable, "-c", "pass"], 60)
        self.assertLess(small, 64.0)

    def test_exit_code_and_timeout(self):
        code, _, _ = metrics.run_measured([sys.executable, "-c", "raise SystemExit(3)"], 60)
        self.assertEqual(code, 3)
        with self.assertRaises(metrics.ChildTimeout):
            metrics.run_measured([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec_file = HERE.parent.parent / "BENCHMARK.json"
        if not spec_file.exists():
            self.skipTest("no BENCHMARK.json next to geobench/")
        spec = json.loads(spec_file.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
