"""Tests for the benchmark's own summary maths and verdict.

    python3 perfbench/test_summary.py

The served-clustering check itself is C++ (src/checks.cc); its test,
perfbench_check_test, runs here too once the benchmark has been built
(`python3 perfbench/run.py ...` or
`cmake --build .bench_build --target perfbench_check_test`).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402
import summary  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        stat = summary.tail_percentile(list(range(1, 101)), 0.9, "ms")
        self.assertAlmostEqual(stat.value, 90.1)
        self.assertEqual(stat.samples, 100)
        with self.assertRaises(summary.SummaryError):
            summary.tail_percentile(list(range(90)), 0.9, "ms")

    def test_p99_needs_a_thousand_samples(self):
        stat = summary.tail_percentile([1.0] * 999 + [5.0], 0.99, "us")
        self.assertEqual(stat.samples, 1000)
        with self.assertRaises(summary.SummaryError):
            summary.tail_percentile([1.0] * 900, 0.99, "us")

    def test_median_reports_its_sample_count(self):
        stat = summary.median([3.0, 1.0, 2.0], "s")
        self.assertEqual((stat.value, stat.samples, stat.unit), (2.0, 3, "s"))
        self.assertEqual(stat.describe(), "n 3")
        with self.assertRaises(summary.SummaryError):
            summary.median([], "s")


class RatioTest(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        stat = summary.ratio(30, 120)
        self.assertEqual((stat.value, stat.base), (0.25, 120))
        self.assertEqual(stat.describe(), "base 120")

    def test_ratio_refuses_an_empty_base(self):
        with self.assertRaises(summary.SummaryError):
            summary.ratio(1, 0)


def span(name, start, end, id_, parent=0, trace=1):
    return {"name": name, "start_us": start, "end_us": end, "id": id_,
            "parent": parent, "trace": trace}


class SpanTest(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        intervals = [(0, 10), (5, 15), (20, 30)]
        self.assertEqual(summary.union_length(intervals), 25)
        self.assertEqual(summary.union_length(intervals, clip=(8, 22)), 9)

    def test_self_time_subtracts_children_once(self):
        spans = [span("round", 0, 100, 1),
                 span("a", 10, 40, 2, parent=1),
                 span("b", 30, 60, 3, parent=1)]
        selves = summary.self_times_us(spans)
        self.assertEqual(selves[1], 50)
        self.assertEqual(selves[2], 30)

    def test_unattributed_share_counts_uncovered_round_time(self):
        spans = [span("round", 0, 100, 1),
                 span("a", 0, 50, 2, parent=1),
                 span("b", 40, 75, 3, parent=1),
                 span("round", 200, 300, 4, trace=2),
                 # A layer span of another thread still covers the round.
                 span("c", 150, 300, 5, trace=9)]
        stat = summary.unattributed_share(spans)
        self.assertAlmostEqual(stat.value, 25 / 200)
        self.assertEqual(stat.base, 200)


class VerdictTest(unittest.TestCase):
    DOC = {"workload": "recluster-cora", "peak_rss_mb": 30.0,
           "f1_vs_batch": [0.9, 0.9, 0.9],
           "checks": {"served_partition_ok": True},
           "passes": [{"traced": False, "setup_s": 1.0, "serve_s": 5.0,
                       "ops": 4800, "attempted": 4800, "failed": 0,
                       "round_ms": [40.0 + i % 7 for i in range(120)],
                       "probe_us": [run.REFERENCE_PROBE_US] * 5,
                       "samples": {}, "counters": {}}] * 3}
    DECLARED = [{"name": "round_p90_ms", "unit": "ms"},
                {"name": "ok_ratio", "unit": "ratio"}]

    def test_result_line_holds_exactly_the_declared_metrics(self):
        result = run.result(self.DOC, run.end_to_end(self.DOC),
                            self.DECLARED)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {"round_p90_ms", "ok_ratio"})
        self.assertEqual(result["attempted"], 14400)

    def test_a_failed_check_makes_the_run_incorrect(self):
        doc = dict(self.DOC, checks={"served_partition_ok": False})
        self.assertFalse(run.result(doc, run.end_to_end(doc),
                                    self.DECLARED)["correct"])

    def test_timings_are_scaled_to_the_reference_probe_speed(self):
        slow = dict(self.DOC["passes"][0],
                    probe_us=[2 * run.REFERENCE_PROBE_US] * 5)
        doc = dict(self.DOC, passes=[slow] * 3)
        at_reference, scaled = run.end_to_end(self.DOC), run.end_to_end(doc)
        for name in ("setup_s", "round_p50_ms", "round_p90_ms"):
            self.assertAlmostEqual(scaled[name].value,
                                   at_reference[name].value / 2)
        self.assertAlmostEqual(scaled["ops_per_s"].value,
                               at_reference["ops_per_s"].value * 2)
        # An open loop's rate is its schedule's, whatever the speed.
        open_loop = run.end_to_end(dict(doc, workload="serve-replicated"))
        self.assertAlmostEqual(open_loop["ops_per_s"].value,
                               at_reference["ops_per_s"].value)

    def test_a_metric_in_the_wrong_unit_is_refused(self):
        declared = [{"name": "round_p90_ms", "unit": "s"}]
        with self.assertRaises(RuntimeError):
            run.result(self.DOC, run.end_to_end(self.DOC), declared)


def built(name):
    path = os.path.join(run.BUILD_DIR, name)
    if not os.path.exists(path):
        raise unittest.SkipTest(name + " not built")
    return path


class ClusteringCheckTest(unittest.TestCase):
    def test_corrupted_clustering_fails_the_check(self):
        self.assertEqual(subprocess.run([built("perfbench_check_test")])
                         .returncode, 0)

    def test_corrupt_flag_fails_a_whole_run(self):
        # Shortest run there is: three passes of recluster-cora (~20 s).
        proc = subprocess.run(
            [built("perfbench_runner"), "--workload", "recluster-cora",
             "--seed", "1", "--seconds", "0", "--corrupt"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        checks = json.loads(proc.stdout)["checks"]
        self.assertFalse(checks["served_partition_ok"])
        self.assertFalse(checks["core_counts_reproduce"])


if __name__ == "__main__":
    unittest.main()
