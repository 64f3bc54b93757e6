"""Tests for the benchmark's analysis rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import analysis as A

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")


def read(name):
    with open(os.path.join(DATA, name)) as f:
        return f.read()


class PercentileRuleTest(unittest.TestCase):
    def test_requested_quantile_when_enough_samples_lie_beyond(self):
        p = A.percentile(range(1, 2001), 0.99)  # rank 1980, 20 beyond
        self.assertEqual(p, {"q": 0.99, "value": 1980, "n": 2000})

    def test_exactly_ten_beyond_keeps_the_requested_quantile(self):
        p = A.percentile(range(1, 1001), 0.99)  # rank 990, 10 beyond
        self.assertEqual((p["q"], p["value"]), (0.99, 990))

    def test_falls_back_to_highest_quantile_with_ten_beyond(self):
        p = A.percentile(range(1, 101), 0.99)  # only 1 beyond rank 99
        self.assertEqual(p["value"], 90)
        self.assertAlmostEqual(p["q"], 0.90)
        self.assertEqual(p["n"], 100)

    def test_too_few_samples_for_any_tail(self):
        self.assertIsNone(A.percentile(range(10), 0.99)["value"])
        self.assertIsNone(A.percentile([], 0.5)["value"])

    def test_median_does_not_fall_back(self):
        self.assertEqual(A.percentile([5, 1, 3], 0.5)["value"], 3)

    def test_unsorted_input(self):
        self.assertEqual(A.percentile([9, 1, 5, 7, 3] * 10, 0.5)["value"], 5)

    def test_sliced_median_of_per_slice_quantiles(self):
        tagged = [(0 << A.SLICE_SHIFT) | v for v in range(1, 101)]
        tagged += [(1 << A.SLICE_SHIFT) | v for v in range(101, 201)]
        tagged += [(2 << A.SLICE_SHIFT) | v for v in range(1, 6)]  # too small
        slices = A.split_slices(tagged)
        self.assertEqual(sorted(slices), [0, 1, 2])
        p = A.sliced_percentile(slices, 0.99)
        # 100 samples per slice: the rule falls back to q=0.90 in each.
        self.assertEqual(p["slices"], 2)
        self.assertAlmostEqual(p["q"], 0.90)
        self.assertEqual(p["value"], (90 + 190) / 2)
        self.assertEqual(p["n"], 200)


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        st = A.self_times([(1, 0, 1, "kv.request", 0, 100)])
        self.assertEqual(st["kv.request"]["self_ns"], 100)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            (1, 0, 1, "kv.handle", 0, 100),
            (2, 1, 1, "sma.budget_rpc", 10, 40),
            (3, 1, 1, "kv.reclaim_callback", 30, 50),  # overlaps span 2
            (4, 1, 1, "kv.reclaim_callback", 70, 80),
        ]
        st = A.self_times(spans)
        self.assertEqual(st["kv.handle"]["self_ns"], 100 - 40 - 10)
        self.assertEqual(st["sma.budget_rpc"]["self_ns"], 30)
        self.assertEqual(st["kv.reclaim_callback"]["count"], 2)

    def test_children_clipped_to_parent(self):
        spans = [(1, 0, 1, "kv.request", 100, 200), (2, 1, 1, "kv.handle", 50, 150)]
        self.assertEqual(A.self_times(spans)["kv.request"]["self_ns"], 50)

    def test_nested_child_inside_child(self):
        spans = [
            (1, 0, 1, "kv.request", 0, 100),
            (2, 1, 1, "kv.handle", 20, 60),
            (3, 2, 1, "sma.budget_rpc", 30, 50),
        ]
        st = A.self_times(spans)
        self.assertEqual(st["kv.request"]["self_ns"], 60)
        self.assertEqual(st["kv.handle"]["self_ns"], 20)
        self.assertEqual(st["sma.budget_rpc"]["self_ns"], 20)

    def test_blocking_shares_skip_spans_under_other_roots(self):
        spans = [
            (1, 0, 1, "sma.malloc", 0, 100),
            (2, 1, 1, "sma.budget_rpc", 20, 60),
            (3, 0, 3, "sma.budget_rpc", 200, 900),  # under no sampled call
            (4, 0, 4, "sma.free", 1000, 1100),
        ]
        shares = A.blocking_shares(spans, ("sma.malloc", "sma.free"))
        self.assertEqual(shares, {"sma.malloc": 60 / 200, "sma.budget_rpc": 40 / 200,
                                  "sma.free": 100 / 200})

    def test_outside_handle(self):
        spans = [
            (1, 0, 1, "kv.request", 0, 100),
            (2, 1, 1, "kv.handle", 40, 70),
            (3, 0, 3, "kv.request", 0, 50),  # no linked handle span
        ]
        self.assertEqual(A.linked_outside(spans, "kv.request", "kv.handle"), [70])


class PromDiffTest(unittest.TestCase):
    def setUp(self):
        self.d = A.prom_diff([(read("kv_before.prom"), read("kv_after.prom"))])

    def test_counters_are_differenced(self):
        self.assertEqual(A.prom_sum(self.d, "softmem_sma_cache_hits_total", instance="kv_server"),
                         1137974 - 96859)
        self.assertEqual(A.prom_sum(self.d, "softmem_kv_reactor_iterations_total"),
                         (166419 - 808) + (165083 - 784))
        self.assertEqual(A.prom_sum(self.d, "softmem_kv_reactor_iterations_total", reactor="1"),
                         165083 - 784)

    def test_gauges_keep_the_second_value(self):
        self.assertEqual(A.prom_sum(self.d, "softmem_sma_budget_pages"), 1277)

    def test_histogram_series_are_differenced(self):
        self.assertEqual(A.prom_sum(self.d, "softmem_ipc_rpc_rtt_ns_count"), 2574 - 4)
        self.assertEqual(A.prom_sum(self.d, "softmem_ipc_rpc_rtt_ns_bucket", le="200000"), 2030 - 3)

    def test_histogram_quantile_interpolates_within_bucket(self):
        # 2570 observations: 120 <= 100us, 2027 <= 200us, so the median
        # falls in (100us, 200us].
        q = A.hist_quantile(self.d, "softmem_ipc_rpc_rtt_ns", 0.5)
        expected = 100000 + 100000 * (0.5 * 2570 - 120) / (2027 - 120)
        self.assertAlmostEqual(q, expected)

    def test_empty_histogram(self):
        self.assertIsNone(A.hist_quantile(self.d, "softmem_no_such_ns", 0.5))

    def test_series_new_in_second_scrape_count_from_zero(self):
        d = A.prom_diff([("# TYPE x_total counter\n", "# TYPE x_total counter\nx_total{a=\"1\"} 7\n")])
        self.assertEqual(A.prom_sum(d, "x_total"), 7)

    def test_stretches_sum_and_skip_what_ran_between_them(self):
        def scrape(count, gauge):
            return ("# TYPE x_total counter\nx_total %d\n"
                    "# TYPE g gauge\ng %d\n" % (count, gauge))
        # 10 -> 15 measured, 15 -> 40 between (e.g. a refill), 40 -> 42 measured.
        d = A.prom_diff([(scrape(10, 1), scrape(15, 2)), (scrape(40, 3), scrape(42, 4))])
        self.assertEqual(A.prom_sum(d, "x_total"), 5 + 2)
        self.assertEqual(A.prom_sum(d, "g"), 4)

    def test_malformed_line_is_rejected(self):
        with self.assertRaises(ValueError):
            A.parse_prom("softmem_x{broken 1 2 3\n")


class JournalTest(unittest.TestCase):
    def setUp(self):
        self.passes = A.parse_journal(read("journal.jsonl"))

    def test_captured_passes_conserve_pages(self):
        self.assertEqual(len(self.passes), 5)
        self.assertEqual(A.conservation_violations(self.passes), [])

    def test_violation_is_reported(self):
        bad = dict(self.passes[0])
        bad["targets"] = [dict(bad["targets"][0], got=bad["recovered_pages"] - 1)]
        v = A.conservation_violations([bad])
        self.assertEqual(v, [{"seq": bad["seq"], "got_sum": bad["recovered_pages"] - 1,
                              "recovered": bad["recovered_pages"]}])

    def test_multi_target_pass(self):
        p = {"kind": "smd_reclaim_pass", "seq": 9, "recovered_pages": 7,
             "targets": [{"name": "kv_server", "got": 5}, {"name": "antagonist", "got": 2}]}
        self.assertEqual(A.conservation_violations([p]), [])
        self.assertEqual(A.reclaimed_from([p], "kv_server"), 5)

    def test_new_and_lost_passes(self):
        before = self.passes[:2]
        after = self.passes[3:]  # the ring dropped seq 2
        self.assertEqual([p["seq"] for p in A.new_passes(before, after)], [3, 4])
        self.assertEqual(A.lost_passes(before, after), 1)
        self.assertEqual(A.lost_passes([], self.passes), 0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        import run
        with open(os.path.join(os.path.dirname(DATA), "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.E2E))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        for m in bench["end_to_end"]:
            self.assertEqual((m["unit"], m["better"]), run.E2E[m["name"]])
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])


if __name__ == "__main__":
    unittest.main()
