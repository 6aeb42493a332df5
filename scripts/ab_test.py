"""Tests for the statistics and pairing rules of ab.py, on canned results.

    python3 -m unittest scripts/ab_test.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

DECLARED = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "tc", "unit": "ratio", "better": "lower", "bound": 0.05},
]


def result(setup_s, tc, failed=0):
    """A perfbench result line."""
    return {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"}, "tc": {"value": tc, "unit": "ratio"}},
    }


class Summary(unittest.TestCase):
    def test_median_and_quartiles(self):
        s = ab.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual(s["median"], 3.0)
        self.assertEqual((s["q1"], s["q3"], s["iqr"]), (2.0, 4.0, 2.0))
        self.assertEqual(ab.summarize([1.0, 2.0, 3.0, 4.0])["median"], 2.5)
        self.assertEqual(ab.summarize([7.0])["iqr"], 0)

    def test_ties_count_for_neither_side(self):
        out = ab.compare([1.0, 2.0, 3.0, 5.0], [1.0, 1.0, 4.0, 5.0], "lower", None)
        self.assertEqual(out["change_better"], "1/4")
        out = ab.compare([1.0, 2.0, 3.0, 5.0], [1.0, 1.0, 4.0, 5.0], "higher", None)
        self.assertEqual(out["change_better"], "1/4")
        self.assertNotIn("verdict", out)

    def test_failed_runs_leave_their_pair_out(self):
        out = ab.compare([1.0, None, 3.0], [0.5, 0.5, None], "lower", 0.1)
        self.assertEqual(out["change_better"], "1/1")
        self.assertEqual(out["base"]["runs"], [1.0, 3.0])


class Verdict(unittest.TestCase):
    def test_regressed_when_the_median_crosses_the_bound(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(ab.verdict(base, [1.20, 1.21, 1.19, 1.20, 1.22], "lower", 0.25), "ok")
        self.assertEqual(ab.verdict(base, [1.30, 1.31, 1.29, 1.30, 1.32], "lower", 0.25), "regressed")
        # Higher-is-better metrics regress downwards.
        self.assertEqual(ab.verdict(base, [0.70, 0.71, 0.69, 0.70, 0.72], "higher", 0.25), "regressed")
        self.assertEqual(ab.verdict(base, [1.30, 1.31, 1.29, 1.30, 1.32], "higher", 0.25), "ok")

    def test_unresolved_when_the_spread_is_wider_than_the_bound(self):
        base = [1.0, 1.0, 1.0, 1.0, 1.0]
        noisy = [0.6, 0.8, 1.0, 1.2, 1.4]
        self.assertEqual(ab.verdict(base, noisy, "lower", 0.1), "unresolved")
        self.assertEqual(ab.verdict(noisy, base, "lower", 0.1), "unresolved")

    def test_wide_spread_is_ok_when_every_change_run_is_better(self):
        base = [2.0, 3.0, 4.0, 5.0, 6.0]
        change = [0.5, 1.0, 1.5, 1.8, 1.9]
        self.assertEqual(ab.verdict(base, change, "lower", 0.1), "ok")
        # One change run that ties the best base run is not "every".
        self.assertEqual(ab.verdict(base, change[:-1] + [2.0], "lower", 0.1), "unresolved")

    def test_zero_base_median(self):
        self.assertEqual(ab.verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.1), "ok")
        self.assertEqual(ab.verdict([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "lower", 0.1), "regressed")


class Workload(unittest.TestCase):
    def test_equal_runs_are_ok(self):
        runs = {"base": [result(0.30, 1.01), result(0.31, 1.01)], "change": [result(0.30, 1.01), result(0.29, 1.01)]}
        entry = ab.compare_workload(runs, DECLARED)
        self.assertEqual(entry["verdict"], "ok")
        self.assertEqual(entry["metrics"]["setup_s"]["change_better"], "1/2")
        self.assertEqual(entry["metrics"]["tc"]["unit"], "ratio")
        self.assertEqual(entry["attempted"], {"base": 2000, "change": 2000})

    def test_more_failures_regress(self):
        ok = result(0.30, 1.01)
        entry = ab.compare_workload({"base": [ok, ok], "change": [ok, result(0.30, 1.01, failed=1)]}, DECLARED)
        self.assertEqual(entry["failed"]["operations"], {"base": 0, "change": 1})
        self.assertEqual(entry["verdict"], "regressed")
        entry = ab.compare_workload({"base": [ok, ok], "change": [ok, None]}, DECLARED)
        self.assertEqual(entry["failed"]["runs"], {"base": 0, "change": 1})
        self.assertEqual(entry["verdict"], "regressed")
        # Fewer failures than the base pass.
        self.assertEqual(ab.compare_workload({"base": [result(0.30, 1.01, failed=3)], "change": [ok]}, DECLARED)["verdict"], "ok")

    def test_one_metric_regressing_fails_the_workload(self):
        runs = {"base": [result(0.30, 1.00)] * 3, "change": [result(0.30, 1.10)] * 3}
        entry = ab.compare_workload(runs, DECLARED)
        self.assertEqual(entry["metrics"]["setup_s"]["verdict"], "ok")
        self.assertEqual(entry["metrics"]["tc"]["verdict"], "regressed")
        self.assertEqual(ab.worst(["ok", "unresolved", entry["verdict"]]), "regressed")


BASE_OUT = """goos: linux
BenchmarkProcessParallel/rcu-8       \t    2000\t      5210 ns/op\t     210 B/op\t       2 allocs/op
BenchmarkProcessParallel/rwmutex-8   \t    2000\t     19000 ns/op\t     219 B/op\t       2 allocs/op
PASS
"""


class GoMode(unittest.TestCase):
    def test_parse_bench(self):
        got = ab.parse_bench(BASE_OUT + "BenchmarkX-2  100  12.5 ns/op  900 p99-ns\nBenchmarkBroken FAIL\n")
        self.assertEqual(got["BenchmarkProcessParallel/rcu-8"], {"ns/op": 5210.0, "B/op": 210.0, "allocs/op": 2.0})
        self.assertEqual(got["BenchmarkX-2"], {"ns/op": 12.5, "p99-ns": 900.0})
        self.assertEqual(len(got), 3)

    def test_single_match_pairs_whatever_the_names(self):
        self.assertEqual(ab.pair_benchmarks(["BenchmarkP/rcu-8"], ["BenchmarkP-8"]), [("BenchmarkP/rcu-8", "BenchmarkP-8")])
        # More than one on a side: equal names only.
        self.assertEqual(ab.pair_benchmarks(["A-8", "B-8"], ["B-8", "C-8"]), [("B-8", "B-8")])
        self.assertEqual(ab.pair_benchmarks(["A-8", "B-8"], ["C-8"]), [])

    def test_compare_go_gates_ns_per_op(self):
        base = ab.parse_bench("BenchmarkP/rcu-8  2000  5000 ns/op  2 allocs/op\n")
        slow = ab.parse_bench("BenchmarkP-8  2000  6500 ns/op  2 allocs/op\n")
        out = ab.compare_go({"base": [base] * 4, "change": [slow] * 4})
        entry = out["BenchmarkP/rcu-8 vs BenchmarkP-8"]
        self.assertEqual(entry["metrics"]["ns/op"]["verdict"], "regressed")
        self.assertNotIn("verdict", entry["metrics"]["allocs/op"])
        self.assertEqual(entry["verdict"], "regressed")
        fine = ab.parse_bench("BenchmarkP-8  2000  6000 ns/op  3 allocs/op\n")
        self.assertEqual(ab.compare_go({"base": [base] * 4, "change": [fine] * 4})["BenchmarkP/rcu-8 vs BenchmarkP-8"]["verdict"], "ok")

    def test_compare_go_counts_failed_runs(self):
        ok = ab.parse_bench("BenchmarkP-8  2000  5000 ns/op\n")
        out = ab.compare_go({"base": [ok, ok], "change": [ok, None]})
        self.assertEqual(out["BenchmarkP-8"]["failed"]["runs"], {"base": 0, "change": 1})
        self.assertEqual(out["BenchmarkP-8"]["verdict"], "regressed")

    def test_no_pair_is_an_error(self):
        base = ab.parse_bench(BASE_OUT)
        change = ab.parse_bench("BenchmarkP-8  2000  5000 ns/op\n")
        with self.assertRaises(ValueError):
            ab.compare_go({"base": [base], "change": [change]})


if __name__ == "__main__":
    unittest.main()
