"""Self-tests for the benchmark: its pure helpers, and BENCHMARK.json against
the metrics run.py prints.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import Ledger, PassAborted, covered_length, percentile, self_time  # noqa: E402
from run import END_TO_END, ROOT, WORKLOADS  # noqa: E402
from tracing import PER_LAYER, span_totals  # noqa: E402


class TestPercentile:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert percentile(range(1, 100), 90) is None      # 9 samples beyond
        assert percentile(range(1, 101), 90) == 90         # 10 samples beyond

    def test_median_of_small_sample(self):
        assert percentile([3.0, 1.0, 2.0], 50, min_beyond=1) == 2.0
        assert percentile([3.0, 1.0, 2.0], 50) is None

    def test_empty_and_out_of_range(self):
        assert percentile([], 50, min_beyond=0) is None
        with pytest.raises(ValueError):
            percentile([1.0], 0)


class TestSelfTime:
    def test_children_subtracted(self):
        assert self_time(0, 100, [(10, 20), (30, 50)]) == 70

    def test_overlapping_children_count_once(self):
        assert covered_length([(10, 40), (20, 50), (45, 60)], 0, 100) == 50
        assert self_time(0, 100, [(10, 40), (20, 50), (45, 60)]) == 50

    def test_nested_and_clipped_children(self):
        # a child inside another child and one sticking out of the parent
        assert self_time(0, 100, [(10, 60), (20, 30), (90, 130)]) == 40

    def test_span_totals_use_direct_children_only(self):
        spans = [("a", 0, 100, -1, 0), ("b", 10, 60, 0, 0), ("c", 20, 30, 1, 0)]
        totals = span_totals(spans)[0]
        assert totals["a"] == [1, 100, 50]
        assert totals["b"] == [1, 50, 40]
        assert totals["c"] == [1, 10, 10]


class TestLedger:
    def test_pass_raising_part_way(self):
        ledger = Ledger()
        ran = []

        def a_pass():
            ledger.op("first", ran.append, 1)
            ledger.op("second", lambda: 1 / 0)
            ledger.op("third", ran.append, 3)

        with pytest.raises(PassAborted):
            a_pass()
        assert ran == [1]
        assert (ledger.attempted, ledger.failed) == (2, 1)
        assert ledger.error_rate() == 0.5
        assert "second" in ledger.failures[0]

    def test_failed_check_is_counted_and_the_pass_goes_on(self):
        ledger = Ledger()
        assert ledger.op("exit", lambda: 3,
                         check=lambda code: [] if code == 0 else ["exit 3"]) == 3
        ledger.op("ok", lambda: 0, check=lambda code: [])
        assert (ledger.attempted, ledger.failed) == (2, 1)

    def test_check_that_cannot_read_its_output_is_a_failed_check(self, tmp_path):
        ledger = Ledger()

        def check(code):
            with open(tmp_path / "missing.json") as fh:
                return [fh.read()]

        assert ledger.op("evaluate", lambda: 0, check=check) == 0
        assert (ledger.attempted, ledger.failed) == (1, 1)
        assert "check raised" in ledger.failures[0]

    def test_system_exit_counts_as_failure(self):
        ledger = Ledger()
        with pytest.raises(PassAborted):
            ledger.op("argparse", sys.exit, 2)
        assert ledger.failed == 1


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
