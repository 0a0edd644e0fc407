"""The summary maths of tools/pairs.py, on synthetic pairs."""

import importlib.util
import math
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)


def test_ten_pairs_sign_interval_is_second_to_ninth_ratio():
    ratios = [1.0 + i / 100 for i in (7, 3, 9, 1, 5, 2, 8, 4, 6, 10)]
    low, high, coverage = pairs.sign_test_interval(ratios)
    assert (low, high) == (1.02, 1.09)
    # 1 - 2 * P(Binomial(10, 1/2) <= 1) = 1 - 2 * 11 / 1024
    assert coverage == pytest.approx(1 - 22 / 1024)


def test_few_pairs_give_the_whole_range_and_its_coverage():
    low, high, coverage = pairs.sign_test_interval([1.2, 0.9, 1.1])
    assert (low, high) == (0.9, 1.2)
    assert coverage == pytest.approx(1 - 2 / 8)
    assert pairs.sign_test_interval([1.5]) == (1.5, 1.5, 0.0)


@pytest.mark.parametrize("n", [6, 10, 20, 31])
def test_sign_interval_is_the_tightest_that_keeps_the_confidence(n):
    low, high, coverage = pairs.sign_test_interval(list(range(1, n + 1)))
    k = low
    assert high == n + 1 - k
    assert coverage >= pairs.CONFIDENCE
    tighter = 1 - 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    assert k + 1 > (n + 1) // 2 or tighter < pairs.CONFIDENCE


def test_a_steady_gain_wins_every_pair_and_meets_the_quartile_rule():
    parent = [600.0, 610.0, 605.0, 620.0, 590.0, 615.0, 600.0, 612.0, 598.0, 607.0]
    change = [p * 1.15 for p in parent]
    m = pairs.summarize_metric(parent, change, "higher", 0.25)
    assert m["change_wins"] == m["pairs"] == 10
    assert m["median_ratio"] == pytest.approx(1.15)
    assert m["ratio_interval"] == pytest.approx([1.15, 1.15])
    assert m["parent_median"] == 606.0
    assert (m["parent_q1"], m["parent_q3"]) == (600.0, 611.5)
    assert m["quartile_rule"]["wins_needed"] == 9
    assert m["quartile_rule"]["parent_iqr"] == pytest.approx(11.5)
    assert m["quartile_rule"]["met"] and m["within_bound"]


def test_a_shift_of_the_host_hides_a_gain_from_the_quartile_rule_not_the_ratio():
    # both sides slow down by a third halfway through; each pair still gains 10%
    parent = [600.0] * 5 + [400.0] * 5
    change = [p * 1.1 for p in parent]
    m = pairs.summarize_metric(parent, change, "higher", 0.25)
    assert m["change_wins"] == 10 and m["median_ratio"] == pytest.approx(1.1)
    assert m["quartile_rule"]["parent_iqr"] == 200.0
    assert not m["quartile_rule"]["met"]


def test_lower_is_better_and_the_bound_is_relative_to_the_parent_median():
    parent = [1.0, 1.0, 1.0, 1.0]
    m = pairs.summarize_metric(parent, [1.2, 1.3, 1.2, 1.3], "lower", 0.25)
    assert m["change_wins"] == 0
    assert m["quartile_rule"]["median_gain"] == pytest.approx(-0.25)
    assert m["within_bound"]
    m = pairs.summarize_metric(parent, [1.3, 1.3, 1.3, 1.3], "lower", 0.25)
    assert not m["within_bound"]
    m = pairs.summarize_metric(parent, [0.9, 0.8, 0.9, 1.1], "lower", 0.25)
    assert m["change_wins"] == 3 and m["median_ratio"] == pytest.approx(0.9)


def test_unequal_pairs_rejected():
    with pytest.raises(ValueError):
        pairs.summarize_metric([1.0, 2.0], [1.0], "lower", 0.25)


def test_workload_summary_reads_every_listed_metric():
    end_to_end = [{"name": "rows_per_s", "better": "higher", "bound": 0.25},
                  {"name": "setup_s", "better": "lower", "bound": 0.25}]

    def run(rows, setup, correct=True, failed=0):
        return {"correct": correct, "failed": failed, "attempted": 10,
                "metrics": {"rows_per_s": {"value": rows}, "setup_s": {"value": setup}}}

    runs = {"parent": [run(100.0, 0.2), run(110.0, 0.3)],
            "change": [run(120.0, 0.2, failed=1), run(121.0, 0.1)]}
    summary = pairs.summarize_workload(runs, end_to_end)
    assert summary["every_run_correct"]
    assert summary["failed_operations"] == {"parent": 0, "change": 1}
    assert summary["metrics"]["rows_per_s"]["change"] == [120.0, 121.0]
    assert summary["metrics"]["setup_s"]["change_wins"] == 1


def test_seed_lists_and_ranges():
    assert pairs.parse_seeds("2401-2404") == [2401, 2402, 2403, 2404]
    assert pairs.parse_seeds("5,9,1-2") == [5, 9, 1, 2]
    with pytest.raises(ValueError, match="repeated seed"):
        pairs.parse_seeds("1-3,2")
