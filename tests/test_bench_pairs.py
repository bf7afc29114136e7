"""``tools/bench_pairs.py`` summarises paired benchmark runs: medians,
quartiles, wins in the metric's direction (ties for neither side)."""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_higher_is_better_with_a_tie():
    got = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 5.0, 3.0], "higher")
    assert got == {
        "parent": {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0]},
        "change": {"median": 2.5, "q1": 2.0, "q3": 3.5, "runs": [2.0, 2.0, 5.0, 3.0]},
        "change_better_in": "2/4",
        "median_ratio": 1.0,
        "parent_iqr": 1.5,
    }


def test_lower_is_better():
    got = bench_pairs.summarize([10.0, 12.0, 11.0], [9.0, 12.0, 13.0], "lower")
    # 9 < 10 wins, 12 = 12 ties, 13 > 11 loses
    assert got["change_better_in"] == "1/3"
    assert got["median_ratio"] == 1.09091  # 12 / 11, to six digits
    assert got["parent"]["median"] == 11.0 and got["change"]["median"] == 12.0
    assert got["parent_iqr"] == 1.0  # 11.5 - 10.5
    flipped = bench_pairs.summarize([10.0, 12.0, 11.0], [9.0, 12.0, 13.0], "higher")
    assert flipped["change_better_in"] == "1/3"  # now only 13 > 11 wins


def test_all_ties_win_nothing():
    got = bench_pairs.summarize([5.0, 5.0], [5.0, 5.0], "lower")
    assert got["change_better_in"] == "0/2"
    assert got["parent_iqr"] == 0.0


@pytest.mark.parametrize("parent, change, better", [
    ([1.0], [1.0, 2.0], "lower"),
    ([], [], "lower"),
    ([1.0], [2.0], "faster"),
])
def test_bad_input_is_an_error(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, better)


def test_section_pairs_runs_by_side():
    def line(failed, attempted, value):
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {"schedule_s": {"value": value, "unit": "s"}}}

    results = [
        {"parent": line(0, 9, 6.0), "change": line(0, 9, 4.0)},
        {"parent": line(0, 9, 7.0), "change": line(1, 8, 7.5)},
    ]
    got = bench_pairs.section(results, {"schedule_s": "lower"})
    assert got["pairs"] == 2
    assert got["order"] == ["parent first", "change first"]
    assert got["failed"] == {"parent": [0, 0], "change": [0, 1]}
    assert got["attempted"] == {"parent": [9, 9], "change": [9, 8]}
    assert got["correct"] == {"parent": [True, True], "change": [True, False]}
    metric = got["metrics"]["schedule_s"]
    assert metric["unit"] == "s" and metric["better"] == "lower"
    assert metric["parent"]["runs"] == [6.0, 7.0]
    assert metric["change"]["runs"] == [4.0, 7.5]
    assert metric["change_better_in"] == "1/2"
