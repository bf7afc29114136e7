"""``tools/bench_pairs.py`` summarises paired benchmark runs: medians,
quartiles, wins in the metric's direction (ties for neither side), the
median and order-statistic interval of the per-pair ratios, and the
modes of a bimodal metric; it runs both sides from trees of equal
path length, and keeps an A/A series beside the claim it qualifies."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess

import numpy as np
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
        # ratios 2, 1, 5/3, 0.75; 4 pairs cover the median with the whole range only
        "median_pair_ratio": 1.33333,
        "pair_ratio_interval": {"low": 0.75, "high": 2.0, "ranks": [1, 4], "coverage": 0.875},
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


def test_pair_ratio_interval_of_ten_pairs():
    """The 3rd to 8th smallest of 10 per-pair ratios, whatever their order:
    1 - 2 (1 + 10 + 45) / 1024 = 89.1% coverage of their median."""
    ratios = [0.9, 1.3, 1.1, 1.05, 0.95, 1.2, 1.0, 1.15, 1.25, 0.85]
    parent = [100.0 + 10 * p for p in range(10)]
    got = bench_pairs.summarize(parent, [p * r for p, r in zip(parent, ratios)], "higher")
    assert got["median_pair_ratio"] == 1.075  # (1.05 + 1.1) / 2
    assert got["pair_ratio_interval"] == {"low": 0.95, "high": 1.2, "ranks": [3, 8],
                                          "coverage": 0.890625}


@pytest.mark.parametrize("pairs, ranks, coverage", [
    (1, [1, 1], 0.0), (3, [1, 3], 0.75), (5, [1, 5], 0.9375), (6, [1, 6], 0.96875),
    (10, [3, 8], 0.890625), (20, [7, 14], 0.884682),
])
def test_interval_ranks_per_pair_count(pairs, ranks, coverage):
    """The innermost ranks that still cover the median with at least 85%,
    or the whole range when no ranks do; the coverage is the chance that
    between j and pairs - j of the ratios fall below the median."""
    got = bench_pairs.pair_ratio_interval(list(range(pairs)))
    assert got["ranks"] == ranks and got["coverage"] == coverage
    j = ranks[0]
    assert coverage == pytest.approx(
        sum(math.comb(pairs, i) for i in range(j, pairs - j + 1)) / 2 ** pairs, abs=1e-6)
    assert (got["low"], got["high"]) == (ranks[0] - 1, ranks[1] - 1)


def test_interval_covers_the_true_ratio_on_synthetic_runs():
    """Synthetic 10-pair series of a change 10% faster under lognormal noise
    shared within a pair: the interval holds the true ratio about 89% of the
    time, and excludes 1 whenever the noise is small."""
    rng = np.random.default_rng(5)
    covered = 0
    trials = 2000
    for _ in range(trials):
        host = rng.lognormal(0, 0.2, 10)  # a pair's shared host speed
        parent = 100 * host * rng.lognormal(0, 0.05, 10)
        change = 110 * host * rng.lognormal(0, 0.05, 10)
        interval = bench_pairs.summarize(list(parent), list(change), "higher")[
            "pair_ratio_interval"]
        covered += interval["low"] <= 1.1 <= interval["high"]
    assert abs(covered / trials - 0.890625) < 0.025
    quiet = 100 * rng.lognormal(0, 0.01, 10)
    interval = bench_pairs.summarize(list(quiet), list(1.1 * quiet), "higher")[
        "pair_ratio_interval"]
    assert interval["low"] > 1


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


def test_gowalla_rss_runs_are_labelled_by_mode():
    def line(rss):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                            "setup_s": {"value": 1.0, "unit": "s"}}}

    results = [{"parent": line(p), "change": line(c)}
               for p, c in ((1351.2, 1383.0), (1352.9, 1350.7), (1380.4, 1353.1))]
    got = bench_pairs.section(results, {"peak_rss_mb": "lower", "setup_s": "lower"},
                              bench_pairs.MODES["gowalla"])
    assert got["metrics"]["peak_rss_mb"]["modes"] == {
        "parent": {"runs": ["~1352", "~1352", "~1382"], "counts": {"~1352": 2, "~1382": 1}},
        "change": {"runs": ["~1382", "~1352", "~1352"], "counts": {"~1352": 2, "~1382": 1}},
    }
    assert "modes" not in got["metrics"]["setup_s"]
    assert "modes" not in bench_pairs.section(results, {"peak_rss_mb": "lower",
                                                        "setup_s": "lower"})["metrics"]["peak_rss_mb"]


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository with two commits of ``a.txt`` ("v1", "v2"), then an
    uncommitted edit ("v3"), an untracked file and an ignored one; the
    working directory is its root."""
    root = tmp_path / "repo"
    root.mkdir()
    monkeypatch.chdir(root)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    (root / ".gitignore").write_text("ignored.txt\n")
    (root / "sub").mkdir()
    for version in ("v1", "v2"):
        (root / "sub" / "a.txt").write_text(version)
        git("add", "-A")
        git("commit", "-q", "-m", version)
    (root / "sub" / "a.txt").write_text("v3")
    (root / "new.txt").write_text("untracked")
    (root / "ignored.txt").write_text("ignored")
    return root


def read_tree(tree):
    return {os.path.relpath(os.path.join(d, f), tree): pathlib.Path(d, f).read_text()
            for d, _, files in os.walk(tree) for f in files}


def test_working_tree_snapshot_beside_the_parent(repo, tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    trees, sources = bench_pairs.make_trees(str(scratch), "HEAD~1")
    assert len(trees["parent"]) == len(trees["change"])
    assert os.path.dirname(trees["parent"]) == os.path.dirname(trees["change"]) == str(scratch)
    assert read_tree(trees["parent"]) == {".gitignore": "ignored.txt\n", "sub/a.txt": "v1"}
    assert read_tree(trees["change"]) == {".gitignore": "ignored.txt\n", "sub/a.txt": "v3",
                                          "new.txt": "untracked"}
    assert sources["change"] == "working tree"
    assert sorted(os.listdir(scratch)) == ["change", "parent"]  # no archive left behind


def test_aa_and_change_revision(repo, tmp_path):
    for name, kwargs, want in (("aa", {"aa": True}, "v1"), ("rev", {"change": "HEAD"}, "v2")):
        scratch = tmp_path / name
        scratch.mkdir()
        trees, sources = bench_pairs.make_trees(str(scratch), "HEAD~1", **kwargs)
        assert read_tree(trees["parent"])["sub/a.txt"] == "v1"
        assert read_tree(trees["change"]) == {".gitignore": "ignored.txt\n", "sub/a.txt": want}
        assert (sources["change"] == sources["parent"]) == kwargs.get("aa", False)


def test_aa_series_is_kept_beside_the_claim(repo, monkeypatch):
    """An A/A series leaves the claim's header and section as they are,
    goes into ``aa seed S``, and gives each claim metric its median ratio,
    whichever of the two series runs first."""
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "planted-schedule"}],
        "end_to_end": [{"name": "schedule_s", "better": "lower"}], "per_layer": []}))
    # a run reads its tree's sub/a.txt: v1 at the parent commit, v3 in the
    # working tree; the change side reads 5% slower on the same code
    seconds = {"v1": 10.0, "v3": 8.0}

    def fake_run(tree, workload, seed, run_seconds):
        with open(os.path.join(tree, "sub", "a.txt")) as fh:
            value = seconds[fh.read()] * (1.05 if os.path.basename(tree) == "change" else 1.0)
        return ({"tree": os.path.basename(tree)},
                {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": {"schedule_s": {"value": value, "unit": "s"}}})

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    claim_args = ["--parent", "HEAD~1", "--workload", "planted-schedule", "--seed", "1",
                  "--pairs", "2", "--out", "bench.json"]

    def run(*extra):
        assert bench_pairs.main(claim_args + list(extra)) == 0
        with open("bench.json") as fh:
            return json.load(fh)

    claim = run()
    assert "aa_median_ratio" not in claim["workloads"]["planted-schedule"]["seed 1"]["metrics"][
        "schedule_s"]
    both = run("--aa")
    parent = subprocess.run(["git", "rev-parse", "HEAD~1"], capture_output=True, text=True,
                            check=True).stdout.strip()
    for key in ("parent", "change", "command", "method"):
        assert both[key] == claim[key]
    assert both["parent"] == parent and both["change"] == "working tree"
    workload = both["workloads"]["planted-schedule"]
    assert workload["environment"] == {"parent": {"tree": "parent"}, "change": {"tree": "change"}}
    aa = workload["aa seed 1"]
    assert aa["revision"] == parent
    assert aa["environment"] == workload["environment"]
    assert aa["metrics"]["schedule_s"]["median_ratio"] == 1.05
    assert aa["metrics"]["schedule_s"]["change"]["runs"] == [10.5, 10.5]
    assert workload["seed 1"]["metrics"]["schedule_s"].pop("aa_median_ratio") == 1.05
    assert workload["seed 1"] == claim["workloads"]["planted-schedule"]["seed 1"]
    # a claim run after the A/A series keeps it and its ratio
    again = run()["workloads"]["planted-schedule"]
    assert again["aa seed 1"] == aa
    assert again["seed 1"]["metrics"]["schedule_s"]["aa_median_ratio"] == 1.05
    assert again["seed 1"]["metrics"]["schedule_s"]["median_ratio"] == 0.84
