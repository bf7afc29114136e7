"""Run the benchmark in alternating parent/change pairs and summarise them.

Run from the root of a checkout::

    python tools/bench_pairs.py --parent HEAD~1 --workload planted-schedule \\
        --seed 1 --pairs 10 --out BENCH_10.json

Each pair runs the unchanged ``perfbench/run.py --workload W --seed S
--seconds T`` once on each side, each in a fresh process with
``PYTHONDONTWRITEBYTECODE=1``, one after the other: even pairs (counting
from 0) run the parent first, odd pairs the change first.  The two sides
run from sibling directories of equal name length under one temporary
directory, so that their paths differ in nothing but the side's name: the
parent side is a ``git archive`` export of ``--parent``, and the change
side a copy of the working tree's files (tracked and untracked, minus
ignored ones; uncommitted edits included), or an export of ``--change
REV``, or with ``--aa`` a second export of ``--parent`` (an A/A series
that measures the tool's own side bias).  The file named by ``--out``
gets, under ``workloads[W]``, both sides' environment blocks and a ``seed
S`` section: the order of each pair, ``failed``/``attempted``/``correct``
of every run, and per metric both sides' median, quartiles and runs,
``change_better_in`` (pairs where the change reads better in the
metric's direction; ties count for neither side), ``median_ratio``
(change median / parent median), ``parent_iqr``, and the paired
statistics of the per-pair ratios change / parent: their median
``median_pair_ratio``, and ``pair_ratio_interval``, a distribution-free
interval for that median from the ratios' order statistics, with its
coverage (for 10 pairs, the 3rd to 8th smallest ratio, ~89%).  A gowalla
``peak_rss_mb`` run is also labelled by the mode it falls in (the metric
is bimodal on the same code, at ~1,352 and ~1,382 MB), with the count of
each mode per side.  An A/A series goes instead into an ``aa seed S``
section, with the revision it ran and its own environment blocks, and
leaves the file's ``parent``/``change`` and the ``seed S`` section as
they are.  When both sections are there, each metric of ``seed S`` also
gets ``aa_median_ratio``, the A/A series' ``median_ratio``: the ratio
that the tool's side bias alone gives.  Other workloads and keys already
in the file are kept, and the file is rewritten after every pair, so an
interrupted series keeps its finished pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ORDER = ("parent first", "change first")
SIDES = ("parent", "change")  # names of equal length for the two trees
# the modes of peak_rss_mb per workload (MB): each run is labelled by the nearest
MODES = {"gowalla": {"peak_rss_mb": (1352, 1382)}}
# the least coverage of a pair ratio interval: 10 pairs give the 3rd to 8th ratio
INTERVAL_COVERAGE = 0.85
METHOD = (
    "Alternating parent/change pairs, run one after another (even pairs parent first, "
    "odd pairs change first), each run in a fresh process. Quartiles are numpy "
    "linear-interpolation percentiles 25/75 over the runs of one side. change_better_in "
    "counts pairs where the change's value is better in the metric's direction; ties "
    "count for neither side. median_pair_ratio is the median of the per-pair ratios "
    "change/parent; pair_ratio_interval runs from the j-th smallest to the j-th largest "
    "of those ratios, for the largest j whose coverage of their median is at least 85% "
    "under the sign test's binomial(pairs, 1/2) (3rd to 8th of 10 pairs, 89.1%)."
)


def _round(value):
    return float(f"{value:.6g}")


def _coverage(pairs, rank):
    """The chance that the ``rank``-th smallest and largest of ``pairs``
    independent ratios enclose their median: 1 - 2 P(Binomial(pairs, 1/2) < rank)."""
    return 1 - 2 * sum(math.comb(pairs, i) for i in range(rank)) / 2 ** pairs


def pair_ratio_interval(ratios):
    """The interval from the j-th smallest to the j-th largest ratio, for the
    largest j whose coverage of the ratios' median is at least
    :data:`INTERVAL_COVERAGE` (j = 1, the whole range, when none is)."""
    ordered = sorted(ratios)
    rank = max([1] + [j for j in range(1, len(ordered) // 2 + 1)
                      if _coverage(len(ordered), j) >= INTERVAL_COVERAGE])
    return {"low": _round(ordered[rank - 1]), "high": _round(ordered[-rank]),
            "ranks": [rank, len(ordered) + 1 - rank],
            "coverage": _round(_coverage(len(ordered), rank))}


def summarize(parent, change, better):
    """Both sides' median, quartiles and runs of one metric over paired
    runs (``parent[p]`` and ``change[p]`` ran in pair p), the pairs where
    the change is better (``better`` is "higher" or "lower"; ties count
    for neither), the ratio of the medians and the parent's interquartile
    range, and the median and order-statistic interval of the per-pair
    ratios change / parent."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on both sides")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ratios = [c / p for p, c in zip(parent, change)]
    sides = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = np.percentile(runs, [25, 50, 75])
        sides[side] = {"median": _round(median), "q1": _round(q1), "q3": _round(q3),
                       "runs": list(runs)}
    return {
        **sides,
        "change_better_in": f"{wins}/{len(parent)}",
        "median_ratio": _round(np.median(change) / np.median(parent)),
        "parent_iqr": _round(sides["parent"]["q3"] - sides["parent"]["q1"]),
        "median_pair_ratio": _round(np.median(ratios)),
        "pair_ratio_interval": pair_ratio_interval(ratios),
    }


def run_bench(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` process in ``tree``: its environment block
    and its closing ``{correct, attempted, failed, metrics}`` line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next(json.loads(l[len("environment "):]) for l in lines if l.startswith("environment "))
    return env, json.loads(lines[-1])


def label_modes(runs, modes):
    """Each run's nearest mode as ``"~M"``, and how many runs fall in each."""
    labels = [f"~{min(modes, key=lambda mode: abs(run - mode))}" for run in runs]
    return {"runs": labels, "counts": {f"~{mode}": labels.count(f"~{mode}") for mode in modes}}


def section(results, directions, modes=None):
    """The ``seed S`` section from paired results: ``results`` is a list of
    per-pair {"parent": final line, "change": final line}; ``modes`` maps a
    metric to the modes its runs are labelled by."""
    out = {
        "pairs": len(results),
        "order": [ORDER[p % 2] for p in range(len(results))],
    }
    for key in ("failed", "attempted", "correct"):
        out[key] = {side: [r[side][key] for r in results] for side in SIDES}
    metrics = {}
    for name, metric in results[0]["parent"]["metrics"].items():
        runs = {side: [r[side]["metrics"][name]["value"] for r in results] for side in SIDES}
        metrics[name] = {"unit": metric["unit"], "better": directions[name],
                         **summarize(runs["parent"], runs["change"], directions[name])}
        if name in (modes or {}):
            metrics[name]["modes"] = {side: label_modes(runs[side], modes[name])
                                      for side in SIDES}
    out["metrics"] = metrics
    return out


def compare_to_aa(workload, seed):
    """Give each metric of ``workload``'s ``seed S`` section the
    ``median_ratio`` of the same metric in its ``aa seed S`` section, as
    ``aa_median_ratio``, when both sections are there."""
    claim, aa = workload.get(f"seed {seed}"), workload.get(f"aa seed {seed}")
    if claim is None or aa is None:
        return
    for name, metric in claim["metrics"].items():
        if name in aa["metrics"]:
            metric["aa_median_ratio"] = aa["metrics"][name]["median_ratio"]


def export(rev, tree):
    """Extract ``git archive rev`` into the directory ``tree``; returns the
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = tree + ".tar"
    subprocess.run(["git", "archive", "--output", archive, commit], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return commit


def snapshot(tree):
    """Copy the working tree's files, tracked and untracked but not ignored,
    as they are on disk, into the directory ``tree``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            capture_output=True, check=True).stdout.decode()
    for name in listed.split("\0"):
        if name and os.path.isfile(name):  # a deleted tracked file is still listed
            target = os.path.join(tree, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(name, target)


def make_trees(scratch, parent, change=None, aa=False):
    """Both sides' trees in sibling directories of ``scratch``, named by
    :data:`SIDES`: the parent revision's export, and the change revision's
    (``change``), the parent's again (``aa``) or a snapshot of the working
    tree.  Returns the trees and what each side holds."""
    trees = {side: os.path.join(scratch, side) for side in SIDES}
    sources = {"parent": export(parent, trees["parent"])}
    if aa or change is not None:
        sources["change"] = export(parent if aa else change, trees["change"])
    else:
        snapshot(trees["change"])
        sources["change"] = "working tree"
    return trees, sources


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    change = parser.add_mutually_exclusive_group()
    change.add_argument("--change", metavar="REV",
                        help="git revision of the change side (default: the working tree)")
    change.add_argument("--aa", action="store_true",
                        help="run the parent revision on both sides")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or extend")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    directions = {m["name"]: m["better"]
                  for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    seconds = benchmark["run_seconds"]
    document = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            document = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees, sources = make_trees(scratch, args.parent, args.change, args.aa)
        header = {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}, "
                       "each run in a fresh process with PYTHONDONTWRITEBYTECODE=1; the parent "
                       "from a git archive export, the change from "
                       + ("a snapshot of the working tree" if sources["change"] == "working tree"
                          else "a git archive export")
                       + ", in sibling directories of equal name length",
            "method": METHOD,
        }
        workload = document.setdefault("workloads", {}).setdefault(args.workload, {})
        if args.aa:  # the claim's header stays as it is
            for key, value in header.items():
                document.setdefault(key, value)
            environment = {}
        else:
            document.update(parent=sources["parent"], change=sources["change"], **header)
            environment = workload.setdefault("environment", {})
        results = []
        for pair in range(args.pairs):
            sides = SIDES if pair % 2 == 0 else SIDES[::-1]
            result = {}
            for side in sides:
                environment[side], result[side] = run_bench(trees[side], args.workload,
                                                            args.seed, seconds)
                print(f"pair {pair + 1}/{args.pairs} {side}: failed {result[side]['failed']}, "
                      + ", ".join(f"{k} {v['value']:.6g}"
                                  for k, v in result[side]["metrics"].items()),
                      flush=True)
            results.append(result)
            summary = section(results, directions, MODES.get(args.workload))
            if args.aa:
                workload[f"aa seed {args.seed}"] = {
                    "revision": sources["parent"], "environment": environment, **summary}
            else:
                workload[f"seed {args.seed}"] = summary
            compare_to_aa(workload, args.seed)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
