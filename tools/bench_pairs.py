"""Run the benchmark in alternating parent/change pairs and summarise them.

Run from the root of a checkout::

    python tools/bench_pairs.py --parent HEAD~1 --workload planted-schedule \\
        --seed 1 --pairs 10 --out BENCH_10.json

Each pair runs the unchanged ``perfbench/run.py --workload W --seed S
--seconds T`` once in a ``git archive`` export of the parent revision and
once in the working tree (uncommitted edits included), each in a fresh
process, one after the other: even pairs (counting from 0) run the
parent first, odd pairs the change first.  The file named by ``--out``
gets, under ``workloads[W]``, both sides' environment blocks and a
``seed S`` section: the order of each pair, ``failed``/``attempted``/
``correct`` of every run, and per metric both sides' median, quartiles
and runs, ``change_better_in`` (pairs where the change reads better in
the metric's direction; ties count for neither side), ``median_ratio``
(change median / parent median) and ``parent_iqr``.  Other workloads and
keys already in the file are kept, and the file is rewritten after every
pair, so an interrupted series keeps its finished pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ORDER = ("parent first", "change first")
METHOD = (
    "Alternating parent/change pairs, run one after another (even pairs parent first, "
    "odd pairs change first), each run in a fresh process. Quartiles are numpy "
    "linear-interpolation percentiles 25/75 over the runs of one side. change_better_in "
    "counts pairs where the change's value is better in the metric's direction; ties "
    "count for neither side."
)


def _round(value):
    return float(f"{value:.6g}")


def summarize(parent, change, better):
    """Both sides' median, quartiles and runs of one metric over paired
    runs (``parent[p]`` and ``change[p]`` ran in pair p), the pairs where
    the change is better (``better`` is "higher" or "lower"; ties count
    for neither), the ratio of the medians and the parent's interquartile
    range."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on both sides")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
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
    }


def run_bench(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` process in ``tree``: its environment block
    and its closing ``{correct, attempted, failed, metrics}`` line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next(json.loads(l[len("environment "):]) for l in lines if l.startswith("environment "))
    return env, json.loads(lines[-1])


def section(results, directions):
    """The ``seed S`` section from paired results: ``results`` is a list of
    per-pair {"parent": final line, "change": final line}."""
    out = {
        "pairs": len(results),
        "order": [ORDER[p % 2] for p in range(len(results))],
    }
    for key in ("failed", "attempted", "correct"):
        out[key] = {side: [r[side][key] for r in results] for side in ("parent", "change")}
    metrics = {}
    for name, metric in results[0]["parent"]["metrics"].items():
        runs = {side: [r[side]["metrics"][name]["value"] for r in results]
                for side in ("parent", "change")}
        metrics[name] = {"unit": metric["unit"], "better": directions[name],
                         **summarize(runs["parent"], runs["change"], directions[name])}
    out["metrics"] = metrics
    return out


def export(rev, directory):
    """Extract ``git archive rev`` into ``directory/parent``; returns the
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = os.path.join(directory, "tree.tar")
    subprocess.run(["git", "archive", "--output", archive, commit], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(directory, "parent"), filter="data")
    os.remove(archive)
    return commit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
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
        commit = export(args.parent, scratch)
        trees = {"parent": os.path.join(scratch, "parent"), "change": os.getcwd()}
        document.update(
            parent=commit,
            command=f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}, "
                    "each run in a fresh process; the parent from a git archive export, "
                    "the change from the working tree",
            method=METHOD,
        )
        workload = document.setdefault("workloads", {}).setdefault(args.workload, {})
        results = []
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            result = {}
            for side in sides:
                env, result[side] = run_bench(trees[side], args.workload, args.seed, seconds)
                workload.setdefault("environment", {})[side] = env
                print(f"pair {pair + 1}/{args.pairs} {side}: failed {result[side]['failed']}, "
                      + ", ".join(f"{k} {v['value']:.6g}"
                                  for k, v in result[side]["metrics"].items()),
                      flush=True)
            results.append(result)
            workload[f"seed {args.seed}"] = section(results, directions)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
