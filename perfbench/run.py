"""Benchmark entry point.

    python3 perfbench/run.py --workload gowalla --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ``jmpgcf`` from ``src/``
and exits with code 2 if the sources are not there.  It generates the
workload's input files from ``--seed`` (or reads real ``train.txt`` /
``test.txt`` from ``--data-dir`` for the gowalla workload), runs the
workload in this one process, checks the outputs, and prints the result
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run (see ``perfbench/README.md``).  The
full result, with the environment block, every check and the per-layer
self times, goes to ``.perfbench_out/``; a traced run writes its spans
there too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("gowalla", "planted-schedule")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-dir", default=None,
                        help="real train.txt/test.txt for the gowalla workload "
                             "(default: the seeded synthetic graph)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.data_dir is not None and args.workload == "planted-schedule":
        parser.error("--data-dir applies to the gowalla workload only")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jmpgcf", "__init__.py")):
        print(f"perfbench: no jmpgcf sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread per thread of ours: training runs on this thread and
    # evaluation on nproc worker threads, so the load never exceeds nproc.
    # Must be set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import jmpgcf
    import workloads

    if os.path.dirname(os.path.abspath(jmpgcf.__file__)) != os.path.join(SRC, "jmpgcf"):
        print(f"perfbench: imported jmpgcf from {jmpgcf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir, args.data_dir, nproc)
    try:
        workloads.record_environment(run)
        workloads.WORKLOADS[args.workload](run)
    except (workloads.ShapeError, jmpgcf.TrainingDivergedError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.trace:
        run.metric("peak_rss_mb", workloads.peak_rss_mb(), "MB")

    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": run.env, "checks": run.checks,
              "info": run.info, "metrics": run.metrics}
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)
    if run.trace:
        run.tracer.dump(stem + ".spans.jsonl")

    print("environment " + json.dumps(run.env))
    for check in run.checks:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['check']}")
    for name, metric in run.metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
