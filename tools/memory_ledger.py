"""Resident and peak memory of one ``train()`` run, call by call.

Run from the root of a checkout::

    python tools/memory_ledger.py planted
    python tools/memory_ledger.py gowalla

Each shape is perfbench's generated graph of that name (seed 1), written
to a temporary directory and read back with ``load_dataset``, with
perfbench's popularity settings and 64-dimensional tables:

* ``planted``: the benchmark's schedule, one epoch per phase, layers
  (3, 4), evaluation of every user after each epoch.  Takes seconds.
* ``gowalla``: one phase-3 epoch, ``PhaseSchedule(2, (0, 0, 1))``, about
  400 steps that train every granularity, layers (3, 4), then the
  evaluation of 2,048 seeded users.  Takes minutes (~8 on 2 vCPUs).

Both evaluate on 2 threads, and write the run's metrics and checkpoints
into the temporary directory, as the benchmark's ``train()`` call does.

The script runs ``train()`` itself.  It wraps the calls that ``train()``
makes (``training.propagate``, ``training.backward``,
``training.optimizer_step`` and ``evaluation.evaluate``) and prints one
line per point: the resident MB before and after the call
(``/proc/self/statm``, so Linux only) and the process's peak MB after it
(``ru_maxrss``, a running maximum), in MB of 10^6 bytes as perfbench's
``peak_rss_mb``.  The first steps of the run and of each stretch after
an evaluation get a line per call; the stretch's later steps are one
``steps A-B`` line: the resident MB before its first call, the most
resident after any of its calls, and the peak at its end.  The peak on
the line before an evaluation is the steps' peak; the last line's is the
run's.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from contextlib import ExitStack
from unittest import mock

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from jmpgcf import (  # noqa: E402
    PhaseSchedule,
    SelectedLayers,
    TrainConfig,
    evaluation,
    init_parameters,
    load_dataset,
    propagation_matrices,
    train,
    training,
)
from workloads import (  # noqa: E402
    EMBED_DIM,
    GOWALLA_EVAL_USERS,
    PLANTED_EPOCHS_PER_PHASE,
    POPULARITY,
    TOPK,
    _restrict,
    _sample_users,
)

SEED = 1
LAYERS = SelectedLayers(3, 4)
WORKERS = 2
# steps with a line per call, at the start and after each evaluation
DETAILED_STEPS = 2


def resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Ledger:
    """Prints a line per point to ``out``; see the module docstring."""

    def __init__(self, out):
        self.out = out
        self.step = 0
        self.since_evaluation = 0
        self.stretch = None  # [first step, last step, before MB, most after MB]
        print(f"{'point':<28}{'before_mb':>10}{'after_mb':>10}{'peak_mb':>10}", file=out)

    def line(self, name, before, after):
        before = "" if before is None else f"{before:.1f}"
        print(f"{name:<28}{before:>10}{after:>10.1f}{peak_mb():>10.1f}", file=self.out)

    def flush(self):
        if self.stretch is not None:
            first, last, before, after = self.stretch
            self.line(f"steps {first}-{last}", before, after)
            self.stretch = None

    def call(self, stage, before, after):
        """One wrapped call has returned: ``stage`` is its name in the
        step, or ``evaluation ...`` for the evaluation's calls."""
        if stage.startswith("evaluation"):
            self.flush()
            self.since_evaluation = 0
            self.line(stage, before, after)
        elif self.since_evaluation <= DETAILED_STEPS:
            self.line(f"step {self.step} {stage}", before, after)
        elif self.stretch is None:
            self.stretch = [self.step, self.step, before, after]
        else:
            self.stretch[1] = self.step
            self.stretch[3] = max(self.stretch[3], after)

    def wrap(self, module, name, stage):
        """``module.name`` calling through to the original and reporting
        to :meth:`call`; ``stage(kwargs)`` names the call."""
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            label = stage(kwargs)
            if label == "propagate":
                self.step += 1
                self.since_evaluation += 1
            before = resident_mb()
            result = original(*args, **kwargs)
            self.call(label, before, resident_mb())
            return result

        return mock.patch.object(module, name, wrapped)


def run(ds, eval_ds, schedule, layers, out, directory):
    """``train()`` on ``ds`` from fresh tables, evaluating ``eval_ds``
    after every epoch, with the points of its calls printed to ``out``."""
    ledger = Ledger(out)
    ledger.line("dataset loaded", None, resident_mb())
    matrices = propagation_matrices(ds, POPULARITY)
    ledger.line("matrices built", None, resident_mb())
    params = init_parameters(ds.num_users, ds.num_items, EMBED_DIM, POPULARITY, SEED)
    ledger.line("tables made", None, resident_mb())
    with ExitStack() as stack:
        stack.enter_context(ledger.wrap(
            training, "propagate",
            lambda kw: "propagate" if kw.get("retain_chain", True) else "evaluation propagate"))
        stack.enter_context(ledger.wrap(training, "backward", lambda kw: "backward"))
        stack.enter_context(ledger.wrap(training, "optimizer_step", lambda kw: "optimizer"))
        stack.enter_context(ledger.wrap(evaluation, "evaluate",
                                        lambda kw: "evaluation evaluate"))
        _, records = train(ds, params, schedule, TrainConfig(seed=SEED), layers,
                           matrices=matrices, eval_ds=eval_ds, eval_every=1, eval_topk=TOPK,
                           metrics_path=os.path.join(directory, "metrics.jsonl"),
                           checkpoint_dir=directory, workers=WORKERS)
    ledger.flush()
    ledger.line("train() returned", None, resident_mb())
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("shape", choices=("planted", "gowalla"))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="memory-ledger-") as directory:
        if args.shape == "planted":
            lists = gen.planted_lists(SEED)
            schedule = PhaseSchedule.uniform(POPULARITY.max_granularity,
                                             PLANTED_EPOCHS_PER_PHASE)
        else:
            lists = gen.gowalla_lists(SEED)
            schedule = PhaseSchedule(POPULARITY.max_granularity, (0, 0, 1))
        paths = gen.write_lists(directory, *lists)
        del lists
        ds = load_dataset(*paths)
        eval_ds = ds
        if args.shape == "gowalla":
            eval_ds = _restrict(ds, _sample_users(ds, GOWALLA_EVAL_USERS, SEED))
        run(ds, eval_ds, schedule, LAYERS, sys.stdout, directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
