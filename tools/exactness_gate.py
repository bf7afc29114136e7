"""Exactness gate: the numbers a restructuring must leave unchanged, as one JSON document.

Run from the root of a checkout::

    python tools/exactness_gate.py > gate.json

It imports ``jmpgcf`` from that checkout's ``src``, and the benchmark's
generators, step driver and user sample from its ``perfbench`` (read
only), so the same script can be run in two trees, say a clean export of
the parent commit and the change.  The document holds:

* ``gowalla``: on ``gowalla_lists(1)`` with layers (3, 4), the step
  driver's loss sequence (2 steps per phase) and the SHA-256 of the
  tables it trained; the SHA-256 of the selected layers propagated from
  them; and the ``evaluate_cutoffs`` reports (cutoffs 1, 5, 20, 40) on the
  benchmark's 2,048-user sample, with 1 and 2 workers, and under
  ``rankings`` the SHA-256 of every sampled user's top-40 list.
* ``planted_steps``: on ``planted_lists(1)``, the loss sequence (4 steps
  per phase) and the table SHA-256 in 16 configurations: layers (3, 4),
  (1, 2), (3, 2), (1, 4) x ``full_matrix_reg`` x ``shared_base``.
* ``planted_train``: the records of a ``train()`` run over the planted
  schedule (one epoch per phase, per-epoch evaluation), the SHA-256 of
  its final tables and of their selected layers, and the reports on every
  evaluable user, with 1 and 2 workers; and under ``ties``, the same
  reports for the trained output with its selected layers rounded to
  multiples of 0.25, whose scores have many ties (at k=20,
  a tie straddles the cutoff for about one user in five).  Each has
  ``rankings`` too: the SHA-256 of every evaluable user's top-40 list.
  A list is ranked by ``rank_user`` from the scores of ``score_users``
  over the user's ``CHUNK_SIZE`` chunk, as ``evaluate_cutoffs`` scores
  it, so that a list reordered among items that are not hits also shows.
* ``hops``: on ``gowalla_lists(1)``, the SHA-256 of every full hop,
  ``spmm(A_k, X)`` and ``spmm(A_k^T, X)`` for each granularity k and a
  seeded normal X of 64 columns, into one reused buffer (first filled
  with NaN) as in training, with ``graph._cores`` patched to 1, 2 and 3
  (on a fresh pool each time), so that a hop split into any number of row
  blocks is compared bit for bit.
* ``cores``: on ``planted_lists(1)``, the step driver's losses and table
  SHA-256 in the first ``planted_steps`` configuration, and the records of
  a ``train()`` run over the planted schedule, with ``graph._cores``
  patched to 1, 2 and 3 (on a fresh pool each time), so that every stage
  is compared whether it runs on one thread or side by side.
* ``setup``: for ``gowalla_lists(1)`` and ``planted_lists(1)``, read back
  from their files, the SHA-256 of the loaded train and test lists (with
  their lengths), of the ``row_offsets``, ``col_indices`` and ``values``
  of every propagation matrix and of its transpose under each of
  ``SETUP_POPULARITIES`` (the benchmark's settings, K=0, and c=0.24 with
  K=4, whose column exponents run up to +0.46), and the hop coverages of
  ``hop_coverages`` with the default selection settings.

Floats are written with ``float.hex`` and arrays as the SHA-256 of their
bytes, so two trees compute the same numbers to the bit exactly when
their documents are byte-identical (``cmp``).  A run takes a few minutes
and about 2 GB of memory (the Gowalla-size graph).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import jmpgcf  # noqa: E402
from jmpgcf import (  # noqa: E402
    PhaseSchedule,
    SelectedLayers,
    TrainConfig,
    TripleSampler,
    build_adjacency,
    build_normalized_adjacency,
    LayerSelectionConfig,
    PopularityConfig,
    evaluate_cutoffs,
    hop_coverages,
    init_parameters,
    load_dataset,
    propagate,
    rank_user,
    train,
    transpose,
)
from jmpgcf.evaluation import CHUNK_SIZE  # noqa: E402
from jmpgcf.model import score_users  # noqa: E402
from spans import Tracer  # noqa: E402
from steps import StepDriver  # noqa: E402
from workloads import (  # noqa: E402
    EMBED_DIM,
    GOWALLA_EVAL_USERS,
    PLANTED_LAYERS,
    PLANTED_STEPS_PER_PHASE,
    POPULARITY,
    TOPK,
    _restrict,
    _sample_users,
)

if os.path.realpath(os.path.dirname(jmpgcf.__file__)) != os.path.realpath(
        os.path.join(ROOT, "src", "jmpgcf")):
    raise SystemExit(f"jmpgcf was imported from {jmpgcf.__file__}, not from {ROOT}/src")

SEED = 1
CUTOFFS = (1, 5, 20, 40)
RANKED = max(CUTOFFS)  # items per hashed ranking list
WORKERS = (1, 2)
GOWALLA_LAYERS = SelectedLayers(3, 4)
GOWALLA_STEPS_PER_PHASE = 2
# (layers, full_matrix_reg, shared_base)
PLANTED_CONFIGS = list(itertools.product(
    [SelectedLayers(3, 4), SelectedLayers(1, 2), SelectedLayers(3, 2), SelectedLayers(1, 4)],
    [False, True], [False, True],
))
SETUP_GRAPHS = {"gowalla": gen.gowalla_lists, "planted": gen.planted_lists}
SETUP_POPULARITIES = [POPULARITY, PopularityConfig(max_granularity=0), PopularityConfig(0.24, 4)]
CORES = (1, 2, 3)


def _sha(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _graph(make, directory):
    """The generated dataset, read back from its files, with its
    propagation matrices and their transposes."""
    ds = load_dataset(*gen.write_lists(directory, *make(SEED)))
    return (ds, *_operators(ds, POPULARITY))


def _operators(ds, popularity):
    """The propagation matrices of ``ds`` under ``popularity``, and their
    transposes."""
    adjacency = build_adjacency(ds)
    matrices = [build_normalized_adjacency(adjacency, k, popularity)
                for k in range(popularity.num_granularities)]
    return matrices, {k: transpose(m) for k, m in enumerate(matrices)}


def _steps(ds, matrices, transposed, layers, steps_per_phase, full_matrix_reg=False,
           shared_base=False):
    """The step driver's losses over the equal-phase plan, and its tables."""
    params = init_parameters(ds.num_users, ds.num_items, EMBED_DIM, POPULARITY, SEED,
                             shared_base=shared_base)
    cfg = TrainConfig(seed=SEED, full_matrix_reg=full_matrix_reg)
    driver = StepDriver(params, matrices, transposed, layers, TripleSampler(ds), cfg,
                        Tracer(False))
    losses = driver.run((steps_per_phase,) * POPULARITY.num_granularities)
    return params, {"losses": [loss.hex() for loss in losses],
                    "tables": _sha(params.base_embeddings)}


def _reports(params, out, ds):
    """The ``evaluate_cutoffs`` reports, per worker count."""
    return {
        f"workers={workers}": [
            {"k": r.k, "recall": r.recall.hex(), "ndcg": r.ndcg.hex(),
             "users": r.num_users_evaluated}
            for r in evaluate_cutoffs(params, out, ds, CUTOFFS, workers=workers)
        ]
        for workers in WORKERS
    }


def _rankings(out, ds):
    """The SHA-256 of every evaluable user's top-``RANKED`` list, scored
    in the chunks ``evaluate_cutoffs`` scores it in."""
    evaluable = [u for u in range(ds.num_users) if len(ds.test[u])]
    lists = []
    for start in range(0, len(evaluable), CHUNK_SIZE):
        users = evaluable[start:start + CHUNK_SIZE]
        scores = score_users(out, users)
        lists.extend(rank_user(row, ds.train[u], RANKED) for row, u in zip(scores, users))
    return {"users": len(lists), f"top{RANKED}": _lists_sha(lists)}


def _evaluation(params, matrices, layers, ds):
    """The selected layers' SHA-256, the reports, per worker count, and the
    rankings."""
    out = propagate(params, matrices, layers, retain_chain=False)
    selected = [out.layer(k, l) for k in range(out.num_granularities)
                for l in (layers.l_odd, layers.l_even)]
    return {"layers": _sha(selected), "reports": _reports(params, out, ds),
            "rankings": _rankings(out, ds)}


def _tie_evaluation(params, matrices, layers, ds):
    """The reports of an output whose selected layers are rounded to
    multiples of 0.25, so that its scores have many ties."""
    out = propagate(params, matrices, layers, retain_chain=False)
    np.round(out.factor * 4, out=out.factor)  # the selected layers are views of the factor
    out.factor /= 4
    return {"layers": _sha([out.factor]), "reports": _reports(params, out, ds),
            "rankings": _rankings(out, ds)}


def gowalla(directory):
    ds, matrices, transposed = _graph(gen.gowalla_lists, directory)
    params, result = _steps(ds, matrices, transposed, GOWALLA_LAYERS, GOWALLA_STEPS_PER_PHASE)
    sample = _restrict(ds, _sample_users(ds, GOWALLA_EVAL_USERS, SEED))
    result.update(_evaluation(params, matrices, GOWALLA_LAYERS, sample))
    return result


@contextlib.contextmanager
def _at_cores(count):
    """``graph._cores`` patched to ``count``, on a fresh pool that is shut
    down on leaving; the process's own count and pool are then put back."""
    graph = jmpgcf.graph
    cores, pool = graph._cores, graph._pool
    graph._cores, graph._pool = (lambda: count), None
    try:
        yield
    finally:
        if graph._pool is not None:
            graph._pool.shutdown()
        graph._cores, graph._pool = cores, pool


def hops(directory, make=gen.gowalla_lists):
    """The SHA-256 of each full hop and pull-back hop of ``make``'s graph,
    per patched core count."""
    ds, matrices, transposed = _graph(make, directory)
    dense = np.random.default_rng(SEED).normal(size=(matrices[0].num_cols, EMBED_DIM))
    result = {}
    for count in CORES:
        buffer = np.full(dense.shape, np.nan)  # reused by every hop, as in training
        with _at_cores(count):
            result[f"cores={count}"] = {
                f"A_{k}{side}": _sha([jmpgcf.graph.spmm(operator, dense, buffer)])
                for k in range(len(matrices))
                for side, operator in (("", matrices[k]), ("^T", transposed[k]))
            }
    return result


def cores(directory):
    """The first planted configuration's steps and a planted ``train()``
    run's records, per patched core count."""
    result = {}
    for count in CORES:
        run = os.path.join(directory, f"cores={count}")
        with _at_cores(count):
            result[f"cores={count}"] = {
                "steps": planted_steps(run, PLANTED_CONFIGS[:1]),
                "records": _planted_run(run)[1],
            }
    return result


def planted_steps(directory, configs=PLANTED_CONFIGS):
    ds, matrices, transposed = _graph(gen.planted_lists, directory)
    result = {}
    for layers, full_matrix_reg, shared_base in configs:
        label = (f"layers=({layers.l_odd},{layers.l_even}) "
                 f"full_matrix_reg={full_matrix_reg} shared_base={shared_base}")
        result[label] = _steps(ds, matrices, transposed, layers, PLANTED_STEPS_PER_PHASE,
                               full_matrix_reg, shared_base)[1]
    return result


def _planted_run(directory):
    """A ``train()`` run over the planted schedule: ``(params, records, ds,
    matrices)``, the records' floats as ``float.hex`` and without
    ``wallclock_s``."""
    ds, matrices, _ = _graph(gen.planted_lists, directory)
    params = init_parameters(ds.num_users, ds.num_items, EMBED_DIM, POPULARITY, SEED)
    params, records = train(ds, params, PhaseSchedule.uniform(POPULARITY.max_granularity, 1),
                            TrainConfig(seed=SEED), PLANTED_LAYERS, matrices=matrices,
                            eval_ds=ds, eval_every=1, eval_topk=TOPK,
                            metrics_path=os.path.join(directory, "metrics.jsonl"),
                            checkpoint_dir=directory)
    records = [{key: value.hex() if isinstance(value, float) else value
                for key, value in record.items() if key != "wallclock_s"}
               for record in records]
    return params, records, ds, matrices


def planted_train(directory):
    params, records, ds, matrices = _planted_run(directory)
    result = {"records": records, "tables": _sha(params.base_embeddings)}
    result.update(_evaluation(params, matrices, PLANTED_LAYERS, ds))
    result["ties"] = _tie_evaluation(params, matrices, PLANTED_LAYERS, ds)
    return result


def _lists_sha(lists):
    return _sha([np.array([len(items) for items in lists], dtype=np.int64), *lists])


def _stored(matrix):
    return {name: _sha([getattr(matrix, name)])
            for name in ("row_offsets", "col_indices", "values")}


def setup(directory, graphs=SETUP_GRAPHS):
    """What the set-up computes from each generated graph's files."""
    result = {}
    for name, make in graphs.items():
        ds = load_dataset(*gen.write_lists(os.path.join(directory, name), *make(SEED)))
        odd, even = hop_coverages(ds, LayerSelectionConfig())
        result[name] = {
            "train": _lists_sha(ds.train),
            "test": _lists_sha(ds.test),
            "hop_coverages": {str(hop): coverage.hex()
                              for hop, coverage in sorted({**odd, **even}.items())},
        }
        for popularity in SETUP_POPULARITIES:
            matrices, transposed = _operators(ds, popularity)
            result[name][f"c={popularity.granularity_unit} K={popularity.max_granularity}"] = {
                "matrices": [_stored(m) for m in matrices],
                "transposes": [_stored(transposed[k]) for k in range(len(matrices))],
            }
    return result


def main():
    document = {}
    for name, part in (("setup", setup), ("hops", hops), ("gowalla", gowalla),
                       ("planted_steps", planted_steps), ("planted_train", planted_train),
                       ("cores", cores)):
        with tempfile.TemporaryDirectory(prefix="exactness-gate-") as directory:
            document[name] = part(directory)
    json.dump(document, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
