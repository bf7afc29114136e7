"""Full-ranking top-K evaluation (mean Recall@K and NDCG@K).

Every item the user did not interact with during training is a
candidate; training items are excluded from the ranking.  Users with
no held-out items are skipped and do not enter the averages.

Users are scored in chunks, one :func:`score_users` call per chunk: one
GEMM of the chunk's rows of the stacked factor against its item rows
(one per run of equal granularity weights).  Its result is the chunk's
own array, so the chunk masks every training item to -inf in it with
one assignment and takes each user's top-k straight from the masked
row: the k-th largest value by a partition of the row, then a stable
sort of the items at or above it.  The ranking is the one
:func:`rank_user` gives for a copy of the row.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .graph import _cores
from .model import PropagationOutput, score_users, weight_runs

__all__ = [
    "MetricsReport",
    "evaluate",
    "evaluate_cutoffs",
    "format_report",
    "ndcg_at_k",
    "rank_user",
    "recall_at_k",
    "report_as_dict",
]


@dataclass(frozen=True)
class MetricsReport:
    k: int
    recall: float
    ndcg: float
    num_users_evaluated: int


def rank_user(scores: np.ndarray, exclude, k: int) -> np.ndarray:
    """Indices of the k highest-scoring items outside ``exclude``.

    Descending score, ties broken by ascending item index.  If fewer
    than k candidates remain (``exclude`` may repeat an item; each
    distinct item counts once), all of them are returned.  The scores
    are copied, the excluded items masked to -inf in the copy, and the
    list read from it as :func:`evaluate_cutoffs` reads its masked rows.
    """
    masked = np.array(scores, dtype=np.float64)
    exclude = np.unique(np.asarray(list(exclude), dtype=np.int64))
    masked[exclude] = -np.inf
    return _top_k(masked, min(k, masked.shape[0] - exclude.size))


def _top_k(masked: np.ndarray, k: int, buffer=None) -> np.ndarray:
    """The first k items of ``masked`` by descending score, then ascending
    index; ``masked`` holds -inf at every excluded item.  ``buffer``, a
    float64 array of the row's length, holds the partitioned copy of the
    row instead of a new one."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    n = masked.shape[0]
    if k < n:
        # exact top-k: everything at or above the k-th largest value (a
        # partition of a copy of the row, not of a negated copy), then
        # index-stable ordering of the boundary ties
        if buffer is None:
            buffer = np.empty(n)
        np.copyto(buffer, masked)
        buffer.partition(n - k)
        threshold = buffer[n - k]
        if math.isfinite(threshold):
            candidates = np.flatnonzero(masked >= threshold)
            order = candidates[np.argsort(-masked[candidates], kind="stable")]
            return order[:k]
    order = np.argsort(-masked, kind="stable")
    return order[:k]


def recall_at_k(topk, relevant) -> float:
    """Fraction of the relevant set retrieved in the top-k list."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = sum(1 for item in topk if item in relevant)
    return hits / len(relevant)


def ndcg_at_k(topk, relevant, k) -> float:
    """Binary-relevance NDCG with log2 discount.

    The ideal DCG places min(|relevant|, k) hits at the top, so a
    perfect prefix scores exactly 1.
    """
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for position, item in enumerate(topk):
        if item in relevant:
            dcg += 1.0 / math.log2(position + 2)
    idcg = 0.0
    for position in range(min(len(relevant), k)):
        idcg += 1.0 / math.log2(position + 2)
    return dcg / idcg


def evaluate(
    params,
    out: PropagationOutput,
    ds: InteractionDataset,
    k: int = 20,
    weights=None,
    workers: int = 1,
    chunk_size: int = 256,
) -> MetricsReport:
    """Mean Recall@k / NDCG@k over all users with held-out items."""
    return evaluate_cutoffs(params, out, ds, (k,), weights, workers, chunk_size)[0]


def evaluate_cutoffs(
    params,
    out: PropagationOutput,
    ds: InteractionDataset,
    cutoffs,
    weights=None,
    workers: int = 1,
    chunk_size: int = 256,
) -> list[MetricsReport]:
    """:func:`evaluate` at each of ``cutoffs`` from one scoring pass.

    Each user is ranked once, at the largest cutoff; a smaller cutoff's
    list is a prefix of that ranking, because :func:`rank_user` orders by
    descending score and then ascending item index.  At most ``workers``
    threads score chunks, and never more than there are chunks or cores
    in the process's CPU affinity: each thread holds one chunk's score
    buffers, and a thread beyond the cores adds only memory.
    """
    if not cutoffs or min(cutoffs) < 1:
        raise ValueError(f"cutoffs must be >= 1, got {cutoffs}")
    if weights is None:
        weights = (
            params.popularity.granularity_weights if params is not None else out.default_weights
        )
    evaluable = [u for u in range(ds.num_users) if len(ds.test[u])]
    if not evaluable:
        raise ValueError("no user has held-out items to evaluate")
    recalls, ndcgs = np.zeros((2, len(cutoffs), len(evaluable)))
    deepest = max(cutoffs)
    # raises here, before any worker starts, for an output that cannot be scored
    several_runs = len(weight_runs(out, weights, range(out.num_granularities))) > 1

    def run_chunk(start, buffers=None):
        users = evaluable[start:start + chunk_size]
        scores = score_users(out, users, weights=weights, buffers=buffers)
        # the chunk owns its scores: mask every training item in place
        excluded = [ds.train[u] for u in users]
        counts = [len(items) for items in excluded]
        scores[np.repeat(np.arange(len(users)), counts), np.concatenate(excluded)] = -np.inf
        row_buffer = np.empty(ds.num_items)
        for row, u in enumerate(users):
            ranked = _top_k(scores[row], min(deepest, ds.num_items - counts[row]), row_buffer)
            relevant = ds.test[u]
            for c, k in enumerate(cutoffs):
                recalls[c, start + row] = recall_at_k(ranked[:k], relevant)
                ndcgs[c, start + row] = ndcg_at_k(ranked[:k], relevant, k)

    starts = range(0, len(evaluable), chunk_size)
    threads = min(workers, len(starts), _cores())
    if threads > 1:
        # A worker's chunk buffers are made here, on the calling thread, and
        # at most one chunk per thread is in flight.  Made by the worker,
        # they would come from its thread's malloc arena, and glibc keeps an
        # arena's free memory resident, even after its thread has gone,
        # until it exceeds the trim threshold (twice the largest mmapped
        # block freed so far).
        with ThreadPoolExecutor(max_workers=threads) as pool:
            running = []
            for start in starts:
                if len(running) == threads:
                    running.pop(0).result()
                shape = (min(chunk_size, len(evaluable) - start), ds.num_items)
                buffers = (np.empty(shape), np.empty(shape) if several_runs else None)
                running.append(pool.submit(run_chunk, start, buffers))
                del buffers
            for future in running:
                future.result()
    else:
        for start in starts:
            run_chunk(start)
    return [
        MetricsReport(k, float(recalls[c].mean()), float(ndcgs[c].mean()), len(evaluable))
        for c, k in enumerate(cutoffs)
    ]


def report_as_dict(report: MetricsReport) -> dict:
    return {
        f"recall@{report.k}": report.recall,
        f"ndcg@{report.k}": report.ndcg,
        "num_users_evaluated": report.num_users_evaluated,
    }


def format_report(report: MetricsReport) -> str:
    lines = [
        f"{'recall@' + str(report.k):<20}{report.recall:.6f}",
        f"{'ndcg@' + str(report.k):<20}{report.ndcg:.6f}",
        f"{'users_evaluated':<20}{report.num_users_evaluated}",
    ]
    return "\n".join(lines)
