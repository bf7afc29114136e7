"""Full-ranking top-K evaluation (mean Recall@K and NDCG@K).

Every item the user did not interact with during training is a
candidate; training items are excluded from the ranking.  Users with
no held-out items are skipped and do not enter the averages.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .model import PropagationOutput, score_users

__all__ = [
    "MetricsReport",
    "evaluate",
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
    than k candidates remain, all of them are returned.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    exclude = np.asarray(list(exclude), dtype=np.int64)
    k = min(k, n - exclude.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    masked = scores.copy()
    if exclude.size:
        masked[exclude] = -np.inf
    if k < n:
        # exact top-k: everything above the k-th value, then index-stable
        # ordering of the boundary ties
        threshold = masked[np.argpartition(-masked, k - 1)[:k]].min()
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
    if weights is None:
        weights = (
            params.popularity.granularity_weights if params is not None else out.default_weights
        )
    evaluable = [u for u in range(ds.num_users) if len(ds.test[u])]
    if not evaluable:
        raise ValueError("no user has held-out items to evaluate")
    recalls = np.zeros(len(evaluable))
    ndcgs = np.zeros(len(evaluable))

    def run_chunk(start):
        users = evaluable[start:start + chunk_size]
        scores = score_users(out, users, weights=weights)
        for row, u in enumerate(users):
            topk = rank_user(scores[row], ds.train[u], k)
            relevant = ds.test[u]
            recalls[start + row] = recall_at_k(topk, relevant)
            ndcgs[start + row] = ndcg_at_k(topk, relevant, k)

    starts = range(0, len(evaluable), chunk_size)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    return MetricsReport(
        k=k,
        recall=float(recalls.mean()),
        ndcg=float(ndcgs.mean()),
        num_users_evaluated=len(evaluable),
    )


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
