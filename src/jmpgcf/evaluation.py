"""Full-ranking top-K evaluation (mean Recall@K and NDCG@K).

Every item the user did not interact with during training is a
candidate; training items are excluded from the ranking.  Users with
no held-out items are skipped and do not enter the averages.

Users are scored in chunks, one :func:`score_users` call per chunk: one
GEMM of the chunk's rows of the stacked factor, scaled by the
granularity weights, against its item rows.  Its result is the chunk's
own array, so the chunk masks every training item to -inf in it with
one assignment and ranks it a small block of rows at a time: one max
over groups of a row's scores and a partition of those maxima give each
row's threshold, one pass over the flat block the items at or above it,
and one stable lexsort by (row, -score) their order.  Hits, Recall and
NDCG at every cutoff are then whole-chunk array operations.  The DCG
adds the same ``1 / log2(position + 2)`` terms in the same order as
:func:`ndcg_at_k`, so each report is, to the bit, the mean of
:func:`recall_at_k` and :func:`ndcg_at_k` over the users.
:func:`rank_user` is the one-row case of the same ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import InteractionDataset
from .graph import side_by_side
from .model import PropagationOutput, score_users

# scores ranked per block, or one row: a block's temporaries are a 1-byte
# mask per score (256 KiB) and, in groups of _GROUP, 32 KiB of maxima
_BLOCK_ELEMENTS = 1 << 18
# scores per group whose maximum stands for them in a row's threshold
_GROUP = 64
# users scored per GEMM; a user's scores can depend on the chunk it is in
CHUNK_SIZE = 256

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
    copy ranked as a one-row block of :func:`evaluate_cutoffs`.

    Raises IndexError for an ``exclude`` index outside [0, n): numpy
    would otherwise wrap a negative one round to the end of the scores.
    """
    masked = np.array(scores, dtype=np.float64)
    if not isinstance(exclude, np.ndarray):
        exclude = list(exclude)
    exclude = np.unique(np.asarray(exclude, dtype=np.int64))
    if exclude.size and not 0 <= exclude[0] <= exclude[-1] < masked.shape[0]:
        raise IndexError(f"exclude index outside [0, {masked.shape[0]})")
    masked[exclude] = -np.inf
    keep = max(0, min(k, masked.shape[0] - exclude.size))
    return _rank_rows(masked[None], np.array([keep]), [exclude], keep)[0]


def _rank_rows(masked, keep, excluded, width: int) -> np.ndarray:
    """Each row's first ``keep[r]`` items by descending score, then
    ascending index, as a (rows, width) array padded with ``n``, one past
    the last item.

    ``masked`` is a C-contiguous (rows, n) block holding -inf at every
    item of ``excluded[r]``; ``keep[r] <= min(width, n - len(excluded[r]))``.
    Each row's first g·G scores, viewed as (G, g), give g group maxima in
    one max over the block, G = min(``_GROUP``, n // width) (at least 1)
    and g = n // G >= width; the last n - g·G scores are in no group.  A
    row's threshold is the width-th largest of its maxima, from a partition
    of those g values.  The maxima are width distinct scores at or above
    it, so it is at or below the row's width-th largest score, and any
    threshold at or below a row's keep-th largest score selects a superset
    of its list: one threshold serves rows of every ``keep``, and with
    G = 1 it is the width-th largest score itself.  Every row's items at or
    above it are found in one pass over the flat block, in (row, item)
    order, and one stable lexsort by (row, -score) orders them.  A row
    whose threshold is not finite (fewer than width groups above -inf,
    width at +inf, or a NaN maximum) is sorted whole, with NaN last, and
    its excluded items are dropped from the order: a candidate that itself
    scores -inf still ranks, and no excluded item does.  In any other row
    a NaN score is no candidate, and at least width candidates rank above
    it, as they would with NaN last.
    """
    rows, n = masked.shape
    ranked = np.full((rows, width), n, dtype=np.int64)
    if width == 0:
        return ranked
    group = max(1, min(_GROUP, n // width))  # G
    groups = n // group  # g
    maxima = masked[:, :group * groups].reshape(rows, group, groups).max(axis=1)
    # the width-th largest maximum, and the largest, which is NaN if any maximum is
    maxima.partition((groups - width, groups - 1), axis=1)
    threshold = np.minimum(maxima[:, groups - width], maxima[:, -1])  # NaN propagates
    finite = np.isfinite(threshold)
    all_finite = finite.all()
    if not all_finite:
        # NaN compares false: a row sorted whole has no candidates here
        threshold = np.where(finite, threshold, np.nan)
    flat = np.flatnonzero(masked >= threshold[:, None])
    row, item = np.divmod(flat, n)
    order = np.lexsort((-masked.ravel()[flat], row))  # stable: flat is in item order
    row, item = row[order], item[order]
    position = np.arange(row.size) - np.searchsorted(row, row)
    kept = position < keep[row]
    ranked[row[kept], position[kept]] = item[kept]
    if all_finite:
        return ranked
    for r in np.flatnonzero(~finite & (keep > 0)):
        order = np.argsort(-masked[r], kind="stable")
        ranked[r, :keep[r]] = order[~np.isin(order, excluded[r])][:keep[r]]
    return ranked


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
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
) -> MetricsReport:
    """Mean Recall@k / NDCG@k over all users with held-out items, scored
    with the granularity weights of ``params`` (of ``out`` when None)."""
    return evaluate_cutoffs(params, out, ds, (k,), workers, chunk_size)[0]


def evaluate_cutoffs(
    params,
    out: PropagationOutput,
    ds: InteractionDataset,
    cutoffs,
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
) -> list[MetricsReport]:
    """:func:`evaluate` at each of ``cutoffs`` from one scoring pass.

    Each user is ranked once, at the largest cutoff; a smaller cutoff's
    list is a prefix of that ranking, because the ranking (the one
    :func:`rank_user` gives) orders by descending score and then ascending
    item index.  The chunk's users are ranked, and their metrics computed,
    with whole-array operations, not one user at a time.  Each chunk is one
    task of :func:`graph.side_by_side` on at most ``workers`` threads, and
    never more than there are chunks or cores in the process's CPU
    affinity: each thread holds one chunk's score array, made on the
    calling thread and reused for every chunk it scores, and a thread
    beyond the cores would add only memory.
    """
    if not cutoffs or min(cutoffs) < 1:
        raise ValueError(f"cutoffs must be >= 1, got {cutoffs}")
    weights = None if params is None else params.popularity.granularity_weights
    evaluable = _evaluable(ds)
    if not evaluable:
        raise ValueError("no user has held-out items to evaluate")
    recalls, ndcgs = np.zeros((2, len(cutoffs), len(evaluable)))
    deepest = max(cutoffs)
    out.stacked_factor()  # raises here, before any worker starts, for an unscorable output

    width = min(deepest, ds.num_items)
    # ndcg_at_k's terms 1 / log2(position + 2), and the ideal DCG of 1..width hits
    discounts = np.array([1.0 / math.log2(p + 2) for p in range(width)])
    ideal = np.cumsum(discounts)
    block_rows = max(1, _BLOCK_ELEMENTS // ds.num_items)

    def run_chunk(start, result):
        users = evaluable[start:start + chunk_size]
        rows = np.arange(len(users))
        # into the chunk's rows of its thread's score array
        scores = score_users(out, users, weights=weights, result=result[:len(users)])
        # the chunk owns its scores: mask every training item in place
        excluded = [ds.train[u] for u in users]
        counts = np.array([len(items) for items in excluded])
        scores[np.repeat(rows, counts), np.concatenate(excluded)] = -np.inf
        keep = np.minimum(deepest, ds.num_items - counts)
        ranked = np.concatenate([
            _rank_rows(scores[lo:lo + block_rows], keep[lo:lo + block_rows],
                       excluded[lo:lo + block_rows], width)
            for lo in range(0, len(users), block_rows)
        ])
        # held-out items as keys row * (n + 1) + item: the padding n matches none
        relevant = [ds.test[u] for u in users]
        sizes = np.array([len(items) for items in relevant])
        stride = ds.num_items + 1
        hits = np.isin(ranked + stride * rows[:, None],
                       np.concatenate(relevant) + stride * np.repeat(rows, sizes))
        found = np.cumsum(hits, axis=1)
        dcg = np.cumsum(hits * discounts, axis=1)  # sequential, as ndcg_at_k adds
        for c, k in enumerate(cutoffs):
            at = min(k, width) - 1
            recalls[c, start:start + len(users)] = found[:, at] / sizes
            ndcgs[c, start:start + len(users)] = dcg[:, at] / ideal[np.minimum(sizes, k) - 1]

    shape = (min(chunk_size, len(evaluable)), ds.num_items)
    side_by_side((partial(run_chunk, start) for start in range(0, len(evaluable), chunk_size)),
                 lambda: np.empty(shape), max(1, workers))
    return [
        MetricsReport(k, float(recalls[c].mean()), float(ndcgs[c].mean()), len(evaluable))
        for c, k in enumerate(cutoffs)
    ]


def _evaluable(ds: InteractionDataset) -> list[int]:
    return [u for u in range(ds.num_users) if len(ds.test[u])]


def _chunk_of(ds: InteractionDataset, user: int, chunk_size: int = CHUNK_SIZE) -> list[int]:
    """The users that :func:`evaluate_cutoffs` scores in one GEMM with
    ``user`` at the same ``chunk_size``: its chunk of the users with
    held-out items, or ``[user]`` alone for a user it does not evaluate."""
    if not len(ds.test[user]):
        return [user]
    evaluable = _evaluable(ds)
    start = evaluable.index(user) // chunk_size * chunk_size
    return evaluable[start:start + chunk_size]


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
