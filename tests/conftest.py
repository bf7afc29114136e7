"""Shared fixtures and small synthetic dataset generators."""

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from jmpgcf import DatasetFormatError, InteractionDataset, SelectedLayers, build_adjacency, graph
from jmpgcf.data import _ITEM_DTYPE, _ITEM_MAX
from jmpgcf.model import PropagationOutput


def make_random_dataset(rng, num_users, num_items, max_degree=4, with_test=False):
    """Random bipartite dataset; every user gets 1..max_degree train items."""
    train, test = [], []
    for _ in range(num_users):
        degree = int(rng.integers(1, min(max_degree, num_items) + 1))
        items = rng.choice(num_items, size=degree, replace=False)
        if with_test and degree > 1:
            train.append(sorted(items[:-1].tolist()))
            test.append([int(items[-1])])
        else:
            train.append(sorted(items.tolist()))
            test.append([])
    return InteractionDataset.from_lists(num_users, num_items, train, test)


def make_blocked_dataset(num_users=100, num_items=100, holdout=5, seed=0):
    """Two disjoint user/item blocks with banded in-block interactions.

    Each user interacts with a cyclic window of 10 of its block's 50
    items (20% in-block density); ``holdout`` of them move to the test
    split.  The window structure makes held-out items recoverable from
    the co-interaction pattern.
    """
    rng = np.random.default_rng(seed)
    block_users = num_users // 2
    block_items = num_items // 2
    window = block_items // 5
    train, test = [], []
    for u in range(num_users):
        offset = (u // block_users) * block_items
        start = u % block_items
        items = [(start + t) % block_items + offset for t in range(window)]
        held = rng.choice(items, size=holdout, replace=False).tolist()
        test.append(sorted(held))
        train.append(sorted(set(items) - set(held)))
    return InteractionDataset.from_lists(num_users, num_items, train, test)


def dense_normalized(ds, k, unit):
    """Dense reference for the popularity-scaled normalization."""
    adj = build_adjacency(ds).toarray()
    deg = adj.sum(axis=1)
    left = np.diag((deg + 1.0) ** -0.5)
    right = np.diag((deg + 1.0) ** (-0.5 + k * unit))
    return left @ (adj + np.eye(len(adj))) @ right


def manual_output(chains, l_odd=1, l_even=2, num_users=None, weights=None, matrices=None):
    """Build a scorable PropagationOutput directly from per-granularity
    layer lists; its factor holds copies of the selected layers side by
    side, as an eager output's does."""
    chains = [[np.asarray(m, dtype=np.float64) for m in chain] for chain in chains]
    rows = chains[0][0].shape[0]
    factor = np.concatenate([chain[l] for chain in chains for l in (l_odd, l_even)], axis=1)
    if num_users is None:
        num_users = rows // 2
    if weights is None:
        weights = (1.0,) * len(chains)
    return PropagationOutput(
        num_users=num_users,
        num_items=rows - num_users,
        layers=SelectedLayers(l_odd=l_odd, l_even=l_even),
        chains=chains,
        matrices=list(matrices) if matrices is not None else [],
        default_weights=tuple(weights),
        shared_base=False,
        factor=factor,
    )


def out_of_place_scores(out, users, items=None, weights=None, granularities=None):
    """Reference scores: a fresh array for every weighted term and every
    partial sum, in granularity then layer order."""
    if weights is None:
        weights = out.default_weights
    if granularities is None:
        granularities = range(out.num_granularities)
    m = out.num_users
    scores = None
    for k in granularities:
        for l in (out.layers.l_odd, out.layers.l_even):
            emb = out.layer(k, l)
            item_rows = emb[m:] if items is None else emb[m + np.asarray(items)]
            part = weights[k] * (emb[users] @ item_rows.T)
            scores = part if scores is None else scores + part
    return scores


def stacked_scores(out, users, items=None, weights=None, granularities=None):
    """Reference scores as one stacked-factor product: fresh copies of
    every granularity's selected layers side by side, each user block
    multiplied by w_k (by 0.0 for a granularity outside ``granularities``)
    when that is not 1.0, and one product of the user rows against the
    item rows.  The output's factor itself is not read."""
    if weights is None:
        weights = out.default_weights
    if granularities is None:
        granularities = range(out.num_granularities)
    m = out.num_users
    item_index = slice(m, None) if items is None else m + np.asarray(items)
    user_blocks, item_blocks = [], []
    for k in range(out.num_granularities):
        w = sum(weights[k] for j in granularities if j == k)
        layers = [out.layer(k, l) for l in (out.layers.l_odd, out.layers.l_even)]
        block = np.hstack([layer[users] for layer in layers])
        user_blocks.append(block if w == 1.0 else w * block)
        item_blocks.append(np.hstack([layer[item_index] for layer in layers]))
    return np.hstack(user_blocks) @ np.hstack(item_blocks).T


def assert_near_term_by_term(got, out, users, items=None, weights=None, granularities=None):
    """``got`` is within 1e-12 of :func:`out_of_place_scores`, relative to
    the largest of its magnitudes."""
    want = out_of_place_scores(out, users, items, weights, granularities)
    scale = float(np.max(np.abs(want)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


class RecordingKernels:
    """Stands in for scipy's ``_sparsetools`` and records the row count of
    every block handed to the CSR kernel: each block of a split product,
    an unsplit CSR product as one block, and each row scatter.  It also
    keeps, in ``outputs``, the output each block was written into (a view
    into the product's result).  Every other kernel is scipy's,
    unrecorded."""

    def __init__(self):
        self.blocks = []
        self.outputs = []

    def csr_matvecs(self, *args):
        self.blocks.append(args[0])
        self.outputs.append(args[-1])
        return _sparsetools.csr_matvecs(*args)

    def row_ranges(self, result):
        """The ``(first, end)`` rows of ``result`` that each recorded block
        wrote, in row order; blocks written into other arrays are left out."""
        ranges = []
        for rows, written in zip(self.blocks, self.outputs):
            if np.shares_memory(written, result):
                offset = written.ctypes.data - result.ctypes.data
                first = offset // result.strides[0]
                ranges.append((first, first + rows))
        return sorted(ranges)

    def __getattr__(self, name):
        return getattr(_sparsetools, name)


@pytest.fixture
def split(monkeypatch):
    """Every product takes the split path, on a fresh pool: ``graph.splits``
    holds whenever the process has more than one core, whatever the
    product's size.  ``PARALLEL_WORK`` is left as it is, so a small product
    is cut into one block per core."""
    kernels = RecordingKernels()
    monkeypatch.setattr(graph, "splits", lambda matrix, width: graph._cores() >= 2)
    monkeypatch.setattr(graph, "_pool", None)
    monkeypatch.setattr(graph, "_sparsetools", kernels)
    yield kernels
    if graph._pool is not None:
        graph._pool.shutdown()


def assert_datasets_equal(a: InteractionDataset, b: InteractionDataset):
    assert a.num_users == b.num_users
    assert a.num_items == b.num_items
    assert a.num_train_interactions == b.num_train_interactions
    for u in range(a.num_users):
        np.testing.assert_array_equal(a.train[u], b.train[u])
        np.testing.assert_array_equal(a.test[u], b.test[u])


@pytest.fixture
def tiny_dataset():
    # 2 users, 3 items: user 0 -> {1, 2}, user 1 -> {0}; test: 0 -> {0}
    return InteractionDataset.from_lists(2, 3, [[1, 2], [0]], [[0], []])


def reference_parse_interaction_file(path):
    """The line-by-line parser that ``data._parse_interaction_file``
    replaced, kept as its reference: text mode, ``str.split`` and one
    ``int()`` per token.  It now also names the line of a non-ASCII byte,
    where the strict ascii codec raised a bare ``UnicodeDecodeError``."""
    counts, flat = {}, []  # items per uid, in line order; all items
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise DatasetFormatError(f"{path}:{lineno}: non-ASCII byte")
            tokens = line.split()
            if not tokens:
                continue
            try:
                values = [int(tok) for tok in tokens]
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: malformed token ({exc})") from None
            if min(values) < 0:
                raise DatasetFormatError(f"{path}:{lineno}: negative index")
            if max(values) > _ITEM_MAX:
                raise DatasetFormatError(f"{path}:{lineno}: index too large for int64")
            uid = values[0]
            if uid in counts:
                raise DatasetFormatError(f"{path}:{lineno}: user {uid} appears on multiple lines")
            counts[uid] = len(values) - 1
            flat.extend(values[1:])
    uids = np.array(list(counts), dtype=_ITEM_DTYPE)
    return uids, np.repeat(uids, list(counts.values())), np.array(flat, dtype=_ITEM_DTYPE)
