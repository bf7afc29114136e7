"""Shared fixtures and small synthetic dataset generators."""

import numpy as np
import pytest

from jmpgcf import InteractionDataset, SelectedLayers, build_adjacency
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
    """Build a PropagationOutput directly from per-granularity layer lists."""
    chains = [[np.asarray(m, dtype=np.float64) for m in chain] for chain in chains]
    rows = chains[0][0].shape[0]
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
