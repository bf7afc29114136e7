"""Seeded synthetic interaction graphs, written in the repository's text format.

Two shapes:

* ``gowalla``: the user/item counts and interaction totals of the public
  Gowalla check-in split (29,858 users, 40,981 items, 810,128 train and
  217,242 test interactions).  User activity is log-normal with a floor
  of 10 (the split is a 10-core), item popularity is a shifted power law,
  and about 21% of each user's items are held out as test.
* ``planted``: disjoint user/item blocks.  Each user interacts with a
  cyclic window of consecutive in-block items and part of every window
  is held out, so the held-out items are recoverable from the
  co-interaction pattern.

The program under test only ever sees the written ``train.txt`` /
``test.txt``; the same seed always writes byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

GOWALLA_USERS = 29858
GOWALLA_ITEMS = 40981
GOWALLA_TRAIN = 810128
GOWALLA_TEST = 217242
# the generated totals may differ from Gowalla's by this share
GOWALLA_TOLERANCE = 0.01

_MIN_DEGREE = 10
_MAX_DEGREE = 1000
_ACTIVITY_SIGMA = 1.0
_POPULARITY_EXPONENT = 0.9
_POPULARITY_SHIFT = 20.0


def _distinct_items(rng, degrees, probs):
    """Per-user sorted item sets of the given sizes, drawn by ``probs``
    without replacement within a user (collisions are redrawn)."""
    n = len(probs)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    users = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    keys = np.empty(0, dtype=np.int64)
    missing = users
    while missing.size:
        draws = np.searchsorted(cdf, rng.random(missing.size), side="right")
        keys = np.sort(np.concatenate([keys, missing * n + draws]))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        have = np.bincount(keys // n, minlength=len(degrees))
        missing = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees - have)
    return keys // n, keys % n


def gowalla_lists(seed):
    """Train and test item lists per user for the Gowalla shape."""
    rng = np.random.default_rng(seed)
    m, n = GOWALLA_USERS, GOWALLA_ITEMS
    total = GOWALLA_TRAIN + GOWALLA_TEST
    raw = rng.lognormal(0.0, _ACTIVITY_SIGMA, m)
    scaled = _MIN_DEGREE + raw * ((total - _MIN_DEGREE * m) / raw.sum())
    degrees = np.floor(scaled).astype(np.int64)
    degrees += rng.random(m) < scaled - degrees
    degrees = np.clip(degrees, _MIN_DEGREE, _MAX_DEGREE)

    ranks = rng.permutation(n)
    probs = (ranks + _POPULARITY_SHIFT) ** -_POPULARITY_EXPONENT
    users, items = _distinct_items(rng, degrees, probs)

    # hold out a per-user share, chosen uniformly within each user
    test_share = GOWALLA_TEST / total
    n_test = np.maximum(1, np.rint(test_share * degrees)).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(degrees)[:-1]))
    order = np.lexsort((rng.random(users.size), users))
    position = np.empty(users.size, dtype=np.int64)
    position[order] = np.arange(users.size) - np.repeat(starts, degrees)
    is_test = position < np.repeat(n_test, degrees)

    # every item keeps at least one train interaction, so the item count
    # read back from the files is exact
    train_count = np.bincount(items[~is_test], minlength=n)
    lacking = train_count == 0
    held = np.flatnonzero(is_test & lacking[items])
    _, first = np.unique(items[held], return_index=True)
    is_test[held[first]] = False
    unseen = np.flatnonzero(np.bincount(items, minlength=n) == 0)
    users = np.concatenate([users, rng.integers(0, m, size=unseen.size)])
    items = np.concatenate([items, unseen])
    is_test = np.concatenate([is_test, np.zeros(unseen.size, dtype=bool)])
    return _split_lists(m, users, items, is_test)


def planted_lists(seed, blocks=10, block_users=200, block_items=300, window=20, holdout=4):
    """Train and test item lists per user for the planted-block shape."""
    rng = np.random.default_rng(seed)
    m = blocks * block_users
    user_ids, item_ids, is_test = [], [], []
    for u in range(m):
        block, j = divmod(u, block_users)
        # evenly spread window starts with seeded jitter cover every item
        start = (j * block_items // block_users + int(rng.integers(0, 3))) % block_items
        window_items = (start + np.arange(window)) % block_items + block * block_items
        held = np.zeros(window, dtype=bool)
        held[rng.choice(window, size=holdout, replace=False)] = True
        user_ids.append(np.full(window, u, dtype=np.int64))
        item_ids.append(window_items)
        is_test.append(held)
    return _split_lists(
        m, np.concatenate(user_ids), np.concatenate(item_ids), np.concatenate(is_test)
    )


def _split_lists(num_users, users, items, is_test):
    def per_user(mask):
        order = np.lexsort((items[mask], users[mask]))
        u, i = users[mask][order], items[mask][order]
        bounds = np.searchsorted(u, np.arange(num_users + 1))
        return [i[bounds[k]:bounds[k + 1]] for k in range(num_users)]

    return per_user(~is_test), per_user(is_test)


def write_lists(directory, train, test):
    """Write ``train.txt`` (a line per user) and ``test.txt`` (users with
    held-out items); returns the two paths."""
    os.makedirs(directory, exist_ok=True)
    paths = (os.path.join(directory, "train.txt"), os.path.join(directory, "test.txt"))
    for path, lists, every_user in ((paths[0], train, True), (paths[1], test, False)):
        lines = [
            " ".join(map(str, [u, *items.tolist()]))
            for u, items in enumerate(lists)
            if every_user or len(items)
        ]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    return paths
