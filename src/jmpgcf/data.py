"""Interaction dataset loading and train/validation splitting.

The on-disk format is the adjacency-list text format used by the public
check-in / review benchmark datasets: one user per line, whitespace
separated ASCII decimals ``uid iid1 iid2 ...``.  A line holding only a
uid declares a user with an empty list.

Every dataset is built by one constructor from flat (user, item) pairs:
it sorts and deduplicates each split as a user x item CSR, rejects a
train/test overlap, and slices the per-user arrays out of one buffer.
:func:`train_matrix` gives the interaction matrix R that the graph and
the sampler build on, so only this module knows the list layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DatasetFormatError",
    "InteractionDataset",
    "load_dataset",
    "split_validation",
    "train_matrix",
]

_ITEM_DTYPE = np.int64
_ITEM_MAX = int(np.iinfo(_ITEM_DTYPE).max)


class DatasetFormatError(ValueError):
    """Raised when an interaction file violates the expected format."""


def _empty_items() -> np.ndarray:
    return np.empty(0, dtype=_ITEM_DTYPE)


@dataclass(frozen=True, eq=False)
class InteractionDataset:
    """ID-mapped user->item adjacency lists for a train/test split.

    ``train[u]`` and ``test[u]`` are strictly sorted, duplicate-free
    integer arrays, disjoint per user.  Instances are treated as
    immutable and are safe to share across threads.  ``_derived`` keeps
    what is computed from the training lists once per dataset (the
    joined adjacency of :func:`jmpgcf.graph.build_adjacency`).
    """

    num_users: int
    num_items: int
    train: tuple[np.ndarray, ...]
    test: tuple[np.ndarray, ...]
    num_train_interactions: int
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.train) != self.num_users or len(self.test) != self.num_users:
            raise ValueError("adjacency list count does not match num_users")
        total = sum(len(items) for items in self.train)
        if total != self.num_train_interactions:
            raise ValueError("num_train_interactions does not match train lists")

    @staticmethod
    def from_lists(num_users, num_items, train, test=()):
        """Build a dataset from per-user item iterables, validating invariants."""
        splits = [_flatten(lists, num_users, num_items) for lists in (train, test)]
        return _build(num_users, num_items, *splits)


def _flatten(lists, num_users, num_items):
    """Flat ``(users, items)`` arrays of at most ``num_users`` per-user item
    iterables, every item in ``[0, num_items)``."""
    arrays = [np.asarray(list(items), dtype=_ITEM_DTYPE) for items in lists]
    if len(arrays) > num_users:
        raise DatasetFormatError(f"{len(arrays)} item lists for {num_users} users")
    users = np.repeat(np.arange(len(arrays)), [a.size for a in arrays])
    items = np.concatenate(arrays) if arrays else _empty_items()
    bad = np.flatnonzero((items < 0) | (items >= num_items))
    if bad.size:
        raise DatasetFormatError(f"user {users[bad[0]]}: item index out of range [0, {num_items})")
    return users, items


def _pairs(lists):
    """Flat ``(users, items)`` arrays of a dataset's per-user item arrays."""
    lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    items = np.concatenate(lists) if lists else _empty_items()
    return np.repeat(np.arange(len(lists)), lengths), items


def _rows(matrix) -> tuple[np.ndarray, ...]:
    """Per-row item arrays of a CSR, as slices of one int64 buffer."""
    buffer = matrix.indices.astype(_ITEM_DTYPE)
    bounds = matrix.indptr.tolist()
    return tuple(buffer[lo:hi] for lo, hi in zip(bounds, bounds[1:]))


def _build(num_users, num_items, train_pairs, test_pairs) -> InteractionDataset:
    """The one constructor of a dataset from flat ``(users, items)`` pairs.
    Each split becomes a CSR with sorted, duplicate-free rows; its int64
    values count repeats, so none wraps to zero."""
    train, test = (
        sp.csr_matrix((np.ones(items.size, np.int64), (users, items)), (num_users, num_items))
        for users, items in (train_pairs, test_pairs)
    )
    overlap = train.multiply(test).tocsr()
    if overlap.nnz:
        u = int(np.flatnonzero(np.diff(overlap.indptr))[0])
        items = np.sort(overlap.indices[overlap.indptr[u]:overlap.indptr[u + 1]])
        raise DatasetFormatError(f"user {u}: items {items.tolist()} appear in both train and test")
    return InteractionDataset(num_users, num_items, _rows(train), _rows(test), int(train.nnz))


def train_matrix(ds: InteractionDataset) -> sp.csr_matrix:
    """The m x n 0/1 interaction matrix R of ``ds.train``, row u = ``train[u]``."""
    lengths = np.fromiter(map(len, ds.train), dtype=np.int64, count=ds.num_users)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.concatenate(ds.train) if ds.num_users else _empty_items()
    return sp.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(ds.num_users, ds.num_items)
    )


# Byte classes of the file grammar.  A token is a maximal run of bytes
# that are neither separators nor line ends; a valid one is all digits.
_SEPARATOR, _LF, _CR, _DIGIT, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\v\f")] = _SEPARATOR
_BYTE_CLASS[ord("\n")] = _LF
_BYTE_CLASS[ord("\r")] = _CR
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
# a token of fewer digits is below 10**18 and so fits in int64
_CHECKED_DIGITS = len(str(_ITEM_MAX))


def _parse_interaction_file(path):
    """Parse one adjacency-list file into ``(uids, users, items)``: the uid
    of every line, and flat per-interaction user and item arrays.

    The bytes are read once and classified through a lookup table; token
    and line boundaries are found with numpy, and the tokens of the valid
    lines are converted by one ``np.fromstring`` call.  A line ends at
    LF, CRLF or a lone CR, as in text mode.  The first line that breaks
    the format (a byte that is not an ASCII digit, separator or line end,
    an id beyond int64, or a repeated uid) is reported with its number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    raw = np.frombuffer(data, dtype=np.uint8)
    kind = _BYTE_CLASS[raw]

    line_end = kind == _LF
    cr = np.flatnonzero(kind == _CR)
    line_end[cr[raw[np.minimum(cr + 1, raw.size - 1)] != ord("\n")]] = True  # lone CRs
    breaks = np.flatnonzero(line_end)
    edges = np.diff((kind >= _DIGIT).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    token_lines = 1 + np.searchsorted(breaks, starts)

    last_line = len(breaks) + 1
    bad_line = last_line + 1  # the first line that breaks the grammar, if any
    other = kind == _OTHER
    if other.any():
        bad_line = 1 + int(np.searchsorted(breaks, other.argmax()))
    for t in np.flatnonzero(ends - starts >= _CHECKED_DIGITS).tolist():
        if token_lines[t] >= bad_line:
            break
        try:
            too_large = int(data[starts[t]:ends[t]]) > _ITEM_MAX
        except ValueError:  # more digits than int() converts
            too_large = True
        if too_large:
            bad_line = int(token_lines[t])

    count = int(np.searchsorted(token_lines, bad_line))  # tokens of the valid lines
    valid = data if count == len(starts) else data[:starts[count]]
    values = np.fromstring(valid, dtype=_ITEM_DTYPE, count=count, sep=" ") if count else _empty_items()
    token_lines = token_lines[:count]
    first = np.ones(count, dtype=bool)
    first[1:] = token_lines[1:] != token_lines[:-1]
    heads = np.flatnonzero(first)
    uids = values[heads]
    order = np.argsort(uids, kind="stable")
    repeats = order[1:][uids[order[1:]] == uids[order[:-1]]]
    if repeats.size:
        head = heads[repeats.min()]
        raise DatasetFormatError(
            f"{path}:{token_lines[head]}: user {values[head]} appears on multiple lines"
        )
    if bad_line <= last_line:
        lo = breaks[bad_line - 2] + 1 if bad_line > 1 else 0
        hi = breaks[bad_line - 1] if bad_line < last_line else len(data)
        raise DatasetFormatError(f"{path}:{bad_line}: {_line_fault(data[lo:hi])}")
    counts = np.diff(np.append(heads, count)) - 1
    return uids, np.repeat(uids, counts), values[~first]


def _line_fault(line: bytes) -> str:
    """What is wrong with a line that holds a byte outside the grammar or
    an id beyond int64, checked in the order of the old line parser."""
    if not line.isascii():
        return "non-ASCII byte"
    tokens = [token.decode("ascii") for token in line.split()]
    try:
        values = [int(token) for token in tokens]
    except ValueError as exc:
        return f"malformed token ({exc})"
    if min(values) < 0:
        return "negative index"
    if max(values) > _ITEM_MAX:
        return "index too large for int64"
    token = next(token for token in tokens if not token.isdigit())
    return f"malformed token ({token!r} is not a run of ASCII digits)"


def _write_mapping(path, originals):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"{original} {new}\n" for new, original in enumerate(originals.tolist()))


def load_dataset(train_path, test_path, remap=False, mapping_dir=None) -> InteractionDataset:
    """Load train/test interaction files into an :class:`InteractionDataset`.

    ``num_users``/``num_items`` are one past the largest index seen in
    either file.  Users that occur only in the test file are rejected:
    cold-start users have no training signal and are outside the
    evaluation protocol.  Repeated items on one line are kept once.

    With ``remap=True`` non-contiguous IDs are densely renumbered (in
    sorted order of the original IDs) and ``user_id_map.txt`` /
    ``item_id_map.txt`` with lines ``original_id new_id`` are written to
    ``mapping_dir`` (default: directory of ``train_path``).
    """
    for path in (train_path, test_path):
        if not os.path.exists(path):
            raise DatasetFormatError(f"interaction file not found: {path}")
    train_uids, train_users, train_items = _parse_interaction_file(train_path)
    test_uids, test_users, test_items = _parse_interaction_file(test_path)

    only_test = np.setdiff1d(test_uids, train_uids)
    if only_test.size:
        raise DatasetFormatError(
            f"{test_path}: users {only_test[:10].tolist()} appear only in the test file"
        )

    all_items = np.concatenate([train_items, test_items])
    if remap:
        user_ids, item_ids = np.sort(train_uids), np.unique(all_items)
        train_users, test_users = (np.searchsorted(user_ids, u) for u in (train_users, test_users))
        train_items, test_items = (np.searchsorted(item_ids, i) for i in (train_items, test_items))
        out_dir = mapping_dir or os.path.dirname(os.path.abspath(train_path))
        _write_mapping(os.path.join(out_dir, "user_id_map.txt"), user_ids)
        _write_mapping(os.path.join(out_dir, "item_id_map.txt"), item_ids)
        num_users, num_items = len(user_ids), len(item_ids)
    else:
        num_users = 1 + int(train_uids.max(initial=-1))
        num_items = 1 + int(all_items.max(initial=-1))
    return _build(num_users, num_items, (train_users, train_items), (test_users, test_items))


def split_validation(ds: InteractionDataset, fraction, seed):
    """Carve a per-user validation holdout out of the training lists.

    For each user, ``ceil(fraction * |train[u]|)`` items are moved
    (uniformly at random, deterministic for a fixed seed) into the
    holdout, except that a user with a single training item keeps it.
    Every training interaction draws one random key; each user moves the
    items with its smallest keys.

    Returns ``(main, holdout)``.  Both have the reduced train lists;
    ``main.test`` keeps the original test split while ``holdout.test``
    holds the moved items, so the holdout can be evaluated exactly like
    a test split.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    users, items = _pairs(ds.train)
    lengths = np.bincount(users, minlength=ds.num_users)
    starts = np.cumsum(lengths) - lengths
    to_move = np.minimum(np.ceil(fraction * lengths), lengths - 1)
    key = np.random.default_rng(seed).random(items.size)
    order = np.lexsort((key, users))  # each user's items by key, users in turn
    moved = np.empty(items.size, dtype=bool)
    moved[order] = np.arange(items.size) - starts[users] < to_move[users]
    kept = (users[~moved], items[~moved])
    main = _build(ds.num_users, ds.num_items, kept, _pairs(ds.test))
    holdout = _build(ds.num_users, ds.num_items, kept, (users[moved], items[moved]))
    return main, holdout
