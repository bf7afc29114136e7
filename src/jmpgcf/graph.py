"""Joined bipartite adjacency and popularity-scaled propagation matrices.

Users occupy rows ``0..m-1`` of the joined node space and items rows
``m..m+n-1``.  The propagation matrix at popularity granularity ``k``
rescales the right-hand degree normalization so that high-degree
(popular) columns contribute more:

    norm_adj_k[i][j] = (d_i+1)^{-1/2} * (A+I)[i][j] * (d_j+1)^{-1/2 + k*unit}

Granularity 0 is the standard symmetric normalization.  All matrices are
row-sorted CSR; multiplies go through scipy.sparse, and a large one
(:func:`spmm`) is split by rows across the process's cores.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .data import InteractionDataset, train_matrix

__all__ = [
    "GraphConfigError",
    "PopularityConfig",
    "SparseMatrix",
    "build_adjacency",
    "build_normalized_adjacency",
    "degrees",
    "propagation_matrices",
    "spmm",
    "transpose",
]


class GraphConfigError(ValueError):
    """Raised for invalid popularity/granularity configuration."""


@dataclass(frozen=True)
class PopularityConfig:
    """Granularity ladder for popularity-scaled normalization.

    ``granularity_unit`` is the smallest exponent step; granularity k
    shifts the column exponent by ``k * granularity_unit``.  The ladder
    is capped so the column exponent stays below +1/2, which keeps the
    normalization from degenerating on high-degree nodes.
    """

    granularity_unit: float = 0.1
    max_granularity: int = 2
    granularity_weights: tuple[float, ...] = None  # defaults to all ones

    def __post_init__(self):
        if self.granularity_unit <= 0:
            raise GraphConfigError(f"granularity_unit must be > 0, got {self.granularity_unit}")
        if self.max_granularity < 0:
            raise GraphConfigError(f"max_granularity must be >= 0, got {self.max_granularity}")
        if -0.5 + self.max_granularity * self.granularity_unit >= 0.5:
            raise GraphConfigError(
                "max_granularity * granularity_unit must stay below 1 "
                f"(got {self.max_granularity} * {self.granularity_unit})"
            )
        if self.granularity_weights is None:
            object.__setattr__(
                self, "granularity_weights", (1.0,) * (self.max_granularity + 1)
            )
        else:
            object.__setattr__(
                self, "granularity_weights", tuple(float(w) for w in self.granularity_weights)
            )
        if len(self.granularity_weights) != self.max_granularity + 1:
            raise GraphConfigError(
                f"expected {self.max_granularity + 1} granularity weights, "
                f"got {len(self.granularity_weights)}"
            )
        if any(w <= 0 for w in self.granularity_weights):
            raise GraphConfigError("granularity weights must be > 0")

    @property
    def num_granularities(self) -> int:
        return self.max_granularity + 1

    def column_exponent(self, k: int) -> float:
        return -0.5 + k * self.granularity_unit


@dataclass(eq=False)
class SparseMatrix:
    """CSR matrix over the joined (user+item) node space.

    ``row_offsets`` has length ``num_rows + 1`` and is nondecreasing;
    column indices are strictly increasing within each row; all stored
    values are finite.
    """

    num_rows: int
    num_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _csr: sp.csr_matrix = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets)
        self.col_indices = np.asarray(self.col_indices)
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self):
        return (self.num_rows, self.num_cols)

    def to_scipy(self) -> sp.csr_matrix:
        """Zero-copy scipy view (cached)."""
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.col_indices, self.row_offsets), shape=self.shape
            )
        return self._csr

    @staticmethod
    def from_scipy(mat) -> "SparseMatrix":
        csr = mat.tocsr()
        csr.sort_indices()
        return SparseMatrix(
            num_rows=csr.shape[0],
            num_cols=csr.shape[1],
            row_offsets=csr.indptr,
            col_indices=csr.indices,
            values=np.asarray(csr.data, dtype=np.float64),
            _csr=None,
        )

    def toarray(self) -> np.ndarray:
        return self.to_scipy().toarray()


def build_adjacency(ds: InteractionDataset) -> SparseMatrix:
    """Symmetric (m+n)-square 0/1 adjacency ``[[0, R], [R^T, 0]]`` of the
    interaction matrix R.

    No self-loops are stored; those are added during normalization.
    """
    r = train_matrix(ds)
    return SparseMatrix.from_scipy(sp.bmat([[None, r], [r.T, None]]))


def degrees(adjacency: SparseMatrix) -> np.ndarray:
    """Row degrees (row sums) of the stored adjacency."""
    return np.asarray(adjacency.to_scipy().sum(axis=1)).ravel()


def build_normalized_adjacency(
    adjacency: SparseMatrix, k: int, cfg: PopularityConfig
) -> SparseMatrix:
    """Popularity-scaled normalized adjacency at granularity ``k``.

    Self-loops are added to every node before scaling, so the result has
    a strictly positive entry on the whole diagonal.  The exponents are
    evaluated as exp(e * ln(d+1)) in double precision.
    """
    if not 0 <= k <= cfg.max_granularity:
        raise GraphConfigError(
            f"granularity {k} outside [0, {cfg.max_granularity}]"
        )
    if adjacency.num_rows != adjacency.num_cols:
        raise ValueError("adjacency must be square")
    nv = adjacency.num_rows
    deg = degrees(adjacency)
    log_d1 = np.log(deg + 1.0)
    left = np.exp(-0.5 * log_d1)
    right = np.exp(cfg.column_exponent(k) * log_d1)
    with_loops = adjacency.to_scipy() + sp.identity(nv, format="csr")
    with_loops.sort_indices()
    out = with_loops.copy()
    out.data = out.data * np.repeat(left, np.diff(out.indptr)) * right[out.indices]
    return SparseMatrix.from_scipy(out)


def propagation_matrices(ds: InteractionDataset, cfg: PopularityConfig) -> list[SparseMatrix]:
    """Normalized adjacency of ``ds`` at every granularity 0..K of ``cfg``."""
    adjacency = build_adjacency(ds)
    return [build_normalized_adjacency(adjacency, k, cfg) for k in range(cfg.num_granularities)]


# Work (stored entries x dense columns) from which spmm splits a product
# across cores.  Measured on a 2-vCPU VM: a 69k-entry matrix times 64
# columns (4.4M, in cache) took 1.17 ms serial and 1.28 ms split, while a
# 1.7M-entry matrix times 4 columns (6.8M) took 10.3 ms serial and 5.9 ms
# split, and times 64 columns (108M) 0.12 s serial and 0.065 s split.
PARALLEL_WORK = 1 << 23

_pool = None
_pool_lock = threading.Lock()


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _forget_pool():
    # a forked child has none of the parent's threads: start a new pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cores() - 1, thread_name_prefix="jmpgcf-spmm")
        return _pool


def spmm(matrix: SparseMatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse @ dense product; row i of the result is sum_j M[i,j] * X[j].

    A product of at least ``PARALLEL_WORK`` entries x columns is split
    into one contiguous block of output rows per core in the process's
    CPU affinity, of about equal stored entries.  Each block runs scipy's
    own CSR kernel (which releases the GIL) on a slice of the row
    offsets, over the full index and value arrays, into its rows of one
    result; the calling thread runs the first block.  Every output row
    takes the same loop over the same entries in the same order as in
    ``csr @ dense``, so the result is the same bit for bit, whatever the
    core count.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if matrix.num_cols != dense.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {matrix.shape}, dense has {dense.shape[0]} rows"
        )
    csr = matrix.to_scipy()
    if (dense.ndim != 2 or matrix.nnz * dense.shape[1] < PARALLEL_WORK
            or (cores := _cores()) < 2):
        return np.asarray(csr @ dense)
    rows, width = matrix.num_rows, dense.shape[1]
    indptr = csr.indptr
    flat = np.ascontiguousarray(dense).ravel()
    result = np.zeros((rows, width))
    cuts = np.searchsorted(indptr, np.arange(1, cores) * (matrix.nnz / cores))
    bounds = [0, *np.minimum(cuts, rows).tolist(), rows]

    def block(lo, hi):
        _sparsetools.csr_matvecs(
            hi - lo, matrix.num_cols, width, indptr[lo:hi + 1], csr.indices, csr.data,
            flat, result[lo:hi].ravel(),
        )

    blocks = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    pool = _get_pool()
    futures = [pool.submit(block, lo, hi) for lo, hi in blocks[1:]]
    try:
        block(*blocks[0])
    finally:
        for future in futures:
            future.result()
    return result


def transpose(matrix: SparseMatrix) -> SparseMatrix:
    return SparseMatrix.from_scipy(matrix.to_scipy().transpose())
