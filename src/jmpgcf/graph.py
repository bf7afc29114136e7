"""Joined bipartite adjacency and popularity-scaled propagation matrices.

Users occupy rows ``0..m-1`` of the joined node space and items rows
``m..m+n-1``.  The propagation matrix at popularity granularity ``k``
rescales the right-hand degree normalization so that high-degree
(popular) columns contribute more:

    norm_adj_k[i][j] = (d_i+1)^{-1/2} * (A+I)[i][j] * (d_j+1)^{-1/2 + k*unit}

Granularity 0 is the standard symmetric normalization.  All matrices are
row-sorted CSR; multiplies go through scipy.sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .data import InteractionDataset

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
    """Symmetric (m+n)-square 0/1 adjacency of the interaction graph.

    No self-loops are stored; those are added during normalization.
    """
    m, n = ds.num_users, ds.num_items
    nv = m + n
    lengths = np.array([len(items) for items in ds.train], dtype=np.int64)
    users = np.repeat(np.arange(m, dtype=np.int64), lengths)
    items = (np.concatenate(ds.train) if ds.num_train_interactions else np.empty(0, np.int64)) + m
    rows = np.concatenate([users, items])
    cols = np.concatenate([items, users])
    coo = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(nv, nv))
    return SparseMatrix.from_scipy(coo)


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


def spmm(matrix: SparseMatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse @ dense product; row i of the result is sum_j M[i,j] * X[j]."""
    dense = np.asarray(dense, dtype=np.float64)
    if matrix.num_cols != dense.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {matrix.shape}, dense has {dense.shape[0]} rows"
        )
    return np.asarray(matrix.to_scipy() @ dense)


def transpose(matrix: SparseMatrix) -> SparseMatrix:
    return SparseMatrix.from_scipy(matrix.to_scipy().transpose())
