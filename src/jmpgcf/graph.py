"""Joined bipartite adjacency and popularity-scaled propagation matrices.

Users occupy rows ``0..m-1`` of the joined node space and items rows
``m..m+n-1``.  The propagation matrix at popularity granularity ``k``
rescales the right-hand degree normalization so that high-degree
(popular) columns contribute more:

    norm_adj_k[i][j] = (d_i+1)^{-1/2} * (A+I)[i][j] * (d_j+1)^{-1/2 + k*unit}

Granularity 0 is the standard symmetric normalization.  A+I is symmetric
and 0/1, so the transpose is the same pattern with the two scalings
swapped,

    norm_adj_k^T[i][j] = (d_i+1)^{-1/2 + k*unit} * (A+I)[i][j] * (d_j+1)^{-1/2},

and every matrix and transpose shares the one sorted pattern of A+I: each
stores only its values, the product of its row and column factors (see
:func:`transpose`).  All matrices are row-sorted CSR.

Every sparse x dense product goes through :func:`spmm`, which runs
scipy's own kernel into a given or new array and cuts a large CSR
product into blocks of rows, each about ``PARALLEL_WORK`` and at least
one per core, that the process's cores take one after another.
Every parallel job runs through :func:`side_by_side` on one pool and the
calling thread: the row blocks of a split product, the granularities of
a training stage (on one thread when a hop of the stage splits, see
:func:`stage_threads`), the optimizer's tables and the evaluation's
chunks.  A task may itself call :func:`side_by_side`.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .data import InteractionDataset, train_matrix

__all__ = [
    "GraphConfigError",
    "PopularityConfig",
    "SparseMatrix",
    "add_product",
    "build_adjacency",
    "build_normalized_adjacency",
    "degrees",
    "propagation_matrices",
    "side_by_side",
    "splits",
    "spmm",
    "stage_threads",
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
        if not 0 < self.granularity_unit < np.inf:
            raise GraphConfigError(
                f"granularity_unit must be finite and > 0, got {self.granularity_unit}"
            )
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
        if not all(0 < w < np.inf for w in self.granularity_weights):
            raise GraphConfigError("granularity weights must be finite and > 0")

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
    values are finite.  A matrix is not modified once built.  A
    propagation matrix and its transpose keep their row and column
    scaling vectors (``_scalings``), from which :func:`transpose` computes
    the transposed values; an adjacency from :func:`build_adjacency`
    keeps what every granularity's matrix is built from (``_with_loops``).
    The scipy view is made on first use (two threads racing on it may
    each make one; they are equal).
    """

    num_rows: int
    num_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _csr: sp.csr_matrix = field(default=None, repr=False, compare=False)
    _scalings: tuple = field(default=None, repr=False, compare=False)
    _with_loops: tuple = field(default=None, repr=False, compare=False)

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

    No self-loops are stored; those are added during normalization.  It
    is built on the first call for ``ds`` and kept on it, so that layer
    selection and every propagation matrix share one.  It keeps the
    sorted pattern of A+I, ln(d+1) and the row factor (d+1)^{-1/2}, from
    which :func:`build_normalized_adjacency` computes each granularity's
    values.
    """
    adjacency = ds._derived.get("adjacency")
    if adjacency is None:
        r = train_matrix(ds)
        adjacency = SparseMatrix.from_scipy(sp.bmat([[None, r], [r.T, None]]))
        log_d1 = np.log(degrees(adjacency) + 1.0)
        with_loops = adjacency.to_scipy() + sp.identity(adjacency.num_rows, format="csr")
        with_loops.sort_indices()
        adjacency._with_loops = (with_loops.indptr, with_loops.indices, log_d1,
                                 np.exp(-0.5 * log_d1))
        ds._derived["adjacency"] = adjacency
    return adjacency


def degrees(adjacency: SparseMatrix) -> np.ndarray:
    """Row degrees (row sums) of the stored adjacency."""
    return np.asarray(adjacency.to_scipy().sum(axis=1)).ravel()


def build_normalized_adjacency(
    adjacency: SparseMatrix, k: int, cfg: PopularityConfig
) -> SparseMatrix:
    """Popularity-scaled normalized adjacency at granularity ``k`` of an
    adjacency made by :func:`build_adjacency` (else ``ValueError``).

    Self-loops are added to every node before scaling, so the result has
    a strictly positive entry on the whole diagonal.  The exponents are
    evaluated as exp(e * ln(d+1)) in double precision.  Every granularity
    shares the adjacency's A+I pattern and row factor.
    """
    if not 0 <= k <= cfg.max_granularity:
        raise GraphConfigError(
            f"granularity {k} outside [0, {cfg.max_granularity}]"
        )
    if adjacency._with_loops is None:
        raise ValueError("build_normalized_adjacency takes an adjacency made by build_adjacency")
    row_offsets, col_indices, log_d1, left = adjacency._with_loops
    return _scaled(row_offsets, col_indices, left, np.exp(cfg.column_exponent(k) * log_d1))


def _scaled(row_offsets, col_indices, row_factor, col_factor) -> SparseMatrix:
    """The square matrix of the 0/1 pattern ``(row_offsets, col_indices)``
    scaled by ``row_factor`` on its rows and ``col_factor`` on its
    columns: the stored (i, j) holds ``row_factor[i] * col_factor[j]``.
    It keeps the two factors for :func:`transpose`."""
    values = np.repeat(row_factor, np.diff(row_offsets)) * col_factor[col_indices]
    size = len(row_factor)
    return SparseMatrix(size, size, row_offsets, col_indices, values,
                        _scalings=(row_factor, col_factor))


def propagation_matrices(ds: InteractionDataset, cfg: PopularityConfig) -> list[SparseMatrix]:
    """Normalized adjacency of ``ds`` at every granularity 0..K of ``cfg``."""
    adjacency = build_adjacency(ds)
    return [build_normalized_adjacency(adjacency, k, cfg) for k in range(cfg.num_granularities)]


# Work (stored entries x dense columns) from which spmm splits a product
# across cores, and about the work of each of its row blocks.  Measured on
# a 2-vCPU VM: the planted benchmark graph's A_1 (69k entries) times 64
# columns (4.4M, in cache) into a reused buffer took a median of 2.6 to
# 2.9 ms serial and 1.5 to 2.0 ms split into 2 or 3 blocks (200 calls,
# five alternations).  The threshold still stands above it: a hop that
# splits makes stage_threads run the stage's granularities on one thread,
# and a planted step then took 109 to 114 ms against 90 to 109 ms with
# the granularities side by side.  A 1.7M-entry matrix times 4
# columns (6.8M) took 10.3 ms serial and 5.9 ms split.  Times 64 columns
# (108M), cut into one block per core after the calling thread had
# zero-filled the whole 36 MB result (5-6 ms), it took a median of 109 to
# 153 ms over five runs on a loaded host; cut into 12 blocks, each
# zero-filled by the thread that runs it, 72 to 125 ms in the run beside
# each, as a thread that ends a block early takes the next one.
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
            _pool = ThreadPoolExecutor(_cores() - 1, thread_name_prefix="jmpgcf")
        return _pool


def splits(matrix, width: int) -> bool:
    """Whether :func:`spmm` splits a CSR ``matrix`` times ``width`` dense
    columns by rows: the product is at least ``PARALLEL_WORK`` and the
    process has more than one core."""
    return matrix.nnz * width >= PARALLEL_WORK and _cores() >= 2


def stage_threads(matrices, width: int):
    """The thread cap of a stage whose tasks multiply ``matrices`` by
    ``width`` dense columns: 1 when one of those products :func:`splits`,
    which then uses every core itself, else None (no cap).

    Running such a stage's tasks side by side would give each thread its
    own spare hop buffers: on the Gowalla-size benchmark graph, on a 2-vCPU
    VM, that raised the peak resident memory from 1,351 to 1,432 MB (a
    second thread's two 36 MB buffers) with no gain in speed.
    """
    return 1 if any(splits(matrix, width) for matrix in matrices) else None


def side_by_side(tasks, workspace=None, threads=None) -> list:
    """Run ``tasks`` side by side on the process's pool and on the calling
    thread, and return their results in order.

    Each thread takes the next task not yet taken until none is left.  At
    most ``threads`` threads run (None: no cap), and never more than there
    are tasks or cores; with one, the calling thread runs every task.
    With ``workspace``, a callable, the calling thread makes one workspace
    per thread before any task starts, and each task is called with its
    thread's: large arrays made on the calling thread come from its malloc
    arena, while glibc keeps a worker thread's arena's freed memory
    resident.  Without it, a task is called without arguments.

    Once the calling thread finds no task left, it cancels each helper
    that has not started and waits only for those that have, which finish
    the tasks they hold.  So a task may call :func:`side_by_side` itself:
    a nested call never waits for a pool thread that is busy.  If tasks
    raise, the first of them in order re-raises its exception here, once
    every task has ended.
    """
    tasks = list(tasks)
    count = max(1, min(len(tasks), _cores(), threads or len(tasks)))
    spaces = [workspace() for _ in range(count)] if workspace else [None] * count
    results = [None] * len(tasks)
    errors = [None] * len(tasks)
    claim = itertools.count()  # each next() is atomic under the GIL
    # emptied on return: a pool thread may hold a helper's work item a
    # little longer, and must not keep the tasks, results or workspaces alive
    shared = [tasks, spaces, results, errors]

    def drain(thread):
        tasks, spaces, results, errors = shared
        while (i := next(claim)) < len(tasks):
            try:
                results[i] = tasks[i]() if workspace is None else tasks[i](spaces[thread])
            except BaseException as exc:  # re-raised on the calling thread
                errors[i] = exc

    futures = [_get_pool().submit(drain, thread) for thread in range(1, count)]
    try:
        drain(0)
    finally:
        for future in futures:
            if not future.cancel():
                future.result()
        shared.clear()
    for error in errors:
        if error is not None:
            raise error
    return results


def spmm(matrix, dense: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ dense``, bit for bit, for a :class:`SparseMatrix` or a
    scipy CSR or CSC matrix and a 2-D ``dense`` (else ``ValueError``): row
    i of the result is sum_j M[i,j] * X[j].

    The result goes into ``out`` when it is given (a C-contiguous float64
    array of the product's shape, else ``ValueError``), else into a new
    array: it is zero-filled, and scipy's own kernel for the format adds
    the product, as ``matrix @ dense`` does into the zeros it allocates.
    A 2-D CSR product that :func:`splits` is cut into contiguous blocks of
    output rows of about equal stored entries: max(cores, stored entries x
    columns // ``PARALLEL_WORK``) of them, with the cores counted in the
    process's CPU affinity, so that a core that finishes a cheap block
    takes the next one.  The blocks run side by side (:func:`side_by_side`;
    the kernel releases the GIL), each on a slice of the row offsets over
    the full index and value arrays, and each task zero-fills its own
    block's rows of a given ``out`` before it adds into them (a new array
    is made zero-filled).  Every output row takes the same loop over the
    same entries in the same order from 0.0 as in ``csr @ dense``, so the
    result is the same bit for bit, whatever the core count.
    """
    if isinstance(matrix, SparseMatrix):
        matrix = matrix.to_scipy()
    dense = np.ascontiguousarray(dense, dtype=np.float64)
    rows, cols = matrix.shape
    if dense.ndim != 2 or dense.shape[0] != cols:
        raise ValueError(
            f"dimension mismatch: matrix is {matrix.shape}, dense has shape {dense.shape}"
        )
    width = dense.shape[1]
    shape = (rows, width)
    if out is None:
        out, zeroed = np.zeros(shape), True
    elif out.dtype != np.float64 or not out.flags.c_contiguous or out.shape != shape:
        raise ValueError("out must be a C-contiguous float64 array of the product's shape")
    else:
        zeroed = False
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if matrix.format == "csr":
        bounds = _row_bounds(indptr, width) if splits(matrix, width) else [0, rows]
        block = add_product if zeroed else _zero_and_add
        side_by_side(partial(block, out[lo:hi], indptr[lo:hi + 1], indices, data, dense)
                     for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo)
        return out
    if not zeroed:
        out.fill(0.0)
    getattr(_sparsetools, f"{matrix.format}_matvecs")(
        rows, cols, width, indptr, indices, data, dense.ravel(), out.reshape(-1))
    return out


def _row_bounds(indptr: np.ndarray, width: int) -> list:
    """The row bounds ``[0, ..., rows]`` of a split product's blocks:
    max(cores, entries x ``width`` // ``PARALLEL_WORK``) blocks of about
    equal stored entries (a block may be empty)."""
    rows, nnz = len(indptr) - 1, int(indptr[-1])
    blocks = max(_cores(), nnz * width // PARALLEL_WORK)
    cuts = np.searchsorted(indptr, np.arange(1, blocks) * (nnz / blocks))
    return [0, *np.minimum(cuts, rows).tolist(), rows]


def _zero_and_add(out, indptr, indices, data, dense):
    """Zero-fill ``out``, the rows of one of :func:`spmm`'s blocks, then
    add the block's product into it (:func:`add_product`)."""
    out.fill(0.0)
    add_product(out, indptr, indices, data, dense)


def add_product(out, indptr, indices, data, dense):
    """``out += M @ dense`` in place, for the CSR matrix M of
    ``(data, indices, indptr)``, one entry at a time: for each row i and
    each of its entries e in stored order, ``out[i] += data[e] *
    dense[indices[e]]``.  It runs scipy's own CSR kernel, which releases
    the GIL.  ``out`` and ``dense`` are C-contiguous float64 arrays of
    the same width, and ``indptr`` has ``len(out) + 1`` entries.
    """
    _sparsetools.csr_matvecs(
        out.shape[0], dense.shape[0], dense.shape[1], indptr, indices, data,
        dense.ravel(), out.reshape(-1),
    )


def transpose(matrix: SparseMatrix) -> SparseMatrix:
    """The transpose of a propagation matrix or of such a transpose (any
    other matrix: ``ValueError``).

    A+I is symmetric, so M^T has M's pattern, and its row and column
    factors are M's column and row factors: the stored (i, j) holds
    ``col_factor[i] * row_factor[j]``, the product that M stores at (j, i)
    with its operands swapped, so it is bit for bit scipy's
    ``transpose().tocsr()`` with sorted indices.
    """
    if matrix._scalings is None:
        raise ValueError("transpose takes a propagation matrix or its transpose")
    row_factor, col_factor = matrix._scalings
    return _scaled(matrix.row_offsets, matrix.col_indices, col_factor, row_factor)
