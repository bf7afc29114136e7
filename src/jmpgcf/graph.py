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
one per core, that the process's cores take one after another.  A
matrix of more than ``PANEL_ROWS`` columns is also cut by columns into
panels of ``PANEL_ROWS`` nodes, so that one kernel call reads one
panel's slice of the dense operand: a row block adds its panels one
after another, in column order.  Each row still takes its entries in
ascending column order from 0.0, so the result is the same bit for bit
as one call over the whole row.  A+I is symmetric, so panel b's pattern
is row block b's pattern transposed: :func:`build_adjacency` makes it
once for every matrix and transpose, each of which stores its values
once, in panel order.
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
from dataclasses import dataclass
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


class SparseMatrix:
    """CSR matrix over the joined (user+item) node space.

    ``row_offsets`` has length ``num_rows + 1`` and is nondecreasing;
    column indices are strictly increasing within each row; all stored
    values are finite.  A matrix is not modified once built.

    It stores its values once, in the order of its panels (``_panels``,
    see :func:`spmm`); a matrix of one panel, as :meth:`from_scipy` makes,
    stores them in row order.  A propagation matrix or transpose keeps its
    row and column scaling vectors (``_scalings``), from which
    :func:`transpose` computes the transposed values and :meth:`rows` a
    block of rows, and from which :attr:`values` and :meth:`to_scipy`
    compute the row-order values on each call when it has more than one
    panel.  An adjacency from :func:`build_adjacency` keeps what every
    granularity's matrix is built from (``_with_loops``).
    """

    def __init__(self, num_rows, num_cols, row_offsets, col_indices, values,
                 _panels=None, _scalings=None):
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.row_offsets = np.asarray(row_offsets)
        self.col_indices = np.asarray(col_indices)
        self._values = np.asarray(values, dtype=np.float64)
        # (each panel's row offsets, the column indices in panel order)
        self._panels = _panels or ((self.row_offsets,), self.col_indices)
        self._scalings = _scalings
        self._with_loops = None

    @property
    def nnz(self) -> int:
        return len(self.col_indices)

    @property
    def shape(self):
        return (self.num_rows, self.num_cols)

    @property
    def values(self) -> np.ndarray:
        """The stored values in row order: the stored array itself for a
        matrix of one panel, else made anew from the scalings."""
        if len(self._panels[0]) == 1:
            return self._values
        return _products((self.row_offsets,), self.col_indices, *self._scalings)

    def to_scipy(self) -> sp.csr_matrix:
        """A scipy CSR of the row-order arrays, made on each call."""
        return sp.csr_matrix((self.values, self.col_indices, self.row_offsets), shape=self.shape)

    def row_pattern(self, rows):
        """The row offsets and column indices of ``self[rows]`` for an
        integer array ``rows``."""
        starts = self.row_offsets[rows]
        counts = self.row_offsets[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, self.col_indices.dtype)
        np.cumsum(counts, out=indptr[1:])
        at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return indptr, self.col_indices[at]

    def rows(self, rows, pattern=None) -> sp.csr_matrix:
        """``self[rows]`` for an integer array ``rows``, bit for bit
        ``self.to_scipy()[rows]``, as a scipy CSR.  ``pattern``, the
        :meth:`row_pattern` of the same rows of a matrix that shares this
        one's pattern arrays, saves making it again."""
        if self._scalings is None:  # stored in row order
            return self.to_scipy()[rows]
        indptr, indices = self.row_pattern(rows) if pattern is None else pattern
        row_factor, col_factor = self._scalings
        values = _products((indptr,), indices, row_factor[rows], col_factor)
        return sp.csr_matrix((values, indices, indptr), shape=(len(rows), self.num_cols))

    @staticmethod
    def from_scipy(mat) -> "SparseMatrix":
        csr = mat.tocsr()
        csr.sort_indices()
        return SparseMatrix(*csr.shape, csr.indptr, csr.indices, csr.data)

    def toarray(self) -> np.ndarray:
        return self.to_scipy().toarray()


def build_adjacency(ds: InteractionDataset) -> SparseMatrix:
    """Symmetric (m+n)-square 0/1 adjacency ``[[0, R], [R^T, 0]]`` of the
    interaction matrix R.

    No self-loops are stored; those are added during normalization.  It
    is built on the first call for ``ds`` and kept on it, so that layer
    selection and every propagation matrix share one.  It keeps the
    sorted pattern of A+I, its panel pattern (:func:`_panel_pattern`),
    ln(d+1) and the row factor (d+1)^{-1/2}, from which
    :func:`build_normalized_adjacency` computes each granularity's values.
    """
    adjacency = ds._derived.get("adjacency")
    if adjacency is None:
        r = train_matrix(ds)
        adjacency = SparseMatrix.from_scipy(sp.bmat([[None, r], [r.T, None]]))
        log_d1 = np.log(degrees(adjacency) + 1.0)
        with_loops = adjacency.to_scipy() + sp.identity(adjacency.num_rows, format="csr")
        with_loops.sort_indices()
        pattern = (with_loops.indptr, with_loops.indices)
        adjacency._with_loops = (*pattern, _panel_pattern(*pattern), log_d1,
                                 np.exp(-0.5 * log_d1))
        ds._derived["adjacency"] = adjacency
    return adjacency


# Columns (nodes) per panel of a hop.  A matrix of more nodes is cut by
# columns into panels of this many, so that each kernel call gathers rows
# from one panel's 2.6 MB slice of a 64-column float64 operand, not from
# all of it.  Measured on a 2-vCPU VM on the Gowalla-size benchmark graph
# (70,839 nodes, 1.69M entries in A+I), A_1 and then its transpose times
# 64 columns into a reused buffer, on both cores, took a median of 115 to
# 144 ms in one panel against 86 to 95 ms in panels of 5,120 rows, 86 to
# 107 ms of 2,048 to 8,192 rows and 112 ms of 16,384 (four alternating
# sweeps); on one core, 247 to 278 ms against 155 ms.  The planted
# benchmark graph (5,000 nodes, whose operand fits in cache) stays one
# panel.  The Gowalla-size pattern (14 panels) takes 4.0 MB of panel row
# offsets and 6.8 MB of panel-ordered indices, made once in ~15 ms.
PANEL_ROWS = 5120


def _panel_pattern(row_offsets, col_indices):
    """The panel pattern of the symmetric square pattern ``(row_offsets,
    col_indices)``: ``(offsets, indices)``, with ``indices`` its column
    indices in panel order and ``offsets[b]`` panel b's row offsets into
    them.  Panel b holds the entries of columns ``[b, b + 1) * PANEL_ROWS``
    row by row, each row's in ascending order.  With at most
    ``PANEL_ROWS`` nodes it is the pattern itself, one panel.

    Panel b is row block b transposed, so it holds as many entries, and
    scipy's CSR-to-CSC conversion of the block writes it, in ascending
    order, in one pass over the block's entries, at the block's place.
    """
    size = len(row_offsets) - 1
    if size <= PANEL_ROWS:
        return (row_offsets,), col_indices
    indices = np.empty_like(col_indices)
    offsets = []
    for lo in range(0, size, PANEL_ROWS):
        hi = min(lo + PANEL_ROWS, size)
        first, last = row_offsets[lo], row_offsets[hi]
        panel = np.empty_like(row_offsets)
        ones = np.ones(last - first, dtype=bool)  # the conversion also moves values
        _sparsetools.csr_tocsc(hi - lo, size, row_offsets[lo:hi + 1] - first,
                               col_indices[first:last], ones, panel, indices[first:last],
                               np.empty_like(ones))
        indices[first:last] += lo
        panel += first
        offsets.append(panel)
    return tuple(offsets), indices


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
    row_offsets, col_indices, panels, log_d1, left = adjacency._with_loops
    return _scaled(row_offsets, col_indices, panels, left,
                   np.exp(cfg.column_exponent(k) * log_d1))


def _scaled(row_offsets, col_indices, panels, row_factor, col_factor) -> SparseMatrix:
    """The square matrix of the 0/1 pattern ``(row_offsets, col_indices)``,
    whose panel pattern is ``panels``, scaled by ``row_factor`` on its rows
    and ``col_factor`` on its columns: the stored (i, j) holds
    ``row_factor[i] * col_factor[j]``, in panel order.  It keeps the two
    factors for :func:`transpose`."""
    values = _products(*panels, row_factor, col_factor)
    size = len(row_factor)
    return SparseMatrix(size, size, row_offsets, col_indices, values,
                        _panels=panels, _scalings=(row_factor, col_factor))


def _products(offsets, col_indices, row_factor, col_factor) -> np.ndarray:
    """``row_factor[i] * col_factor[j]`` for each entry (i, j) of the CSR
    patterns ``(row_offsets, col_indices)``, one per ``row_offsets`` in
    ``offsets`` (the panels of one index array), in stored order.  Each
    entry's column factor is gathered, then scaled in place by its row's
    factor, which gives the same bits: a product does not depend on the
    order of its operands."""
    values = col_factor[col_indices]
    for row_offsets in offsets:
        _sparsetools.csr_scale_rows(len(row_offsets) - 1, len(col_factor), row_offsets,
                                    col_indices, values, row_factor)
    return values


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
    the kernel releases the GIL), and each task zero-fills its own block's
    rows of a given ``out`` before it adds into them (a new array is made
    zero-filled).  A block adds one kernel call per panel of the matrix
    (a scipy CSR is one panel), in panel order, each on a slice of the
    panel's row offsets over the full index and value arrays.  Panels are
    ascending column ranges and a row's entries within one are ascending,
    so every output row takes the same loop over the same entries in the
    same order from 0.0 as in ``csr @ dense``: the result is the same bit
    for bit, whatever the core or panel count.
    """
    if isinstance(matrix, SparseMatrix):
        (offsets, indices), data = matrix._panels, matrix._values
        row_offsets = matrix.row_offsets
    elif matrix.format == "csr":  # one panel
        offsets, indices, data = (matrix.indptr,), matrix.indices, matrix.data
        row_offsets = matrix.indptr
    else:
        offsets = None
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
    if offsets is not None:
        bounds = _row_bounds(row_offsets, width) if splits(matrix, width) else [0, rows]
        side_by_side(partial(_add_block, out, lo, hi, offsets, indices, data, dense, zeroed)
                     for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo)
        return out
    if not zeroed:
        out.fill(0.0)
    getattr(_sparsetools, f"{matrix.format}_matvecs")(
        rows, cols, width, matrix.indptr, matrix.indices, matrix.data, dense.ravel(),
        out.reshape(-1))
    return out


def _row_bounds(indptr: np.ndarray, width: int) -> list:
    """The row bounds ``[0, ..., rows]`` of a split product's blocks:
    max(cores, entries x ``width`` // ``PARALLEL_WORK``) blocks of about
    equal stored entries (a block may be empty)."""
    rows, nnz = len(indptr) - 1, int(indptr[-1])
    blocks = max(_cores(), nnz * width // PARALLEL_WORK)
    cuts = np.searchsorted(indptr, np.arange(1, blocks) * (nnz / blocks))
    return [0, *np.minimum(cuts, rows).tolist(), rows]


def _add_block(out, lo, hi, offsets, indices, data, dense, zeroed):
    """Rows ``lo:hi`` of :func:`spmm`'s product into ``out``: zero-fill
    them unless ``zeroed``, then add each panel's product
    (:func:`add_product`), given by its row ``offsets`` over ``indices``
    and ``data``, in panel order."""
    block = out[lo:hi]
    if not zeroed:
        block.fill(0.0)
    for panel in offsets:
        add_product(block, panel[lo:hi + 1], indices, data, dense)


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
    return _scaled(matrix.row_offsets, matrix.col_indices, matrix._panels, col_factor,
                   row_factor)
