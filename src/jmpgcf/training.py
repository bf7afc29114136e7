"""Pairwise training with granularity-stacked phases.

The objective is a separated pairwise ranking loss: for every sampled
(user, positive, negative) triple, an independent -ln(sigmoid(margin))
term per selected layer and per active popularity granularity, plus L2
on the propagated embedding rows the batch touches.  Training proceeds
in phases that introduce granularities coarse-to-fine; each phase adds
the new granularity's terms while all previously activated tables keep
training, so the final-phase objective equals the joint loss over all
granularities.

Gradients are analytic: per-row contributions at the selected layers
are pulled back to the base tables by repeated multiplication with the
transposed propagation matrix (required: the matrix is asymmetric for
granularity > 0).  The pull-back is linear and reads no forward
activation, so a step needs only the selected layers.  Propagation is
recomputed every step from the current parameters, full-graph up to the
layer below the deepest, and keeps only the selected layers and that
one; the loss is mini-batch and reads the deepest layer only at the
batch's rows, and the pull-back starts from those rows.  Every sum
keeps the order of the full-size computation, so the results are
bit-identical to it.

The granularities meet only in sums, so each stage of a step (the
propagation, the loss, the pull-back and the update of each table) runs
its granularities as tasks of one runner, :func:`graph.side_by_side`,
on the process's cores.  A stage whose sparse products are large enough
to be split by rows themselves runs its tasks on one thread
(:func:`graph.stage_threads`).  The parts are combined in granularity
order, so the results do not depend on the core count.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from . import evaluation
from .data import InteractionDataset, train_matrix
from .graph import add_product, propagation_matrices, side_by_side, spmm, stage_threads, transpose
from .layers import SelectedLayers
from .model import ModelParameters, PropagationOutput, propagate, save_checkpoint

__all__ = [
    "OptimizerState",
    "PhaseSchedule",
    "TrainConfig",
    "TrainingDivergedError",
    "TripleBatch",
    "TripleSampler",
    "backward",
    "init_optimizer_state",
    "optimizer_step",
    "separated_bpr_loss",
    "train",
]

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """Raised when the loss or a gradient stops being finite."""


class TripleBatch(NamedTuple):
    """Arrays of (user, positive item, negative item) training triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self):
        return len(self.users)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    l2_coeff: float = 1e-4
    batch_size: int = 2048
    seed: int = 0
    # regularize full propagated matrices instead of the batch rows
    full_matrix_reg: bool = False

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not 0 <= self.l2_coeff < math.inf:
            raise ValueError("l2_coeff must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class PhaseSchedule:
    """Phase p (1-based) newly activates granularity max_granularity - p + 1.

    Earlier phases' granularities stay active: phase 1 trains only the
    coarsest granularity and the last phase trains all of them.
    """

    max_granularity: int
    epochs_per_phase: tuple[int, ...]

    def __post_init__(self):
        if len(self.epochs_per_phase) != self.num_phases:
            raise ValueError(
                f"expected {self.num_phases} per-phase epoch budgets, "
                f"got {len(self.epochs_per_phase)}"
            )
        if any(e < 0 for e in self.epochs_per_phase):
            raise ValueError("epoch budgets must be >= 0")

    @property
    def num_phases(self) -> int:
        return self.max_granularity + 1

    @staticmethod
    def uniform(max_granularity, epochs_per_phase) -> "PhaseSchedule":
        return PhaseSchedule(
            max_granularity=max_granularity,
            epochs_per_phase=(epochs_per_phase,) * (max_granularity + 1),
        )

    def new_granularity(self, phase: int) -> int:
        if not 1 <= phase <= self.num_phases:
            raise ValueError(f"phase {phase} outside [1, {self.num_phases}]")
        return self.max_granularity - phase + 1

    def active_granularities(self, phase: int) -> frozenset[int]:
        return frozenset(range(self.new_granularity(phase), self.max_granularity + 1))


class TripleSampler:
    """Uniform triple sampler over users with at least one training item.

    Positives are uniform over the user's items; negatives are uniform
    over all items with rejection resampling of interacted ones.  Users
    interacting with every item cannot yield a negative and are skipped
    (logged once).
    """

    def __init__(self, ds: InteractionDataset):
        self._members = train_matrix(ds)
        self.offsets = self._members.indptr.astype(np.int64)
        self.lengths = np.diff(self.offsets)
        self.flat_items = self._members.indices.astype(np.int64)
        nonempty = self.lengths > 0
        full = self.lengths >= ds.num_items
        self._skipped_full = int(np.count_nonzero(nonempty & full))
        self.pool = np.flatnonzero(nonempty & ~full)
        if self.pool.size == 0:
            raise ValueError("no user has a training item and a possible negative")
        self.num_items = ds.num_items
        self._warned = False

    def _interacted(self, users, items) -> np.ndarray:
        return np.asarray(self._members[users, items]).ravel() > 0

    def sample(self, batch_size, rng) -> TripleBatch:
        if self._skipped_full and not self._warned:
            logger.warning(
                "%d user(s) interact with every item and are skipped during sampling",
                self._skipped_full,
            )
            self._warned = True
        users = self.pool[rng.integers(0, self.pool.size, size=batch_size)]
        pos = self.flat_items[self.offsets[users] + rng.integers(0, self.lengths[users])]
        neg = rng.integers(0, self.num_items, size=batch_size)
        bad = self._interacted(users, neg)
        while bad.any():
            neg[bad] = rng.integers(0, self.num_items, size=int(bad.sum()))
            bad[bad] = self._interacted(users[bad], neg[bad])
        return TripleBatch(users=users, pos_items=pos, neg_items=neg)


def _check_active(out, active_granularities):
    active = sorted(set(active_granularities))
    if not active:
        raise ValueError("active_granularities must be nonempty")
    if active[0] < 0 or active[-1] >= out.num_granularities:
        raise ValueError(
            f"active granularities {active} outside [0, {out.num_granularities - 1}]"
        )
    return active


@dataclass(eq=False)
class _BatchTerms:
    """A batch's distinct joined-space rows (ascending); each triple's
    user, positive and negative row, in the joined space and as positions
    among those rows; and what the step has computed for the batch so far."""

    batch: TripleBatch  # a copy, to tell the batch again
    rows: np.ndarray
    joined: tuple[np.ndarray, np.ndarray, np.ndarray]
    at: tuple[np.ndarray, np.ndarray, np.ndarray]
    margins: dict = field(default_factory=dict)  # (k, l) -> the triples' margins
    matrix_rows: dict = field(default_factory=dict)  # k -> A_k[rows], scipy CSR
    row_patterns: dict = field(default_factory=dict)  # pattern arrays' ids -> their rows'
    deep_rows: dict = field(default_factory=dict)  # k -> A_k[rows] @ chains[k][depth - 1]


def _batch_terms(out, batch) -> _BatchTerms:
    """The batch's terms, kept on ``out`` for the last batch, so that the
    loss and the backward pass of one step share them."""
    terms = out._batch_cache
    if terms is None or not all(np.array_equal(a, b) for a, b in zip(terms.batch, batch)):
        b = len(batch)
        joined = np.concatenate([batch.users, out.num_users + batch.pos_items,
                                 out.num_users + batch.neg_items])
        rows, at = np.unique(joined, return_inverse=True)
        terms = _BatchTerms(TripleBatch(*(np.array(a) for a in batch)), rows,
                            (joined[:b], joined[b:2 * b], joined[2 * b:]),
                            (at[:b], at[b:2 * b], at[2 * b:]))
        out._batch_cache = terms
    return terms


def _matrix_rows(out, terms, k):
    """``A_k[rows]``, extracted on the first call for the batch.  Matrices
    that share their pattern arrays share one extraction of the rows'
    pattern (two granularities racing on it may each make one; they are
    equal)."""
    sub = terms.matrix_rows.get(k)
    if sub is None:
        mat = out.matrices[k]
        key = (id(mat.row_offsets), id(mat.col_indices))  # kept alive by out.matrices
        pattern = terms.row_patterns.get(key)
        if pattern is None:
            pattern = terms.row_patterns[key] = mat.row_pattern(terms.rows)
        sub = terms.matrix_rows[k] = mat.rows(terms.rows, pattern)
    return sub


def _block(out, terms, k, l, deferred=None):
    """A block of rows of layer ``l`` of granularity ``k`` that holds the
    batch's, and each triple's user, positive and negative row in it: the
    whole layer, or for the deferred layer its rows at the batch's rows,
    ``A_k[rows] @ chains[k][l - 1]`` (bit for bit the same rows), computed
    on the first call for the batch, into ``deferred`` when it is given."""
    if not out._is_pending(k, l):  # raises for a layer that was not kept
        return out.layer(k, l), terms.joined
    sub = terms.deep_rows.get(k)
    if sub is None:
        sub = terms.deep_rows[k] = spmm(
            _matrix_rows(out, terms, k), out.chains[k][l - 1], deferred)
    return sub, terms.at


def _gather(sub, at, out):
    """``sub[at]`` into ``out``: the same rows, copied without a temporary."""
    return np.take(sub, at, axis=0, mode="clip", out=out)


class _RowScatter:
    """Adds the rows of batch-sized blocks into a compact gradient, as
    numpy's ``add.at(grad, at, values)`` does, bit for bit.

    ``at[p]`` is the gradient row of batch position p.  The pattern is
    the (rows x batch) 0/1 matrix in CSR whose row r lists the positions
    at r in ascending order.  :func:`add_product` then computes
    ``grad[r] += 1.0 * values[p]`` in place, entry by entry in that
    order: each row receives the same additions in the same order as
    under ``add.at``, and the products are exact.  (``grad += S @
    values`` would sum each row's block first, which is not the same.)
    """

    def __init__(self, at, num_rows):
        self.indices = np.argsort(at, kind="stable")
        self.indptr = np.zeros(num_rows + 1, dtype=self.indices.dtype)
        np.cumsum(np.bincount(at, minlength=num_rows), out=self.indptr[1:])
        self.ones = np.ones(at.size)

    def add(self, grad, values):
        """``grad[at[p]] += values[p]`` for every p in order, in place;
        ``grad`` and ``values`` are C-contiguous float64 arrays."""
        add_product(grad, self.indptr, self.indices, self.ones, values)


def separated_bpr_loss(
    out: PropagationOutput,
    batch: TripleBatch,
    active_granularities,
    l2_coeff,
    full_matrix_reg=False,
) -> float:
    """Batch loss: sum over triples, active granularities, and the two
    selected layers of -ln(sigmoid(pos margin)), plus the L2 term.

    The margin is <e_u, e_i> - <e_u, e_j> at one layer and granularity.
    By default L2 covers the propagated rows of the batch's users and
    items at the selected layers, scaled by 1/batch; with
    ``full_matrix_reg`` it is the squared Frobenius norm of the whole
    selected-layer matrices.  The deferred deepest layer is computed only
    at the batch's rows, unless ``full_matrix_reg`` needs the whole of it.
    The granularities' terms are computed side by side, or on one thread
    when a hop splits (:func:`graph.stage_threads`), and added in
    (granularity, layer) order.  Their margins, and the batch's rows of
    each propagation matrix and of the deferred layer, are kept on
    ``out`` for :func:`backward` of the same batch.
    """
    active = _check_active(out, active_granularities)
    terms = _batch_terms(out, batch)

    def granularity(k, deferred, space):
        parts = []
        for l in (out.layers.l_odd, out.layers.l_even):
            if full_matrix_reg:  # before _block, which then reads this layer
                emb = out.layer(k, l)
                norm = float((emb * emb).sum())
            sub, at = _block(out, terms, k, l, deferred)
            e_u, e_i, e_j = (_gather(sub, at, space[name]) for name, at in zip("uij", at))
            margin = np.einsum("bd,bd->b", e_u, e_i) - np.einsum("bd,bd->b", e_u, e_j)
            terms.margins[(k, l)] = margin
            if not full_matrix_reg:  # squared in place: the rows are not read again
                norm = float(sum(np.multiply(e, e, out=e).sum() for e in (e_u, e_i, e_j)))
            parts.append((float(np.logaddexp(0.0, -margin).sum()), norm))
        return parts

    width = out.layer(active[0], 0).shape[1]
    total = 0.0
    reg = 0.0
    for parts in side_by_side(
            (partial(granularity, k, np.empty((terms.rows.size, width))) for k in active),
            lambda: {name: np.empty((len(batch), width)) for name in "uij"},
            stage_threads(out.matrices, width)):
        for term, norm in parts:  # in (k, l) order, as one loop adds them
            total += term
            reg += norm
    if not full_matrix_reg:
        reg /= len(batch)
    return total + l2_coeff * reg


def backward(
    out: PropagationOutput,
    batch: TripleBatch,
    active_granularities,
    l2_coeff,
    full_matrix_reg=False,
    transposed=None,
    *,
    result=None,
):
    """Analytic gradients of :func:`separated_bpr_loss` w.r.t. the base tables.

    Per selected layer, each triple adds sigmoid(-margin)-weighted
    partner rows (and the L2 term's 2*lambda rows); the per-layer
    gradients are pulled back to layer 0 with the transposed propagation
    matrix.  Returns one gradient per base table; tables of inactive
    granularities get exact zeros.

    With ``result``, a list of one C-contiguous float64 array of the
    table's shape per base table (else ``ValueError``; the arrays must
    not overlap), the gradients are written into those arrays, and the
    list of them is returned: the last pull-back hop of a granularity
    lands in its table's array (a shared table's later granularities are
    added into it in order), and an inactive table's array is
    zero-filled, whatever it held before.  The bits are those of the call
    without ``result``, which makes new arrays.

    Without ``full_matrix_reg`` a layer's gradient is nonzero only at the
    batch's rows, so it is kept compact, one row per distinct batch row.
    The pull-back then starts sparse: its first hop is
    ``A_k[rows]^T @ compact`` (the rows of the deferred deepest layer,
    shared with the loss), and the other selected layer is added at its
    rows only.  With ``full_matrix_reg`` the gradients are dense and the
    first hop is a full one.  Either way every sum is taken in the same
    order as the full-size computation, so the result is bit-identical.
    The granularities are pulled back side by side, or on one thread when
    a hop splits (:func:`graph.stage_threads`), and a shared table sums
    theirs in granularity order.  The margins come from the loss of the
    same batch when it has run on ``out``.
    """
    active = _check_active(out, active_granularities)
    shape = out.layer(active[0], 0).shape
    tables = 1 if out.shared_base else out.num_granularities
    if result is not None and (
            len(result) != tables
            or any(not isinstance(a, np.ndarray) or a.dtype != np.float64
                   or not a.flags.c_contiguous or a.shape != shape for a in result)):
        raise ValueError(f"result must be {tables} C-contiguous float64 arrays of shape {shape}")
    if transposed is None:
        transposed = {k: transpose(out.matrices[k]) for k in active}
    terms = _batch_terms(out, batch)
    rows = terms.rows
    to_u, to_i, to_j = (_RowScatter(at, rows.size) for at in terms.at)
    selected = (out.layers.l_odd, out.layers.l_even)
    top = out.layers.depth

    def layer_grad(k, l, space):
        # The loss's gradient at layer l, at the batch's rows (dense with
        # full_matrix_reg), in space["grad"].  Each batch-sized block is
        # gathered into "a" or "b" and its product taken in place or into
        # the other, with the operations and in the order of the textbook
        # expressions.
        sub, (at_u, at_i, at_j) = _block(out, terms, k, l)
        a, b, grad = space["a"], space["b"], space["grad"]
        margin = terms.margins.get((k, l))
        if margin is None:
            e_u = _gather(sub, at_u, a)
            margin = (np.einsum("bd,bd->b", e_u, _gather(sub, at_i, b))
                      - np.einsum("bd,bd->b", e_u, _gather(sub, at_j, b)))
        weight = expit(-margin)[:, None]
        grad.fill(0.0)
        pair = np.subtract(_gather(sub, at_i, a), _gather(sub, at_j, b), out=a)
        pair *= -weight
        to_u.add(grad, pair)  # -w * (e_i - e_j)
        e_u = _gather(sub, at_u, a)
        to_i.add(grad, np.multiply(-weight, e_u, out=b))
        to_j.add(grad, np.multiply(weight, e_u, out=b))
        if full_matrix_reg:
            dense = np.zeros(shape)
            dense[rows] = grad
            dense += (2.0 * l2_coeff) * out.layer(k, l)
            return dense
        scale = 2.0 * l2_coeff / len(batch)
        to_u.add(grad, np.multiply(scale, e_u, out=b))
        for scatter, at in ((to_i, at_i), (to_j, at_j)):
            e = _gather(sub, at, b)
            e *= scale
            scatter.add(grad, e)
        return grad

    def pull_back(k, pulled_out, space):
        # The hops alternate between two buffers so that the last one lands
        # in pulled_out.  The lower selected layer's gradient is made once
        # the top one's is read.
        buffers = [pulled_out, space["pulled"]][::1 if top % 2 else -1]
        first = transposed[k] if full_matrix_reg else _matrix_rows(out, terms, k).T
        pulled = spmm(first, layer_grad(k, top, space), buffers[0])
        for step, l in enumerate(range(top - 1, 0, -1), start=1):  # pulled holds layer l
            if l in selected and full_matrix_reg:
                pulled += layer_grad(k, l, space)
            elif l in selected:  # pulled[rows] += grad, bit for bit
                to_rows.add(pulled, layer_grad(k, l, space))
            pulled = spmm(transposed[k], pulled, buffers[step % 2])
        return pulled

    # adds a compact gradient into its rows of a full-size one
    to_rows = _RowScatter(rows, shape[0])
    scratch = {"a": (len(batch), shape[1]), "b": (len(batch), shape[1]),
               "grad": (rows.size, shape[1]), "pulled": shape}

    def target(k):
        # a table's first active granularity lands in the given array, a
        # shared table's later ones in new arrays
        if result is None or (out.shared_base and k != active[0]):
            return np.empty(shape)
        return result[0 if out.shared_base else k]

    pulled = side_by_side(
        (partial(pull_back, k, target(k)) for k in active),
        lambda: {name: np.empty(size) for name, size in scratch.items()},
        stage_threads(out.matrices, shape[1]))
    grads = [None] * tables
    for k, grad in zip(active, pulled):
        table = 0 if out.shared_base else k
        if grads[table] is None:
            grads[table] = grad
        else:  # a shared table sums its granularities in k order
            grads[table] += grad
    if result is None:
        return [np.zeros(shape) if grad is None else grad for grad in grads]
    for grad, given in zip(grads, result):
        if grad is None:  # an inactive table
            given.fill(0.0)
    return list(result)


# the adaptive update's moment decay rates and the offset of its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# elements per row block of the adaptive update (256 KB of float64 per
# array): its passes over a block of the table, moments and gradient then
# run in cache
_ADAM_BLOCK = 1 << 15


@dataclass(eq=False)
class OptimizerState:
    step: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]


def init_optimizer_state(params: ModelParameters) -> OptimizerState:
    return OptimizerState(
        step=0,
        first_moment=[np.zeros_like(t) for t in params.base_embeddings],
        second_moment=[np.zeros_like(t) for t in params.base_embeddings],
    )


def optimizer_step(params: ModelParameters, grads, state: OptimizerState, cfg: TrainConfig):
    """In-place adaptive-moment parameter update.

    Every gradient is checked finite before any table changes.  The
    adaptive update runs in place, one block of rows at a time, on two
    small scratch arrays, so that its many passes stay in cache; each
    element goes through the same operations in the same order as in
    the textbook expression.  A table whose moments are still exactly
    zero and whose gradient is all zero (a granularity not yet active)
    is skipped: its update would be lr * 0 / (0 + eps) = 0.

    One pass per gradient, its sum of squares, answers both questions:
    it is NaN or inf if an entry is, and it is positive only if an
    entry is nonzero.  Only a sum that is not finite (an overflow, or
    bad entries to count) or zero (perhaps an underflow) is checked
    again entry by entry.  The sums, and then the updates, of the tables
    run side by side on the process's cores; every sum is checked, in
    table order, before any update starts.
    """
    squares = side_by_side(partial(_sum_of_squares, grad) for grad in grads)
    for idx, (grad, total) in enumerate(zip(grads, squares)):
        if not math.isfinite(total):
            bad = int(np.count_nonzero(~np.isfinite(grad)))
            if bad:
                raise TrainingDivergedError(
                    f"non-finite gradient for table {idx} ({bad} bad entries) "
                    f"at optimizer step {state.step + 1}"
                )
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1 ** state.step
    bias2 = 1.0 - ADAM_BETA2 ** state.step
    tasks = [partial(_adam_update, table, grad, total, m, v, cfg.learning_rate, bias1, bias2)
             for table, grad, total, m, v in zip(params.base_embeddings, grads, squares,
                                                 state.first_moment, state.second_moment)]
    width = params.embed_dim
    side_by_side(tasks, lambda: np.empty((2, max(1, _ADAM_BLOCK // width), width)))


def _sum_of_squares(grad) -> float:
    flat = grad.ravel()
    return float(flat @ flat)


def _adam_update(table, grad, total, m, v, learning_rate, bias1, bias2, scratch):
    """One table's adaptive update in place (see :func:`optimizer_step`),
    with ``scratch`` a (2, rows, width) array for a block of rows."""
    if total == 0 and not grad.any() and not m.any() and not v.any():
        return
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    rows = scratch.shape[1]
    for lo in range(0, len(table), rows):
        t, g, mb, vb = (a[lo:lo + rows] for a in (table, grad, m, v))
        step, denom = scratch[:, :len(t)]
        # m = b1 * m + (1 - b1) * grad
        mb *= b1
        np.multiply(g, 1.0 - b1, out=step)
        mb += step
        # v = b2 * v + (1 - b2) * grad * grad
        vb *= b2
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        vb += step
        # table -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(mb, bias1, out=step)
        step *= learning_rate
        np.divide(vb, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        t -= step


def train(
    ds: InteractionDataset,
    params: ModelParameters,
    schedule: PhaseSchedule,
    cfg: TrainConfig,
    layers: SelectedLayers,
    *,
    matrices=None,
    eval_ds=None,
    eval_every=0,
    eval_topk=20,
    metrics_path=None,
    checkpoint_dir=None,
    workers=1,
):
    """Run the full multistage schedule; returns (params, epoch records).

    Each epoch runs ceil(train interactions / batch) steps.  Per epoch a
    record {phase, epoch, loss, wallclock_s} is kept (plus recall/ndcg
    against ``eval_ds`` every ``eval_every`` epochs, on ``workers``
    evaluation threads) and appended to ``metrics_path`` as JSON lines.
    A checkpoint is written per phase boundary plus a final one; on
    divergence the last written checkpoints are left in place.

    Besides the parameters, the optimizer moments and the matrices, a run
    holds one set of per-table gradients, which :func:`backward` rewrites
    in place at every step, and one step's or one evaluation's
    propagation output at a time.  The gradients are dropped before the
    per-epoch evaluation and the evaluation's output after it, so the
    evaluation runs beside neither the gradients nor a training output,
    and the next step's propagation beside no evaluation output.
    """
    if schedule.max_granularity != params.popularity.max_granularity:
        raise ValueError("schedule and parameters disagree on max granularity")
    if matrices is None:
        matrices = propagation_matrices(ds, params.popularity)
    transposed = {k: transpose(mat) for k, mat in enumerate(matrices)}
    sampler = TripleSampler(ds)
    rng = np.random.default_rng(cfg.seed)
    state = init_optimizer_state(params)
    steps_per_epoch = max(1, math.ceil(ds.num_train_interactions / cfg.batch_size))
    records = []
    sink = open(metrics_path, "w", encoding="ascii") if metrics_path else None
    global_epoch = 0
    grads = None  # made by the first step after the start or an evaluation, then reused
    try:
        for phase in range(1, schedule.num_phases + 1):
            active = schedule.active_granularities(phase)
            for _ in range(schedule.epochs_per_phase[phase - 1]):
                global_epoch += 1
                started = time.perf_counter()
                loss_sum = 0.0
                for _ in range(steps_per_epoch):
                    batch = sampler.sample(cfg.batch_size, rng)
                    out = propagate(params, matrices, layers, granularities=active)
                    loss = separated_bpr_loss(
                        out, batch, active, cfg.l2_coeff, cfg.full_matrix_reg
                    )
                    if not math.isfinite(loss):
                        raise TrainingDivergedError(
                            f"non-finite loss at phase {phase}, epoch {global_epoch}"
                        )
                    grads = backward(
                        out, batch, active, cfg.l2_coeff, cfg.full_matrix_reg, transposed,
                        result=grads,
                    )
                    optimizer_step(params, grads, state, cfg)
                    del out  # free this step's layers before the next step's
                    loss_sum += loss
                record = {
                    "phase": phase,
                    "epoch": global_epoch,
                    "loss": loss_sum / (steps_per_epoch * cfg.batch_size),
                }
                if eval_ds is not None and eval_every and global_epoch % eval_every == 0:
                    grads = None
                    out = propagate(params, matrices, layers, retain_chain=False)
                    report = evaluation.evaluate(
                        params, out, eval_ds, eval_topk, workers=workers
                    )
                    del out
                    record[f"recall@{eval_topk}"] = report.recall
                    record[f"ndcg@{eval_topk}"] = report.ndcg
                record["wallclock_s"] = time.perf_counter() - started
                records.append(record)
                if sink:
                    sink.write(json.dumps(record) + "\n")
                    sink.flush()
            if checkpoint_dir is not None:
                save_checkpoint(
                    f"{checkpoint_dir}/checkpoint_phase{phase}.ckpt",
                    params,
                    layers,
                    phase,
                    global_epoch,
                )
        if checkpoint_dir is not None:
            save_checkpoint(
                f"{checkpoint_dir}/checkpoint_final.ckpt",
                params,
                layers,
                schedule.num_phases,
                global_epoch,
            )
    finally:
        if sink:
            sink.close()
    return params, records
