"""Trainable embeddings, linear propagation, and preference scoring.

One base embedding table per popularity granularity is propagated
through its granularity's normalized adjacency; scores are sums of
inner products taken at the selected odd and even layers, optionally
weighted per granularity.  There are no per-layer weight matrices and
no nonlinearities anywhere in the forward path.

That sum is one inner product of stacked factors.  With the selected
layers of every granularity side by side, ``[e^{k,odd} | e^{k,even}]``
for k in order (``PropagationOutput.factor``), a user's row, each
block scaled by its w_k, against an item's row gives the score.
:func:`score_users` takes one GEMM over the stacked factor per run of
equal weights, scaled once, which equals the term-by-term sum up to
rounding.  Only :func:`propagate` with ``retain_chain=False`` lays that
factor out, so only such an output can be scored; a training output
keeps just the layers its loss and gradient read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graph import PopularityConfig, SparseMatrix, side_by_side, spmm, stage_threads
from .layers import SelectedLayers

__all__ = [
    "CheckpointFormatError",
    "Checkpoint",
    "ModelParameters",
    "PropagationOutput",
    "init_parameters",
    "load_checkpoint",
    "propagate",
    "save_checkpoint",
    "score_all_items",
    "score_pair",
    "score_users",
    "weight_runs",
]

CHECKPOINT_MAGIC = "JMPGCF1"


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file cannot be parsed."""


@dataclass(eq=False)
class ModelParameters:
    """Per-granularity base embedding tables plus the granularity config.

    ``base_embeddings`` holds one (m+n, embed_dim) float64 table per
    granularity, or a single table when ``shared_base`` is set (all
    granularities then propagate from the same trainable table).
    """

    num_users: int
    num_items: int
    embed_dim: int
    popularity: PopularityConfig
    base_embeddings: list[np.ndarray]
    shared_base: bool = False

    def __post_init__(self):
        expected = 1 if self.shared_base else self.popularity.num_granularities
        if len(self.base_embeddings) != expected:
            raise ValueError(
                f"expected {expected} base tables, got {len(self.base_embeddings)}"
            )
        rows = self.num_users + self.num_items
        for table in self.base_embeddings:
            if table.shape != (rows, self.embed_dim):
                raise ValueError(
                    f"table shape {table.shape} != ({rows}, {self.embed_dim})"
                )

    def base_for(self, k: int) -> np.ndarray:
        return self.base_embeddings[0 if self.shared_base else k]


def init_parameters(
    num_users, num_items, embed_dim, cfg: PopularityConfig, seed, shared_base=False
) -> ModelParameters:
    """Xavier-uniform initialization: entries i.i.d. on [-a, a] with
    a = sqrt(6 / (2 * embed_dim)); deterministic for a fixed seed."""
    if embed_dim < 1:
        raise ValueError("embed_dim must be >= 1")
    rng = np.random.default_rng(seed)
    limit = math.sqrt(6.0 / (2 * embed_dim))
    rows = num_users + num_items
    count = 1 if shared_base else cfg.num_granularities
    tables = [rng.uniform(-limit, limit, size=(rows, embed_dim)) for _ in range(count)]
    return ModelParameters(
        num_users=num_users,
        num_items=num_items,
        embed_dim=embed_dim,
        popularity=cfg,
        base_embeddings=tables,
        shared_base=shared_base,
    )


@dataclass(eq=False)
class PropagationOutput:
    """Propagated embedding matrices per granularity and layer.

    ``chains[k][l]`` is the (m+n, embed_dim) matrix after l propagation
    steps at granularity k (index 0 is the base table), or None for a
    layer that nothing reads and so was not kept.

    A training output (``retain_chain=True``) keeps the base, the
    selected layers and layer depth - 1, and defers its deepest layer:
    for each granularity in ``deferred``, ``chains[k][depth]`` stays None
    until :meth:`layer` computes and caches it.  A training step reads
    that layer only at its batch's rows, as ``A_k[rows] @ chains[k][depth
    - 1]``, without computing it in full (see :mod:`training`).

    An eager output (``retain_chain=False``) keeps the base and the
    selected layers.  ``factor`` holds the selected layers of the
    granularities in ``stacked_granularities`` side by side, one
    (m+n, 2 * embed_dim) column block per granularity, odd layer first,
    and each of those ``chains[k][l]`` is a view of its half block.  Only
    an output with a factor can be scored (:func:`score_users`).
    """

    num_users: int
    num_items: int
    layers: SelectedLayers
    chains: list[list[np.ndarray]]
    matrices: list[SparseMatrix]
    default_weights: tuple[float, ...]
    shared_base: bool
    deferred: frozenset[int] = frozenset()
    factor: np.ndarray | None = field(default=None, repr=False)
    stacked_granularities: tuple[int, ...] = ()
    # what a training step computed for its last batch (training._batch_terms)
    _batch_cache: object = field(default=None, repr=False)

    @property
    def num_granularities(self) -> int:
        return len(self.chains)

    @property
    def depth(self) -> int:
        return len(self.chains[0]) - 1

    def _is_pending(self, k: int, l: int) -> bool:
        return l == self.depth and k in self.deferred and self.chains[k][l] is None

    def layer(self, k: int, l: int) -> np.ndarray:
        """Layer ``l`` of granularity ``k``; a deferred layer is computed
        in full on the first read and kept."""
        if self._is_pending(k, l):
            self.chains[k][l] = spmm(self.matrices[k], self.chains[k][l - 1])
        mat = self.chains[k][l]
        if mat is None:
            raise RuntimeError(f"layer {l} of granularity {k} was not retained")
        return mat


def propagate(
    params: ModelParameters,
    matrices,
    layers: SelectedLayers,
    retain_chain=True,
    granularities=None,
) -> PropagationOutput:
    """Run linear propagation for every granularity up to the deeper
    selected layer.

    Each step multiplies the previous layer by the granularity's
    normalized adjacency, and a step's output is kept only if something
    reads it later.  With ``retain_chain=True`` (training) those are the
    selected layers and the layer below the deepest; the deepest layer
    itself is deferred: it is computed on first read, or only at the
    batch's rows (see :class:`PropagationOutput`).  With
    ``retain_chain=False`` every selected layer is computed here, into
    its block of the stacked factor; only such an output can be scored.
    ``granularities`` restricts the work to a subset (phases early in
    the schedule never read the finer chains); other chains are present
    but empty.  The chains are computed side by side, or on one thread
    when a hop splits by rows (:func:`graph.stage_threads`), each hop into
    a buffer made on the calling thread before any chain starts: one per
    kept layer and chain, and two per thread for the others.
    """
    count = params.popularity.num_granularities
    if len(matrices) != count:
        raise ValueError(f"expected {count} matrices, got {len(matrices)}")
    chosen = set(range(count) if granularities is None else granularities)
    wanted = tuple(k for k in range(count) if k in chosen)
    depth = layers.depth
    selected = (layers.l_odd, layers.l_even)
    keep = {*selected, depth - 1} if retain_chain else set(selected)
    computed = depth - 1 if retain_chain else depth
    dim = params.embed_dim
    shape = (params.num_users + params.num_items, dim)
    kept = [l for l in range(1, computed + 1) if retain_chain and l in keep]
    factor = None
    if not retain_chain:
        factor = np.empty((shape[0], 2 * len(wanted) * dim))

    def chain_of(k, outputs, spare):
        # A hop writes into outputs[l] when the chain keeps layer l as it
        # is, and otherwise into the one of its thread's two spare buffers
        # that the layer it reads is not in.
        current = params.base_for(k)
        chain = [current]
        for l in range(1, computed + 1):
            current = spmm(matrices[k], current, outputs[l] if l in outputs else spare[l % 2])
            if l not in keep:
                chain.append(None)
            elif retain_chain:
                chain.append(current)
            else:
                start = (2 * wanted.index(k) + selected.index(l)) * dim
                block = factor[:, start:start + dim]
                block[...] = current
                chain.append(block)
        return chain + [None] * (depth - computed)

    built = side_by_side(
        (partial(chain_of, k, {l: np.empty(shape) for l in kept}) for k in wanted),
        lambda: (np.empty(shape), np.empty(shape)) if len(kept) < computed else (),
        stage_threads([matrices[k] for k in wanted], dim))
    built = dict(zip(wanted, built))
    chains = [built.get(k, [None] * (depth + 1)) for k in range(count)]
    return PropagationOutput(
        num_users=params.num_users,
        num_items=params.num_items,
        layers=layers,
        chains=chains,
        matrices=list(matrices),
        default_weights=params.popularity.granularity_weights,
        shared_base=params.shared_base,
        deferred=frozenset(wanted) if retain_chain else frozenset(),
        factor=factor,
        stacked_granularities=() if retain_chain else wanted,
    )


def weight_runs(out: PropagationOutput, weights, granularities) -> list[tuple[float, slice]]:
    """``(w, columns)`` per run of consecutive ``granularities`` of equal
    weight whose blocks are adjacent in the stacked factor, in order."""
    factor = out.factor
    if factor is None:
        raise RuntimeError(
            "only an output of propagate(retain_chain=False) can be scored: "
            "this one has no stacked factor"
        )
    order = out.stacked_granularities
    runs = []
    for k in granularities:
        if k not in order:
            raise RuntimeError(f"granularity {k} was not propagated")
        width = factor.shape[1] // len(order)
        start = order.index(k) * width
        if runs and runs[-1][0] == weights[k] and runs[-1][2] == start:
            runs[-1][2] = start + width
        else:
            runs.append([weights[k], start, start + width])
    return [(w, slice(start, stop)) for w, start, stop in runs]


def score_users(
    out: PropagationOutput, users, items=None, weights=None, granularities=None, *, buffers=None
):
    """Preference scores of ``users`` against ``items`` (default: every item).

    The score sums w_k * <e_u^{k,l}, e_i^{k,l}> over granularities k and
    the selected layers l.  It is taken as one GEMM of the stacked
    factor's user rows against its item rows per run of equal weights
    (:func:`weight_runs`; one run under equal weights), scaled once when
    w != 1.0 and added in run order.  That equals the term-by-term sum
    up to rounding.  The result's shape follows numpy indexing of
    ``users`` and ``items`` (a scalar for one user and one item).

    The first run's product is the result; each later one is written
    into one scratch buffer, scaled there and added.  ``buffers``, a
    float64 result array and a scratch one (or None: only several runs
    need it), are used instead of new ones.
    """
    if weights is None:
        weights = out.default_weights
    if granularities is None:
        granularities = range(out.num_granularities)
    runs = weight_runs(out, weights, granularities)
    result, scratch = (None, None) if buffers is None else buffers
    factor = out.factor
    m = out.num_users
    user_rows = factor[users]
    item_rows = factor[m:] if items is None else factor[m + np.asarray(items)]
    scores = None
    for w, columns in runs:
        u, v = user_rows[..., columns], item_rows[..., columns].T
        if scores is None:
            # an array even for one user and one item, so that *= scales it
            scores = term = np.asarray(np.matmul(u, v, out=result))
        else:
            if scratch is None:
                scratch = np.empty_like(scores)
            term = np.matmul(u, v, out=scratch)
        if w != 1.0:
            term *= w
        if term is scratch:
            scores += scratch
    return scores if scores is None or scores.ndim else scores[()]


def score_pair(out: PropagationOutput, u, i, weights=None, granularities=None) -> float:
    """Preference score: per granularity, the user/item inner products at
    the odd and even selected layers, weighted and summed."""
    if not 0 <= u < out.num_users:
        raise IndexError(f"user index {u} out of range")
    if not 0 <= i < out.num_items:
        raise IndexError(f"item index {i} out of range")
    return float(score_users(out, u, i, weights, granularities))


def score_all_items(out: PropagationOutput, u, weights=None, granularities=None) -> np.ndarray:
    """Vector of scores for user ``u`` against every item."""
    if not 0 <= u < out.num_users:
        raise IndexError(f"user index {u} out of range")
    return score_users(out, u, None, weights, granularities)


@dataclass(eq=False)
class Checkpoint:
    params: ModelParameters
    layers: SelectedLayers
    phase: int
    epoch: int


def save_checkpoint(path, params: ModelParameters, layers: SelectedLayers, phase, epoch):
    """Write header line + per-granularity tables as little-endian float64.

    A shared base table is written once per granularity so the file
    layout is independent of the sharing mode.
    """
    cfg = params.popularity
    header = (
        f"{CHECKPOINT_MAGIC} {params.num_users} {params.num_items} {params.embed_dim} "
        f"{cfg.max_granularity} {float(cfg.granularity_unit)!r} "
        f"{layers.l_odd} {layers.l_even} {phase} {epoch}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for k in range(cfg.num_granularities):
            fh.write(np.ascontiguousarray(params.base_for(k), dtype="<f8").tobytes())


def load_checkpoint(path, shared_base=False, granularity_weights=None) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint` (bit-exact)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 10 or header[0] != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad checkpoint header")
        try:
            m, n, embed_dim, max_k = (int(x) for x in header[1:5])
            unit = float(header[5])
            l_odd, l_even, phase, epoch = (int(x) for x in header[6:10])
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: bad header field ({exc})") from None
        cfg = PopularityConfig(
            granularity_unit=unit,
            max_granularity=max_k,
            granularity_weights=granularity_weights,
        )
        rows = m + n
        table_bytes = rows * embed_dim * 8
        tables = []
        for k in range(max_k + 1):
            raw = fh.read(table_bytes)
            if len(raw) != table_bytes:
                raise CheckpointFormatError(f"{path}: truncated table {k}")
            tables.append(np.frombuffer(raw, dtype="<f8").reshape(rows, embed_dim).copy())
        if fh.read(1):
            raise CheckpointFormatError(f"{path}: trailing bytes after last table")
    if shared_base and any(
        not np.array_equal(table.view(np.int64), tables[0].view(np.int64)) for table in tables[1:]
    ):
        raise CheckpointFormatError(
            f"{path}: shared_base requested, but the stored tables differ "
            "(the checkpoint holds one table per granularity)"
        )
    params = ModelParameters(
        num_users=m,
        num_items=n,
        embed_dim=embed_dim,
        popularity=cfg,
        base_embeddings=tables[:1] if shared_base else tables,
        shared_base=shared_base,
    )
    return Checkpoint(
        params=params,
        layers=SelectedLayers(l_odd=l_odd, l_even=l_even),
        phase=phase,
        epoch=epoch,
    )
